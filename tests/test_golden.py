"""Pinned end-to-end outputs: ``detect`` must reproduce them byte for byte.

Each directory under ``golden/`` holds a scene spec, a pipeline config
and the detections JSONL that ``synth`` then ``detect`` (with the person
sidecar) produced for them.  A change that only speeds up or restructures
the pipeline must leave every file identical.  A deliberate behaviour
change regenerates them with ``python tests/test_golden.py`` and says why.
"""

import sys
from pathlib import Path

import pytest

from garmwatch.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
EXPECTED = "detections.jsonl"


def render(scene: Path, work: Path) -> Path:
    assert main(["synth", "--scene", str(scene / "scene.txt"),
                 "--out-frames", str(work / "frames"), "--out-gt", str(work / "gt.jsonl"),
                 "--out-persons", str(work / "persons.jsonl")]) == 0
    return work


def detect(scene: Path, work: Path, persons: bool = True) -> bytes:
    out = work / ("det.jsonl" if persons else "det-nopersons.jsonl")
    args = ["detect", "--frames", str(work / "frames"),
            "--config", str(scene / "pipeline.cfg"), "--out", str(out)]
    if persons:
        args += ["--persons", str(work / "persons.jsonl")]
    assert main(args) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", SCENES)
def test_detections_match_golden(name, tmp_path):
    scene = GOLDEN / name
    for f in ("scene.txt", "pipeline.cfg", EXPECTED):
        assert (scene / f).stat().st_size > 0, f"{name}/{f} is empty"
    got = detect(scene, render(scene, tmp_path))
    assert got == (scene / EXPECTED).read_bytes()


def test_person_scene_exercises_the_person_filter(tmp_path):
    scene = GOLDEN / "person"
    work = render(scene, tmp_path)
    assert detect(scene, work, persons=False) != detect(scene, work)


def test_golden_set_is_complete():
    assert SCENES == ["clean", "noise", "person", "striped", "textured"]


if __name__ == "__main__":
    import tempfile

    for name in sys.argv[1:] or SCENES:
        with tempfile.TemporaryDirectory() as tmp:
            scene = GOLDEN / name
            (scene / EXPECTED).write_bytes(detect(scene, render(scene, Path(tmp))))
            print(f"wrote {scene / EXPECTED}")
