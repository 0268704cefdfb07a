"""End-to-end checks of the command line interface.

A tiny synthetic scene is rendered once per module, detected once, and the
individual tests assert on the files and exit codes.  The object is visible
for six frames, short enough that the background model never absorbs it at
the configured history length, so detections match ground truth exactly.
"""

import gc
import json
import os
import tracemalloc

import pytest

from garmwatch import PipelineConfig, SceneObject, ScenePerson, SceneSpec, generate_frames
from garmwatch.cli import main, run
from garmwatch.frameio import (frame_filename, read_detections, read_frame_sequence,
                               write_frame_sequence, write_person_boxes, write_raw_stream)

SCENE_TEXT = """\
# one red rectangle, visible for six frames after the model settles
width = 64
height = 48
nframes = 24
background = 96 96 96
seed = 3

object.0.color = 220 30 30
object.0.size = 12 10
object.0.start = 20 8
object.0.appear = 14
object.0.disappear = 20
"""

CONFIG_TEXT = """\
history_length = 60
warmup_frames = 10
"""

STRICT_CONFIG_TEXT = CONFIG_TEXT + "min_area = 1000\n"

DETECTION_FRAMES = list(range(14, 20))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "scene.txt").write_text(SCENE_TEXT)
    (root / "pipeline.cfg").write_text(CONFIG_TEXT)
    (root / "strict.cfg").write_text(STRICT_CONFIG_TEXT)
    assert main(["synth", "--scene", str(root / "scene.txt"),
                 "--out-frames", str(root / "frames"),
                 "--out-gt", str(root / "gt.jsonl")]) == 0
    assert main(["detect", "--frames", str(root / "frames"),
                 "--config", str(root / "pipeline.cfg"),
                 "--out", str(root / "det.jsonl")]) == 0
    return root


def test_synth_writes_sequence(workspace):
    names = sorted(p.name for p in (workspace / "frames").iterdir())
    assert names == [frame_filename(i) for i in range(24)]
    lines = (workspace / "gt.jsonl").read_text().splitlines()
    assert len(lines) == 24
    boxed = [json.loads(line) for line in lines if json.loads(line)["boxes"]]
    assert [rec["frame"] for rec in boxed] == DETECTION_FRAMES
    assert boxed[0]["boxes"] == [{"x": 20, "y": 8, "w": 12, "h": 10}]


def test_synth_rerun_is_byte_identical(workspace, tmp_path):
    assert main(["synth", "--scene", str(workspace / "scene.txt"),
                 "--out-frames", str(tmp_path / "frames"),
                 "--out-gt", str(tmp_path / "gt.jsonl")]) == 0
    for i in range(24):
        name = frame_filename(i)
        assert ((tmp_path / "frames" / name).read_bytes()
                == (workspace / "frames" / name).read_bytes())
    assert ((tmp_path / "gt.jsonl").read_bytes()
            == (workspace / "gt.jsonl").read_bytes())


def test_detect_finds_the_object(workspace):
    detections = read_detections(workspace / "det.jsonl")
    assert [d.frame_index for d in detections] == DETECTION_FRAMES
    for det in detections:
        assert (det.box.x, det.box.y, det.box.w, det.box.h) == (20, 8, 12, 10)
        assert det.color == "red"
        assert 0.0 < det.score <= 1.0


def test_detect_manifest_round_trips(workspace, tmp_path):
    with open(workspace / "det.jsonl.manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["frames_processed"] == 24
    assert manifest["inputs"]["frames"] == str(workspace / "frames")
    assert manifest["outputs"]["detections"] == str(workspace / "det.jsonl")
    assert manifest["duration_seconds"] >= 0.0
    rebuilt = PipelineConfig.from_mapping(manifest["config"])
    assert rebuilt == PipelineConfig.from_file(workspace / "pipeline.cfg")
    # the recorded config, written back out as a config file, reproduces the run
    recorded = tmp_path / "recorded.cfg"
    recorded.write_text("".join(f"{k} = {v}\n" for k, v in manifest["config"].items()))
    out = tmp_path / "det.jsonl"
    assert main(["detect", "--frames", str(workspace / "frames"),
                 "--config", str(recorded), "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "det.jsonl").read_bytes()


def test_detect_rerun_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "again.jsonl"
    assert main(["detect", "--frames", str(workspace / "frames"),
                 "--config", str(workspace / "pipeline.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "det.jsonl").read_bytes()


def test_detect_overlay_frames(workspace, tmp_path):
    overlay = tmp_path / "overlay"
    assert main(["detect", "--frames", str(workspace / "frames"),
                 "--config", str(workspace / "pipeline.cfg"),
                 "--out", str(tmp_path / "det.jsonl"),
                 "--overlay", str(overlay)]) == 0
    names = sorted(p.name for p in overlay.iterdir())
    assert names == [frame_filename(i) for i in range(24)]
    # nothing detected before warmup ends, so that frame passes through as is
    untouched = frame_filename(0)
    assert ((overlay / untouched).read_bytes()
            == (workspace / "frames" / untouched).read_bytes())
    boxed = frame_filename(14)
    assert ((overlay / boxed).read_bytes()
            != (workspace / "frames" / boxed).read_bytes())


def test_detect_reads_raw_stream(workspace, tmp_path):
    stream = tmp_path / "scene.gwvs"
    write_raw_stream(read_frame_sequence(workspace / "frames"), stream)
    out = tmp_path / "det.jsonl"
    assert main(["detect", "--frames", str(stream),
                 "--config", str(workspace / "pipeline.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "det.jsonl").read_bytes()


def test_eval_prints_summary(workspace, capsys):
    assert main(["eval", "--det", str(workspace / "det.jsonl"),
                 "--gt", str(workspace / "gt.jsonl")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tp,fp,fn,precision,recall,mean_iou"
    assert out[1] == "6,0,0,1.000000000,1.000000000,1.000000000"


def test_eval_honors_tau(workspace, capsys):
    assert main(["eval", "--det", str(workspace / "det.jsonl"),
                 "--gt", str(workspace / "gt.jsonl"), "--tau", "0.9"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("6,0,0,")


def test_curve_defaults_to_stdout(workspace, capsys):
    assert main(["curve", "--det", str(workspace / "det.jsonl"),
                 "--gt", str(workspace / "gt.jsonl")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau,precision,recall"
    assert len(lines) == 1 + 19
    assert lines[1] == "0.05,1.000000000,1.000000000"
    assert lines[-1] == "0.95,1.000000000,1.000000000"


def test_curve_custom_sweep_to_file(workspace, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--det", str(workspace / "det.jsonl"),
                 "--gt", str(workspace / "gt.jsonl"),
                 "--taus", "0.2:0.8:0.2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [row.split(",")[0] for row in lines] == ["tau", "0.2", "0.4", "0.6", "0.8"]


def test_missing_frames_exit_1(workspace, tmp_path, capsys):
    rc = main(["detect", "--frames", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "det.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_truncated_stream_exit_1(workspace, tmp_path, capsys):
    stream = tmp_path / "cut.gwvs"
    write_raw_stream(read_frame_sequence(workspace / "frames"), stream)
    stream.write_bytes(stream.read_bytes()[:-10])
    rc = main(["detect", "--frames", str(stream),
               "--out", str(tmp_path / "det.jsonl")])
    assert rc == 1
    assert "truncated" in capsys.readouterr().err


def test_failed_detect_keeps_previous_outputs(workspace, tmp_path, capsys):
    out = tmp_path / "det.jsonl"
    manifest = tmp_path / "det.jsonl.manifest.json"
    assert main(["detect", "--frames", str(workspace / "frames"),
                 "--config", str(workspace / "pipeline.cfg"), "--out", str(out)]) == 0
    before = out.read_bytes(), manifest.read_bytes()
    stream = tmp_path / "cut.gwvs"
    write_raw_stream(read_frame_sequence(workspace / "frames"), stream)
    stream.write_bytes(stream.read_bytes()[:-10])  # fails on the last frame
    assert main(["detect", "--frames", str(stream),
                 "--config", str(workspace / "pipeline.cfg"), "--out", str(out)]) == 1
    assert "truncated" in capsys.readouterr().err
    assert (out.read_bytes(), manifest.read_bytes()) == before
    assert not (tmp_path / "det.jsonl.part").exists()


def test_detect_memory_flat_in_sidecar_length(tmp_path, monkeypatch):
    # The update writes into buffers allocated with the model, and one
    # strip thread keeps its few other temporaries, and so the peak, the
    # same from run to run; a GWVS1 stream is read a frame at a time,
    # and a PPM directory is listed without keeping its names.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    # the model's state stops growing within history_length frames
    (tmp_path / "pipeline.cfg").write_text("history_length = 20\nwarmup_frames = 5\n")

    def detect_peak(nframes, suffix, write_frames):
        spec = SceneSpec(64, 48, nframes, seed=1,
                         objects=[SceneObject((220, 30, 30), (8, 8), (10, 10))],
                         persons=[ScenePerson((12, 12), (8, 8))])
        rows = list(generate_frames(spec))
        frames, persons = tmp_path / f"{nframes}{suffix}", tmp_path / f"{nframes}.jsonl"
        write_frames([frame for frame, _, _ in rows], frames)
        write_person_boxes([boxes for _, _, boxes in rows], persons)
        del rows
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["detect", "--frames", str(frames), "--persons", str(persons),
                         "--config", str(tmp_path / "pipeline.cfg"),
                         "--out", str(tmp_path / "det.jsonl")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for frames in ((".gwvs", write_raw_stream), (".ppm.d", write_frame_sequence)):
        detect_peak(5, *frames)  # first-call caches
        short, long = detect_peak(30, *frames), detect_peak(240, *frames)
        assert abs(long - short) < 64 * 48 * 3, frames[0]


BIG_SCORE = "1" * 400


@pytest.mark.parametrize("name, text", [
    ("persons.jsonl", '{"frame": 0, "persons": [{"x": 1e400, "y": 0, "w": 1, "h": 1}]}'),
    ("huge.gwvs", "GWVS1 300000 300000 1 1"),
    ("huge.gwvs", "GWVS1 100000000000 100000000000 1 1"),
    ("det.jsonl", '{"frame": 1e400, "boxes": []}'),
    ("det.jsonl", '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                  '"color": "red", "score": ' + "1" * 400 + '}]}'),
    ("det.jsonl", '{"frame": true, "boxes": [{"x": "1", "y": 1.9, "w": true, "h": 2, '
                  '"color": 7, "score": "0.5"}]}'),
    ("det.jsonl", '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                  '"color": 7, "score": 0.5}]}'),
    ("det.jsonl", '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                  '"color": "red", "score": true}]}'),
    ("det.jsonl", '{"frame": ' + "1" * 5000 + ', "boxes": []}'),
    ("persons.jsonl", "".join(f'{{"frame": {i}, "persons": []}}\n' for i in range(30))
     + '{"frame": 30, "persons": [{"x": -1, "y": 0, "w": 1, "h": 1}]}'),
], ids=["persons-x-1e400", "gwvs1-300000", "gwvs1-1e11", "frame-1e400", "score-400-digits",
        "all-coerced", "color-number", "score-true", "frame-5000-digits",
        "persons-bad-past-the-end"])
def test_malformed_input_exit_1(workspace, tmp_path, capsys, name, text):
    bad = tmp_path / name
    bad.write_text(text + "\n")
    frames, out = str(workspace / "frames"), str(tmp_path / "out.jsonl")
    argv = {"persons.jsonl": ["detect", "--frames", frames, "--persons", str(bad), "--out", out],
            "huge.gwvs": ["detect", "--frames", str(bad), "--out", out],
            "det.jsonl": ["eval", "--det", str(bad), "--gt", str(workspace / "gt.jsonl")]}
    assert main(argv[name]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tau", ["1.5", "nan", "-3"])
def test_eval_bad_tau_without_boxes_exit_1(tmp_path, capsys, tau):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--det", str(empty), "--gt", str(empty), "--tau", tau]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_eval_input_exit_1(workspace, tmp_path, capsys):
    rc = main(["eval", "--det", str(tmp_path / "nope.jsonl"),
               "--gt", str(workspace / "gt.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_value_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("history_length = 0\n")
    rc = main(["detect", "--frames", str(workspace / "frames"),
               "--config", str(bad), "--out", str(tmp_path / "det.jsonl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["match_threshold = nan", "var_max = inf",
                                  "max_components = 1000000000000000"])
def test_unusable_config_value_exit_2(workspace, tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG_TEXT + line + "\n")
    rc = main(["detect", "--frames", str(workspace / "frames"),
               "--config", str(bad), "--out", str(tmp_path / "det.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_integer_past_float_range_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("history_length = 1" + "0" * 400 + "\n")
    rc = main(["detect", "--frames", str(workspace / "frames"),
               "--config", str(bad), "--out", str(tmp_path / "det.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "history_length must be finite" in err


def test_unknown_config_key_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    rc = main(["detect", "--frames", str(workspace / "frames"),
               "--config", str(bad), "--out", str(tmp_path / "det.jsonl")])
    assert rc == 2


def test_bad_scene_exit_1(tmp_path, capsys):
    bad = tmp_path / "scene.txt"
    bad.write_text("height = 48\nnframes = 4\n")
    rc = main(["synth", "--scene", str(bad),
               "--out-frames", str(tmp_path / "frames"),
               "--out-gt", str(tmp_path / "gt.jsonl")])
    assert rc == 1
    assert "width" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["object.0.stripe_width = 0", "object.0.stripe_color = 0 300 0",
                                  "background = -1 0 0", "seed = -1",
                                  # one frame of 1.4e13 bytes: refused before any allocation
                                  "width = 100000000000"])
def test_unrenderable_scene_exit_1(tmp_path, capsys, line):
    key = line.split("=")[0]
    scene = tmp_path / "scene.txt"
    scene.write_text("".join(row for row in SCENE_TEXT.splitlines(keepends=True)
                             if not row.startswith(key)) + line + "\n")
    rc = main(["synth", "--scene", str(scene),
               "--out-frames", str(tmp_path / "frames"),
               "--out-gt", str(tmp_path / "gt.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "frames").exists()


@pytest.mark.parametrize("taus", ["0.5", "nan:1:0.1", "0:inf:0.1", "0.1:0.9:nan", "0:1:1e-12"])
def test_bad_taus_exit_1(workspace, capsys, taus):
    rc = main(["curve", "--det", str(workspace / "det.jsonl"),
               "--gt", str(workspace / "gt.jsonl"), "--taus", taus])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --taus ") and err.count("\n") == 1


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_run_wrapper_exits_with_status(workspace, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["garmwatch", "eval",
                                     "--det", str(workspace / "det.jsonl"),
                                     "--gt", str(workspace / "gt.jsonl")])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("6,0,0,")
