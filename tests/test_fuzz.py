"""Fuzzing of every reader that takes outside input.

Arbitrary bytes or text, and near-miss variants of each format, must give
either a result or a GarmwatchError/OSError -- never any other exception,
which the CLI would surface as a traceback.
"""

import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

from garmwatch import GarmwatchError, PipelineConfig, frameio, synth
from garmwatch.config import parse_flat_text

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

ALLOWED = (GarmwatchError, OSError)

# Header-ish tokens: small, zero, negative, huge and non-numeric.
tokens = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(
    ["0", "255", "300000", "100000000000", "1e400", "nan", "-", "#", "P6", "GWVS1", ""]))


def header(magic):
    return st.lists(tokens, max_size=6).map(lambda ts: " ".join([magic] + ts))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(st.one_of(st.binary(max_size=200),
                 st.tuples(header("P6"), st.sampled_from(["\n", " ", "\n# c\n"]),
                           st.binary(max_size=64))
                 .map(lambda t: (t[0] + t[1]).encode() + t[2])))
@example(b"P6 2 2 255\n" + bytes(12))
@example(b"P6 300000 300000 255\n")
def test_read_ppm(scratch, data):
    path = scratch / "frame.ppm"
    path.write_bytes(data)
    try:
        frame = frameio.read_ppm(path)
    except ALLOWED:
        return
    assert frame.pixels.shape[2] == 3


@FUZZ
@given(st.one_of(st.binary(max_size=200),
                 st.tuples(header("GWVS1"), st.binary(max_size=64))
                 .map(lambda t: (t[0] + "\n").encode() + t[1])))
@example(b"GWVS1 2 2 25 2\n" + bytes(15))
@example(b"GWVS1 300000 300000 1 1\n")
@example(b"GWVS1 100000000000 100000000000 1 1\n")
def test_read_raw_stream(data):
    try:
        frames = list(frameio.read_raw_stream(io.BytesIO(data)))
    except ALLOWED:
        return
    assert all(f.pixels.shape[2] == 3 for f in frames)


# JSON values a box or record field may hold, hostile ones included.
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=4), st.just(10 ** 400))
boxes = st.dictionaries(st.sampled_from(["x", "y", "w", "h", "color", "score"]), scalars)
records = st.dictionaries(st.sampled_from(["frame", "boxes", "persons"]),
                          st.one_of(scalars, st.lists(st.one_of(boxes, scalars), max_size=3)))
jsonl = st.one_of(st.text(max_size=200),
                  st.lists(records, max_size=4).map(
                      lambda rs: "".join(json.dumps(r) + "\n" for r in rs)))

BIG = "1" * 400


@FUZZ
@given(jsonl)
@example('{"frame": 0, "boxes": [{"x": 1e400, "y": 0, "w": 1, "h": 1}]}\n')
@example('{"frame": 0, "persons": [{"x": 1e400, "y": 0, "w": 1, "h": 1}]}\n')
@example('{"frame": 1e400, "boxes": []}\n')
@example('{"frame": 0, "boxes": null}\n')
@example('{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
         '"color": "red", "score": ' + BIG + '}]}\n')
def test_read_jsonl_records(scratch, text):
    path = scratch / "records.jsonl"
    path.write_text(text, encoding="utf-8")
    for reader in (frameio.read_annotations, frameio.read_detections,
                   frameio.read_person_boxes):
        try:
            reader(path)
        except ALLOWED:
            pass


CONFIG_KEYS = ["history_length", "match_threshold", "max_components", "var_max",
               "se_size", "min_area", "warmup_frames", "band.red.hue", "band.red.sat_min",
               "band..hue", "bogus"]
SCENE_KEYS = ["width", "height", "nframes", "background", "noise_sigma", "seed",
              "object.0.color", "object.0.size", "object.0.start", "object.0.velocity",
              "object.0.stripe_width", "person.p.size", "person.p.start", "object.x"]
values = st.one_of(tokens, st.sampled_from(["1 2 3", "2 2", "0:30,330:360", "10:", "texture",
                                            "inf", "-inf", "1" * 5000]))


def flat_text(keys):
    return st.one_of(st.text(max_size=200), st.dictionaries(st.sampled_from(keys), values).map(
        lambda d: "".join(f"{k} = {v}\n" for k, v in d.items())))


@FUZZ
@given(flat_text(CONFIG_KEYS))
@example("match_threshold = nan\n")
@example("max_components = 1e400\n")
def test_parse_config(text):
    try:
        PipelineConfig.from_mapping(parse_flat_text(text))
    except ALLOWED:
        pass


@FUZZ
@given(flat_text(SCENE_KEYS))
@example("width = 4\nheight = 4\nnframes = 1\nnoise_sigma = nan\n")
@example("width = 4\nheight = 4\nnframes = 1\nnoise_sigma = inf\n")
def test_parse_scene(text):
    try:
        synth.scene_from_mapping(parse_flat_text(text))
    except ALLOWED:
        pass
