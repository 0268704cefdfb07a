"""Fuzzing of every reader that takes outside input, and of the numeric
fields of records built in Python.

Arbitrary bytes or text, near-miss variants of each format, and odd values
in a numeric field must give either a result or a GarmwatchError/OSError --
never any other exception, which the CLI would surface as a traceback.
"""

from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
import io
from itertools import islice
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from garmwatch import (DEFAULT_BANDS, Annotation, BackgroundModel, BoundingBox, ColorBand,
                       ConfigError, Detection, Frame, GarmwatchError, PersonBoxes, PipelineConfig,
                       SceneError, SceneObject, ScenePerson, SceneSpec, ShapeError,
                       ValidationError, apply_mask, close, evaluate, frameio, generate_frames,
                       masked_to_gray, match_frame, pr_curve, synth, to_detections)
from garmwatch.colorseg import band_masks
from garmwatch.config import parse_flat_text
from garmwatch.regions import binarize, closed_regions

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


# ---------------------------------------------------------------------------
# Numeric fields of records built in Python

odd_values = st.one_of(
    st.integers(-2, 300), st.floats(-2, 400), st.none(), st.booleans(),
    st.sampled_from([10**400, -10**400, float("nan"), float("inf"), float("-inf"), "3", b"3",
                     [1, 2], [1, 2, 3], {"a": 1}, np.True_, np.array(2.0), np.array(3),
                     Fraction(1, 3), 10**17 + 1]),
    st.floats(-2, 400).map(np.float64), st.integers(-2, 300).map(np.int64),
    st.floats(-2, 400, width=32).map(np.float32), st.integers(-2, 300).map(np.int32))


def set_field(record, name, value):
    """record with field name set to value; "name[i]" sets entry i of a tuple field."""
    if name.endswith("]"):
        name, i = name[:-3], int(name[-2])
        old = getattr(record, name)
        value = old[:i] + (value,) + old[i + 1:]
    return replace(record, **{name: value})


SCENE = SceneSpec(6, 6, 2, objects=[SceneObject((200, 0, 0), (2, 2), (0, 0),
                                                stripe_color=(0, 0, 200))],
                  persons=[ScenePerson((1, 1), (3, 3))])


def scene_with(part, name, value):
    if part == "spec":
        spec = set_field(SCENE, name, value)
    else:
        spec = replace(SCENE, **{part: [set_field(getattr(SCENE, part)[0], name, value)]})
    return list(islice(generate_frames(spec), 3))  # nframes may be 10**17 + 1


BOX = dict(x=0, y=0, w=1, h=1)
DETECTION = dict(frame_index=0, box=BoundingBox(0, 0, 1, 1), color="red", score=0.5)
TRAJECTORY = ["size", "size[0]", "size[1]", "start[0]", "start[1]", "velocity",
              "velocity[0]", "velocity[1]", "appear", "disappear"]
BUILDERS = (
    [(f.name, lambda v, n=f.name: PipelineConfig(**{n: v}))
     for f in fields(PipelineConfig) if f.name != "bands"]
    + [("hue lo", lambda v: ColorBand("r", ((v, 10.0),))),
       ("hue hi", lambda v: ColorBand("r", ((0.0, v),))),
       ("sat_min", lambda v: ColorBand("r", ((0.0, 10.0),), sat_min=v)),
       ("val_min", lambda v: ColorBand("r", ((0.0, 10.0),), val_min=v)),
       ("frame index", lambda v: Frame(v, np.zeros((1, 1, 3), np.uint8)))]
    + [(f"box {n}", lambda v, n=n: BoundingBox(**{**BOX, n: v})) for n in BOX]
    + [(f"detection {n}", lambda v, n=n: Detection(**{**DETECTION, n: v})) for n in DETECTION]
    + [(f"{cls.__name__} {n}", build) for cls in (Annotation, PersonBoxes) for n, build in [
        ("frame_index", lambda v, cls=cls: cls(v, [])),
        ("boxes", lambda v, cls=cls: cls(0, v)),
        ("boxes[0]", lambda v, cls=cls: cls(0, [v]))]]
    + [(f"{part} {n}", lambda v, part=part, n=n: scene_with(part, n, v))
       for part, names in [
           ("spec", ["width", "height", "nframes", "noise_sigma", "seed", "background",
                     "background[0]", "background[2]"]),
           ("objects", TRAJECTORY + ["color", "color[0]", "color[2]", "stripe_color[1]",
                                     "stripe_width"]),
           ("persons", TRAJECTORY)]
       for n in names])


def named(name):
    return next(b for b in BUILDERS if b[0] == name)


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(BUILDERS), odd_values)
@example(named("min_area"), 10**17 + 1)
@example(named("box x"), np.int64(1))
@example(named("detection frame_index"), np.int64(1))
@example(named("detection score"), np.float32(0.5))
def test_numeric_fields_reject_or_build(builder, value):
    _, build = builder
    try:
        built = build(value)
    except GarmwatchError:
        return
    assert_plain(built)
    if isinstance(built, (PipelineConfig, ColorBand, BoundingBox, Detection)):
        hash(built)
    if isinstance(built, PipelineConfig):
        assert PipelineConfig.from_mapping(built.to_mapping()) == built
    # each record type goes through its JSONL writer
    writes = {Detection: lambda r: frameio.write_detections([r], io.StringIO()),
              Annotation: lambda r: frameio.write_annotations([r], io.StringIO()),
              PersonBoxes: lambda r: frameio.write_person_boxes([r], io.StringIO()),
              BoundingBox: lambda r: frameio.write_annotations([Annotation(0, [r])],
                                                               io.StringIO())}
    if type(built) in writes:
        writes[type(built)](built)


def test_validated_scene_holds_plain_numbers():
    i64 = np.int64
    spec = SceneSpec(i64(8), i64(8), i64(3), background=(i64(1), i64(2), i64(3)),
                     noise_sigma=np.float32(0.5), seed=i64(4),
                     objects=[SceneObject((i64(200), 0, 0), (i64(1), 1), (0, i64(0)),
                                          velocity=(i64(1), 0), appear=i64(1),
                                          disappear=i64(3), stripe_color=(0, 0, i64(9)),
                                          stripe_width=i64(2))],
                     persons=[ScenePerson((i64(2), 2), (i64(3), 3), appear=i64(0))])
    checked = synth._validate(spec)
    assert checked == spec
    assert_plain(checked)


def assert_plain(value):
    """Every number stored in a built record is a plain int or float."""
    if is_dataclass(value):
        for f in fields(value):
            assert_plain(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            assert_plain(v)
    elif not isinstance(value, (str, np.ndarray, type(None))):
        assert type(value) in (int, float), value


# Each rule that has one owner, at every entry point that checks it: a bad
# value of each kind ends in that entry point's GarmwatchError subclass, never
# in a TypeError from the arithmetic.  Kinds that do not apply are left out
# (a tau has no integer form); "range" is out of the rule's range, which for
# the grid sizes is past physical memory.
FRAME = Frame(0, np.zeros((3, 4, 3), np.uint8))
MASK = np.zeros((3, 4), bool)
RAGGED = [[1, 0, 1, 0], [1, 0, 1, 0], [1]]
RULES = {
    "config-se_size": (lambda v: PipelineConfig(se_size=v), ConfigError,
                       {"str": "5", "none": None, "float": 5.0, "nan": math.nan, "range": 4}),
    "close": (lambda v: close(MASK, v), ValidationError,
              {"str": "5", "none": None, "float": 5.0, "nan": math.nan, "range": 1}),
    "closed_regions": (lambda v: closed_regions(MASK, v), ValidationError,
                       {"str": "5", "none": None, "float": 5.0, "nan": math.nan, "range": 4}),
    "match_frame": (lambda v: match_frame([], [], v), ValidationError,
                    {"str": "0.5", "none": None, "nan": math.nan, "range": 1.0}),
    "evaluate": (lambda v: evaluate([], [], v), ValidationError,
                 {"str": "0.5", "none": None, "nan": math.nan, "range": 0.0}),
    "pr_curve": (lambda v: pr_curve([], [], [v]), ValidationError,
                 {"str": "0.5", "none": None, "nan": math.nan, "range": 1.5}),
    "to_detections": (lambda v: to_detections([], 0, v), ValidationError,
                      {"str": "9", "none": None, "float": 9.0, "nan": math.nan, "range": 0}),
    "band_masks-threshold": (lambda v: band_masks(FRAME, MASK, DEFAULT_BANDS, v), ValidationError,
                             {"str": "4", "none": None, "float": 4.5, "nan": math.nan,
                              "range": 256, "negative": -1}),
    "binarize": (lambda v: binarize(MASK, v), ValidationError,
                 {"str": "4", "none": None, "float": 4.5, "nan": math.nan, "range": 256,
                  "negative": -1}),
    "apply_mask": (lambda v: apply_mask(FRAME, v), ShapeError,
                   {"str": "mask", "none": None, "float": 1.0, "nan": math.nan,
                    "range": MASK.T, "ragged": RAGGED}),
    "band_masks": (lambda v: band_masks(FRAME, v, DEFAULT_BANDS, 40), ShapeError,
                   {"str": "mask", "none": None, "float": 1.0, "nan": math.nan,
                    "range": MASK[:2], "ragged": RAGGED}),
    "masked_to_gray": (lambda v: masked_to_gray(FRAME, v), ShapeError,
                       {"str": "mask", "none": None, "float": 1.0, "nan": math.nan,
                        "range": MASK[None], "ragged": RAGGED}),
    "model-memory": (lambda v: BackgroundModel(v, 4), ConfigError,
                     {"str": "4", "none": None, "float": 4.0, "nan": math.nan,
                      "range": 2**40}),
    "scene-memory": (lambda v: generate_frames(SceneSpec(v, 4, 1)), SceneError,
                     {"str": "4", "none": None, "float": 4.0, "nan": math.nan,
                      "range": 2**40}),
}


@pytest.mark.parametrize("call, error, value", [
    pytest.param(call, error, value, id=f"{entry}-{kind}")
    for entry, (call, error, values) in RULES.items() for kind, value in values.items()])
def test_rules_reject_each_kind_of_bad_value(call, error, value):
    with pytest.raises(error):
        call(value)
