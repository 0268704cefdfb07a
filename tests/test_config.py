import math
import string
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from garmwatch import BackgroundModel, ColorBand, ConfigError, PipelineConfig
from garmwatch.colorseg import DEFAULT_BANDS
from garmwatch.config import parse_flat_text, read_flat_file


# ---------------------------------------------------------------------------
# flat parser

def test_parse_basic():
    pairs = parse_flat_text("a = 1\nb=2\n\n# comment\nc = hello world # tail\n")
    assert pairs == {"a": "1", "b": "2", "c": "hello world"}


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat_text("a = 1\nbroken line\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_text("a = 1\na = 2\n")


def test_read_flat_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("history_length = 250\n")
    assert read_flat_file(path) == {"history_length": "250"}


# ---------------------------------------------------------------------------
# defaults and validation

def test_default_values():
    cfg = PipelineConfig()
    assert cfg.history_length == 500
    assert cfg.match_threshold == 3.0
    assert cfg.background_fraction == 0.1
    assert cfg.max_components == 5
    assert cfg.var_init == 225.0
    assert cfg.binarize_threshold == 40
    assert cfg.se_size == 5
    assert cfg.containment_min == 0.5
    assert cfg.bands == DEFAULT_BANDS
    assert cfg.warmup == 500  # defaults to history_length


def test_warmup_override():
    assert PipelineConfig(warmup_frames=100).warmup == 100
    assert PipelineConfig(history_length=60).warmup == 60


def test_resolution_scaled_defaults():
    cfg = PipelineConfig()
    assert cfg.min_area_for(944, 576) == 400.0
    assert cfg.gap_threshold_for(944, 576) == 20.0
    ratio = (320 * 240) / (944 * 576)
    assert cfg.min_area_for(320, 240) == pytest.approx(400.0 * ratio)
    assert cfg.gap_threshold_for(320, 240) == pytest.approx(20.0 * math.sqrt(ratio))
    # explicit values win
    cfg = PipelineConfig(min_area=50.0, gap_threshold=8.0)
    assert cfg.min_area_for(320, 240) == 50.0
    assert cfg.gap_threshold_for(320, 240) == 8.0


def test_validation_ranges():
    with pytest.raises(ConfigError):
        PipelineConfig(history_length=0)
    with pytest.raises(ConfigError):
        PipelineConfig(background_fraction=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(se_size=4)
    with pytest.raises(ConfigError):
        PipelineConfig(binarize_threshold=300)
    with pytest.raises(ConfigError):
        PipelineConfig(containment_min=-0.1)
    with pytest.raises(ConfigError):
        PipelineConfig(bands=())


NON_FINITE = [
    {"match_threshold": math.nan}, {"match_threshold": math.inf},
    {"match_threshold": -math.inf}, {"var_max": math.inf},
    {"var_init": math.inf, "var_max": math.inf}, {"var_min": math.nan},
    {"history_length": math.inf}, {"max_components": math.inf},
    {"background_fraction": math.nan}, {"se_size": math.nan},
    {"min_area": math.nan}, {"min_area": math.inf},
    {"gap_threshold": math.nan}, {"gap_threshold": math.inf},
    {"warmup_frames": math.inf},
]


BAD_VALUES = [(kw, "must be finite") for kw in NON_FINITE] + [
    ({"max_components": 2.5}, "must be an integer"),
    ({"se_size": 5.5}, "must be an integer"),
    ({"history_length": True}, "must be a number"),
    ({"history_length": None}, "must be a number"),
    ({"match_threshold": "3"}, "must be a number"),
]


@pytest.mark.parametrize("kw, match", BAD_VALUES, ids=[
    ",".join(f"{k}={v}" for k, v in kw.items()) for kw, _ in BAD_VALUES])
def test_non_finite_values_rejected(kw, match):
    # and values of the wrong type, each through every way a config is built
    with pytest.raises(ConfigError, match=match):
        PipelineConfig(**kw)
    with pytest.raises(ConfigError, match=match):
        replace(PipelineConfig(), **kw)
    with pytest.raises(ConfigError, match=match):
        BackgroundModel(2, 2, **kw)


# ---------------------------------------------------------------------------
# from flat mapping

CONFIG_TEXT = """
history_length = 250            # T
match_threshold = 2.5
background_fraction = 0.2
max_components = 4
var_init = 100
binarize_threshold = 30
se_size = 3
min_area = 120
gap_threshold = 10
containment_min = 0.6
warmup_frames = 50

band.red.hue = 0:10,350:360
band.red.sat_min = 0.4
band.red.val_min = 0.25
band.cyan.hue = 170:200
"""


def test_from_mapping_full():
    cfg = PipelineConfig.from_mapping(parse_flat_text(CONFIG_TEXT))
    assert cfg.history_length == 250
    assert cfg.match_threshold == 2.5
    assert cfg.background_fraction == 0.2
    assert cfg.max_components == 4
    assert cfg.var_init == 100.0
    assert cfg.binarize_threshold == 30
    assert cfg.se_size == 3
    assert cfg.min_area == 120.0
    assert cfg.gap_threshold == 10.0
    assert cfg.containment_min == 0.6
    assert cfg.warmup_frames == 50
    labels = [b.label for b in cfg.bands]
    assert labels == ["red", "cyan"]
    assert cfg.bands[0].hue_ranges == ((0.0, 10.0), (350.0, 360.0))
    assert cfg.bands[0].sat_min == 0.4
    assert cfg.bands[1].hue_ranges == ((170.0, 200.0),)
    assert cfg.bands[1].sat_min == 0.30  # band default


def test_band_keys_replace_default_table():
    cfg = PipelineConfig.from_mapping({"band.red.hue": "0:20"})
    assert len(cfg.bands) == 1


def test_no_band_keys_keeps_defaults():
    cfg = PipelineConfig.from_mapping({"se_size": "7"})
    assert cfg.bands == DEFAULT_BANDS


def test_from_mapping_errors():
    with pytest.raises(ConfigError, match="unknown"):
        PipelineConfig.from_mapping({"histroy_length": "10"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"history_length": "fast"})
    with pytest.raises(ConfigError, match="finite"):
        PipelineConfig.from_mapping({"match_threshold": "nan"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"band.red.hue": "0-20"})
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"band.red.sat_min": "0.5"})  # no hue
    with pytest.raises(ConfigError):
        PipelineConfig.from_mapping({"band.red.hue": "0:10", "band.red.glow": "1"})


def test_from_file(tmp_path):
    path = tmp_path / "pipe.cfg"
    path.write_text("history_length = 77\n")
    assert PipelineConfig.from_file(path).history_length == 77


# ---------------------------------------------------------------------------
# to_mapping: the inverse of from_mapping

def test_to_mapping_from_mapping_round_trip():
    cfg = PipelineConfig.from_mapping(parse_flat_text(CONFIG_TEXT))
    flat = cfg.to_mapping()
    assert PipelineConfig.from_mapping(flat) == cfg
    assert flat["history_length"] == "250"
    assert flat["var_init"] == "100.0"
    assert flat["band.red.hue"] == "0.0:10.0,350.0:360.0"
    assert flat["band.cyan.sat_min"] == "0.3"


def test_round_trip_with_defaults():
    cfg = PipelineConfig()
    flat = cfg.to_mapping()
    assert "min_area" not in flat and "warmup_frames" not in flat  # None is omitted
    assert PipelineConfig.from_mapping(flat) == cfg


# Characters a band label may use and still be a band.<label>.<field> key.
FLAT_KEY_ALPHABET = string.ascii_letters + string.digits + "_-"


def scalar(values, numpy_type):
    """Plain Python numbers or the same values as numpy scalars."""
    return st.one_of(values, values.map(numpy_type))


def reals(lo, hi, open_lo=False, open_hi=False):
    """Floats in [lo, hi] (integer ends, open as asked), int-valued floats
    and numpy float64 included."""
    values = st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi)
    first, last = lo + open_lo, hi - open_hi
    if first <= last:
        values |= st.integers(first, last).map(float)
    return scalar(values, np.float64)


@st.composite
def bands(draw):
    labels = draw(st.lists(st.text(FLAT_KEY_ALPHABET, min_size=1, max_size=6),
                           min_size=1, max_size=4, unique=True))
    table = []
    for label in labels:
        cuts = sorted(draw(st.lists(reals(0, 360), min_size=2, max_size=4, unique=True)))
        ranges = ((cuts[0], cuts[1]),) if len(cuts) < 4 else ((cuts[0], cuts[1]),
                                                             (cuts[2], cuts[3]))
        table.append(ColorBand(label, ranges, draw(reals(0, 1)), draw(reals(0, 1))))
    return tuple(table)


@st.composite
def configs(draw):
    var_min, var_init, var_max = sorted(
        draw(st.lists(reals(0, 10**6, open_lo=True), min_size=3, max_size=3)))
    return PipelineConfig(
        history_length=draw(scalar(st.integers(1, 10**6), np.int64)),
        match_threshold=draw(reals(0, 100, open_lo=True)),
        background_fraction=draw(reals(0, 1, open_lo=True, open_hi=True)),
        max_components=draw(scalar(st.integers(1, 8), np.int64)),
        var_init=var_init, var_min=var_min, var_max=var_max,
        binarize_threshold=draw(scalar(st.integers(0, 255), np.int64)),
        se_size=draw(scalar(st.integers(1, 20).map(lambda k: 2 * k + 1), np.int64)),
        min_area=draw(st.none() | reals(0, 10**6)),
        gap_threshold=draw(st.none() | reals(0, 1000)),
        containment_min=draw(reals(0, 1)),
        warmup_frames=draw(st.none() | scalar(st.integers(0, 10**6), np.int64)),
        bands=draw(bands()))


@settings(max_examples=200, deadline=None)
@given(configs())
def test_to_mapping_inverts_from_mapping(cfg):
    flat = cfg.to_mapping()
    assert all(isinstance(v, str) and "np." not in v for v in flat.values())
    assert PipelineConfig.from_mapping(flat) == cfg
    # and the pairs survive a trip through a config file
    text = "".join(f"{k} = {v}\n" for k, v in flat.items())
    assert PipelineConfig.from_mapping(parse_flat_text(text)) == cfg
