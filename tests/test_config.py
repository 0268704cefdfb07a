import math

import pytest

from garmwatch import BackgroundModel, ConfigError, PipelineConfig
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


@pytest.mark.parametrize("kw", NON_FINITE,
                         ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_non_finite_values_rejected(kw):
    with pytest.raises(ConfigError, match="must be finite"):
        PipelineConfig(**kw)
    with pytest.raises(ConfigError, match="must be finite"):
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
# snapshot round-trip

def test_to_dict_from_dict_round_trip():
    cfg = PipelineConfig.from_mapping(parse_flat_text(CONFIG_TEXT))
    again = PipelineConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_round_trip_with_defaults():
    cfg = PipelineConfig()
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown_field():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"mystery": 1})


def test_with_overrides():
    cfg = PipelineConfig().with_overrides(history_length=100, warmup_frames=10)
    assert cfg.history_length == 100
    assert cfg.warmup == 10
