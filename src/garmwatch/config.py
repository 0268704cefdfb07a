"""Pipeline configuration and the flat key = value file format.

Config files are plain text: one ``key = value`` per line, blank lines
skipped, ``#`` starting a comment.  Pipeline keys mirror the
PipelineConfig field names; color bands arrive as repeated
``band.<label>.<field>`` keys with fields hue (comma-separated lo:hi
degree intervals), sat_min and val_min.  When any band key is present the
configured table replaces the default one entirely.
PipelineConfig.to_mapping writes a config back out as these pairs.

min_area and gap_threshold default by resolution: 400 px^2 and 20 px at
944x576, scaled by the frame-area ratio (linearly for the area floor, by
square root for the linking distance).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields

from .colorseg import DEFAULT_BANDS, ColorBand
from .errors import ConfigError, ValidationError

REFERENCE_AREA = 944 * 576


def parse_flat_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into an ordered mapping."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source} line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"{source} line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def read_flat_file(path: str | os.PathLike) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_flat_text(f.read(), source=str(path))


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the detection pipeline, with working defaults."""

    history_length: int = 500
    match_threshold: float = 3.0
    background_fraction: float = 0.1
    max_components: int = 5
    var_init: float = 225.0
    var_min: float = 4.0
    var_max: float = 5000.0
    binarize_threshold: int = 40
    se_size: int = 5
    min_area: float | None = None
    gap_threshold: float | None = None
    containment_min: float = 0.5
    warmup_frames: int | None = None
    bands: tuple[ColorBand, ...] = DEFAULT_BANDS

    def __post_init__(self):
        # annotations are strings here: "int", "float | None", ...
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "bands" or (value is None and f.type.endswith("None")):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.type.startswith("int") and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value}")
        if self.history_length < 1:
            raise ConfigError(f"history_length must be >= 1, got {self.history_length}")
        if self.match_threshold <= 0:
            raise ConfigError(f"match_threshold must be > 0, got {self.match_threshold}")
        if not 0.0 < self.background_fraction < 1.0:
            raise ConfigError(
                f"background_fraction must be in (0, 1), got {self.background_fraction}")
        if self.max_components < 1:
            raise ConfigError(f"max_components must be >= 1, got {self.max_components}")
        if not 0.0 < self.var_min <= self.var_init <= self.var_max:
            raise ConfigError(f"need 0 < var_min <= var_init <= var_max, got "
                              f"{self.var_min}, {self.var_init}, {self.var_max}")
        if not 0 <= self.binarize_threshold <= 255:
            raise ConfigError(
                f"binarize_threshold must be in [0, 255], got {self.binarize_threshold}")
        if self.se_size < 3 or self.se_size % 2 == 0:
            raise ConfigError(f"se_size must be odd and >= 3, got {self.se_size}")
        if self.min_area is not None and self.min_area < 0:
            raise ConfigError(f"min_area must be >= 0, got {self.min_area}")
        if self.gap_threshold is not None and self.gap_threshold < 0:
            raise ConfigError(f"gap_threshold must be >= 0, got {self.gap_threshold}")
        if not 0.0 <= self.containment_min <= 1.0:
            raise ConfigError(
                f"containment_min must be in [0, 1], got {self.containment_min}")
        if self.warmup_frames is not None and self.warmup_frames < 0:
            raise ConfigError(f"warmup_frames must be >= 0, got {self.warmup_frames}")
        if not self.bands:
            raise ConfigError("at least one color band is required")

    @property
    def warmup(self) -> int:
        """Frames to model before any detection is emitted."""
        return self.history_length if self.warmup_frames is None else self.warmup_frames

    def min_area_for(self, width: int, height: int) -> float:
        if self.min_area is not None:
            return self.min_area
        return 400.0 * (width * height) / REFERENCE_AREA

    def gap_threshold_for(self, width: int, height: int) -> float:
        if self.gap_threshold is not None:
            return self.gap_threshold
        return 20.0 * math.sqrt((width * height) / REFERENCE_AREA)

    def to_mapping(self) -> dict[str, str]:
        """The flat-file key/value strings that from_mapping turns back into this config.

        None fields are left out; integers print as ``str(int(v))`` and
        reals as ``repr(float(v))``, so numpy scalars print as plain numbers.
        """
        out: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "bands":
                for b in value:
                    key = f"band.{b.label}."
                    out[key + "hue"] = ",".join(f"{float(lo)!r}:{float(hi)!r}"
                                                for lo, hi in b.hue_ranges)
                    out[key + "sat_min"] = repr(float(b.sat_min))
                    out[key + "val_min"] = repr(float(b.val_min))
            elif value is not None:
                out[f.name] = str(int(value)) if f.type.startswith("int") else repr(float(value))
        return out

    @classmethod
    def from_mapping(cls, pairs: dict[str, str]) -> "PipelineConfig":
        """Build a config from flat-file key/value strings."""
        band_fields: dict[str, dict[str, str]] = {}
        scalars: dict[str, str] = {}
        for key, value in pairs.items():
            if key.startswith("band."):
                parts = key.split(".")
                if len(parts) != 3 or not parts[1]:
                    raise ConfigError(f"bad band key {key!r}, "
                                      f"expected band.<label>.<field>")
                band_fields.setdefault(parts[1], {})[parts[2]] = value
            else:
                scalars[key] = value

        kwargs: dict = {}
        converters = {f.name: int if f.type.startswith("int") else float
                      for f in fields(cls) if f.name != "bands"}
        for key, value in scalars.items():
            if key not in converters:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                kwargs[key] = converters[key](value)
            except ValueError:
                raise ConfigError(f"{key}: bad value {value!r}") from None

        if band_fields:
            kwargs["bands"] = tuple(
                _band_from_fields(label, bf) for label, bf in band_fields.items())
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "PipelineConfig":
        return cls.from_mapping(read_flat_file(path))


def _band_from_fields(label: str, bf: dict[str, str]) -> ColorBand:
    if "hue" not in bf:
        raise ConfigError(f"band {label!r} is missing its 'hue' intervals")
    ranges = []
    for chunk in bf["hue"].split(","):
        lo, sep, hi = chunk.partition(":")
        if not sep:
            raise ConfigError(f"band {label!r}: hue interval {chunk!r} "
                              f"is not of the form lo:hi")
        try:
            ranges.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigError(f"band {label!r}: non-numeric hue interval {chunk!r}") from None
    kwargs = {}
    for key in ("sat_min", "val_min"):
        if key in bf:
            try:
                kwargs[key] = float(bf[key])
            except ValueError:
                raise ConfigError(f"band {label!r}: bad {key} {bf[key]!r}") from None
    extra = set(bf) - {"hue", "sat_min", "val_min"}
    if extra:
        raise ConfigError(f"band {label!r}: unknown field {sorted(extra)[0]!r}")
    try:
        return ColorBand(label, tuple(ranges), **kwargs)
    except ValidationError as e:
        raise ConfigError(str(e)) from None
