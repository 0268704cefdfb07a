"""Pipeline configuration and the flat key = value file format.

Config files are plain text: one ``key = value`` per line, blank lines
skipped, ``#`` starting a comment.  The same format holds pipeline
configs and synth scene specs, and both are read by two helpers here:
split_keys separates top-level keys from ``<group>.<name>.<field>`` keys,
and parse_fields turns a dataclass's field strings into values by each
field's annotation, rejecting unknown keys and missing required fields.

Pipeline keys are the PipelineConfig field names; color bands arrive as
repeated ``band.<label>.<field>`` keys with fields hue (comma-separated
lo:hi degree intervals), sat_min and val_min.  When any band key is
present the configured table replaces the default one entirely.
PipelineConfig.to_mapping writes a config back out as these pairs.

min_area and gap_threshold default by resolution: 400 px^2 and 20 px at
944x576, scaled by the frame-area ratio (linearly for the area floor, by
square root for the linking distance).
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields

from .colorseg import DEFAULT_BANDS, LUMA_RANGE, ColorBand
from .errors import ConfigError, ValidationError, check_fields, check_number

REFERENCE_AREA = 944 * 576


def check_memory(need: int, what: str, error: type[Exception]) -> None:
    """Raise error, naming what, unless need bytes fit in physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise error(f"{what} needs more than the {memory / 2**30:.1f} GiB of physical memory")


def check_se_size(se_size, error: type[Exception] = ValidationError) -> int:
    """se_size as an int, or error unless it is an odd integer >= 3."""
    se_size = check_number(se_size, "se_size", error, integer=True, lo=3)
    if se_size % 2 == 0:
        raise error(f"se_size must be odd, got {se_size}")
    return se_size


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


def split_keys(pairs: dict[str, str], groups: tuple[str, ...],
               error: type[Exception]) -> tuple[dict[str, str],
                                                 dict[tuple[str, str], dict[str, str]]]:
    """Split flat pairs into top-level keys and ``<group>.<name>.<field>`` keys.

    Returns the top-level pairs, and the grouped ones as ``{field: value}``
    per ``(group, name)`` in first-seen order.  Any other key raises error.
    """
    top: dict[str, str] = {}
    grouped: dict[tuple[str, str], dict[str, str]] = {}
    for key, value in pairs.items():
        parts = key.split(".")
        if len(parts) == 1:
            top[key] = value
        elif len(parts) == 3 and parts[0] in groups:
            grouped.setdefault((parts[0], parts[1]), {})[parts[2]] = value
        else:
            raise error(f"bad key {key!r}, expected <field> or "
                        + " or ".join(f"{g}.<name>.<field>" for g in groups))
    return top, grouped


def _ints(n: int):
    def parse(text: str) -> tuple[int, ...]:
        values = tuple(int(part) for part in text.split())
        if len(values) != n:
            raise ValueError(text)
        return values
    return parse


# Value parsers by field annotation; annotations are strings in this package.
PARSERS = {"int": int, "float": float,
           "tuple[int, int]": _ints(2), "tuple[int, int, int]": _ints(3)}


def parse_fields(cls, values: dict[str, str], error: type[Exception], where: str,
                 parsers: dict = PARSERS, given: tuple[str, ...] = ()) -> dict:
    """Keyword arguments for dataclass cls from flat field strings.

    Each string is parsed by ``parsers[annotation]`` of its field, with a
    ``T | None`` annotation parsed as ``T``.  Fields named in given are
    supplied by the caller and are not keys.  An unknown key, a value that
    does not parse, or a missing field without a default raises error,
    naming where.
    """
    known = {f.name: f for f in fields(cls) if f.name not in given}
    kwargs = {}
    for name, text in values.items():
        if name not in known:
            raise error(f"{where}: unknown field {name!r}")
        kind = known[name].type.removesuffix(" | None")
        try:
            kwargs[name] = parsers[kind](text)
        except ValueError:
            raise error(f"{where}: {name}: expected {kind}, got {text!r}") from None
    for name, f in known.items():
        if name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{where}: missing field {name!r}")
    return kwargs


# (lo, hi) of the PipelineConfig fields with closed ranges; None is unbounded
CLOSED_RANGES = {"history_length": (1, None), "max_components": (1, None),
                 "binarize_threshold": LUMA_RANGE, "min_area": (0, None),
                 "gap_threshold": (0, None), "containment_min": (0, 1),
                 "warmup_frames": (0, None)}


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the detection pipeline, with working defaults that the
    stage functions share; each number field is stored as checked."""

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
        for name, value in check_fields(self, CLOSED_RANGES, ConfigError).items():
            object.__setattr__(self, name, value)
        check_se_size(self.se_size, ConfigError)
        if self.match_threshold <= 0:
            raise ConfigError(f"match_threshold must be > 0, got {self.match_threshold}")
        if not 0.0 < self.background_fraction < 1.0:
            raise ConfigError(
                f"background_fraction must be in (0, 1), got {self.background_fraction}")
        if not 0.0 < self.var_min <= self.var_init <= self.var_max:
            raise ConfigError(f"need 0 < var_min <= var_init <= var_max, got "
                              f"{self.var_min}, {self.var_init}, {self.var_max}")
        if not isinstance(self.bands, tuple):
            raise ConfigError(f"bands must be a tuple of ColorBand, got {self.bands!r}")
        if not self.bands:
            raise ConfigError("at least one color band is required")
        for band in self.bands:
            if not isinstance(band, ColorBand):
                raise ConfigError(f"bands must be ColorBand entries, got {band!r}")
            if band.label.splitlines() != [band.label] or any(c in band.label for c in ".=#"):
                raise ConfigError(f"band label {band.label!r} holds '.', '=', '#' or a line break")
        if len({band.label for band in self.bands}) < len(self.bands):
            raise ConfigError("band labels must be distinct")

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
        """The flat-file key/value strings that from_mapping turns back into
        this config; None fields are left out."""
        out: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "bands":
                for b in value:
                    key = f"band.{b.label}."
                    out[key + "hue"] = ",".join(f"{lo!r}:{hi!r}" for lo, hi in b.hue_ranges)
                    out[key + "sat_min"] = repr(b.sat_min)
                    out[key + "val_min"] = repr(b.val_min)
            elif value is not None:
                out[f.name] = repr(value)
        return out

    @classmethod
    def from_mapping(cls, pairs: dict[str, str]) -> "PipelineConfig":
        """Build a config from flat-file key/value strings."""
        top, bands = split_keys(pairs, ("band",), ConfigError)
        kwargs = parse_fields(cls, top, ConfigError, "config", given=("bands",))
        if bands:
            kwargs["bands"] = tuple(_band_from_fields(label, bf)
                                    for (_, label), bf in bands.items())
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "PipelineConfig":
        return cls.from_mapping(read_flat_file(path))


def _band_from_fields(label: str, bf: dict[str, str]) -> ColorBand:
    where = f"band {label!r}"
    if "hue" not in bf:
        raise ConfigError(f"{where}: missing field 'hue'")
    hue = bf.pop("hue")
    kwargs = parse_fields(ColorBand, bf, ConfigError, where, given=("label", "hue_ranges"))
    try:
        # the unpacking raises ValueError on an interval without exactly one ':'
        ranges = tuple((float(lo), float(hi))
                       for lo, hi in (chunk.split(":") for chunk in hue.split(",")))
    except ValueError:
        raise ConfigError(f"{where}: hue: expected lo:hi[,lo:hi], got {hue!r}") from None
    try:
        return ColorBand(label, ranges, **kwargs)
    except ValidationError as e:
        raise ConfigError(str(e)) from None
