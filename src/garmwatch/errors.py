"""Exception hierarchy shared by all garmwatch modules, and the one number check.

The CLI maps ConfigError to exit status 2 and every other GarmwatchError
(plus OSError) to exit status 1.  check_number raises the caller's own error
class and returns a plain int or float (check_fields: for each number field
of a dataclass record), so a module states only its bounds.
"""

from dataclasses import fields
import math
import numbers


class GarmwatchError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GarmwatchError):
    """A file or stream does not conform to its declared format."""


class SequenceError(GarmwatchError):
    """A frame sequence is empty or has a gap in its indices."""


class StreamError(GarmwatchError):
    """A raw stream ended before delivering its declared payload."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"truncated stream: expected {expected} payload bytes, got {got}")
        self.expected = expected
        self.got = got


class ParseError(GarmwatchError):
    """A JSON Lines record could not be parsed; message carries the line number."""


class ValidationError(GarmwatchError):
    """A value violates a declared invariant (box extents, band ranges, ...)."""


class ShapeError(GarmwatchError):
    """Two rasters (or a raster and a model) disagree on dimensions."""


class ConfigError(GarmwatchError):
    """A configuration file or parameter set is invalid."""


class SceneError(GarmwatchError):
    """A synthetic scene specification is invalid (names the object and frame)."""


def check_number(value, what: str, error: type[GarmwatchError], integer: bool = False,
                 lo=None, hi=None) -> int | float:
    """Raise error, as "{what} must be ..., got {value!r}", unless value is a
    real number and not a bool, finite, integral when integer is set, and in
    [lo, hi] (a None end is open); the first of these that fails is named.
    Returns int(value) when integer is set, else float(value)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past float range; its repr may pass int's digit limit
        raise error(f"{what} must be finite, got a value past float range") from None
    if not finite:
        raise error(f"{what} must be finite, got {value!r}")
    if integer and not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    if lo is not None and value < lo or hi is not None and value > hi:
        bound = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in [{lo}, {hi}]"
        raise error(f"{what} must be {bound}, got {value!r}")
    return int(value) if integer else float(value)


def check_fields(record, ranges: dict, error: type[GarmwatchError], where: str = "",
                 skip: tuple[str, ...] = ()) -> dict:
    """The checked value of each "int", "float" or "tuple[int, ...]" field of
    dataclass record, by name, within ranges[name] = (lo, hi) and named as
    where + name; a tuple is checked entry by entry.  A "T | None" field
    holding None, the fields in skip and other fields are left out."""
    checked = {}
    for f in fields(record):
        value, kind = getattr(record, f.name), f.type.split(" | ")[0]
        if f.name in skip or value is None and f.type.endswith(" | None"):
            continue
        what, bounds = where + f.name, ranges.get(f.name, (None, None))
        if kind in ("int", "float"):
            checked[f.name] = check_number(value, what, error, kind == "int", *bounds)
        elif kind.startswith("tuple[int"):
            n = kind.count("int")
            if not isinstance(value, (tuple, list)) or len(value) != n:
                raise error(f"{what} must be {n} integers, got {value!r}")
            checked[f.name] = tuple(check_number(v, what, error, True, *bounds) for v in value)
    return checked
