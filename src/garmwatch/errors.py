"""Exception hierarchy shared by all garmwatch modules.

The CLI maps ConfigError to exit status 2 and every other GarmwatchError
(plus OSError) to exit status 1.
"""


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


class ClosedError(GarmwatchError):
    """An object was used after its close()."""


class ConfigError(GarmwatchError):
    """A configuration file or parameter set is invalid."""


class SceneError(GarmwatchError):
    """A synthetic scene specification is invalid (names the object and frame)."""
