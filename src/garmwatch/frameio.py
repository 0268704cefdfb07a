"""Frame and record I/O.

Readers and writers for the three on-disk surfaces of the pipeline:

* binary PPM (P6, maxval 255) frame sequences named ``frame_NNNNNN.ppm``
  (ASCII digits), contiguous from index 0; a directory listing keeps only
  the frame count and highest index, so memory is flat in the length;
* the GWVS1 raw stream container: one ASCII header line
  ``GWVS1 <width> <height> <fps> <nframes>`` followed by tightly packed
  RGB frames;
* JSON Lines box records -- ground-truth annotations, detections and
  person-box sidecars, one record per frame.  All three kinds are read by
  one parser that makes every check of the format, and written by one
  writer that emits each line as its record arrives, so a caller can
  stream records into an open file.

All readers are sequential iterators; distinct open streams share no state.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import FormatError, ParseError, SequenceError, StreamError, ValidationError

FRAME_NAME_RE = re.compile(r"frame_(\d{6})\.ppm", re.ASCII)
# magic, width, height, maxval, each after whitespace and '#' comments; the
# lookaheads keep a token (ends at whitespace) or comment (at \n) whole
PPM_HEADER_RE = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 4)


@dataclass
class Frame:
    """One RGB raster in a sequence; pixels are uint8, shape (height, width, 3)."""

    index: int
    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValidationError(f"frame pixels must have shape (h, w, 3), got {p.shape}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValidationError("frame must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle: top-left corner (x, y), extent w x h in pixels."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValidationError(f"box extent must be >= 1, got {self.w}x{self.h}")

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def intersection_area(self, other: "BoundingBox") -> int:
        ix = min(self.x2, other.x2) - max(self.x, other.x)
        iy = min(self.y2, other.y2) - max(self.y, other.y)
        return max(ix, 0) * max(iy, 0)

    def cover(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both."""
        x = min(self.x, other.x)
        y = min(self.y, other.y)
        return BoundingBox(x, y, max(self.x2, other.x2) - x, max(self.y2, other.y2) - y)

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "w": self.w, "h": self.h}


@dataclass(frozen=True)
class Detection:
    """A detected garment region: its box, producing color band, and area score."""

    frame_index: int
    box: BoundingBox
    color: str
    score: float


@dataclass
class Annotation:
    """Ground-truth boxes for one frame."""

    frame_index: int
    boxes: list[BoundingBox] = field(default_factory=list)


@dataclass
class PersonBoxes:
    """Externally supplied person bounding boxes for one frame."""

    frame_index: int
    boxes: list[BoundingBox] = field(default_factory=list)


def _opened(target: str | os.PathLike | IO, mode: str):
    """A context yielding target itself when it is a file object, else the
    file at that path opened in mode (UTF-8 for text modes)."""
    if hasattr(target, "read" if "r" in mode else "write"):
        return nullcontext(target)
    return open(target, mode, encoding=None if "b" in mode else "utf-8")


# ---------------------------------------------------------------------------
# PPM sequences

def _parse_ppm(buf: bytes, source: str) -> np.ndarray:
    m = PPM_HEADER_RE.match(buf)
    if m is None:
        raise FormatError(f"{source}: truncated PPM header")
    magic, *fields = m.groups()
    if magic != b"P6":
        raise FormatError(f"{source}: not a binary PPM (magic {magic!r}, expected P6)")
    try:
        width, height, maxval = map(int, fields)
    except ValueError:
        raise FormatError(f"{source}: non-numeric PPM header fields") from None
    if maxval != 255:
        raise FormatError(f"{source}: unsupported maxval {maxval}, expected 255")
    if width < 1 or height < 1:
        raise FormatError(f"{source}: invalid dimensions {width}x{height}")
    size = width * height * 3
    offset = m.end() + 1  # exactly one whitespace byte separates the header from the pixels
    if len(buf) - offset < size:
        raise FormatError(f"{source}: truncated pixel data "
                          f"(expected {size} bytes, got {max(len(buf) - offset, 0)})")
    return np.frombuffer(buf, np.uint8, size, offset).reshape(height, width, 3)


def read_ppm(path: str | os.PathLike, index: int = 0) -> Frame:
    with open(path, "rb") as f:
        buf = f.read()
    return Frame(index, _parse_ppm(buf, str(path)).copy())


def write_ppm(frame: Frame, path: str | os.PathLike) -> None:
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(frame.pixels, dtype=np.uint8).tobytes())


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.ppm"


def read_frame_sequence(path: str | os.PathLike) -> Iterator[Frame]:
    """Yield the PPM frames of a directory in ascending index order.

    The directory must hold frame_000000.ppm, frame_000001.ppm, ... with no
    gaps; a gap raises SequenceError naming the first missing index, and a
    dimension change mid-stream raises FormatError.
    """
    count, top = 0, -1
    with os.scandir(path) as entries:
        for entry in entries:
            if m := FRAME_NAME_RE.fullmatch(entry.name):
                count += 1
                top = max(top, int(m[1]))
    if not count:
        raise SequenceError(f"{path}: no frame_NNNNNN.ppm files found")
    if count <= top:  # names are unique, so some index below top is absent
        for i in range(top + 1):
            if not os.path.lexists(os.path.join(path, frame_filename(i))):
                raise SequenceError(f"{path}: missing frame index {i}")

    dims = None
    for i in range(top + 1):
        name = frame_filename(i)
        frame = read_ppm(os.path.join(path, name), index=i)
        if dims is None:
            dims = (frame.width, frame.height)
        elif (frame.width, frame.height) != dims:
            raise FormatError(
                f"{name}: dimensions {frame.width}x{frame.height} differ from "
                f"{dims[0]}x{dims[1]} earlier in the sequence")
        yield frame


def write_frame_sequence(frames: Iterable[Frame], path: str | os.PathLike) -> int:
    """Write frames as frame_NNNNNN.ppm files; returns the frame count."""
    os.makedirs(path, exist_ok=True)
    count = 0
    for frame in frames:
        write_ppm(frame, os.path.join(path, frame_filename(frame.index)))
        count += 1
    return count


# ---------------------------------------------------------------------------
# GWVS1 raw streams

GWVS1_MAGIC = "GWVS1"


def _read_header_line(f: IO[bytes], source: str) -> str:
    raw = bytearray()
    while len(raw) < 256:
        b = f.read(1)
        if not b:
            raise FormatError(f"{source}: missing GWVS1 header line")
        if b == b"\n":
            return raw.decode("ascii", errors="replace")
        raw += b
    raise FormatError(f"{source}: GWVS1 header line too long")


def read_raw_stream(source: str | os.PathLike | IO[bytes]) -> Iterator[Frame]:
    """Yield the frames of a GWVS1 raw stream (path or binary file object)."""
    with _opened(source, "rb") as f:
        name = getattr(f, "name", "<stream>")
        fields = _read_header_line(f, name).split()
        if len(fields) != 5 or fields[0] != GWVS1_MAGIC:
            raise FormatError(f"{name}: bad GWVS1 header {fields!r}")
        try:
            width, height, fps, nframes = (int(v) for v in fields[1:])
        except ValueError:
            raise FormatError(f"{name}: non-numeric GWVS1 header fields") from None
        if width < 1 or height < 1 or fps < 1 or nframes < 0:
            raise FormatError(f"{name}: invalid GWVS1 header values")
        frame_size = width * height * 3
        received = 0
        for i in range(nframes):
            # Bounded reads: a header cannot make one read allocate more than
            # the source delivers, seekable or not.
            parts, want = [], frame_size
            while want and (part := f.read(min(want, 1 << 24))):
                parts.append(part)
                want -= len(part)
            data = b"".join(parts)
            received += len(data)
            if len(data) != frame_size:
                raise StreamError(expected=nframes * frame_size, got=received)
            pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
            yield Frame(i, pixels.copy())


def write_raw_stream(frames: Iterable[Frame], sink: str | os.PathLike | IO[bytes],
                     fps: int = 25) -> int:
    """Write frames as a GWVS1 stream; returns the frame count."""
    frames = list(frames)
    if frames:
        width, height = frames[0].width, frames[0].height
    else:
        width = height = 1
    with _opened(sink, "wb") as f:
        f.write(f"{GWVS1_MAGIC} {width} {height} {fps} {len(frames)}\n".encode("ascii"))
        for frame in frames:
            if (frame.width, frame.height) != (width, height):
                raise ValidationError(
                    f"frame {frame.index}: size {frame.width}x{frame.height} "
                    f"differs from stream size {width}x{height}")
            f.write(np.ascontiguousarray(frame.pixels, dtype=np.uint8).tobytes())
    return len(frames)


# ---------------------------------------------------------------------------
# JSON Lines box records

def _read_records(path: str | os.PathLike, key: str,
                  scored: bool = False) -> Iterator[tuple[int, list]]:
    """Yield (frame index, entries of the record's ``key`` list) per JSONL line.

    Every check of the record format is made here, and a failed one names
    the line.  ``frame`` and a box's x, y, w, h must be JSON integers;
    frames rise strictly; ``boxes`` and ``persons`` must be lists when
    present.  A box's ``color`` must be a string and its ``score`` a number
    in [0, 1] when present, and both are required with ``scored``.  Each
    entry is a (box, color, score) triple, color and score None when absent.
    """
    last = -1
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:  # also bad UTF-8 and over-long integers
                raise ParseError(f"line {lineno}: {getattr(e, 'msg', e)}") from None
            if not isinstance(obj, dict):
                raise ParseError(f"line {lineno}: expected a JSON object")
            if not all(isinstance(obj.get(k, []), list) for k in ("boxes", "persons")):
                raise ParseError(f"line {lineno}: 'boxes' and 'persons' must be lists")
            idx = obj.get("frame")
            if type(idx) is not int:  # JSON true/false load as bool
                raise ParseError(f"line {lineno}: missing integer 'frame' field")
            if idx < 0:
                raise ValidationError(f"line {lineno}: frame index must be >= 0")
            if idx <= last:
                raise ValidationError(f"line {lineno}: frame indices must be strictly increasing")
            last = idx
            yield idx, [_box_entry(raw, lineno, scored) for raw in obj.get(key, [])]


def _box_entry(raw, lineno: int, scored: bool) -> tuple[BoundingBox, str | None, float | None]:
    if not isinstance(raw, dict) or not all(type(raw.get(k)) is int for k in "xywh"):
        raise ParseError(f"line {lineno}: box record must carry integer x, y, w, h")
    x, y, w, h = raw["x"], raw["y"], raw["w"], raw["h"]
    if w < 1 or h < 1:
        raise ValidationError(f"line {lineno}: box extent must be positive, got {w}x{h}")
    if x < 0 or y < 0:
        raise ValidationError(f"line {lineno}: box corner must be non-negative, got ({x},{y})")
    color, score = raw.get("color"), raw.get("score")
    if scored and (color is None or score is None):
        raise ParseError(f"line {lineno}: detection box needs color and score")
    if color is not None and not isinstance(color, str):
        raise ParseError(f"line {lineno}: box color must be a string")
    if score is not None:
        if type(score) not in (int, float):
            raise ParseError(f"line {lineno}: box score must be a number")
        try:
            score = float(score)
        except OverflowError:
            raise ParseError(f"line {lineno}: box score is too large") from None
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"line {lineno}: score {score} outside [0, 1]")
    return BoundingBox(x, y, w, h), color, score


def _write_records(records: Iterable[dict], sink: str | os.PathLike | IO[str]) -> None:
    """Write one compact JSON line per record as each record arrives."""
    with _opened(sink, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read_annotations(path: str | os.PathLike) -> list[Annotation]:
    """Read ground-truth (or detection) JSONL into Annotations, sorted by frame."""
    return [Annotation(idx, [box for box, _, _ in entries])
            for idx, entries in _read_records(path, "boxes")]


def write_annotations(annotations: Iterable[Annotation],
                      sink: str | os.PathLike | IO[str]) -> None:
    _write_records(({"frame": a.frame_index, "boxes": [b.to_dict() for b in a.boxes]}
                    for a in annotations), sink)


def read_detections(path: str | os.PathLike) -> list[Detection]:
    return [Detection(idx, box, color, score)
            for idx, entries in _read_records(path, "boxes", scored=True)
            for box, color, score in entries]


def write_detections(detections: Iterable[Detection],
                     sink: str | os.PathLike | IO[str]) -> None:
    """Write detections as JSONL, one line per frame, readable by read_annotations."""
    dets = sorted(detections, key=attrgetter("frame_index"))  # stable within a frame
    _write_records(({"frame": idx, "boxes": [dict(d.box.to_dict(), color=d.color, score=d.score)
                                             for d in group]}
                    for idx, group in groupby(dets, key=attrgetter("frame_index"))), sink)


def iter_person_boxes(path: str | os.PathLike) -> Iterator[PersonBoxes]:
    """Yield a person sidecar's records one line at a time."""
    for idx, entries in _read_records(path, "persons"):
        yield PersonBoxes(idx, [box for box, _, _ in entries])


def read_person_boxes(path: str | os.PathLike) -> list[PersonBoxes]:
    return list(iter_person_boxes(path))


def write_person_boxes(records: Iterable[PersonBoxes],
                       sink: str | os.PathLike | IO[str]) -> None:
    _write_records(({"frame": r.frame_index, "persons": [b.to_dict() for b in r.boxes]}
                    for r in records), sink)
