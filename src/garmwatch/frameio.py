"""Frame and record I/O.

Readers and writers for the three on-disk surfaces of the pipeline:

* binary PPM (P6, maxval 255) frame sequences named ``frame_NNNNNN.ppm``,
  contiguous from index 0;
* the GWVS1 raw stream container: one ASCII header line
  ``GWVS1 <width> <height> <fps> <nframes>`` followed by tightly packed
  RGB frames;
* JSON Lines box records -- ground-truth annotations, detections and
  person-box sidecars.

All readers are sequential iterators; distinct open streams share no state.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import FormatError, ParseError, SequenceError, StreamError, ValidationError

FRAME_NAME_RE = re.compile(r"^frame_(\d{6})\.ppm$")


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


# ---------------------------------------------------------------------------
# PPM sequences

def _parse_ppm(buf: bytes, source: str) -> tuple[int, int, np.ndarray]:
    # Token scan of the header; '#' comments allowed between tokens.
    tokens: list[bytes] = []
    i = 0
    n = len(buf)
    while len(tokens) < 4 and i < n:
        c = buf[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < n and not buf[j : j + 1].isspace():
                j += 1
            tokens.append(buf[i:j])
            i = j
    if len(tokens) < 4:
        raise FormatError(f"{source}: truncated PPM header")
    if tokens[0] != b"P6":
        raise FormatError(f"{source}: not a binary PPM (magic {tokens[0]!r}, expected P6)")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError(f"{source}: non-numeric PPM header fields") from None
    if maxval != 255:
        raise FormatError(f"{source}: unsupported maxval {maxval}, expected 255")
    if width < 1 or height < 1:
        raise FormatError(f"{source}: invalid dimensions {width}x{height}")
    i += 1  # exactly one whitespace byte separates the header from the pixels
    data = buf[i : i + width * height * 3]
    if len(data) != width * height * 3:
        raise FormatError(f"{source}: truncated pixel data "
                          f"(expected {width * height * 3} bytes, got {len(data)})")
    pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
    return width, height, pixels


def read_ppm(path: str | os.PathLike, index: int = 0) -> Frame:
    with open(path, "rb") as f:
        buf = f.read()
    _, _, pixels = _parse_ppm(buf, str(path))
    return Frame(index, pixels.copy())


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
    names = {}
    for name in os.listdir(path):
        m = FRAME_NAME_RE.match(name)
        if m:
            names[int(m.group(1))] = name
    if not names:
        raise SequenceError(f"{path}: no frame_NNNNNN.ppm files found")
    top = max(names)
    missing = [i for i in range(top + 1) if i not in names]
    if missing:
        raise SequenceError(f"{path}: missing frame index {missing[0]}")

    dims = None
    for i in range(top + 1):
        frame = read_ppm(os.path.join(path, names[i]), index=i)
        if dims is None:
            dims = (frame.width, frame.height)
        elif (frame.width, frame.height) != dims:
            raise FormatError(
                f"{names[i]}: dimensions {frame.width}x{frame.height} differ from "
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
    if hasattr(source, "read"):
        yield from _read_raw(source, getattr(source, "name", "<stream>"))
    else:
        with open(source, "rb") as f:
            yield from _read_raw(f, str(source))


def _read_raw(f: IO[bytes], name: str) -> Iterator[Frame]:
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
    header = f"{GWVS1_MAGIC} {width} {height} {fps} {len(frames)}\n".encode("ascii")

    def emit(f: IO[bytes]):
        f.write(header)
        for frame in frames:
            if (frame.width, frame.height) != (width, height):
                raise ValidationError(
                    f"frame {frame.index}: size {frame.width}x{frame.height} "
                    f"differs from stream size {width}x{height}")
            f.write(np.ascontiguousarray(frame.pixels, dtype=np.uint8).tobytes())

    if hasattr(sink, "write"):
        emit(sink)
    else:
        with open(sink, "wb") as f:
            emit(f)
    return len(frames)


# ---------------------------------------------------------------------------
# JSON Lines box records

def _box_from_json(obj: dict, lineno: int) -> BoundingBox:
    try:
        x, y, w, h = int(obj["x"]), int(obj["y"]), int(obj["w"]), int(obj["h"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError(f"line {lineno}: box record must carry integer x, y, w, h") from None
    if w < 1 or h < 1:
        raise ValidationError(f"line {lineno}: box extent must be positive, got {w}x{h}")
    if x < 0 or y < 0:
        raise ValidationError(f"line {lineno}: box corner must be non-negative, got ({x},{y})")
    return BoundingBox(x, y, w, h)


def _iter_records(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"line {lineno}: {e.msg}") from None
            if not isinstance(obj, dict):
                raise ParseError(f"line {lineno}: expected a JSON object")
            if not all(isinstance(obj.get(k, []), list) for k in ("boxes", "persons")):
                raise ParseError(f"line {lineno}: 'boxes' and 'persons' must be lists")
            yield lineno, obj


def _check_frame_field(obj: dict, lineno: int, last: int) -> int:
    try:
        idx = int(obj["frame"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError(f"line {lineno}: missing integer 'frame' field") from None
    if idx < 0:
        raise ValidationError(f"line {lineno}: frame index must be >= 0")
    if idx <= last:
        raise ValidationError(f"line {lineno}: frame indices must be strictly increasing")
    return idx


def read_annotations(path: str | os.PathLike,
                     frame_size: tuple[int, int] | None = None) -> list[Annotation]:
    """Read ground-truth (or detection) JSONL into Annotations, sorted by frame.

    frame_size, when given as (width, height), bounds-checks every box.
    """
    out: list[Annotation] = []
    last = -1
    for lineno, obj in _iter_records(path):
        idx = _check_frame_field(obj, lineno, last)
        last = idx
        boxes = []
        for raw in obj.get("boxes", []):
            box = _box_from_json(raw, lineno)
            if frame_size is not None and (box.x2 > frame_size[0] or box.y2 > frame_size[1]):
                raise ValidationError(
                    f"line {lineno}: box {box.to_dict()} exceeds frame {frame_size}")
            boxes.append(box)
        out.append(Annotation(idx, boxes))
    return out


def write_annotations(annotations: Iterable[Annotation],
                      sink: str | os.PathLike | IO[str]) -> None:
    lines = []
    for ann in annotations:
        rec = {"frame": ann.frame_index, "boxes": [b.to_dict() for b in ann.boxes]}
        lines.append(json.dumps(rec, separators=(",", ":")))
    _write_lines(lines, sink)


def read_detections(path: str | os.PathLike) -> list[Detection]:
    out: list[Detection] = []
    last = -1
    for lineno, obj in _iter_records(path):
        idx = _check_frame_field(obj, lineno, last)
        last = idx
        for raw in obj.get("boxes", []):
            box = _box_from_json(raw, lineno)
            try:
                color = str(raw["color"])
                score = float(raw["score"])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ParseError(f"line {lineno}: detection box needs color and score") from None
            if not 0.0 <= score <= 1.0:
                raise ValidationError(f"line {lineno}: score {score} outside [0, 1]")
            out.append(Detection(idx, box, color, score))
    return out


def write_detections(detections: Iterable[Detection],
                     sink: str | os.PathLike | IO[str]) -> None:
    """Write detections as JSONL, one line per frame, readable by read_annotations."""
    dets = sorted(detections, key=lambda d: d.frame_index)  # stable within a frame
    lines = []
    i = 0
    while i < len(dets):
        j = i
        while j < len(dets) and dets[j].frame_index == dets[i].frame_index:
            j += 1
        boxes = [dict(d.box.to_dict(), color=d.color, score=d.score) for d in dets[i:j]]
        lines.append(json.dumps({"frame": dets[i].frame_index, "boxes": boxes},
                                separators=(",", ":")))
        i = j
    _write_lines(lines, sink)


def read_person_boxes(path: str | os.PathLike) -> list[PersonBoxes]:
    out: list[PersonBoxes] = []
    last = -1
    for lineno, obj in _iter_records(path):
        idx = _check_frame_field(obj, lineno, last)
        last = idx
        boxes = [_box_from_json(raw, lineno) for raw in obj.get("persons", [])]
        out.append(PersonBoxes(idx, boxes))
    return out


def write_person_boxes(records: Iterable[PersonBoxes],
                       sink: str | os.PathLike | IO[str]) -> None:
    lines = []
    for rec in records:
        obj = {"frame": rec.frame_index, "persons": [b.to_dict() for b in rec.boxes]}
        lines.append(json.dumps(obj, separators=(",", ":")))
    _write_lines(lines, sink)


def _write_lines(lines: list[str], sink: str | os.PathLike | IO[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8") as f:
            f.write(text)
