import io
import json
import os

import numpy as np
import pytest

from garmwatch import (Annotation, BoundingBox, Detection, Frame, FormatError,
                       ParseError, PersonBoxes, SequenceError, StreamError,
                       ValidationError)
from garmwatch import frameio


def random_frame(rng, w, h, index=0):
    return Frame(index, rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Frame

@pytest.mark.parametrize("pixels", [
    np.zeros((2, 2, 3)), np.zeros((2, 2, 3), np.int64), np.zeros((2, 2, 3), np.uint16),
    np.zeros((2, 2, 3), bool), [[[0, 0, 0]]],
], ids=["float64", "int64", "uint16", "bool", "list"])
def test_frame_pixels_must_be_uint8(pixels):
    with pytest.raises(ValidationError, match="uint8"):
        Frame(0, pixels)


@pytest.mark.parametrize("index", ["a", 1.5, 2.0, True, None],
                         ids=["str", "float", "integral-float", "bool", "none"])
def test_frame_index_must_be_an_integer(index):
    with pytest.raises(ValidationError, match="index"):
        Frame(index, np.zeros((2, 2, 3), np.uint8))


def test_frame_index_takes_any_integral_type():
    for index in (np.int64(3), np.uint8(3), -1):  # pipelines reject negatives themselves
        frame = Frame(index, np.zeros((2, 2, 3), np.uint8))
        assert frame.index == index and type(frame.index) is int


# ---------------------------------------------------------------------------
# BoundingBox

def test_box_properties():
    b = BoundingBox(3, 4, 10, 20)
    assert (b.x2, b.y2, b.area) == (13, 24, 200)
    assert BoundingBox(np.int64(3), np.uint8(4), np.int32(10), 20) == b


@pytest.mark.parametrize("fields", [(0.5, 0, 1, 1), (True, 0, 1, 1), (0, 0, "a", 1),
                                    (0, None, 1, 1), (0, 0, 1, 2.0), (np.float64(1), 0, 1, 1)],
                         ids=["float", "bool", "str", "none", "integral-float", "numpy-float"])
def test_box_fields_must_be_integers(fields):
    with pytest.raises(ValidationError, match="box"):
        BoundingBox(*fields)


def test_box_rejects_empty_extent():
    with pytest.raises(ValidationError):
        BoundingBox(0, 0, 0, 5)
    with pytest.raises(ValidationError):
        BoundingBox(0, 0, 5, -1)


def test_box_intersection_area():
    a = BoundingBox(0, 0, 10, 10)
    assert a.intersection_area(BoundingBox(5, 5, 10, 10)) == 25
    assert a.intersection_area(BoundingBox(10, 0, 5, 5)) == 0
    assert a.intersection_area(a) == 100


def test_box_cover():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(20, 5, 5, 10)
    assert a.cover(b) == BoundingBox(0, 0, 25, 15)


# ---------------------------------------------------------------------------
# PPM

def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    frame = random_frame(rng, 37, 23)
    path = tmp_path / "a.ppm"
    frameio.write_ppm(frame, path)
    back = frameio.read_ppm(path)
    assert back.pixels.shape == (23, 37, 3)
    assert np.array_equal(back.pixels, frame.pixels)


def test_ppm_header_is_canonical(tmp_path):
    frame = Frame(0, np.zeros((2, 3, 3), np.uint8))
    path = tmp_path / "a.ppm"
    frameio.write_ppm(frame, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n3 2\n255\n")
    assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


def test_ppm_accepts_header_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# made by hand\n2 1\n# another\n255\n" + bytes(6))
    frame = frameio.read_ppm(path)
    assert frame.pixels.shape == (1, 2, 3)


def test_ppm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "b.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(FormatError):
        frameio.read_ppm(path)


def test_ppm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "b.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(FormatError):
        frameio.read_ppm(path)


def test_ppm_rejects_truncated_pixels(tmp_path):
    path = tmp_path / "b.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(FormatError):
        frameio.read_ppm(path)


@pytest.mark.parametrize("data, message", [
    # a token may not split: without that, 22 would read as width 2, height 2
    (b"P6 22 255\n" + b" " * 12, "truncated PPM header"),
    (b"P6\n2 2\n255#x\n" + bytes(12), "non-numeric"),
    (b"P6 2 #x 2\n", "truncated PPM header"),  # nor may a comment
])
def test_ppm_rejects_split_header_tokens(tmp_path, data, message):
    path = tmp_path / "b.ppm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        frameio.read_ppm(path)


# int() would read each of these: Netpbm header numbers are ASCII decimal
@pytest.mark.parametrize("data", [
    b"P6\n1_0 1\n255\n" + bytes(30),
    b"P6\n+2 2\n255\n" + bytes(12),
    b"P6\n2 -0\n255\n",
    b"P6\n2 2\n2_55\n" + bytes(12),
    b"P6\n2 2\n+255\n" + bytes(12),
], ids=["underscore-width", "signed-width", "signed-height", "underscore-maxval",
        "signed-maxval"])
def test_ppm_header_numbers_are_decimal(tmp_path, data):
    path = tmp_path / "b.ppm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="non-numeric PPM header fields"):
        frameio.read_ppm(path)


# ---------------------------------------------------------------------------
# Frame sequences

def test_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    frames = [random_frame(rng, 8, 6, i) for i in range(5)]
    n = frameio.write_frame_sequence(frames, tmp_path / "seq")
    assert n == 5
    back = list(frameio.read_frame_sequence(tmp_path / "seq"))
    assert [f.index for f in back] == [0, 1, 2, 3, 4]
    for a, b in zip(frames, back):
        assert np.array_equal(a.pixels, b.pixels)


def test_sequence_rejects_negative_index(tmp_path):
    # frame_filename(-1) is frame_-00001.ppm, a name the reader never reads
    frames = [Frame(i, np.zeros((2, 2, 3), np.uint8)) for i in (-1, 0)]
    with pytest.raises(ValidationError, match="frame index must be >= 0"):
        frameio.write_frame_sequence(frames, tmp_path)
    assert not list(tmp_path.iterdir())


def test_sequence_gap_detected(tmp_path):
    frames = [Frame(i, np.zeros((2, 2, 3), np.uint8)) for i in (0, 1, 3)]
    frameio.write_frame_sequence(frames, tmp_path / "seq")
    with pytest.raises(SequenceError, match="index 2"):
        list(frameio.read_frame_sequence(tmp_path / "seq"))


def test_sequence_gap_raises_on_first_next(tmp_path):
    frames = [Frame(i, np.zeros((2, 2, 3), np.uint8)) for i in (0, 2)]
    frameio.write_frame_sequence(frames, tmp_path / "seq")
    reader = frameio.read_frame_sequence(tmp_path / "seq")
    with pytest.raises(SequenceError, match="index 1"):
        next(reader)


def test_sequence_ignores_non_ascii_digit_names(tmp_path):
    rng = np.random.default_rng(4)
    frame = random_frame(rng, 3, 2)
    frameio.write_frame_sequence([frame], tmp_path / "seq")
    # Arabic-Indic digits: a look-alike of frame 0 and one of frame 1
    for digits in ("\u0660" * 6, "00000\u0661"):
        (tmp_path / "seq" / f"frame_{digits}.ppm").write_bytes(b"not a frame")
    [back] = frameio.read_frame_sequence(tmp_path / "seq")
    assert np.array_equal(back.pixels, frame.pixels)


def test_sequence_counts_names_past_six_digits(tmp_path):
    frames = [Frame(i, np.zeros((2, 2, 3), np.uint8)) for i in (0, 1_000_000)]
    frameio.write_frame_sequence(frames, tmp_path / "seq")
    assert (tmp_path / "seq" / "frame_1000000.ppm").exists()
    # padded past six digits, a look-alike of frame 1 that frame_filename never writes
    (tmp_path / "seq" / "frame_0000001.ppm").write_bytes(b"not a frame")
    with pytest.raises(SequenceError, match="index 1$"):
        next(frameio.read_frame_sequence(tmp_path / "seq"))


def test_sequence_empty_dir(tmp_path):
    os.makedirs(tmp_path / "seq")
    with pytest.raises(SequenceError):
        list(frameio.read_frame_sequence(tmp_path / "seq"))


def test_sequence_dimension_change(tmp_path):
    frameio.write_frame_sequence([Frame(0, np.zeros((2, 2, 3), np.uint8))],
                                 tmp_path / "seq")
    frameio.write_frame_sequence([Frame(1, np.zeros((3, 2, 3), np.uint8))],
                                 tmp_path / "seq")
    with pytest.raises(FormatError):
        list(frameio.read_frame_sequence(tmp_path / "seq"))


# ---------------------------------------------------------------------------
# GWVS1 raw streams

def test_raw_stream_round_trip():
    rng = np.random.default_rng(2)
    frames = [random_frame(rng, 5, 4, i) for i in range(3)]
    buf = io.BytesIO()
    frameio.write_raw_stream(frames, buf, fps=30)
    buf.seek(0)
    back = list(frameio.read_raw_stream(buf))
    assert len(back) == 3
    for a, b in zip(frames, back):
        assert np.array_equal(a.pixels, b.pixels)


def test_raw_stream_path_is_read_in_one_call(tmp_path, monkeypatch):
    """A wrapper of the module's read_raw_stream sees one call per path read."""
    path = tmp_path / "two.gwvs"
    frameio.write_raw_stream([Frame(i, np.full((2, 3, 3), i, np.uint8)) for i in range(2)], path)
    calls = []
    read = frameio.read_raw_stream

    def counting(source):
        calls.append(source)
        return read(source)

    monkeypatch.setattr(frameio, "read_raw_stream", counting)
    assert [f.index for f in frameio.read_raw_stream(path)] == [0, 1]
    assert calls == [path]


def test_raw_stream_header():
    buf = io.BytesIO()
    frameio.write_raw_stream([Frame(0, np.zeros((4, 5, 3), np.uint8))], buf, fps=25)
    assert buf.getvalue().startswith(b"GWVS1 5 4 25 1\n")


@pytest.mark.parametrize("fps", [0, 2.5, True], ids=["zero", "fraction", "bool"])
def test_raw_stream_writer_rejects_fps_its_reader_refuses(fps):
    sink = io.BytesIO()
    with pytest.raises(ValidationError, match="fps"):
        frameio.write_raw_stream([Frame(0, np.zeros((2, 2, 3), np.uint8))], sink, fps=fps)
    assert sink.getvalue() == b""


def test_raw_stream_bad_magic():
    buf = io.BytesIO(b"GWVS2 2 2 25 1\n" + bytes(12))
    with pytest.raises(FormatError):
        list(frameio.read_raw_stream(buf))


@pytest.mark.parametrize("header", [
    b"GWVS1 1_0 1 25 1\n",
    b"GWVS1 +2 2 25 1\n",
    b"GWVS1 2 2 2_5 1\n",
    b"GWVS1 2 2 25 -0\n",
    b"GWVS1 2 2 25 +1\n",
], ids=["underscore-width", "signed-width", "underscore-fps", "signed-zero-frames",
        "signed-frames"])
def test_raw_stream_header_numbers_are_decimal(header):
    with pytest.raises(FormatError, match="non-numeric GWVS1 header fields"):
        list(frameio.read_raw_stream(io.BytesIO(header + bytes(30))))


def test_raw_stream_truncation_reports_counts():
    buf = io.BytesIO(b"GWVS1 2 2 25 2\n" + bytes(15))
    with pytest.raises(StreamError) as exc:
        list(frameio.read_raw_stream(buf))
    assert exc.value.expected == 24
    assert exc.value.got == 15
    assert "expected 24" in str(exc.value)


class ReadOnly:
    """A pipe-like source: read() and nothing else."""

    def __init__(self, data):
        self.read = io.BytesIO(data).read


@pytest.mark.parametrize("header", [b"GWVS1 300000 300000 1 1\n",
                                    b"GWVS1 100000000000 100000000000 1 1\n"],
                         ids=["300000", "1e11"])
def test_raw_stream_rejects_frames_larger_than_source(header, tmp_path):
    path = tmp_path / "huge.gwvs"
    path.write_bytes(header)
    for source in (io.BytesIO(header), ReadOnly(header), path):
        with pytest.raises(StreamError) as exc:
            list(frameio.read_raw_stream(source))
        assert exc.value.got == 0


def test_raw_stream_frame_larger_than_one_read():
    # 2400x2400 RGB is just over the 16 MiB read chunk, so the frame
    # arrives in two parts from a source that cannot seek.
    pixels = (np.arange(2400 * 2400 * 3) % 251).astype(np.uint8).reshape(2400, 2400, 3)
    buf = io.BytesIO()
    frameio.write_raw_stream([Frame(0, pixels)], buf)
    (frame,) = frameio.read_raw_stream(ReadOnly(buf.getvalue()))
    assert np.array_equal(frame.pixels, pixels)
    with pytest.raises(StreamError) as exc:
        list(frameio.read_raw_stream(ReadOnly(buf.getvalue()[:-1])))
    assert exc.value.got == pixels.size - 1


def test_raw_stream_rejects_mixed_sizes():
    frames = [Frame(0, np.zeros((2, 2, 3), np.uint8)),
              Frame(1, np.zeros((3, 2, 3), np.uint8))]
    with pytest.raises(ValidationError):
        frameio.write_raw_stream(frames, io.BytesIO())


# ---------------------------------------------------------------------------
# JSONL records

def test_annotations_round_trip(tmp_path):
    anns = [Annotation(0, [BoundingBox(1, 2, 3, 4)]),
            Annotation(2, []),
            Annotation(5, [BoundingBox(0, 0, 9, 9), BoundingBox(4, 4, 2, 2)])]
    path = tmp_path / "gt.jsonl"
    frameio.write_annotations(anns, path)
    back = frameio.read_annotations(path)
    assert [a.frame_index for a in back] == [0, 2, 5]
    assert back[0].boxes == [BoundingBox(1, 2, 3, 4)]
    assert back[2].boxes == anns[2].boxes


def test_annotations_reject_bad_json(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"frame": 0, "boxes": []}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        frameio.read_annotations(path)


def test_annotations_reject_zero_extent(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"frame": 0, "boxes": [{"x": 1, "y": 1, "w": 0, "h": 5}]}\n')
    with pytest.raises(ValidationError):
        frameio.read_annotations(path)


def test_annotations_reject_decreasing_frames(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text('{"frame": 3, "boxes": []}\n{"frame": 1, "boxes": []}\n')
    with pytest.raises(ValidationError, match="increasing"):
        frameio.read_annotations(path)


def test_detections_round_trip(tmp_path):
    dets = [Detection(0, BoundingBox(1, 1, 5, 5), "red", 0.1),
            Detection(0, BoundingBox(8, 8, 4, 4), "blue", 0.05),
            Detection(3, BoundingBox(2, 2, 6, 6), "green", 0.2)]
    path = tmp_path / "det.jsonl"
    frameio.write_detections(dets, path)
    back = frameio.read_detections(path)
    assert back == dets
    # one line per frame, parseable as plain JSON
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["frame"] == 0


def test_detections_reject_bad_score(tmp_path):
    path = tmp_path / "det.jsonl"
    path.write_text('{"frame": 0, "boxes": '
                    '[{"x": 1, "y": 1, "w": 5, "h": 5, "color": "red", "score": 1.5}]}\n')
    with pytest.raises(ValidationError):
        frameio.read_detections(path)


@pytest.mark.parametrize("reader, text", [
    (frameio.read_annotations, '{"frame": 0, "boxes": [{"x": 1e400, "y": 0, "w": 1, "h": 1}]}'),
    (frameio.read_person_boxes,
     '{"frame": 0, "persons": [{"x": 1e400, "y": 0, "w": 1, "h": 1}]}'),
    (frameio.read_annotations, '{"frame": 1e400, "boxes": []}'),
    (frameio.read_detections, '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                              '"color": "red", "score": ' + "1" * 400 + '}]}'),
    (frameio.read_annotations, '{"frame": 0, "boxes": null}'),
    (frameio.read_person_boxes, '{"frame": 0, "persons": 5}'),
    (frameio.read_annotations, '{"frame": ' + "1" * 5000 + ', "boxes": []}'),
    (frameio.read_annotations, b'{"frame": 0, "boxes": [\xff]}'),
    (frameio.read_annotations, '{"frame": true, "boxes": []}'),
    (frameio.read_annotations, '{"frame": 1.0, "boxes": []}'),
    (frameio.read_annotations, '{"frame": "1", "boxes": []}'),
    (frameio.read_annotations, '{"frame": 0, "boxes": [{"x": "1", "y": 1, "w": 2, "h": 2}]}'),
    (frameio.read_annotations, '{"frame": 0, "boxes": [{"x": 1, "y": 1.9, "w": 2, "h": 2}]}'),
    (frameio.read_person_boxes,
     '{"frame": 0, "persons": [{"x": 1, "y": 1, "w": true, "h": 2}]}'),
    (frameio.read_annotations, '{"frame": 0, "boxes": [[1, 1, 2, 2]]}'),
    (frameio.read_detections, '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                              '"color": 7, "score": 0.5}]}'),
    (frameio.read_annotations, '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                               '"color": "red", "score": "0.5"}]}'),
    (frameio.read_detections, '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                              '"color": "red", "score": true}]}'),
    (frameio.read_detections, '{"frame": 0, "boxes": [{"x": 0, "y": 0, "w": 1, "h": 1, '
                              '"color": "red"}]}'),
    (frameio.read_detections,
     '{"frame": true, "boxes": [{"x": "1", "y": 1.9, "w": true, "h": 2, '
     '"color": 7, "score": "0.5"}]}'),
], ids=["box-x-1e400", "person-x-1e400", "frame-1e400", "score-400-digits",
        "boxes-null", "persons-number", "frame-5000-digits", "not-utf8", "frame-true",
        "frame-float", "frame-string", "box-x-string", "box-y-float", "person-w-true",
        "box-list", "color-number", "score-string", "score-true", "score-missing",
        "all-coerced"])
def test_records_reject_unusable_fields(tmp_path, reader, text):
    path = tmp_path / "records.jsonl"
    path.write_bytes((text if isinstance(text, bytes) else text.encode()) + b"\n")
    with pytest.raises(ParseError, match="line 1"):
        reader(path)


BOX = BoundingBox(0, 0, 1, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: Detection(-1, BOX, "red", 0.5), "frame index must be >= 0"),
    (lambda: Detection(1.5, BOX, "red", 0.5), "frame index must be an integer"),
    (lambda: Detection(0, None, "red", 0.5), "box must be a BoundingBox"),
    (lambda: Detection(0, BOX, 7, 0.5), "color must be a str"),
    (lambda: Detection(0, BOX, "red", 9.5), r"score must be in \[0, 1\]"),
    (lambda: Detection(0, BOX, "red", "0.5"), "score must be a number"),
    (lambda: Annotation(-1, []), "frame index must be >= 0"),
    (lambda: Annotation(0, [3]), "boxes must be a list of BoundingBox"),
    (lambda: Annotation(0, (BOX,)), "boxes must be a list of BoundingBox"),
    (lambda: PersonBoxes(1.5, []), "frame index must be an integer"),
    (lambda: PersonBoxes(0, [BOX, None]), "boxes must be a list of BoundingBox"),
], ids=["det-negative-frame", "det-float-frame", "det-no-box", "det-int-color",
        "det-score-9.5", "det-str-score", "ann-negative-frame", "ann-int-box", "ann-tuple",
        "persons-float-frame", "persons-none-box"])
def test_records_check_their_fields(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_detections_readable_as_annotations(tmp_path):
    # eval consumes detection files through the annotation reader
    dets = [Detection(1, BoundingBox(0, 0, 4, 4), "red", 0.5)]
    path = tmp_path / "det.jsonl"
    frameio.write_detections(dets, path)
    anns = frameio.read_annotations(path)
    assert anns[0].boxes == [BoundingBox(0, 0, 4, 4)]


def test_person_boxes_round_trip(tmp_path):
    recs = [PersonBoxes(0, [BoundingBox(10, 10, 30, 60)]), PersonBoxes(4, [])]
    path = tmp_path / "persons.jsonl"
    frameio.write_person_boxes(recs, path)
    back = frameio.read_person_boxes(path)
    assert [r.frame_index for r in back] == [0, 4]
    assert back[0].boxes == recs[0].boxes
    assert back[1].boxes == []
