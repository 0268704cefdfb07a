import gc
import io
import os
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

import garmwatch.pipeline
from garmwatch import (BackgroundModel, Frame, PersonBoxes, Pipeline, PipelineConfig,
                       SceneObject, ScenePerson, SceneSpec, StreamError, ValidationError,
                       evaluate, generate_frames, iter_sequence, process_sequence,
                       warmup_prefix)
from garmwatch.frameio import read_raw_stream, write_raw_stream

WARMUP = 60

# small scene tuned so the model converges well before the objects appear
# and no object lingers long enough to be absorbed into the background
CONFIG = PipelineConfig(history_length=400, warmup_frames=WARMUP)


def two_object_scene(persons=False, noise=0.0):
    spec = SceneSpec(
        160, 120, 40, background=(96, 96, 96), noise_sigma=noise, seed=11,
        objects=[SceneObject((220, 30, 30), (12, 12), (10, 20), velocity=(1, 0)),
                 SceneObject((40, 40, 230), (12, 12), (100, 80), velocity=(1, 0))],
        persons=[ScenePerson((20, 20), (96, 76), velocity=(1, 0))] if persons else [])
    return warmup_prefix(spec, WARMUP)


def render(spec):
    frames, anns, persons = [], [], []
    for frame, ann, pers in generate_frames(spec):
        frames.append(frame)
        anns.append(ann)
        persons.append(pers)
    return frames, anns, persons


@pytest.fixture(scope="module")
def clean_run():
    frames, anns, _ = render(two_object_scene())
    detections = process_sequence(frames, config=CONFIG)
    return frames, anns, detections


def test_warmup_produces_no_detections(clean_run):
    _, _, detections = clean_run
    assert all(d.frame_index >= WARMUP for d in detections)


def test_two_detections_per_frame_after_warmup(clean_run):
    frames, _, detections = clean_run
    per_frame = {}
    for d in detections:
        per_frame[d.frame_index] = per_frame.get(d.frame_index, 0) + 1
    for i in range(WARMUP, len(frames)):
        assert per_frame.get(i, 0) == 2, f"frame {i}"


def test_clean_scene_is_detected_exactly(clean_run):
    _, anns, detections = clean_run
    report = evaluate(detections, anns, 0.5)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.mean_iou == 1.0


def test_color_labels_match_bands(clean_run):
    _, _, detections = clean_run
    labels = {d.color for d in detections}
    assert labels == {"red", "blue"}
    reds = [d for d in detections if d.color == "red"]
    assert all(d.box.y == 20 for d in reds)


def test_detection_boxes_stay_in_frame(clean_run):
    frames, _, detections = clean_run
    w, h = frames[0].width, frames[0].height
    for d in detections:
        assert 0 <= d.box.x and d.box.x2 <= w
        assert 0 <= d.box.y and d.box.y2 <= h
        assert 0.0 <= d.score <= 1.0


def test_pipeline_is_deterministic(clean_run):
    frames, _, detections = clean_run
    again = process_sequence(frames, config=CONFIG)
    assert again == detections


def test_person_box_suppresses_covered_garment(clean_run):
    _, _, baseline = clean_run
    frames, anns, persons = render(two_object_scene(persons=True))
    detections = process_sequence(frames, persons, config=CONFIG)
    # the blue rectangle rides inside the person box: gone
    assert all(d.color != "blue" for d in detections)
    # the red rectangle is untouched
    red_gt = [type(a)(a.frame_index, a.boxes[:1]) for a in anns]
    report = evaluate(detections, red_gt, 0.5)
    assert report.recall == 1.0
    assert report.precision == 1.0
    # person filtering never adds detections
    base_counts = {}
    for d in baseline:
        base_counts[d.frame_index] = base_counts.get(d.frame_index, 0) + 1
    got_counts = {}
    for d in detections:
        got_counts[d.frame_index] = got_counts.get(d.frame_index, 0) + 1
    for i, n in got_counts.items():
        assert n <= base_counts.get(i, 0)


def test_sidecar_joins_by_frame_index():
    frames, _, persons = render(two_object_scene(persons=True))
    sparse = persons[::2] + [PersonBoxes(len(frames) + 5, [])]  # gaps, one past the end
    by_index = {p.frame_index: p for p in sparse}
    pipe = Pipeline(160, 120, CONFIG)
    expected = [d for f in frames for d in pipe.process_frame(f, by_index.get(f.index))]
    assert process_sequence(frames, iter(sparse), config=CONFIG) == expected
    assert expected != process_sequence(frames, persons, config=CONFIG)


@pytest.mark.parametrize("indices", [(3, 3), (5, 2), (150, 120)],
                         ids=["repeated", "falling", "falling-past-the-end"])
def test_sidecar_must_rise_strictly(indices):
    frames, _, _ = render(two_object_scene())
    with pytest.raises(ValidationError, match="rise strictly"):
        process_sequence(frames, [PersonBoxes(i, []) for i in indices], config=CONFIG)


def test_empty_stream():
    assert process_sequence([], config=CONFIG) == []


def test_iter_sequence_pairs_frames_with_detections():
    frames, _, _ = render(two_object_scene())
    out = list(iter_sequence(frames, config=CONFIG))
    assert len(out) == len(frames)
    assert [f.index for f, _ in out] == [f.index for f in frames]
    flat = [d for _, dets in out for d in dets]
    assert flat == process_sequence(frames, config=CONFIG)


def test_min_area_floor_drops_small_regions():
    frames, _, _ = render(two_object_scene())
    big_floor = replace(CONFIG, min_area=500.0)  # objects are 144 px
    assert process_sequence(frames, config=big_floor) == []


def test_process_frame_during_warmup_still_updates_model():
    pipe = Pipeline(8, 6, PipelineConfig(history_length=50, warmup_frames=10))
    frame = Frame(0, np.full((6, 8, 3), 96, np.uint8))
    assert pipe.process_frame(frame) == []
    assert pipe.model.frames_seen == 1


def test_noisy_scene_detections_stay_bounded():
    spec = two_object_scene(noise=8.0)
    frames, _, _ = render(spec)
    detections = process_sequence(frames, config=CONFIG)
    for d in detections:
        assert 0 <= d.box.x and d.box.x2 <= 160
        assert 0 <= d.box.y and d.box.y2 <= 120


def threads_left(before, timeout=5.0):
    """Threads started since `before` that are still alive after at most timeout s."""
    deadline = time.monotonic() + timeout
    while (left := set(threading.enumerate()) - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    return left


def test_no_thread_outlives_its_pipeline(monkeypatch):
    # two usable CPUs, so a 2-row frame is cut into two strips, one on a thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    made = []  # weak references only, so nothing here keeps a pipeline alive

    class TrackedPipeline(Pipeline):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(garmwatch.pipeline, "Pipeline", TrackedPipeline)
    frames = [Frame(i, np.full((2, 8, 3), 40 * i, np.uint8)) for i in range(4)]
    gc_was_enabled = gc.isenabled()
    gc.disable()  # reference counting alone must free each model and end its thread
    try:
        before = set(threading.enumerate())
        process_sequence(frames, config=CONFIG)
        assert len(made) == 1 and made[0]() is None
        assert not threads_left(before)

        stream = io.BytesIO()
        write_raw_stream(frames, stream)
        cut = io.BytesIO(stream.getvalue()[:-5])
        seen = 0
        with pytest.raises(StreamError):
            for _ in iter_sequence(read_raw_stream(cut), config=CONFIG):
                seen += 1
                assert set(threading.enumerate()) - before  # the strip thread runs
        assert seen == 3
        assert len(made) == 2 and made[1]() is None
        assert not threads_left(before)

        model = BackgroundModel(8, 2, CONFIG)
        model.update(frames[0])
        assert set(threading.enumerate()) - before
        freed = weakref.ref(model)
        del model
        assert freed() is None
        assert not threads_left(before)
    finally:
        if gc_was_enabled:
            gc.enable()
