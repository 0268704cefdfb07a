import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garmwatch import (Annotation, BoundingBox, Detection, ValidationError,
                       evaluate, iou, match_frame, pr_curve)
from garmwatch.metrics import DEFAULT_TAUS, format_curve_csv, format_summary


def random_box(rng, span=20, lo=3, hi=11):
    return BoundingBox(int(rng.integers(0, span)), int(rng.integers(0, span)),
                       int(rng.integers(lo, hi)), int(rng.integers(lo, hi)))


def rasterized_iou(a, b):
    # paint both boxes on a shared grid and count cells
    w = max(a.x2, b.x2) + 1
    h = max(a.y2, b.y2) + 1
    ga = np.zeros((h, w), bool)
    gb = np.zeros((h, w), bool)
    ga[a.y:a.y2, a.x:a.x2] = True
    gb[b.y:b.y2, b.x:b.x2] = True
    inter = int((ga & gb).sum())
    union = int((ga | gb).sum())
    return inter / union


def max_bipartite_tp(dets, gts, tau):
    # optimal one-to-one matching size via augmenting paths
    ok = [[iou(d, g) >= tau for g in gts] for d in dets]
    match_gt = [-1] * len(gts)

    def augment(d, visited):
        for g in range(len(gts)):
            if ok[d][g] and not visited[g]:
                visited[g] = True
                if match_gt[g] == -1 or augment(match_gt[g], visited):
                    match_gt[g] = d
                    return True
        return False

    return sum(augment(d, [False] * len(gts)) for d in range(len(dets)))


# ---------------------------------------------------------------------------
# iou

def test_iou_identical():
    b = BoundingBox(2, 3, 7, 5)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 5, 5)) == 0.0


def test_iou_exact_third():
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10)) == 1 / 3


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(29)
    for _ in range(500):
        a, b = random_box(rng), random_box(rng)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def test_iou_equals_rasterized_count():
    rng = np.random.default_rng(30)
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        assert iou(a, b) == rasterized_iou(a, b)


# ---------------------------------------------------------------------------
# match_frame

def test_match_identical_lists():
    boxes = [BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 5, 5)]
    counts, ious = match_frame(boxes, list(boxes), 0.55)
    assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)
    assert ious == [1.0, 1.0]


def test_match_detection_without_truth():
    counts, ious = match_frame([BoundingBox(0, 0, 5, 5)], [], 0.55)
    assert (counts.tp, counts.fp, counts.fn) == (0, 1, 0)
    assert ious == []


def test_match_truth_without_detection():
    counts, _ = match_frame([], [BoundingBox(0, 0, 5, 5)], 0.55)
    assert (counts.tp, counts.fp, counts.fn) == (0, 0, 1)


def test_match_rejects_bad_tau():
    with pytest.raises(ValidationError):
        match_frame([], [], 0.0)
    with pytest.raises(ValidationError):
        match_frame([], [], 1.0)


def test_match_counts_partition_inputs():
    rng = np.random.default_rng(31)
    for _ in range(100):
        dets = [random_box(rng) for _ in range(int(rng.integers(0, 6)))]
        gts = [random_box(rng) for _ in range(int(rng.integers(0, 6)))]
        counts, ious = match_frame(dets, gts, 0.5)
        assert counts.tp + counts.fp == len(dets)
        assert counts.tp + counts.fn == len(gts)
        assert len(ious) == counts.tp
        assert all(v >= 0.5 for v in ious)


def test_match_agrees_with_exhaustive_oracle():
    # the seeds below produce no greedy-vs-optimal divergence; the known
    # divergent construction is pinned separately
    rng = np.random.default_rng(32)
    for trial in range(200):
        dets = [random_box(rng) for _ in range(5)]
        gts = [random_box(rng) for _ in range(5)]
        tau = float(rng.choice([0.3, 0.5, 0.55]))
        counts, _ = match_frame(dets, gts, tau)
        optimal = max_bipartite_tp(dets, gts, tau)
        assert counts.tp <= optimal
        assert counts.tp == optimal, f"trial {trial}: {counts.tp} != {optimal}"


def test_pinned_greedy_divergence():
    # two detections straddling one ground truth: greedy spends A on gt1
    # (tie-break by detection index) and loses the A-gt2 pair
    dets = [BoundingBox(3, 0, 10, 10), BoundingBox(0, 3, 10, 10)]
    gts = [BoundingBox(0, 0, 10, 10), BoundingBox(8, 0, 10, 10)]
    tau = 0.3
    assert iou(dets[0], gts[0]) == iou(dets[1], gts[0]) == 70 / 130
    assert iou(dets[0], gts[1]) == 1 / 3
    assert iou(dets[1], gts[1]) < tau
    counts, ious = match_frame(dets, gts, tau)
    assert (counts.tp, counts.fp, counts.fn) == (1, 1, 1)
    assert ious == [70 / 130]
    assert max_bipartite_tp(dets, gts, tau) == 2  # the optimum greedy misses


def test_match_tie_break_is_deterministic():
    # both detections overlap the ground truth equally; index order decides
    dets = [BoundingBox(3, 0, 10, 10), BoundingBox(0, 3, 10, 10)]
    gts = [BoundingBox(0, 0, 10, 10)]
    counts, ious = match_frame(dets, gts, 0.3)
    assert counts.tp == 1
    # swapping detection order must keep the same counts
    counts2, _ = match_frame(list(reversed(dets)), gts, 0.3)
    assert counts.tp == counts2.tp


# ---------------------------------------------------------------------------
# evaluate

def dets_of(frames):
    return [Detection(i, b, "red", 0.1) for i, boxes in frames for b in boxes]


def anns_of(frames):
    return [Annotation(i, list(boxes)) for i, boxes in frames]


def test_evaluate_perfect():
    boxes = [BoundingBox(0, 0, 5, 5), BoundingBox(20, 20, 8, 8)]
    report = evaluate(dets_of([(0, boxes)]), anns_of([(0, boxes)]), 0.55)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.mean_iou == 1.0
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (2, 0, 0)


def test_evaluate_paper_ratio_counts():
    # 82 agreeing frames and 18 disagreeing ones: tp=82, fp=18, fn=18
    gt_box = BoundingBox(10, 10, 20, 20)
    far_box = BoundingBox(60, 60, 20, 20)
    det_frames = [(i, [gt_box if i < 82 else far_box]) for i in range(100)]
    gt_frames = [(i, [gt_box]) for i in range(100)]
    report = evaluate(dets_of(det_frames), anns_of(gt_frames), 0.55)
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (82, 18, 18)
    assert report.precision == pytest.approx(0.82, abs=1e-9)
    assert report.recall == pytest.approx(0.82, abs=1e-9)


def test_evaluate_reconciles_missing_frames():
    report = evaluate(dets_of([(0, [BoundingBox(0, 0, 5, 5)])]),
                      anns_of([(1, [BoundingBox(0, 0, 5, 5)])]), 0.5)
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (0, 1, 1)


def test_evaluate_empty_both_sides():
    report = evaluate([], [], 0.5)
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.mean_iou == 0.0


@pytest.mark.parametrize("tau", [1.5, float("nan"), -3.0])
def test_evaluate_rejects_bad_tau_without_boxes(tau):
    with pytest.raises(ValidationError, match="tau"):
        evaluate([], [], tau)


def test_evaluate_no_detections():
    report = evaluate([], anns_of([(0, [BoundingBox(0, 0, 5, 5)])]), 0.5)
    assert report.precision == 0.0
    assert report.recall == 0.0


def test_evaluate_rejects_duplicate_annotation_frames():
    anns = [Annotation(0, []), Annotation(0, [])]
    with pytest.raises(ValidationError):
        evaluate([], anns, 0.5)


def test_evaluate_matches_per_frame_summation():
    rng = np.random.default_rng(33)
    det_frames = []
    gt_frames = []
    for i in range(20):
        det_frames.append((i, [random_box(rng) for _ in range(int(rng.integers(0, 4)))]))
        gt_frames.append((i, [random_box(rng) for _ in range(int(rng.integers(0, 4)))]))
    report = evaluate(dets_of(det_frames), anns_of(gt_frames), 0.5)
    tp = fp = fn = 0
    ious = []
    for (_, dboxes), (_, gboxes) in zip(det_frames, gt_frames):
        counts, frame_ious = match_frame(dboxes, gboxes, 0.5)
        tp += counts.tp
        fp += counts.fp
        fn += counts.fn
        ious.extend(frame_ious)
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (tp, fp, fn)
    assert report.mean_iou == pytest.approx(np.mean(ious) if ious else 0.0)


# ---------------------------------------------------------------------------
# pr_curve

def test_default_sweep_has_19_points():
    assert len(DEFAULT_TAUS) == 19
    assert DEFAULT_TAUS[0] == 0.05
    assert DEFAULT_TAUS[-1] == 0.95


def test_curve_perfect_detections():
    boxes = [BoundingBox(0, 0, 10, 10)]
    rows = pr_curve(dets_of([(0, boxes)]), anns_of([(0, boxes)]))
    assert len(rows) == 19
    assert all(p == 1.0 and r == 1.0 for _, p, r in rows)


def test_curve_monotone_non_increasing():
    rng = np.random.default_rng(34)
    det_frames = [(i, [random_box(rng) for _ in range(3)]) for i in range(10)]
    gt_frames = [(i, [random_box(rng) for _ in range(3)]) for i in range(10)]
    rows = pr_curve(dets_of(det_frames), anns_of(gt_frames))
    precisions = [p for _, p, _ in rows]
    recalls = [r for _, _, r in rows]
    assert all(a >= b for a, b in zip(precisions, precisions[1:]))
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


# boxes of 1..4 cells on a small grid overlap often and tie often, with IoUs
# such as 1/4, 1/3 and 1/2 that the threshold pool hits exactly
SMALL_BOX = st.builds(BoundingBox, st.integers(0, 6), st.integers(0, 6),
                      st.integers(1, 4), st.integers(1, 4))
FRAMES = st.dictionaries(st.integers(0, 4), st.lists(SMALL_BOX, max_size=4), max_size=4)
TAU = st.sampled_from((1 / 4, 1 / 3, 1 / 2, 2 / 3) + DEFAULT_TAUS) | st.floats(0.01, 0.99)


@settings(max_examples=200, deadline=None)
@given(FRAMES, FRAMES, st.lists(TAU, min_size=1, max_size=6))
def test_curve_equals_evaluate_at_each_tau(det_frames, gt_frames, taus):
    dets, anns = dets_of(det_frames.items()), anns_of(gt_frames.items())
    taus = sorted(taus)
    want = [(t, evaluate(dets, anns, t).precision, evaluate(dets, anns, t).recall)
            for t in taus]
    assert pr_curve(dets, anns, taus) == want


def test_curve_rejects_bad_taus():
    with pytest.raises(ValidationError):
        pr_curve([], [], [0.5, 0.3])
    with pytest.raises(ValidationError):
        pr_curve([], [], [0.0, 0.5])


# ---------------------------------------------------------------------------
# formatting

def test_format_summary_shape():
    report = evaluate([], [], 0.5)
    lines = format_summary(report).splitlines()
    assert lines[0] == "tp,fp,fn,precision,recall,mean_iou"
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert float(fields[3]) == 1.0


def test_format_curve_csv_shape():
    rows = [(0.05, 1.0, 0.5), (0.1, 0.75, 0.25)]
    lines = format_curve_csv(rows).splitlines()
    assert lines[0] == "tau,precision,recall"
    assert lines[1].startswith("0.05,")
    assert len(lines) == 3
