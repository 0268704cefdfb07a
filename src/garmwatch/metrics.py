"""Detection quality metrics: IoU, matching, precision/recall, PR curves.

Boxes are compared by intersection-over-union with areas counted as w x h
grid cells, so integer boxes give exact rationals.  Per frame, detections
pair with ground-truth boxes greedily: highest IoU first, one-to-one, a
pair counting as a true positive only at IoU >= tau.  Greedy matching can
differ from the TP-maximizing assignment on adversarial overlaps; it is
used anyway for determinism and speed, and the divergence cases live in
the test suite as pinned fixtures.

Counts add across frames.  Precision is tp/(tp+fp), recall tp/(tp+fn);
an empty denominator scores 1.0 when the other side is empty too (nothing
to find, nothing claimed) and 0.0 otherwise.  Reported mean IoU averages
over matched pairs only; unmatched ground truths do not contribute zeros.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import ValidationError, check_number
from .frameio import Annotation, BoundingBox, Detection


@dataclass(frozen=True)
class EvalCounts:
    tp: int
    fp: int
    fn: int


@dataclass
class EvalReport:
    counts: EvalCounts
    precision: float
    recall: float
    mean_iou: float
    threshold: float


def _check_tau(tau) -> float:
    """tau as a float, or ValidationError unless it is a number in (0, 1)."""
    tau = check_number(tau, "tau", ValidationError)
    if not 0.0 < tau < 1.0:
        raise ValidationError(f"tau must be in (0, 1), got {tau}")
    return tau


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 for disjoint boxes."""
    inter = a.intersection_area(b)
    return inter / (a.area + b.area - inter)


def _candidates(dets: list[BoundingBox], gts: list[BoundingBox]) -> list[tuple]:
    """Overlapping pairs as (-iou, det index, gt index), sorted: for any
    tau > 0 the pairs with IoU >= tau are a prefix."""
    return sorted((-v, di, gi) for di, d in enumerate(dets) for gi, g in enumerate(gts)
                  if (v := iou(d, g)) > 0.0)


def _greedy(pairs: list[tuple], tau: float) -> list[float]:
    """IoUs of the pairs greedy matching takes from the IoU >= tau prefix."""
    det_used, gt_used, matched_ious = set(), set(), []
    for neg_v, di, gi in pairs[:bisect_right(pairs, -tau, key=lambda p: p[0])]:
        if di not in det_used and gi not in gt_used:
            det_used.add(di)
            gt_used.add(gi)
            matched_ious.append(-neg_v)
    return matched_ious


def match_frame(dets: list[BoundingBox], gts: list[BoundingBox],
                tau: float) -> tuple[EvalCounts, list[float]]:
    """Greedy one-to-one matching of one frame's boxes.

    Candidate pairs are taken in descending IoU order (ties by detection
    index, then ground-truth index); a pair is a true positive when its
    IoU is >= tau.  Returns the counts and the matched pairs' IoUs in
    match order.
    """
    matched_ious = _greedy(_candidates(dets, gts), _check_tau(tau))
    tp = len(matched_ious)
    return EvalCounts(tp, len(dets) - tp, len(gts) - tp), matched_ious


def _ratio(num: int, den: int, other: int) -> float:
    if den > 0:
        return num / den
    return 1.0 if other == 0 else 0.0


def _by_frame(detections: list[Detection],
              annotations: list[Annotation]) -> list[tuple[list[BoundingBox], list[BoundingBox]]]:
    det_frames: dict[int, list[BoundingBox]] = {}
    for d in detections:
        det_frames.setdefault(d.frame_index, []).append(d.box)
    gt_frames: dict[int, list[BoundingBox]] = {}
    for ann in annotations:
        if ann.frame_index in gt_frames:
            raise ValidationError(f"duplicate annotation frame {ann.frame_index}")
        gt_frames[ann.frame_index] = list(ann.boxes)
    frames = sorted(det_frames.keys() | gt_frames.keys())
    return [(det_frames.get(i, []), gt_frames.get(i, [])) for i in frames]


DEFAULT_TAU = 0.55


def evaluate(detections: list[Detection], annotations: list[Annotation],
             tau: float = DEFAULT_TAU) -> EvalReport:
    """Match every frame at threshold tau and aggregate the counts.

    Frames present on only one side count with an empty box list for the
    other.
    """
    tau = _check_tau(tau)
    frames = _by_frame(detections, annotations)
    all_ious = [v for dets, gts in frames for v in _greedy(_candidates(dets, gts), tau)]
    tp, ndet, ngt = len(all_ious), len(detections), sum(len(gts) for _, gts in frames)
    mean_iou = sum(all_ious) / tp if tp else 0.0
    return EvalReport(EvalCounts(tp, ndet - tp, ngt - tp),
                      precision=_ratio(tp, ndet, ngt),
                      recall=_ratio(tp, ngt, ndet),
                      mean_iou=mean_iou, threshold=tau)


DEFAULT_TAUS = tuple(round(0.05 * i, 10) for i in range(1, 20))


def pr_curve(detections: list[Detection], annotations: list[Annotation],
             taus=DEFAULT_TAUS) -> list[tuple[float, float, float]]:
    """Evaluate at each threshold, computing every IoU once; rows are
    (tau, precision, recall).  Frames are scored one at a time, adding to a
    true-positive count per threshold."""
    taus = [_check_tau(tau) for tau in taus]
    if taus != sorted(taus):
        raise ValidationError("taus must be sorted ascending")
    frames = _by_frame(detections, annotations)
    tps = [0] * len(taus)
    for dets, gts in frames:
        pairs = _candidates(dets, gts)
        tps = [tp + len(_greedy(pairs, tau)) for tp, tau in zip(tps, taus)]
    ndet, ngt = len(detections), sum(len(gts) for _, gts in frames)
    return [(tau, _ratio(tp, ndet, ngt), _ratio(tp, ngt, ndet)) for tau, tp in zip(taus, tps)]


def format_summary(report: EvalReport) -> str:
    c = report.counts
    return ("tp,fp,fn,precision,recall,mean_iou\n"
            f"{c.tp},{c.fp},{c.fn},{report.precision:.9f},"
            f"{report.recall:.9f},{report.mean_iou:.9f}")


def format_curve_csv(rows: list[tuple[float, float, float]]) -> str:
    lines = ["tau,precision,recall"]
    for tau, precision, recall in rows:
        lines.append(f"{tau:g},{precision:.9f},{recall:.9f}")
    return "\n".join(lines)
