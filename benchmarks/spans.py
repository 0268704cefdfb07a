"""Spans around the calls into each garmwatch layer, and the per-layer metrics.

The wrappers are installed from outside the package: each replaces a
module or class attribute, so they see every call that goes through that
attribute (``Pipeline.process_frame`` calls its layers through module
attributes).  A span records its name, start, end, parent span and the
index of the frame being processed.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder with attribute-patching wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.frame: int | None = None
        self.model = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "frame": self.frame}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, count=None, frame_arg=None) -> None:
        """Record a span per call of owner.attr.

        count(args, result) returns counters stored on the span, computed
        after the span ends; frame_arg is the position of a Frame argument
        whose index keys this span and its children.
        """
        call = getattr(owner, attr)

        def traced(*args, **kwargs):
            outer = self.frame
            if frame_arg is not None:
                self.frame = args[frame_arg].index
            span = self._open(name)
            try:
                result = call(*args, **kwargs)
            finally:
                self._close(span)
                self.frame = outer
            if count is not None:
                span.update(count(args, result))
            return result

        self._patch(owner, attr, traced)

    def wrap_reader(self, owner, attr: str, name: str) -> None:
        """Record a span per frame drawn from the iterator owner.attr returns."""
        call = getattr(owner, attr)

        def traced(*args, **kwargs):
            frames = iter(call(*args, **kwargs))
            while True:
                span = self._open(name)
                try:
                    frame = next(frames, None)
                finally:
                    self._close(span)
                if frame is None:
                    self.spans.pop()
                    return
                span["frame"] = frame.index
                yield frame

        self._patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def trace_detect(tracer: Tracer) -> None:
    """Wrap every layer call that ``garmwatch detect`` makes."""
    from garmwatch import bgsub, cli, cluster, colorseg, frameio, pipeline, regions

    def update_counts(args, mask):
        tracer.model = args[0]
        return {"fg_px": int(np.count_nonzero(mask)), "px": int(mask.size)}

    def sizes(args, result):
        return {"n_in": len(args[0]), "n": len(result)}

    tracer.wrap(cli, "cmd_detect", "cli.detect")
    tracer.wrap(pipeline.Pipeline, "process_frame", "pipeline.process_frame", frame_arg=1)
    tracer.wrap(bgsub.BackgroundModel, "update", "bgsub.update", count=update_counts)
    tracer.wrap(bgsub, "apply_mask", "bgsub.apply_mask")
    tracer.wrap(colorseg, "band_masks", "colorseg.band_masks", count=lambda a, masks: {
        "band_px": sum(int(np.count_nonzero(m)) for m in masks)})
    tracer.wrap(colorseg, "masked_to_gray", "colorseg.masked_to_gray")
    tracer.wrap(regions, "binarize", "regions.binarize")
    tracer.wrap(regions, "close", "regions.close")
    tracer.wrap(regions, "trace_contours", "regions.trace_contours",
                count=lambda a, contours: {"n": len(contours)})
    tracer.wrap(regions, "filter_small", "regions.filter_small", count=sizes)
    tracer.wrap(cluster, "cluster_contours", "cluster.cluster_contours",
                count=lambda a, clusters: {"n": len(clusters)})
    tracer.wrap(cluster, "exclude_persons", "cluster.exclude_persons", count=sizes)
    tracer.wrap(cluster, "to_detections", "cluster.to_detections")
    tracer.wrap_reader(frameio, "read_frame_sequence", "frameio.read_frame")
    tracer.wrap_reader(frameio, "read_raw_stream", "frameio.read_frame")
    tracer.wrap(frameio, "write_detections", "frameio.write_detections")


def trace_scoring(tracer: Tracer) -> None:
    """Wrap the calls that ``garmwatch eval`` and ``garmwatch curve`` make."""
    from garmwatch import cli, metrics

    tracer.wrap(cli, "cmd_eval", "cli.eval")
    tracer.wrap(cli, "cmd_curve", "cli.curve")
    tracer.wrap(metrics, "evaluate", "metrics.evaluate")
    tracer.wrap(metrics, "pr_curve", "metrics.pr_curve")


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_ms(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s["id"]: _ms(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _ms(s)
    return own


def layer_metrics(detect: list[dict], setup: list[dict], score: list[dict],
                  warmup: int, ncomp: tuple[float, int]) -> dict[str, float]:
    """Per-layer figures from one traced detect call, the set-ups and the scoring.

    ncomp is the mean and the maximum live component count of the
    background model at the end of the traced call.

    Times of layers that run once per active frame are ms per active
    frame; bgsub.update is split into warmup and active frames; readers
    and process_frame are per frame; the rest are per call.
    """
    named = defaultdict(list)
    for s in detect + setup + score:
        named[s["name"]].append(s)
    own = _self_ms(detect)
    active = [s for s in named["pipeline.process_frame"] if s["frame"] >= warmup]
    n_active = len(active)

    def per_active(name: str) -> float:
        return _ratio(sum(_ms(s) for s in named[name]), n_active)

    def mean_ms(spans: list[dict]) -> float:
        return statistics.fmean(_ms(s) for s in spans) if spans else 0.0

    def total(name: str, key: str) -> int:
        return sum(s[key] for s in named[name])

    updates = named["bgsub.update"]
    active_updates = [s for s in updates if s["frame"] >= warmup]
    out = {
        "bgsub.update.warmup_ms": mean_ms([s for s in updates if s["frame"] < warmup]),
        "bgsub.update.active_ms": mean_ms(active_updates),
        "bgsub.fg_frac": _ratio(sum(s["fg_px"] for s in active_updates),
                                sum(s["px"] for s in active_updates)),
        "bgsub.ncomp_mean": ncomp[0],
        "bgsub.kmax": ncomp[1],
        "colorseg.band_px": _ratio(total("colorseg.band_masks", "band_px"), n_active),
        "regions.components": _ratio(total("regions.trace_contours", "n"), n_active),
        "regions.kept_ratio": _ratio(total("regions.filter_small", "n"),
                                     total("regions.filter_small", "n_in")),
        "cluster.clusters": _ratio(total("cluster.cluster_contours", "n"), n_active),
        "cluster.person_suppressed_ratio": _ratio(
            total("cluster.exclude_persons", "n_in") - total("cluster.exclude_persons", "n"),
            total("cluster.exclude_persons", "n_in")),
        "pipeline.process_frame.self_ms": _ratio(sum(own[s["id"]] for s in active), n_active),
        "cli.detect.self_ms": _ratio(sum(own[s["id"]] for s in named["cli.detect"]),
                                     len(named["cli.detect"])),
        "frameio.read_frame.ms": mean_ms(named["frameio.read_frame"]),
        "frameio.write_detections.ms": mean_ms(named["frameio.write_detections"]),
        "synth.generate_frames.ms": mean_ms(named["synth.generate_frames"]),
        "synth.write_inputs.ms": mean_ms(named["synth.write_inputs"]),
        "metrics.pr_curve.ms": mean_ms(named["metrics.pr_curve"]),
    }
    eval_ids = {s["id"] for s in named["cli.eval"]}
    out["metrics.evaluate.ms"] = mean_ms(
        [s for s in named["metrics.evaluate"] if s["parent"] in eval_ids])
    for name in ("bgsub.apply_mask", "colorseg.band_masks", "colorseg.masked_to_gray",
                 "regions.binarize", "regions.close", "regions.trace_contours",
                 "regions.filter_small", "cluster.cluster_contours",
                 "cluster.exclude_persons", "cluster.to_detections"):
        out[name + ".ms"] = per_active(name)
    return out
