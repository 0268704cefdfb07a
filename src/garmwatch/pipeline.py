"""End-to-end detection: frames in, garment Detections out.

Per frame the stages run in a fixed order: the background model classifies
and updates, foreground pixels survive into the F-frame, each configured
color band masks the F-frame and converts its pixels to grayscale, the
grayscale plane is thresholded and closed, contours are traced, small ones
dropped, the rest clustered by bounding-box gap, clusters under person
boxes discarded, and the survivors emitted as Detections.  No detections
are emitted during the warmup span while the model absorbs the static
scene, but the model still updates on those frames.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import bgsub, cluster, colorseg, regions
from .config import PipelineConfig
from .frameio import Detection, Frame, PersonBoxes


class Pipeline:
    """Stateful per-sequence detector; feed frames strictly in order."""

    def __init__(self, width: int, height: int, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.model = bgsub.BackgroundModel(width, height, self.config)
        self.min_area = self.config.min_area_for(width, height)
        self.gap_threshold = self.config.gap_threshold_for(width, height)

    def process_frame(self, frame: Frame,
                      persons: PersonBoxes | None = None) -> list[Detection]:
        cfg = self.config
        fg_mask = self.model.update(frame)
        if frame.index < cfg.warmup:
            return []
        fframe = bgsub.apply_mask(frame, fg_mask)
        detections: list[Detection] = []
        frame_area = frame.width * frame.height
        masks = colorseg.band_masks(fframe, cfg.bands)
        for band, mask in zip(cfg.bands, masks):
            gray = colorseg.masked_to_gray(fframe, mask)
            closed = regions.close(regions.binarize(gray, cfg.binarize_threshold),
                                   cfg.se_size)
            contours = regions.filter_small(regions.trace_contours(closed),
                                            self.min_area)
            clusters = cluster.cluster_contours(contours, band.label,
                                                self.gap_threshold)
            clusters = cluster.exclude_persons(clusters, persons, cfg.containment_min)
            detections.extend(cluster.to_detections(clusters, frame.index, frame_area))
        return detections


def iter_sequence(frames: Iterable[Frame],
                  persons: Iterable[PersonBoxes] | None = None,
                  config: PipelineConfig | None = None) -> Iterator[tuple[Frame, list[Detection]]]:
    """Run the pipeline over a frame stream, yielding (frame, detections).

    persons, when given, is matched to frames by index; frames without a
    sidecar entry get no person filtering.
    """
    sidecar = {}
    if persons is not None:
        for record in persons:
            sidecar[record.frame_index] = record
    pipeline = None
    for frame in frames:
        if pipeline is None:
            pipeline = Pipeline(frame.width, frame.height, config)
        yield frame, pipeline.process_frame(frame, sidecar.get(frame.index))


def process_sequence(frames: Iterable[Frame],
                     persons: Iterable[PersonBoxes] | None = None,
                     config: PipelineConfig | None = None) -> list[Detection]:
    """Whole-stream variant of iter_sequence; returns all detections."""
    detections: list[Detection] = []
    for _, dets in iter_sequence(frames, persons, config):
        detections.extend(dets)
    return detections
