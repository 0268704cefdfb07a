"""End-to-end detection: frames in, garment Detections out.

Per frame the stages run in a fixed order: the background model classifies
and updates, and one pass over the foreground pixels builds each configured
color band's mask of pixels inside the band and above the binarize
threshold.  Each mask is closed and labelled into regions (box and pixel
count) inside its window only, the box around its set pixels grown by
se_size, which gives the whole-frame result (see regions).  Small regions
are dropped, the rest clustered by bounding-box gap, clusters under person
boxes discarded, and the survivors emitted as Detections.  No detections
are emitted during the warmup span while the model absorbs the static
scene, but the model still updates on it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import bgsub, cluster, colorseg, regions
from .config import PipelineConfig
from .errors import ValidationError
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
        detections: list[Detection] = []
        frame_area = frame.width * frame.height
        masks = colorseg.band_masks(frame, fg_mask, cfg.bands, cfg.binarize_threshold)
        for band, mask in zip(cfg.bands, masks):
            found = regions.filter_small(
                regions.closed_regions(mask, cfg.se_size), self.min_area)
            clusters = cluster.cluster_contours(found, band.label, self.gap_threshold)
            clusters = cluster.exclude_persons(clusters, persons, cfg.containment_min)
            detections.extend(cluster.to_detections(clusters, frame.index, frame_area))
        return detections


def iter_sequence(frames: Iterable[Frame],
                  persons: Iterable[PersonBoxes] | None = None,
                  config: PipelineConfig | None = None) -> Iterator[tuple[Frame, list[Detection]]]:
    """Run the pipeline over a frame stream, yielding (frame, detections).

    persons, when given, is matched to frames by index as both streams
    advance, so the sidecar is read one record at a time.  Frame indices
    must rise, as every frame reader yields them, and sidecar records must
    rise strictly (else ValidationError); frames without a sidecar entry
    get no person filtering.  After the last frame the rest of the sidecar is
    read, so a bad record past the end still fails.
    """
    records = _rising(persons or ())
    pending = next(records, None)
    pipeline = None
    for frame in frames:
        if pipeline is None:
            pipeline = Pipeline(frame.width, frame.height, config)
        while pending is not None and pending.frame_index < frame.index:
            pending = next(records, None)
        match = pending if pending is not None and pending.frame_index == frame.index else None
        yield frame, pipeline.process_frame(frame, match)
    for _ in records:
        pass


def _rising(persons: Iterable[PersonBoxes]) -> Iterator[PersonBoxes]:
    last = -1
    for record in persons:
        if record.frame_index <= last:
            raise ValidationError(f"person sidecar: frame {record.frame_index} "
                                  f"follows frame {last}; frames must rise strictly")
        last = record.frame_index
        yield record


def process_sequence(frames: Iterable[Frame],
                     persons: Iterable[PersonBoxes] | None = None,
                     config: PipelineConfig | None = None) -> list[Detection]:
    """Whole-stream variant of iter_sequence; returns all detections."""
    detections: list[Detection] = []
    for _, dets in iter_sequence(frames, persons, config):
        detections.extend(dets)
    return detections
