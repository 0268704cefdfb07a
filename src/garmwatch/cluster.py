"""Grouping of regions into garment clusters.

Regions from one color plane are linked whenever the Euclidean gap
between their bounding boxes is at or below a threshold; the connected
components of that link graph are the region clusters (single linkage).
Clusters mostly covered by a person bounding box are discarded, since a
garment being worn is not a garment of interest on a rack.  Surviving
clusters become Detections scored by their area fraction of the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import ValidationError, check_number
from .frameio import BoundingBox, Detection, PersonBoxes
from .regions import Region


@dataclass
class RegionCluster:
    """A maximal set of mutually-nearby regions from one color band."""

    members: list[Region]
    bbox: BoundingBox
    color_label: str
    total_area: int


def box_gap(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean gap between two rectangles; 0 when they touch or overlap."""
    dx = max(0, max(a.x, b.x) - min(a.x2, b.x2))
    dy = max(0, max(a.y, b.y) - min(a.y2, b.y2))
    return math.hypot(dx, dy)


def cluster_contours(regions: list[Region], color_label: str,
                     gap_threshold: float) -> list[RegionCluster]:
    """Single-linkage grouping of regions by bounding-box gap.

    Two regions land in the same cluster iff they are connected through
    pairs whose box gap is <= gap_threshold.  Output ordered by
    (bbox.y, bbox.x); clusters that tie keep the order of their lowest
    input index, and each cluster's members keep input order.
    """
    check_number(gap_threshold, "gap_threshold", ValidationError, lo=0)
    placed = [False] * len(regions)
    clusters = []
    for first in range(len(regions)):
        if placed[first]:
            continue
        placed[first] = True
        group = [first]
        for i in group:  # the group grows while it is scanned
            for j in range(first + 1, len(regions)):
                if not placed[j] and box_gap(regions[i].bbox, regions[j].bbox) <= gap_threshold:
                    placed[j] = True
                    group.append(j)
        members = [regions[i] for i in sorted(group)]
        bbox = members[0].bbox
        for m in members[1:]:
            bbox = bbox.cover(m.bbox)
        clusters.append(RegionCluster(members, bbox, color_label,
                                      sum(m.area for m in members)))
    clusters.sort(key=lambda c: (c.bbox.y, c.bbox.x))
    return clusters


def exclude_persons(clusters: list[RegionCluster], persons: PersonBoxes | None,
                    containment_min=PipelineConfig.containment_min) -> list[RegionCluster]:
    """Drop clusters whose bbox lies mostly under the person boxes.

    A cluster goes when the union of person boxes covers at least
    containment_min of its bbox area.
    """
    check_number(containment_min, "containment_min", ValidationError, lo=0, hi=1)
    if persons is None or not persons.boxes:
        return list(clusters)
    out = []
    for cluster in clusters:
        # Covered pixels on a bbox-sized grid; bounds clamp at 0, as negatives wrap.
        b = cluster.bbox
        grid = np.zeros((b.h, b.w), dtype=bool)
        for p in persons.boxes:
            grid[max(p.y - b.y, 0):max(p.y2 - b.y, 0), max(p.x - b.x, 0):max(p.x2 - b.x, 0)] = True
        if np.count_nonzero(grid) < containment_min * b.area:
            out.append(cluster)
    return out


def to_detections(clusters: list[RegionCluster], frame_index: int,
                  frame_area: int) -> list[Detection]:
    """One Detection per cluster; score is its area share of the frame."""
    frame_area = check_number(frame_area, "frame_area", ValidationError, integer=True, lo=1)
    return [Detection(frame_index, c.bbox, c.color_label,
                      min(1.0, c.total_area / frame_area))
            for c in clusters]
