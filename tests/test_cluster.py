from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garmwatch import (BoundingBox, PersonBoxes, ValidationError, box_gap,
                       cluster_contours, exclude_persons, to_detections)
from garmwatch.cluster import RegionCluster
from garmwatch.regions import Region


def contour_at(x, y, w, h, area=None):
    return Region(BoundingBox(x, y, w, h), area or (w * h))


def random_box(rng, span=30, max_side=8):
    x = int(rng.integers(0, span))
    y = int(rng.integers(0, span))
    w = int(rng.integers(1, max_side))
    h = int(rng.integers(1, max_side))
    return BoundingBox(x, y, w, h)


# ---------------------------------------------------------------------------
# box_gap

def test_gap_zero_for_overlap_and_touch():
    a = BoundingBox(0, 0, 10, 10)
    assert box_gap(a, BoundingBox(5, 5, 10, 10)) == 0.0
    assert box_gap(a, BoundingBox(10, 0, 5, 5)) == 0.0  # edges touch
    assert box_gap(a, a) == 0.0


def test_gap_horizontal():
    assert box_gap(BoundingBox(0, 0, 10, 10), BoundingBox(20, 0, 10, 10)) == 10.0


def test_gap_diagonal():
    # corners (10,10) and (13,14): gap 5
    assert box_gap(BoundingBox(0, 0, 10, 10), BoundingBox(13, 14, 5, 5)) == 5.0


def test_gap_symmetric():
    rng = np.random.default_rng(20)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        assert box_gap(a, b) == box_gap(b, a)


def test_gap_against_lattice_brute_force():
    # min distance over all integer points of the two solid rectangles,
    # which for integer boxes equals the true rectangle distance
    rng = np.random.default_rng(21)
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        ax, ay = np.meshgrid(np.arange(a.x, a.x2 + 1), np.arange(a.y, a.y2 + 1))
        bx, by = np.meshgrid(np.arange(b.x, b.x2 + 1), np.arange(b.y, b.y2 + 1))
        pa = np.stack([ax.ravel(), ay.ravel()], axis=1)
        pb = np.stack([bx.ravel(), by.ravel()], axis=1)
        d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
        want = float(np.sqrt(d2.min()))
        assert box_gap(a, b) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# cluster_contours

def bfs_clusters(contours, threshold):
    """Independent grouping: adjacency list plus breadth-first search."""
    n = len(contours)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if box_gap(contours[i].bbox, contours[j].bbox) <= threshold:
                adj[i].append(j)
                adj[j].append(i)
    seen = [False] * n
    groups = []
    for s in range(n):
        if seen[s]:
            continue
        group = []
        queue = deque([s])
        seen[s] = True
        while queue:
            i = queue.popleft()
            group.append(i)
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        groups.append(frozenset(group))
    return set(groups)


def test_single_contour_single_cluster():
    c = contour_at(5, 5, 4, 4)
    clusters = cluster_contours([c], "red", 10.0)
    assert len(clusters) == 1
    assert clusters[0].members == [c]
    assert clusters[0].bbox == c.bbox
    assert clusters[0].total_area == 16
    assert clusters[0].color_label == "red"


def test_far_contours_stay_apart():
    a = contour_at(0, 0, 4, 4)
    b = contour_at(50, 0, 4, 4)
    assert len(cluster_contours([a, b], "red", 10.0)) == 2
    assert len(cluster_contours([a, b], "red", 50.0)) == 1


def test_empty_input():
    assert cluster_contours([], "red", 5.0) == []


def test_negative_threshold_rejected():
    with pytest.raises(ValidationError):
        cluster_contours([], "red", -1.0)


def test_clusters_match_bfs_oracle():
    rng = np.random.default_rng(22)
    for trial in range(50):
        contours = [Region(random_box(rng), 1)
                    for _ in range(int(rng.integers(1, 12)))]
        threshold = float(rng.integers(0, 15))
        clusters = cluster_contours(contours, "blue", threshold)
        index = {id(c): i for i, c in enumerate(contours)}
        got = {frozenset(index[id(m)] for m in cl.members) for cl in clusters}
        assert got == bfs_clusters(contours, threshold), f"trial {trial}"


def test_every_contour_in_exactly_one_cluster():
    rng = np.random.default_rng(23)
    contours = [Region(random_box(rng), 1) for _ in range(15)]
    clusters = cluster_contours(contours, "red", 6.0)
    seen = [m for cl in clusters for m in cl.members]
    assert len(seen) == len(contours)
    assert {id(m) for m in seen} == {id(c) for c in contours}


def test_cluster_count_monotone_in_threshold():
    rng = np.random.default_rng(24)
    for _ in range(20):
        contours = [Region(random_box(rng), 1) for _ in range(10)]
        counts = [len(cluster_contours(contours, "red", t))
                  for t in (0.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_cluster_bbox_is_minimal_cover():
    rng = np.random.default_rng(25)
    contours = [Region(random_box(rng), 1) for _ in range(12)]
    for cl in cluster_contours(contours, "red", 8.0):
        xs = [m.bbox.x for m in cl.members]
        ys = [m.bbox.y for m in cl.members]
        x2s = [m.bbox.x2 for m in cl.members]
        y2s = [m.bbox.y2 for m in cl.members]
        assert cl.bbox == BoundingBox(min(xs), min(ys),
                                      max(x2s) - min(xs), max(y2s) - min(ys))
        assert cl.total_area == sum(m.area for m in cl.members)


# The union-find grouping cluster_contours used before its one-scan
# rewrite, kept verbatim as the reference for cluster order, member order
# and every field.

class UnionFind:
    """Disjoint sets over range(n) with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def union_find_cluster_contours(regions: list[Region], color_label: str,
                                gap_threshold: float) -> list[RegionCluster]:
    """Single-linkage grouping of regions by bounding-box gap.

    Two regions land in the same cluster iff they are connected through
    pairs whose box gap is <= gap_threshold.  Output ordered by
    (bbox.y, bbox.x).
    """
    if gap_threshold < 0:
        raise ValidationError(f"gap_threshold must be >= 0, got {gap_threshold}")
    if not regions:
        return []
    uf = UnionFind(len(regions))
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if box_gap(regions[i].bbox, regions[j].bbox) <= gap_threshold:
                uf.union(i, j)
    groups: dict[int, list[Region]] = {}
    for i, region in enumerate(regions):
        groups.setdefault(uf.find(i), []).append(region)
    clusters = []
    for members in groups.values():
        bbox = members[0].bbox
        for m in members[1:]:
            bbox = bbox.cover(m.bbox)
        clusters.append(RegionCluster(members, bbox, color_label,
                                      sum(m.area for m in members)))
    clusters.sort(key=lambda c: (c.bbox.y, c.bbox.x))
    return clusters


def cluster_fields(clusters):
    return [(c.bbox, c.color_label, c.total_area, [id(m) for m in c.members])
            for c in clusters]


# (x, y, w, h, area) on a small grid, so that links, touching boxes,
# duplicate boxes and (bbox.y, bbox.x) ties all occur
region_specs = st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14), st.integers(1, 6),
                                  st.integers(1, 6), st.integers(1, 40)), max_size=30)
gaps = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2 ** 0.5, 2.5]), st.floats(0.0, 12.0))

# A ring of four linked bars whose cover starts at (0, 0), and a one-pixel
# region at (0, 0) inside it, 2 px from the nearest bar: two clusters
# with the same top-left corner.  Scanning from the top bar finds the
# left bar last, so the ring's members come out of order unless sorted.
RING = [(3, 0, 10, 2, 20), (0, 3, 2, 10, 20), (12, 2, 2, 10, 20), (2, 12, 10, 2, 20)]
PIXEL = (0, 0, 1, 1, 1)


@settings(max_examples=300, deadline=None)
@given(region_specs, gaps)
@example(RING + [PIXEL], 1.0)
@example([PIXEL] + RING, 1.0)
def test_clusters_equal_union_find_reference(specs, gap):
    regions = [Region(BoundingBox(x, y, w, h), area) for x, y, w, h, area in specs]
    got = cluster_contours(regions, "red", gap)
    assert cluster_fields(got) == cluster_fields(
        union_find_cluster_contours(regions, "red", gap))


# ---------------------------------------------------------------------------
# exclude_persons

def rasterized_coverage(bbox, boxes, span=64):
    grid = np.zeros((span, span), bool)
    for b in boxes:
        grid[b.y:b.y2, b.x:b.x2] = True
    return int(grid[bbox.y:bbox.y2, bbox.x:bbox.x2].sum())


def make_cluster(bbox, label="red"):
    from garmwatch.cluster import RegionCluster
    c = Region(bbox, bbox.area)
    return RegionCluster([c], bbox, label, bbox.area)


def test_exclude_nothing_without_persons():
    clusters = [make_cluster(BoundingBox(0, 0, 5, 5))]
    assert exclude_persons(clusters, None) == clusters
    assert exclude_persons(clusters, PersonBoxes(0, [])) == clusters


def test_exclude_fully_contained():
    cluster = make_cluster(BoundingBox(10, 10, 5, 5))
    persons = PersonBoxes(0, [BoundingBox(5, 5, 20, 20)])
    assert exclude_persons([cluster], persons, 0.5) == []


def test_exclude_ignores_light_overlap():
    cluster = make_cluster(BoundingBox(0, 0, 10, 10))
    persons = PersonBoxes(0, [BoundingBox(8, 8, 10, 10)])  # 4 of 100 cells
    assert exclude_persons([cluster], persons, 0.5) == [cluster]


def test_exclude_against_rasterized_oracle():
    rng = np.random.default_rng(26)
    for trial in range(100):
        clusters = [make_cluster(random_box(rng, span=40))
                    for _ in range(int(rng.integers(1, 6)))]
        persons = PersonBoxes(0, [random_box(rng, span=40, max_side=15)
                                  for _ in range(int(rng.integers(0, 4)))])
        cmin = float(rng.choice([0.25, 0.5, 0.75]))
        kept = exclude_persons(clusters, persons, cmin)
        want = []
        for cl in clusters:
            covered = rasterized_coverage(cl.bbox, persons.boxes)
            if not persons.boxes or covered < cmin * cl.bbox.area:
                want.append(cl)
        assert kept == want, f"trial {trial}"


def test_exclude_idempotent():
    rng = np.random.default_rng(27)
    clusters = [make_cluster(random_box(rng, span=40)) for _ in range(8)]
    persons = PersonBoxes(0, [random_box(rng, span=40, max_side=20)])
    once = exclude_persons(clusters, persons, 0.5)
    assert exclude_persons(once, persons, 0.5) == once


def test_exclude_validates_fraction():
    with pytest.raises(ValidationError):
        exclude_persons([], PersonBoxes(0, []), 1.5)


# ---------------------------------------------------------------------------
# to_detections

def test_to_detections_empty():
    assert to_detections([], 0, 100) == []


def test_to_detections_full_frame_scores_one():
    cluster = make_cluster(BoundingBox(0, 0, 10, 10))
    cluster.total_area = 100
    (det,) = to_detections([cluster], 7, 100)
    assert det.score == 1.0
    assert det.frame_index == 7
    assert det.box == cluster.bbox
    assert det.color == "red"


def test_to_detections_score_arithmetic():
    rng = np.random.default_rng(28)
    for _ in range(50):
        bbox = random_box(rng)
        cluster = make_cluster(bbox)
        frame_area = int(rng.integers(50, 5000))
        (det,) = to_detections([cluster], 0, frame_area)
        assert det.score == pytest.approx(min(1.0, bbox.area / frame_area))


def test_to_detections_rejects_empty_frame():
    with pytest.raises(ValidationError):
        to_detections([], 0, 0)
