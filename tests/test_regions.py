from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from garmwatch import (Region, ValidationError, binarize, close, components, filter_small,
                       trace_contours)
from garmwatch.frameio import BoundingBox
from garmwatch.regions import Contour, closed_regions


def flood_fill_components(mask):
    """Independent 8-connected labeling: BFS from scratch, no scipy.

    Returns a list of pixel-coordinate sets, one per component.
    """
    h, w = mask.shape
    seen = np.zeros_like(mask, bool)
    components = []
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            comp = set()
            queue = deque([(sx, sy)])
            seen[sy, sx] = True
            while queue:
                x, y = queue.popleft()
                comp.add((x, y))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        nx, ny = x + dx, y + dy
                        if (0 <= nx < w and 0 <= ny < h
                                and mask[ny, nx] and not seen[ny, nx]):
                            seen[ny, nx] = True
                            queue.append((nx, ny))
            components.append(comp)
    return components


# ---------------------------------------------------------------------------
# binarize

def test_binarize_edges():
    assert not binarize(np.zeros((3, 3), np.uint8), 0).any()
    assert binarize(np.full((3, 3), 255, np.uint8), 0).all()
    # strict comparison: equal to threshold is background
    assert not binarize(np.full((2, 2), 40, np.uint8), 40).any()


def test_binarize_against_loop():
    rng = np.random.default_rng(14)
    gray = rng.integers(0, 256, size=(10, 12), dtype=np.uint8)
    mask = binarize(gray, 40)
    for y in range(10):
        for x in range(12):
            assert mask[y, x] == (gray[y, x] > 40)


# ---------------------------------------------------------------------------
# close

def test_close_fills_interior_hole():
    mask = np.ones((7, 7), bool)
    mask[3, 3] = False
    closed = close(mask, 3)
    assert closed.all()


def test_close_on_empty_mask():
    assert not close(np.zeros((8, 8), bool), 5).any()


def test_close_extensive_and_idempotent():
    rng = np.random.default_rng(15)
    for _ in range(50):
        mask = rng.random((16, 16)) < 0.4
        once = close(mask, 3)
        assert np.all(once >= mask)  # extensive
        assert np.array_equal(close(once, 3), once)  # idempotent


def test_close_rejects_even_element():
    with pytest.raises(ValidationError):
        close(np.zeros((4, 4), bool), 4)
    with pytest.raises(ValidationError):
        closed_regions(np.zeros((4, 4), bool), 4)


def test_close_preserves_border_foreground():
    # a solid block touching the border must survive closing unchanged
    mask = np.zeros((10, 10), bool)
    mask[0:4, 0:4] = True
    closed = close(mask, 5)
    assert np.all(closed >= mask)


@st.composite
def masks(draw):
    """Bool masks of 1..24 per side, 1xN and Nx1 included, with all-False
    and all-True drawn as often as random fills."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    return draw(st.one_of(st.just(np.zeros((h, w), bool)), st.just(np.ones((h, w), bool)),
                          hnp.arrays(bool, (h, w))))


@settings(max_examples=300, deadline=None)
@given(masks(), st.sampled_from([3, 5, 7, 9]))
def test_close_matches_binary_morphology(mask, se):
    # Oracle: dilation with a background border, then erosion with a
    # foreground border, both with the full se x se structuring element.
    s = np.ones((se, se), bool)
    want = ndimage.binary_erosion(ndimage.binary_dilation(mask, s, border_value=0),
                                  s, border_value=1)
    got = close(mask, se)
    assert got.dtype == bool and got.shape == mask.shape
    assert np.array_equal(got, want)


@st.composite
def framed_masks(draw):
    """A mask of 1..16 per side (empty, full or random) inside 0..12 rows or
    columns of background on each side, so it touches 0 to 4 image borders;
    1xN and Nx1 masks come from one-row or one-column cores with no margin."""
    core = draw(masks())[:16, :16]
    top, bottom, left, right = (draw(st.integers(0, 12)) for _ in range(4))
    return np.pad(core, ((top, bottom), (left, right)))


@settings(max_examples=200, deadline=None)
@given(framed_masks(), st.sampled_from([None, 10001, 10**7 + 1]))
def test_close_with_an_element_past_the_mask(mask, se):
    # An element of 2*max(h, w) - 1 (None draws that length) or longer
    # reaches the whole mask from every pixel.  The reference runs the
    # filters at 10001, uncapped.
    se = se or max(3, 2 * max(mask.shape) - 1)
    want = ndimage.minimum_filter(ndimage.maximum_filter(mask, 10001, mode="constant", cval=0),
                                  10001, mode="constant", cval=1)
    assert np.array_equal(want, np.full(mask.shape, mask.any()))
    assert np.array_equal(close(mask, se), want)


@settings(max_examples=300, deadline=None)
@given(framed_masks(), st.sampled_from([11, 13, 15, 17, 23, 31]))
def test_close_matches_binary_morphology_long_elements(mask, se):
    # Elements of 11 to 31, whose two covering runs of 8 or 16 pixels overlap
    # by 1 to 15; test_close_matches_binary_morphology draws 3 to 9 only.
    # Same oracle.
    s = np.ones((se, se), bool)
    want = ndimage.binary_erosion(ndimage.binary_dilation(mask, s, border_value=0),
                                  s, border_value=1)
    assert np.array_equal(close(mask, se), want)


@settings(max_examples=400, deadline=None)
@given(framed_masks(), st.sampled_from([3, 5, 7, 9, 81]))
def test_closed_regions_match_whole_frame(mask, se):
    # 81 is longer than either side of any drawn image (at most 40).
    got = [(r.bbox, r.area) for r in closed_regions(mask, se)]
    assert got == [(r.bbox, r.area) for r in components(close(mask, se))]


# ---------------------------------------------------------------------------
# components and trace_contours

@settings(max_examples=300, deadline=None)
@given(masks())
def test_components_match_trace_contours(mask):
    got = [(r.bbox, r.area) for r in components(mask)]
    assert got == [(c.bbox, c.area) for c in trace_contours(mask)]


def test_single_pixel_contour():
    mask = np.zeros((6, 8), bool)
    mask[4, 3] = True
    contours = trace_contours(mask)
    assert len(contours) == 1
    assert contours[0].points == [(3, 4)]
    assert contours[0].area == 1
    assert contours[0].bbox == BoundingBox(3, 4, 1, 1)


def test_two_blocks():
    mask = np.zeros((8, 8), bool)
    mask[1:3, 1:3] = True
    mask[5:7, 5:7] = True
    contours = trace_contours(mask)
    assert [c.area for c in contours] == [4, 4]
    assert contours[0].bbox == BoundingBox(1, 1, 2, 2)
    assert contours[1].bbox == BoundingBox(5, 5, 2, 2)


def test_block_boundary_is_clockwise_from_top_left():
    mask = np.zeros((5, 5), bool)
    mask[1:3, 1:3] = True
    (c,) = trace_contours(mask)
    assert c.points == [(1, 1), (2, 1), (2, 2), (1, 2)]


def test_diagonal_pixels_are_one_component():
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = mask[1, 1] = True
    contours = trace_contours(mask)
    assert len(contours) == 1
    assert contours[0].area == 2


def test_contours_against_flood_fill():
    rng = np.random.default_rng(16)
    for trial in range(100):
        mask = rng.random((14, 18)) < 0.35
        contours = trace_contours(mask)
        oracle = flood_fill_components(mask)
        assert len(contours) == len(oracle), f"trial {trial}"
        # match components by bbox: (x, y, w, h) from pixel sets
        def comp_key(pixels):
            xs = [p[0] for p in pixels]
            ys = [p[1] for p in pixels]
            return (min(ys), min(xs), max(xs) - min(xs) + 1,
                    max(ys) - min(ys) + 1, len(pixels))

        got = sorted((c.bbox.y, c.bbox.x, c.bbox.w, c.bbox.h, c.area)
                     for c in contours)
        want = sorted(comp_key(comp) for comp in oracle)
        assert got == want, f"trial {trial}"
        assert sum(c.area for c in contours) == int(mask.sum())


def test_contour_points_lie_on_component_boundary():
    rng = np.random.default_rng(17)
    for _ in range(20):
        mask = rng.random((12, 12)) < 0.4
        oracle = {frozenset(c): c for c in flood_fill_components(mask)}
        for contour in trace_contours(mask):
            pts = set(contour.points)
            # every traced point is a real component pixel
            comp = next(c for c in oracle.values() if pts <= c)
            # bbox tightly encloses the traced points
            xs = [p[0] for p in contour.points]
            ys = [p[1] for p in contour.points]
            assert min(xs) == contour.bbox.x and max(xs) == contour.bbox.x2 - 1
            assert min(ys) == contour.bbox.y and max(ys) == contour.bbox.y2 - 1
            # boundary pixels (those with a non-component 8-neighbor or on
            # the frame edge) are exactly the traced set
            boundary = set()
            for x, y in comp:
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        nx, ny = x + dx, y + dy
                        if not (0 <= nx < 12 and 0 <= ny < 12) \
                                or (nx, ny) not in comp and not mask[ny, nx]:
                            boundary.add((x, y))
            assert pts <= boundary


def test_trace_is_deterministic():
    rng = np.random.default_rng(18)
    mask = rng.random((20, 20)) < 0.4
    a = trace_contours(mask)
    b = trace_contours(mask)
    assert [c.points for c in a] == [c.points for c in b]
    assert [c.bbox for c in a] == [c.bbox for c in b]


# ---------------------------------------------------------------------------
# trace_contours against a reference tracer

# The tracer in its earlier form, with nested scan and step helpers and a
# reverse lookup for the backtrack, kept as the oracle for the one-loop form.
_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 1),
            (-1, 0), (-1, -1), (0, -1), (1, -1))
_OFFSET_INDEX = {off: i for i, off in enumerate(_OFFSETS)}


def ref_trace_boundary(padded: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    # Moore-neighbor tracing with the repeated-transition stop rule.
    # padded has a one-pixel background ring, so neighbor reads never leave
    # the array.  start's west neighbor is background because start is the
    # component's topmost then leftmost pixel.
    def scan(px: tuple[int, int], back: int) -> int | None:
        for k in range(1, 9):
            d = (back + k) % 8
            dx, dy = _OFFSETS[d]
            if padded[px[1] + dy, px[0] + dx]:
                return d
        return None

    def step(cur: tuple[int, int], d: int) -> tuple[tuple[int, int], int]:
        # Move to the neighbor at direction d; the new backtrack points at
        # the background cell scanned just before it.
        nxt = (cur[0] + _OFFSETS[d][0], cur[1] + _OFFSETS[d][1])
        bx, by = _OFFSETS[(d - 1) % 8]
        bg_cell = (cur[0] + bx, cur[1] + by)
        return nxt, _OFFSET_INDEX[(bg_cell[0] - nxt[0], bg_cell[1] - nxt[1])]

    points = [start]
    d = scan(start, 4)
    if d is None:
        return points
    cur, back = step(start, d)
    first = (start, cur)
    points.append(cur)
    limit = 8 * padded.size + 16
    for _ in range(limit):
        d = scan(cur, back)
        nxt = (cur[0] + _OFFSETS[d][0], cur[1] + _OFFSETS[d][1])
        if (cur, nxt) == first:
            break
        cur, back = step(cur, d)
        points.append(cur)
    else:
        raise RuntimeError("contour trace failed to terminate")
    if len(points) > 1 and points[-1] == points[0]:
        points.pop()
    return points


def ref_trace_contours(mask: np.ndarray) -> list[Contour]:
    mask = np.asarray(mask, dtype=bool)
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    contours = []
    for lab, slc in enumerate(ndimage.find_objects(labels), start=1):
        comp = labels[slc] == lab
        y0, x0 = slc[0].start, slc[1].start
        bbox = BoundingBox(x0, y0, comp.shape[1], comp.shape[0])
        padded = np.zeros((comp.shape[0] + 2, comp.shape[1] + 2), dtype=bool)
        padded[1:-1, 1:-1] = comp
        rows, cols = np.nonzero(comp)  # row-major: first hit is topmost, then leftmost
        start = (int(cols[0]) + 1, int(rows[0]) + 1)
        points = [(x - 1 + x0, y - 1 + y0) for x, y in ref_trace_boundary(padded, start)]
        contours.append(Contour(bbox, int(comp.sum()), points))
    contours.sort(key=lambda c: (c.bbox.y, c.bbox.x))
    return contours


@st.composite
def any_density_masks(draw):
    """Bool masks of 1..16 per side, each pixel set with a drawn probability."""
    h, w, p = draw(st.integers(1, 16)), draw(st.integers(1, 16)), draw(st.floats(0, 1))
    return draw(hnp.arrays(bool, (h, w), elements=st.floats(0, 1).map(lambda u: u < p)))


RING = np.ones((5, 6), bool)
RING[2, 2:4] = False


@settings(max_examples=200, deadline=None)
@given(any_density_masks())
@example(np.array([[1, 0, 1], [0, 1, 0]], bool))  # traced (0,0) (1,1) (2,0) (1,1)
@example(np.ones((1, 1), bool))
@example(np.eye(7, dtype=bool))
@example(RING)
@example(np.ones((6, 9), bool))
def test_trace_contours_matches_reference(mask):
    got = [(c.bbox, c.area, c.points) for c in trace_contours(mask)]
    assert got == [(c.bbox, c.area, c.points) for c in ref_trace_contours(mask)]


# ---------------------------------------------------------------------------
# filter_small

def make_region(area):
    return Region(BoundingBox(0, 0, 1, 1), area)


def test_filter_small_zero_floor_is_identity():
    contours = [make_region(a) for a in (1, 5, 9)]
    assert filter_small(contours, 0) == contours


def test_filter_small_keeps_large():
    contours = [make_region(a) for a in (4, 400, 1000)]
    kept = filter_small(contours, 400)
    assert [c.area for c in kept] == [400, 1000]


def test_filter_small_against_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(50):
        areas = rng.integers(1, 500, size=8)
        contours = [make_region(int(a)) for a in areas]
        floor = float(rng.integers(0, 500))
        kept = filter_small(contours, floor)
        assert kept == [c for c in contours if c.area >= floor]


def test_filter_small_rejects_negative():
    with pytest.raises(ValidationError):
        filter_small([], -1)
