"""Mask cleanup and region extraction.

A band mask is closed with a square structuring element to fill pinholes
left by embroidery and seams, and split into 8-connected components.
Each component yields a Region, its bounding box and exact pixel count;
regions below an area floor are dropped before clustering.  A Contour
adds the component's outer boundary traced clockwise, for display.

Closing is a dilation then an erosion, each a separable running OR (AND)
along rows and then columns, in the manner of van Herk (1992) and
Gil-Werman (1993).  Each operator copies the mask into one buffer padded by
se_size // 2 on every side: with 0 for the dilation, which treats pixels
outside the image as background, and with 1 for the erosion, which treats
them as foreground.  That pairing makes the two operators an adjunction on
the image lattice, so closing is extensive and idempotent, holes against
the image border included.  Along each axis the buffer is combined in place
with itself shifted by 1, 2, 4, ... pixels, after which each pixel holds
the run of length L, the largest power of two <= se_size, that starts
there.  The runs at offsets 0 and se_size − L overlap and together cover
se_size pixels, and OR and AND are idempotent, so one more combination
gives the exact run of se_size.  The run that starts at padded pixel
(y, x) is the window centred on mask pixel (y, x), so the result is the
buffer's top-left corner.  The buffer is worked flat, a column shift being
a shift by one padded row; a kept row run ends inside its own row's
padding.  An element longer than 2·max(h, w) − 1 spans the whole mask from
every pixel, so it closes like that length, and close caps it there; the
cost grows with the logarithm of the length.

closed_regions closes and labels a band only inside its window: the
bounding box of the set pixels, grown by se_size on each side and clipped
to the image.  That equals components(close(mask)) with the boxes shifted
by the window's origin.  Outside the window the dilation is 0, so the
closing is too.  A pixel within se_size // 2 of a window edge that is not
an image edge lies more than se_size // 2 from every set pixel, so its
dilation, and with it its closing, is 0 whatever the erosion reads past
that edge.  Image edges keep their border rule.  Shifting a mask keeps the
raster order in which components are labelled and their (y, x) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .colorseg import check_threshold
from .config import PipelineConfig, check_se_size
from .errors import ValidationError, check_number
from .frameio import BoundingBox

EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)

# Moore neighborhood in clockwise order, (dx, dy) with y growing downward,
# starting East.
_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 1),
            (-1, 0), (-1, -1), (0, -1), (1, -1))


@dataclass
class Region:
    """One 8-connected foreground component: its box and its pixel count."""

    bbox: BoundingBox
    area: int


@dataclass
class Contour(Region):
    """A Region plus its outer boundary: points are (x, y) pixels in clockwise
    order from the topmost then leftmost pixel; area stays the pixel count."""

    points: list[tuple[int, int]]


def binarize(gframe: np.ndarray, threshold: int) -> np.ndarray:
    """Bool mask of the pixels strictly above the threshold."""
    return np.asarray(gframe) > check_threshold(threshold)


def _square_run(mask: np.ndarray, size: int, op, pad: bool) -> np.ndarray:
    # op (np.logical_or or np.logical_and) over the size x size window
    # centred on each pixel, reading pad past the border.
    h, w = mask.shape
    r = size // 2
    width = w + 2 * r
    buf = np.full((h + 2 * r, width), pad)
    buf[r:r + h, r:r + w] = mask
    flat = buf.reshape(-1)
    for step in (1, width):
        n, run = flat.size, 1
        while 2 * run <= size:
            shift = run * step
            op(flat[:n - shift], flat[shift:n], out=flat[:n - shift])
            n -= shift
            run *= 2
        shift = (size - run) * step
        op(flat[:n - shift], flat[shift:n], out=flat[:n - shift])
    return buf[:h, :w]


def close(mask: np.ndarray, se_size: int = PipelineConfig.se_size) -> np.ndarray:
    """Morphological closing with a square structuring element."""
    se_size = check_se_size(se_size)
    mask = np.asarray(mask, dtype=bool)
    size = min(se_size, max(3, 2 * max(mask.shape) - 1))
    dilated = _square_run(mask, size, np.logical_or, False)
    return _square_run(dilated, size, np.logical_and, True)


def components(mask: np.ndarray) -> list[Region]:
    """One Region per 8-connected component, ordered by (bbox.y, bbox.x)."""
    labels, count = ndimage.label(np.asarray(mask, dtype=bool), structure=EIGHT_CONNECTED)
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    found = [Region(BoundingBox(sx.start, sy.start, sx.stop - sx.start, sy.stop - sy.start),
                    int(areas[lab]))
             for lab, (sy, sx) in enumerate(ndimage.find_objects(labels), start=1)]
    found.sort(key=lambda r: (r.bbox.y, r.bbox.x))
    return found


def closed_regions(mask: np.ndarray, se_size: int = PipelineConfig.se_size) -> list[Region]:
    """components(close(mask, se_size)), closed and labelled inside the window
    of the mask's set pixels; [] without closing for an empty mask."""
    se_size = check_se_size(se_size)
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return []
    y0 = max(int(rows[0]) - se_size, 0)
    y1 = min(int(rows[-1]) + 1 + se_size, mask.shape[0])
    cols = np.flatnonzero(mask[rows[0]:rows[-1] + 1].any(axis=0))
    x0 = max(int(cols[0]) - se_size, 0)
    x1 = min(int(cols[-1]) + 1 + se_size, mask.shape[1])
    return [Region(BoundingBox(r.bbox.x + x0, r.bbox.y + y0, r.bbox.w, r.bbox.h), r.area)
            for r in components(close(mask[y0:y1, x0:x1], se_size))]


def _trace_boundary(padded: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    # Moore-neighbor tracing with the repeated-transition stop rule.
    # padded has a one-pixel background ring, so neighbor reads never leave
    # the array.  start's west neighbor is background because start is the
    # component's topmost then leftmost pixel.  Each pass scans clockwise from
    # the backtrack; after a move in direction d the backtrack from the new
    # pixel is (d + 6 - d % 2) % 8, the background cell scanned just before.
    points, cur, back, first = [start], start, 4, None
    for _ in range(8 * padded.size + 16):
        for k in range(1, 9):
            d = (back + k) % 8
            dx, dy = _OFFSETS[d]
            if padded[cur[1] + dy, cur[0] + dx]:
                break
        else:
            return points  # a lone pixel has no foreground neighbor
        nxt = (cur[0] + dx, cur[1] + dy)
        if (cur, nxt) == first:
            break
        first = first or (cur, nxt)
        points.append(nxt)
        cur, back = nxt, (d + 6 - d % 2) % 8
    else:
        raise RuntimeError("contour trace failed to terminate")
    if len(points) > 1 and points[-1] == points[0]:
        points.pop()
    return points


def trace_contours(mask: np.ndarray) -> list[Contour]:
    """One Contour per 8-connected component, ordered by (bbox.y, bbox.x)."""
    mask = np.asarray(mask, dtype=bool)
    labels, count = ndimage.label(mask, structure=EIGHT_CONNECTED)
    contours = []
    for lab, slc in enumerate(ndimage.find_objects(labels), start=1):
        comp = labels[slc] == lab
        y0, x0 = slc[0].start, slc[1].start
        bbox = BoundingBox(x0, y0, comp.shape[1], comp.shape[0])
        padded = np.zeros((comp.shape[0] + 2, comp.shape[1] + 2), dtype=bool)
        padded[1:-1, 1:-1] = comp
        rows, cols = np.nonzero(comp)  # row-major: first hit is topmost, then leftmost
        start = (int(cols[0]) + 1, int(rows[0]) + 1)
        points = [(x - 1 + x0, y - 1 + y0) for x, y in _trace_boundary(padded, start)]
        contours.append(Contour(bbox, int(comp.sum()), points))
    contours.sort(key=lambda c: (c.bbox.y, c.bbox.x))
    return contours


def filter_small(regions: list[Region], min_area: float) -> list[Region]:
    """Keep the regions whose component area is at least min_area."""
    check_number(min_area, "min_area", ValidationError, lo=0)
    return [r for r in regions if r.area >= min_area]
