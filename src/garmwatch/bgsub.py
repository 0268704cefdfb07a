"""Adaptive per-pixel mixture-of-Gaussians background subtraction.

Each pixel carries up to ``max_components`` Gaussian components over RGB,
every component an isotropic scalar variance shared across the three
channels.  The per-pixel density is

    p(x) = sum_m w_m * N(x; mu_m, var_m * I)

maintained online with exponential forgetting at rate eta = 1/T.  On each
frame a pixel is background when its value lies within ``match_threshold``
standard deviations of a component in the background prefix: the smallest
set of highest-weight components whose weight sum exceeds
1 - background_fraction.  Classification uses the state before the update,
so the returned mask reflects the model as of the previous frame.

Matched components move toward the sample with gain rho = eta / w (using
the freshly bumped weight); an unmatched sample enters at weight eta,
replacing the lowest-weight component, or occupying a free slot while any
remain.  Components are never deleted.  The whole update is deterministic.

No pixel reads another's mixture, so pixels are updated in parallel row
strips, one per usable CPU; the result does not depend on the strip count.
All strips but the caller's run on a thread pool that the model owns; its
threads end when the model is freed, so there is nothing to close.  Each
strip writes its per-frame temporaries into buffers of its own, allocated
once with the model (98 bytes per pixel) and reused on every frame; an
update allocates only its returned mask and arrays sized by the pixels
that missed or reordered their slots.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import replace

import numpy as np

from .config import PipelineConfig, check_memory
from .errors import ConfigError, ShapeError, check_number
from .frameio import Frame


class BackgroundModel:
    """Per-pixel adaptive Gaussian mixture over a fixed-size frame grid.

    State lives in slot-major flat arrays, pixels row-major within a slot:
    ``weight`` and ``variance`` are (max_components, npixels), ``ncomp``
    counts live components per pixel.  The means are stored channel-planar
    as (max_components, 3, npixels); ``mean`` is its writable
    (max_components, npixels, 3) view, so ``mean[k, i]`` is the RGB mean of
    slot k at pixel i.  Slot-major and planar keep every per-slot pass over
    contiguous memory, and the update gathers and scatters each pixel's
    one written slot, matched or fresh, by flat index into the full arrays.
    Slots past ncomp hold weight 0 and are ignored.  Each pixel's slots are
    kept sorted by descending weight (stable, so ties keep their order).
    Each row strip owns update buffers allocated once here and reused every
    frame: 98 bytes per pixel (eight float64, four int64 and two bool rows).
    The strip threads end when the model is freed.
    """

    def __init__(self, width: int, height: int, config: PipelineConfig | None = None,
                 **overrides):
        """Mixture parameters, kept as ``self.config``, come from config
        (default PipelineConfig()) with overrides such as ``history_length=100`` on top."""
        width = check_number(width, "model width", ConfigError, integer=True, lo=1)
        height = check_number(height, "model height", ConfigError, integer=True, lo=1)
        cfg = replace(config or PipelineConfig(), **overrides)
        # weight, mean and variance: 8 + 24 + 8 bytes per slot and pixel
        check_memory(40 * cfg.max_components * width * height, f"model state for "
                     f"max_components={cfg.max_components} at {width}x{height}", ConfigError)

        self.width = width
        self.height = height
        self.config = cfg
        self.frames_seen = 0

        n = width * height
        m = cfg.max_components
        self.weight = np.zeros((m, n))
        self._planes = np.zeros((m, 3, n))
        self.mean = self._planes.transpose(0, 2, 1)
        self.variance = np.ones((m, n))
        self.weight[0] = 1.0
        self.variance[0] = cfg.var_init
        self.ncomp = np.ones(n, dtype=np.int64)
        # row strips run in parallel because numpy releases the GIL;
        # sched_getaffinity is missing on macOS and Windows
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        self._strips = min(cpus, height)
        cuts = [width * (height * s // self._strips) for s in range(self._strips + 1)]
        self._spans = list(zip(cuts[:-1], cuts[1:]))
        self._pool = ThreadPoolExecutor(max(self._strips - 1, 1), "garmwatch-bgsub")
        self._work = {lo: _workspace(lo, hi) for lo, hi in self._spans}

    def update(self, frame: Frame) -> np.ndarray:
        """Classify the frame against the current model, then fold it in.

        Returns the foreground mask as a bool array of shape (height, width),
        True = foreground.
        """
        if (frame.width, frame.height) != (self.width, self.height):
            raise ShapeError(
                f"frame is {frame.width}x{frame.height}, model is "
                f"{self.width}x{self.height}")
        pixels = frame.pixels.reshape(-1, 3)
        fg = np.empty(len(pixels), dtype=bool)
        *spans, last = self._spans
        futures = [self._pool.submit(self._update_span, pixels, fg, lo, hi)
                   for lo, hi in spans]
        try:
            self._update_span(pixels, fg, *last)
        finally:
            wait(futures)  # no strip may still write the state after update
        # drop each future before it can raise: left in the list, a raised one
        # would hold this frame, and so the model, through its traceback
        while futures:
            futures.pop().result()
        self.frames_seen += 1
        return fg.reshape(self.height, self.width)

    def _update_span(self, pixels: np.ndarray, fg: np.ndarray, lo: int, hi: int) -> None:
        """Classify and update pixels lo..hi-1 into fg[lo:hi], touching only
        their columns of the state, so spans never share a write."""
        cfg = self.config
        eta = 1.0 / cfg.history_length
        weight, variance = self.weight[:, lo:hi], self.variance[:, lo:hi]
        planes = self._planes[:, :, lo:hi]
        ncomp = self.ncomp[lo:hi]
        m = len(weight)
        floats, (rows, closest, at, at_mean), (hit, cond) = self._work[lo]
        x, (d2, diff, above, best, dd) = floats[:3], floats[3:]
        np.copyto(x, pixels[lo:hi].T)
        bg = fg[lo:hi]  # True = background until the last line inverts it

        # one pass down the slots classifies and matches every pixel, keeping
        # only per-pixel running state: `above` sums the weights of the slots
        # above k, so bg is a match inside the background prefix, and the
        # closest match takes strict < so ties keep the lowest slot.  Slots at
        # or past ncomp hold weight 0 and never match.  Channels add up as
        # (d0² + d2²) + d1², the order in which einsum("nc,nc->n") sums an
        # (n, 3) row, so results stay those of the pixel-interleaved layout
        kmax = int(ncomp.max())
        limit = 3.0 * cfg.match_threshold ** 2
        prefix = 1.0 - cfg.background_fraction
        bg.fill(False)
        above.fill(0.0)
        best.fill(np.inf)
        for k in range(kmax):
            d2.fill(0.0)
            for c in (0, 2, 1):
                np.subtract(x[c], planes[k, c], out=diff)
                d2 += np.square(diff, out=diff)
            np.less_equal(d2, np.multiply(variance[k], limit, out=diff), out=hit)
            hit &= np.greater(ncomp, k, out=cond)
            bg |= np.logical_and(hit, np.less_equal(above, prefix, out=cond), out=cond)
            above += weight[k]
            hit &= np.less(d2, best, out=cond)
            np.copyto(closest, k, where=hit)
            np.copyto(best, d2, where=hit)
        has_match, fresh = hit, cond
        np.less(best, np.inf, out=has_match)
        np.logical_not(has_match, out=fresh)

        # each pixel writes one slot of its own column, gathered and scattered
        # by flat index into the full arrays, contiguous where the strip views
        # are not (slot k of pixel i at k·N + i, channel c of its mean at
        # k·3N + c·N + i): its closest match, else a fresh one in its first
        # free slot, or its last (lowest-weight) one when full.  All take the
        # matched update (delta·delta adds up as d2 does), then a fresh pixel's
        # finite results (w_new >= eta > 0) are replaced by eta, x and var_init.
        # The matched update's temporaries reuse the classify pass's buffers,
        # dead by now; every index is in range, so mode="clip" only spares take
        # a copy of out
        w_new, rho, mu, delta = d2, diff, above, best
        np.minimum(ncomp, m - 1, out=closest, where=fresh)
        np.multiply(weight[:kmax], 1.0 - eta, out=weight[:kmax], where=has_match)
        npx = self.weight.shape[1]
        np.add(np.multiply(closest, npx, out=at), rows, out=at)
        flat_weight = self.weight.reshape(-1)
        np.take(flat_weight, at, out=w_new, mode="clip")
        w_new += eta
        np.copyto(w_new, eta, where=fresh)
        flat_weight[at] = w_new
        np.divide(eta, w_new, out=rho)
        flat_planes = self._planes.reshape(-1)
        at_mean0 = np.add(np.multiply(closest, 2 * npx, out=closest), at, out=closest)
        dd.fill(0.0)
        for c in (0, 2, 1):
            np.add(at_mean0, c * npx, out=at_mean)
            np.take(flat_planes, at_mean, out=mu, mode="clip")
            np.subtract(x[c], mu, out=delta)
            dd += np.multiply(delta, delta, out=w_new)  # w_new is scattered, so free
            mu += np.multiply(rho, delta, out=delta)
            np.copyto(mu, x[c], where=fresh)
            flat_planes[at_mean] = mu
        v = mu
        flat_variance = self.variance.reshape(-1)
        np.take(flat_variance, at, out=v, mode="clip")
        np.divide(dd, 3.0, out=dd)
        dd -= v
        v += np.multiply(rho, dd, out=dd)
        np.clip(v, cfg.var_min, cfg.var_max, out=v)
        np.copyto(v, cfg.var_init, where=fresh)
        flat_variance[at] = v
        missed = np.flatnonzero(fresh)
        ncomp[missed] = np.minimum(ncomp[missed] + 1, m)
        weight[:, missed] /= weight[:, missed].sum(axis=0, keepdims=True)

        # every pixel came in with its slots in descending weight order, and
        # decay and normalisation keep that order, so only the bumped or the
        # fresh slot can now be out of place, and only too low.  One swap
        # pass from the bottom carries it up; strict > leaves equal weights
        # in their order, as a stable sort would
        for k in range(int(ncomp.max()) - 1, 0, -1):
            up = np.flatnonzero(np.greater(weight[k], weight[k - 1], out=hit))
            for a in (weight, variance, planes):
                a[k - 1, ..., up], a[k, ..., up] = a[k, ..., up], a[k - 1, ..., up]
        np.logical_not(bg, out=bg)

    def likelihood(self, x, px: tuple[int, int]) -> float:
        """Mixture density at RGB value x for the pixel at (x, y) = px."""
        col, row = px
        if not (0 <= col < self.width and 0 <= row < self.height):
            raise ShapeError(f"pixel {px} outside {self.width}x{self.height} grid")
        i = row * self.width + col
        x = np.asarray(x, dtype=np.float64)
        total = 0.0
        for k in range(self.ncomp[i]):
            var = self.variance[k, i]
            d2 = float(((x - self.mean[k, i]) ** 2).sum())
            total += self.weight[k, i] * (2.0 * np.pi * var) ** -1.5 * np.exp(-d2 / (2.0 * var))
        return total


def _workspace(lo: int, hi: int):
    """One strip's update buffers: float64 rows for the pixel's channels and
    five temporaries, int64 rows for its flat indices lo..hi-1 (kept) and
    three index temporaries, and two bool rows."""
    n = hi - lo
    ints = np.empty((4, n), dtype=np.int64)
    ints[0] = np.arange(lo, hi)
    return np.empty((8, n)), ints, np.empty((2, n), dtype=bool)


def apply_mask(frame: Frame, mask: np.ndarray) -> Frame:
    """Foreground image: keep pixels where the mask is set, zero the rest."""
    out = np.where(frame.check_mask(mask)[:, :, None], frame.pixels, 0).astype(np.uint8)
    return Frame(frame.index, out)
