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
threads end when the model is freed, so there is nothing to close.
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
        m, n = weight.shape
        x = np.ascontiguousarray(pixels[lo:hi].T, dtype=np.float64)

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
        bg = np.zeros(n, dtype=bool)
        above = np.zeros(n)
        best = np.full(n, np.inf)
        closest = np.zeros(n, dtype=np.int64)
        d2, diff = np.empty(n), np.empty(n)
        for k in range(kmax):
            d2.fill(0.0)
            for c in (0, 2, 1):
                np.subtract(x[c], planes[k, c], out=diff)
                d2 += np.square(diff, out=diff)
            hit = (d2 <= np.multiply(variance[k], limit, out=diff)) & (ncomp > k)
            bg |= hit & (above <= prefix)
            above += weight[k]
            hit &= d2 < best
            closest[hit] = k
            np.copyto(best, d2, where=hit)
        has_match = best < np.inf
        del above, best, d2, diff, hit  # the write's temporaries reuse their pages

        # each pixel writes one slot of its own column, gathered and scattered
        # by flat index into the full arrays, contiguous where the strip views
        # are not (slot k of pixel i at k·N + i, channel c of its mean at
        # k·3N + c·N + i): its closest match, else a fresh one in its first
        # free slot, or its last (lowest-weight) one when full.  All take the
        # matched update (delta·delta adds up as d2 does), then a fresh pixel's
        # finite results (w_new >= eta > 0) are replaced by eta, x and var_init
        fresh = ~has_match
        np.copyto(closest, np.minimum(ncomp, m - 1), where=fresh)
        np.multiply(weight[:kmax], 1.0 - eta, out=weight[:kmax], where=has_match)
        npx = self.weight.shape[1]
        at = closest * npx + np.arange(lo, hi)
        w_new = np.take(self.weight, at) + eta
        np.copyto(w_new, eta, where=fresh)
        np.put(self.weight, at, w_new)
        rho = eta / w_new
        at_mean = at + closest * 2 * npx
        dd = []
        for c in range(3):
            mu = np.take(self._planes, at_mean)
            delta = x[c] - mu
            mu += rho * delta
            np.copyto(mu, x[c], where=fresh)
            np.put(self._planes, at_mean, mu)
            dd.append(delta * delta)
            at_mean += npx
        v = np.take(self.variance, at)
        v = np.clip(v + rho * (((dd[0] + dd[2]) + dd[1]) / 3.0 - v), cfg.var_min, cfg.var_max)
        np.copyto(v, cfg.var_init, where=fresh)
        np.put(self.variance, at, v)
        missed = np.flatnonzero(fresh)
        ncomp[missed] = np.minimum(ncomp[missed] + 1, m)
        weight[:, missed] /= weight[:, missed].sum(axis=0, keepdims=True)

        # every pixel came in with its slots in descending weight order, and
        # decay and normalisation keep that order, so only the bumped or the
        # fresh slot can now be out of place, and only too low.  One swap
        # pass from the bottom carries it up; strict > leaves equal weights
        # in their order, as a stable sort would
        for k in range(int(ncomp.max()) - 1, 0, -1):
            up = np.flatnonzero(weight[k] > weight[k - 1])
            for a in (weight, variance, planes):
                a[k - 1, ..., up], a[k, ..., up] = a[k, ..., up], a[k - 1, ..., up]
        fg[lo:hi] = ~bg

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


def apply_mask(frame: Frame, mask: np.ndarray) -> Frame:
    """Foreground image: keep pixels where the mask is set, zero the rest."""
    out = np.where(frame.check_mask(mask)[:, :, None], frame.pixels, 0).astype(np.uint8)
    return Frame(frame.index, out)
