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

from .config import PipelineConfig, physical_memory
from .errors import ConfigError, ShapeError
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
    matched slot by flat index into the full arrays.  Slots past ncomp hold
    weight 0 and are ignored.  Each pixel's slots are kept sorted by
    descending weight (stable, so ties keep their order).  The strip
    threads end when the model is freed.
    """

    def __init__(self, width: int, height: int, config: PipelineConfig | None = None,
                 **overrides):
        """Mixture parameters come from config (default PipelineConfig()),
        with keyword overrides such as ``history_length=100`` on top."""
        if width < 1 or height < 1:
            raise ConfigError(f"model grid must be at least 1x1, got {width}x{height}")
        cfg = replace(config or PipelineConfig(), **overrides)
        # weight, mean and variance: 8 + 24 + 8 bytes per slot and pixel
        state = 40 * cfg.max_components * width * height
        memory = physical_memory()
        if state > memory:
            raise ConfigError(
                f"max_components={cfg.max_components} at {width}x{height} needs "
                f"{state / 2**30:.1f} GiB of model state, more than the "
                f"{memory / 2**30:.1f} GiB of physical memory")

        self.width = width
        self.height = height
        self.history_length = cfg.history_length
        self.learning_rate = 1.0 / cfg.history_length
        self.match_threshold = cfg.match_threshold
        self.background_fraction = cfg.background_fraction
        self.max_components = cfg.max_components
        self.var_init = float(cfg.var_init)
        self.var_min = float(cfg.var_min)
        self.var_max = float(cfg.var_max)
        self.frames_seen = 0

        n = width * height
        m = self.max_components
        self.weight = np.zeros((m, n))
        self._planes = np.zeros((m, 3, n))
        self.mean = self._planes.transpose(0, 2, 1)
        self.variance = np.ones((m, n))
        self.weight[0] = 1.0
        self.variance[0] = self.var_init
        self.ncomp = np.ones(n, dtype=np.int64)
        # row strips run in parallel because numpy releases the GIL
        self._strips = min(len(os.sched_getaffinity(0)), height)
        self._pool = ThreadPoolExecutor(max(self._strips - 1, 1), "garmwatch-bgsub")

    def _check_frame(self, frame: Frame) -> None:
        if (frame.width, frame.height) != (self.width, self.height):
            raise ShapeError(
                f"frame is {frame.width}x{frame.height}, model is "
                f"{self.width}x{self.height}")

    def update(self, frame: Frame) -> np.ndarray:
        """Classify the frame against the current model, then fold it in.

        Returns the foreground mask as a bool array of shape (height, width),
        True = foreground.
        """
        self._check_frame(frame)
        pixels = frame.pixels.reshape(-1, 3)
        fg = np.empty(len(pixels), dtype=bool)
        cuts = self.width * (self.height * np.arange(self._strips + 1) // self._strips)
        futures = [self._pool.submit(self._update_span, pixels, fg, lo, hi)
                   for lo, hi in zip(cuts[:-2], cuts[1:-1])]
        try:
            self._update_span(pixels, fg, cuts[-2], cuts[-1])
        finally:
            wait(futures)  # no strip may still write the state after update
        for future in futures:
            future.result()
        self.frames_seen += 1
        return fg.reshape(self.height, self.width)

    def _update_span(self, pixels: np.ndarray, fg: np.ndarray, lo: int, hi: int) -> None:
        """Classify and update pixels lo..hi-1 into fg[lo:hi], touching only
        their columns of the state, so spans never share a write."""
        eta = self.learning_rate
        weight, variance = self.weight[:, lo:hi], self.variance[:, lo:hi]
        planes = self._planes[:, :, lo:hi]
        ncomp = self.ncomp[lo:hi]
        m, n = weight.shape
        x = np.ascontiguousarray(pixels[lo:hi].T, dtype=np.float64)

        # slots at or past ncomp carry weight exactly 0 and are masked out,
        # so every read can stop at the widest live prefix.  Channels add up
        # as (d0² + d2²) + d1², the order in which einsum("nc,nc->n") sums an
        # (n, 3) row, so results stay those of the pixel-interleaved layout
        kmax = int(ncomp.max())
        d2 = np.zeros((kmax, n))
        diff = np.empty(n)
        for k in range(kmax):
            for c in (0, 2, 1):
                np.subtract(x[c], planes[k, c], out=diff)
                np.multiply(diff, diff, out=diff)
                d2[k] += diff
        matched = d2 <= 3.0 * self.match_threshold ** 2 * variance[:kmax]
        if int(ncomp.min()) < kmax:
            matched &= np.arange(kmax)[:, None] < ncomp

        # dead slots are already excluded through matched, so the prefix
        # test needs no live-slot mask of its own
        wpre = weight[:kmax]
        before = np.empty_like(wpre)
        before[0] = 0.0
        for k in range(1, kmax):  # the sums of cumsum(axis=0), which is slower
            np.add(before[k - 1], wpre[k - 1], out=before[k])
        in_background = before <= 1.0 - self.background_fraction
        bg = (matched & in_background).any(axis=0)

        has_match = matched.any(axis=0)
        rows = np.flatnonzero(has_match)
        missed = np.flatnonzero(~has_match)
        if rows.size:
            # running minimum, strict < so ties keep the lowest slot
            closest = np.zeros(n, dtype=np.int64)
            d2[~matched] = np.inf
            best = d2[0].copy()
            for k in range(1, kmax):
                better = d2[k] < best
                closest[better] = k
                np.minimum(best, d2[k], out=best)
            closest = closest[rows]

            kept = wpre[:, missed]
            np.multiply(wpre, 1.0 - eta, out=wpre)
            wpre[:, missed] = kept
            # gather and scatter the matched slot by flat index into the full
            # arrays, which are contiguous where the strip views are not:
            # slot k of pixel i sits at k·N + i, channel c of its mean at
            # k·3N + c·N + i; delta·delta adds up in the order d2 does
            npx = self.weight.shape[1]
            at = closest * npx + (lo + rows)
            w_new = np.take(self.weight, at) + eta
            np.put(self.weight, at, w_new)
            rho = eta / w_new
            xr = x if rows.size == n else np.take(x, rows, axis=1)
            at_mean = closest * 3 * npx + (lo + rows)
            dd = []
            for c in range(3):
                mu = np.take(self._planes, at_mean)
                delta = xr[c] - mu
                np.put(self._planes, at_mean, mu + rho * delta)
                dd.append(delta * delta)
                at_mean += npx
            v = np.take(self.variance, at)
            v = v + rho * (((dd[0] + dd[2]) + dd[1]) / 3.0 - v)
            np.put(self.variance, at, np.clip(v, self.var_min, self.var_max))

        if missed.size:
            nc = ncomp[missed]
            slot = np.where(nc < m, nc, m - 1)
            weight[slot, missed] = eta
            planes[slot, :, missed] = x[:, missed].T
            variance[slot, missed] = self.var_init
            ncomp[missed] = np.minimum(nc + 1, m)
            weight[:, missed] /= weight[:, missed].sum(axis=0, keepdims=True)
            kmax = int(ncomp.max())

        # only a weight bump or a fresh component can break the descending
        # order, so sort just the pixels where it actually broke
        if kmax > 1:
            wpre = weight[:kmax]
            unsorted = np.flatnonzero((wpre[1:] > wpre[:-1]).any(axis=0))
            if unsorted.size:
                w = weight[:kmax, unsorted]
                order = np.argsort(-w, axis=0, kind="stable")
                weight[:kmax, unsorted] = np.take_along_axis(w, order, axis=0)
                variance[:kmax, unsorted] = np.take_along_axis(
                    variance[:kmax, unsorted], order, axis=0)
                planes[:kmax, :, unsorted] = np.take_along_axis(
                    planes[:kmax, :, unsorted], order[:, None, :], axis=0)
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
    if mask.shape != (frame.height, frame.width):
        raise ShapeError(
            f"mask is {mask.shape}, frame is {(frame.height, frame.width)}")
    out = np.where(mask.astype(bool)[:, :, None], frame.pixels, 0).astype(np.uint8)
    return Frame(frame.index, out)
