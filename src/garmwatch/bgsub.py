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
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .config import PipelineConfig
from .errors import ConfigError, ShapeError
from .frameio import Frame


class BackgroundModel:
    """Per-pixel adaptive Gaussian mixture over a fixed-size frame grid.

    State lives in slot-major flat arrays, pixels row-major within a slot:
    ``weight`` and ``variance`` are (max_components, npixels), ``mean`` is
    (max_components, npixels, 3), ``ncomp`` counts live components per
    pixel.  Slot-major keeps every per-slot pass over contiguous memory.
    Slots past ncomp hold weight 0 and are ignored.  Each pixel's slots are
    kept sorted by descending weight (stable, so ties keep their order).
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
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
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
        self.mean = np.zeros((m, n, 3))
        self.variance = np.ones((m, n))
        self.weight[0] = 1.0
        self.variance[0] = self.var_init
        self.ncomp = np.ones(n, dtype=np.int64)

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
        eta = self.learning_rate
        m, n = self.weight.shape
        x = frame.pixels.reshape(n, 3).astype(np.float64)

        # slots at or past ncomp carry weight exactly 0 and are masked out,
        # so every read can stop at the widest live prefix
        kmax = int(self.ncomp.max())
        d2 = np.empty((kmax, n))
        diff = np.empty_like(x)
        for k in range(kmax):
            np.subtract(x, self.mean[k], out=diff)
            d2[k] = np.einsum("nc,nc->n", diff, diff)
        matched = d2 <= 3.0 * self.match_threshold ** 2 * self.variance[:kmax]
        if int(self.ncomp.min()) < kmax:
            matched &= np.arange(kmax)[:, None] < self.ncomp

        # dead slots are already excluded through matched, so the prefix
        # test needs no live-slot mask of its own
        wpre = self.weight[:kmax]
        before = np.empty_like(wpre)
        before[0] = 0.0
        np.cumsum(wpre[:-1], axis=0, out=before[1:])
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
            w_new = self.weight[closest, rows] + eta
            self.weight[closest, rows] = w_new
            rho = eta / w_new
            delta = (x if rows.size == n else x[rows]) - self.mean[closest, rows]
            self.mean[closest, rows] += rho[:, None] * delta
            v = self.variance[closest, rows]
            v = v + rho * (np.einsum("nc,nc->n", delta, delta) / 3.0 - v)
            self.variance[closest, rows] = np.clip(v, self.var_min, self.var_max)

        if missed.size:
            nc = self.ncomp[missed]
            slot = np.where(nc < m, nc, m - 1)
            self.weight[slot, missed] = eta
            self.mean[slot, missed] = x[missed]
            self.variance[slot, missed] = self.var_init
            self.ncomp[missed] = np.minimum(nc + 1, m)
            self.weight[:, missed] /= self.weight[:, missed].sum(axis=0,
                                                                 keepdims=True)
            kmax = int(self.ncomp.max())

        # only a weight bump or a fresh component can break the descending
        # order, so sort just the pixels where it actually broke
        if kmax > 1:
            wpre = self.weight[:kmax]
            unsorted = np.flatnonzero((wpre[1:] > wpre[:-1]).any(axis=0))
            if unsorted.size:
                w = self.weight[:kmax, unsorted]
                order = np.argsort(-w, axis=0, kind="stable")
                self.weight[:kmax, unsorted] = np.take_along_axis(w, order, axis=0)
                self.variance[:kmax, unsorted] = np.take_along_axis(
                    self.variance[:kmax, unsorted], order, axis=0)
                self.mean[:kmax, unsorted] = np.take_along_axis(
                    self.mean[:kmax, unsorted], order[:, :, None], axis=0)

        self.frames_seen += 1
        return (~bg).reshape(self.height, self.width)

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
