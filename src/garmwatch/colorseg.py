"""Color band masks over the foreground pixels of a frame, and grayscale conversion.

A ColorBand names a garment color as one or two hue intervals (two for
wrap-around reds) plus saturation and value floors.  band_masks converts a
frame's foreground pixels to HSV and luma once and gives each band the
pixels inside it and above the binarize threshold.  color_mask and
masked_to_gray do the band and luma steps over a whole foreground frame
(background pixels exact black); band_masks is tested against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_number
from .frameio import Frame


@dataclass(frozen=True)
class ColorBand:
    """A named region of HSV space: hue intervals [lo, hi) in degrees,
    saturation >= sat_min, value >= val_min."""

    label: str
    hue_ranges: tuple[tuple[float, float], ...]
    sat_min: float = 0.30
    val_min: float = 0.20

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValidationError(f"band label must be a non-empty str, got {self.label!r}")
        if not (isinstance(self.hue_ranges, tuple)
                and all(isinstance(r, tuple) and len(r) == 2 for r in self.hue_ranges)):
            raise ValidationError(
                f"band {self.label}: hue_ranges must be a tuple of (lo, hi) tuples, "
                f"got {self.hue_ranges!r}")
        if not 1 <= len(self.hue_ranges) <= 2:
            raise ValidationError(
                f"band {self.label}: need 1 or 2 hue ranges, got {len(self.hue_ranges)}")
        object.__setattr__(self, "hue_ranges", tuple(
            tuple(check_number(end, f"band {self.label}: hue", ValidationError, lo=0, hi=360)
                  for end in r) for r in self.hue_ranges))
        for lo, hi in self.hue_ranges:
            if lo >= hi:
                raise ValidationError(f"band {self.label}: bad hue range [{lo}, {hi})")
        for name in ("sat_min", "val_min"):
            object.__setattr__(self, name, check_number(
                getattr(self, name), f"band {self.label}: {name}", ValidationError, lo=0, hi=1))


DEFAULT_BANDS = (
    ColorBand("red", ((0.0, 10.0), (350.0, 360.0))),
    ColorBand("yellow", ((40.0, 70.0),)),
    ColorBand("green", ((70.0, 170.0),)),
    ColorBand("blue", ((170.0, 260.0),)),
)

# Representative RGB per default band label, for overlay rendering.
DISPLAY_COLORS = {
    "red": (255, 0, 0),
    "yellow": (255, 220, 0),
    "green": (0, 200, 0),
    "blue": (0, 80, 255),
}


def rgb_to_hsv(pixel) -> tuple[float, float, float]:
    """Hexcone RGB -> (hue degrees in [0, 360), saturation, value).

    Hue is reported as 0 when saturation is 0.
    """
    r, g, b = (float(c) / 255.0 for c in pixel)
    v = max(r, g, b)
    c = v - min(r, g, b)
    if c == 0.0:
        h = 0.0
    elif v == r:
        h = 60.0 * (((g - b) / c) % 6.0)
    elif v == g:
        h = 60.0 * ((b - r) / c + 2.0)
    else:
        h = 60.0 * ((r - g) / c + 4.0)
    if h >= 360.0:
        h = 0.0
    s = 0.0 if v == 0.0 else c / v
    return h, s, v


def _hsv_planes(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Vectorized hexcone conversion over uint8 RGB in the last axis.  Max and
    # min go plane by plane: the same floats as a reduction over the length-3
    # axis, without numpy's reduction loop per pixel.
    p = pixels.astype(np.float64) / 255.0
    r, g, b = p[..., 0], p[..., 1], p[..., 2]
    v = np.maximum(np.maximum(r, g), b)
    c = v - np.minimum(np.minimum(r, g), b)
    safe = np.where(c == 0.0, 1.0, c)
    h = np.where(v == r, ((g - b) / safe) % 6.0,
                 np.where(v == g, (b - r) / safe + 2.0, (r - g) / safe + 4.0))
    h = np.where(c == 0.0, 0.0, h * 60.0)
    h = np.where(h >= 360.0, 0.0, h)
    s = np.where(v == 0.0, 0.0, c / np.where(v == 0.0, 1.0, v))
    return h, s, v


def _band_mask_from_planes(h, s, v, band: ColorBand) -> np.ndarray:
    in_hue = np.zeros(h.shape, dtype=bool)
    for lo, hi in band.hue_ranges:
        in_hue |= (h >= lo) & (h < hi)
    return in_hue & (s >= band.sat_min) & (v >= band.val_min)


def color_mask(fframe: Frame, band: ColorBand) -> np.ndarray:
    """Bool mask of the pixels whose HSV falls inside the band."""
    return _band_mask_from_planes(*_hsv_planes(fframe.pixels), band)


# the luma levels, so the range of a binarize threshold; config's
# binarize_threshold takes its range from here
LUMA_RANGE = (0, 255)


def check_threshold(threshold) -> int:
    """threshold as an int, or ValidationError unless it is a luma level."""
    return check_number(threshold, "threshold", ValidationError, True, *LUMA_RANGE)


def _luma(pixels: np.ndarray) -> np.ndarray:
    p = pixels.astype(np.float64)  # RGB in the last axis; Rec. 601, rounded half up
    return np.floor(0.299 * p[..., 0] + 0.587 * p[..., 1] + 0.114 * p[..., 2] + 0.5)


def band_masks(frame: Frame, fg: np.ndarray, bands, threshold: int) -> list[np.ndarray]:
    """Per band, the foreground pixels inside the band with luma above threshold.

    Equals binarize(masked_to_gray(F, color_mask(F, band)), threshold) with
    F = apply_mask(frame, fg) for any threshold >= 0, as F is black outside fg.
    """
    threshold = check_threshold(threshold)
    fg = frame.check_mask(fg)
    idx = np.flatnonzero(fg)
    pixels = frame.pixels.reshape(-1, 3)[idx]
    bright = _luma(pixels) > threshold
    h, s, v = _hsv_planes(pixels)
    masks = [np.zeros(fg.shape, dtype=bool) for _ in bands]
    for mask, band in zip(masks, bands):
        mask.flat[idx[bright & _band_mask_from_planes(h, s, v, band)]] = True
    return masks


def masked_to_gray(fframe: Frame, mask: np.ndarray) -> np.ndarray:
    """Rec. 601 luma (round-half-up) where the mask is set, 0 elsewhere.

    Returns a uint8 array of shape (height, width).
    """
    return np.where(fframe.check_mask(mask), _luma(fframe.pixels), 0.0).astype(np.uint8)
