import colorsys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from garmwatch import (DEFAULT_BANDS, ColorBand, Frame, ShapeError, ValidationError,
                       apply_mask, binarize, color_mask, masked_to_gray, rgb_to_hsv)
from garmwatch.colorseg import _hsv_planes, band_masks


def band(label):
    return next(b for b in DEFAULT_BANDS if b.label == label)


# ---------------------------------------------------------------------------
# HSV conversion

def test_pure_red():
    assert rgb_to_hsv((255, 0, 0)) == (0.0, 1.0, 1.0)


def test_achromatic_gray():
    h, s, v = rgb_to_hsv((128, 128, 128))
    assert (h, s) == (0.0, 0.0)
    assert v == pytest.approx(128 / 255)


def test_primaries_and_secondaries():
    assert rgb_to_hsv((0, 255, 0))[0] == 120.0
    assert rgb_to_hsv((0, 0, 255))[0] == 240.0
    assert rgb_to_hsv((255, 255, 0))[0] == 60.0
    assert rgb_to_hsv((0, 255, 255))[0] == 180.0
    assert rgb_to_hsv((255, 0, 255))[0] == 300.0


def test_hue_in_range():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        pixel = rng.integers(0, 256, size=3)
        h, s, v = rgb_to_hsv(pixel)
        assert 0.0 <= h < 360.0
        assert 0.0 <= s <= 1.0
        assert 0.0 <= v <= 1.0


def test_against_colorsys():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        r, g, b = (int(c) for c in rng.integers(0, 256, size=3))
        h, s, v = rgb_to_hsv((r, g, b))
        ch, cs, cv = colorsys.rgb_to_hsv(r / 255, g / 255, b / 255)
        assert h == pytest.approx((ch * 360.0) % 360.0, abs=1e-9)
        assert s == pytest.approx(cs, abs=1e-12)
        assert v == pytest.approx(cv, abs=1e-12)


def test_round_trip_within_one_level():
    rng = np.random.default_rng(9)
    for _ in range(10000):
        rgb = tuple(int(c) for c in rng.integers(0, 256, size=3))
        h, s, v = rgb_to_hsv(rgb)
        back = (round(c * 255) for c in colorsys.hsv_to_rgb(h / 360, s, v))
        assert all(abs(a - b) <= 1 for a, b in zip(rgb, back))


def hsv_planes_by_reduction(pixels):
    # The vectorized conversion with max and min as reductions over the RGB
    # axis, kept as the oracle for _hsv_planes's plane-by-plane form.
    p = pixels.astype(np.float64) / 255.0
    r, g, b = p[..., 0], p[..., 1], p[..., 2]
    v = p.max(axis=-1)
    c = v - p.min(axis=-1)
    safe = np.where(c == 0.0, 1.0, c)
    h = np.where(v == r, ((g - b) / safe) % 6.0,
                 np.where(v == g, (b - r) / safe + 2.0, (r - g) / safe + 4.0))
    h = np.where(c == 0.0, 0.0, h * 60.0)
    h = np.where(h >= 360.0, 0.0, h)
    s = np.where(v == 0.0, 0.0, c / np.where(v == 0.0, 1.0, v))
    return h, s, v


LEVELS = st.sampled_from([0, 1, 254, 255]) | st.integers(0, 255)


@st.composite
def rgb_triples(draw):
    """uint8 RGB triples, most with two or three equal channels."""
    r, g, b = draw(LEVELS), draw(LEVELS), draw(LEVELS)
    tie = draw(st.sampled_from(["", "rg", "gb", "rb", "rgb"]))
    g = r if tie in ("rg", "rgb") else g
    b = g if tie in ("gb", "rgb") else r if tie == "rb" else b
    return r, g, b


@settings(max_examples=200, deadline=None)
@given(st.lists(rgb_triples(), min_size=1, max_size=40))
def test_hsv_planes_exact(triples):
    pixels = np.array(triples, dtype=np.uint8)
    got = _hsv_planes(pixels)
    for plane, want in zip(got, hsv_planes_by_reduction(pixels)):
        assert plane.dtype == np.float64 and np.array_equal(plane, want)
    for i, rgb in enumerate(triples):
        assert tuple(float(plane[i]) for plane in got) == rgb_to_hsv(rgb), rgb


def test_hsv_planes_exact_on_every_rgb_triple(capsys):
    # the goldens' byte identity rests on this; the script also runs on its own
    import check_hsv_exhaustive  # reads its reference from this module, already loaded
    assert check_hsv_exhaustive.main() == 0
    assert capsys.readouterr().out.startswith("16777216 triples, 0 mismatches")


# ---------------------------------------------------------------------------
# ColorBand validation

def test_band_validation():
    with pytest.raises(ValidationError):
        ColorBand("bad", ((10.0, 5.0),))
    with pytest.raises(ValidationError):
        ColorBand("bad", ((0.0, 361.0),))
    with pytest.raises(ValidationError):
        ColorBand("bad", ((0.0, 10.0), (20.0, 30.0), (40.0, 50.0)))
    with pytest.raises(ValidationError):
        ColorBand("bad", ((0.0, 10.0),), sat_min=1.5)


def test_default_bands_cover_red_wraparound():
    red = band("red")
    assert rgb_to_hsv((255, 10, 10))[0] < 10.0
    assert 350.0 <= rgb_to_hsv((255, 10, 30))[0] < 360.0


# ---------------------------------------------------------------------------
# color_mask

def test_pure_red_frame_all_ones():
    frame = Frame(0, np.full((4, 5, 3), (255, 0, 0), np.uint8))
    assert color_mask(frame, band("red")).all()


def test_black_frame_all_zeros():
    frame = Frame(0, np.zeros((4, 5, 3), np.uint8))
    for b in DEFAULT_BANDS:
        assert not color_mask(frame, b).any()


def test_mask_against_pixel_predicate():
    rng = np.random.default_rng(10)
    frame = Frame(0, rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8))
    for b in DEFAULT_BANDS:
        mask = color_mask(frame, b)
        for y in range(12):
            for x in range(16):
                h, s, v = rgb_to_hsv(frame.pixels[y, x])
                want = (any(lo <= h < hi for lo, hi in b.hue_ranges)
                        and s >= b.sat_min and v >= b.val_min)
                assert mask[y, x] == want, (x, y, b.label)


def test_default_bands_disjoint():
    rng = np.random.default_rng(11)
    frame = Frame(0, rng.integers(0, 256, size=(20, 20, 3), dtype=np.uint8))
    total = np.zeros((20, 20), int)
    for b in DEFAULT_BANDS:
        total += color_mask(frame, b).astype(int)
    assert total.max() <= 1


def test_masking_is_idempotent():
    rng = np.random.default_rng(12)
    frame = Frame(0, rng.integers(0, 256, size=(10, 10, 3), dtype=np.uint8))
    b = band("green")
    mask = color_mask(frame, b)
    # zero out everything outside the mask, re-mask: nothing changes
    masked = Frame(0, np.where(mask[:, :, None], frame.pixels, 0).astype(np.uint8))
    assert np.array_equal(color_mask(masked, b), mask)


# ---------------------------------------------------------------------------
# masked_to_gray

def test_gray_white_pixel():
    frame = Frame(0, np.full((1, 1, 3), 255, np.uint8))
    assert masked_to_gray(frame, np.ones((1, 1), bool))[0, 0] == 255


def test_gray_outside_mask_is_zero():
    frame = Frame(0, np.full((2, 2, 3), 200, np.uint8))
    mask = np.array([[True, False], [False, True]])
    gray = masked_to_gray(frame, mask)
    assert gray[0, 1] == 0 and gray[1, 0] == 0
    assert gray[0, 0] > 0 and gray[1, 1] > 0


def test_gray_red_is_76():
    frame = Frame(0, np.array([[[255, 0, 0]]], np.uint8))
    assert masked_to_gray(frame, np.ones((1, 1), bool))[0, 0] == 76


def test_gray_against_rounded_luma():
    rng = np.random.default_rng(13)
    frame = Frame(0, rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8))
    gray = masked_to_gray(frame, np.ones((9, 9), bool))
    for y in range(9):
        for x in range(9):
            r, g, b = (int(c) for c in frame.pixels[y, x])
            want = int(0.299 * r + 0.587 * g + 0.114 * b + 0.5)
            assert gray[y, x] == want


def test_gray_shape_error():
    frame = Frame(0, np.zeros((3, 3, 3), np.uint8))
    with pytest.raises(ShapeError):
        masked_to_gray(frame, np.ones((2, 3), bool))


# ---------------------------------------------------------------------------
# band_masks: the fused foreground pass against the full-frame chain

# DEFAULT_BANDS plus a band that matches black, which the foreground frame
# paints everywhere outside fg.
ALL_BANDS = DEFAULT_BANDS + (ColorBand("any", ((0.0, 360.0),), sat_min=0.0, val_min=0.0),)


@st.composite
def frames_with_fg(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pixels = draw(hnp.arrays(np.uint8, (h, w, 3)))
    fg = draw(st.one_of(st.just(np.zeros((h, w), bool)), st.just(np.ones((h, w), bool)),
                        hnp.arrays(bool, (h, w))))
    return Frame(0, pixels), fg


@settings(max_examples=300, deadline=None)
@given(frames_with_fg(), st.integers(0, 255))
def test_band_masks_match_full_frame_chain(frame_fg, threshold):
    frame, fg = frame_fg
    fframe = apply_mask(frame, fg)
    want = [binarize(masked_to_gray(fframe, color_mask(fframe, b)), threshold)
            for b in ALL_BANDS]
    got = band_masks(frame, fg, ALL_BANDS, threshold)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == bool and g.shape == fg.shape
        assert np.array_equal(g, w)


def test_band_masks_shape_error():
    frame = Frame(0, np.zeros((3, 3, 3), np.uint8))
    with pytest.raises(ShapeError):
        band_masks(frame, np.ones((2, 3), bool), DEFAULT_BANDS, 40)
