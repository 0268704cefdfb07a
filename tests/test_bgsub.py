import os
import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from garmwatch import (BackgroundModel, ConfigError, Frame, PipelineConfig, ShapeError,
                       apply_mask)


def gray_frame(value, w=4, h=3, index=0):
    return Frame(index, np.full((h, w, 3), value, np.uint8))


# ---------------------------------------------------------------------------
# Init

def test_init_state():
    m = BackgroundModel(2, 2)
    assert m.weight.shape == (5, 4)
    assert np.all(m.weight[0] == 1.0)
    assert np.all(m.weight[1:] == 0.0)
    assert np.all(m.mean == 0.0)
    assert np.all(m.variance[0] == 225.0)
    assert np.all(m.ncomp == 1)
    assert m.frames_seen == 0


def test_learning_rate_from_history():
    assert BackgroundModel(1, 1, history_length=500).learning_rate == 0.002


def test_init_rejects_bad_config():
    with pytest.raises(ConfigError):
        BackgroundModel(0, 4)
    with pytest.raises(ConfigError):
        BackgroundModel(4, 4, background_fraction=1.0)
    with pytest.raises(ConfigError):
        BackgroundModel(4, 4, match_threshold=0.0)
    with pytest.raises(ConfigError):
        BackgroundModel(4, 4, var_min=10.0, var_init=5.0)


def test_parameters_come_from_config():
    cfg = PipelineConfig(history_length=40, max_components=3, var_init=100.0)
    m = BackgroundModel(2, 2, cfg)
    assert m.learning_rate == 1 / 40
    assert m.weight.shape == (3, 4)
    assert np.all(m.variance[0] == 100.0)
    # keyword overrides sit on top of the config
    assert BackgroundModel(2, 2, cfg, max_components=2).weight.shape == (2, 4)


def test_oversized_state_rejected_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="physical memory"):
            BackgroundModel(2, 2, max_components=10**15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_state_bound_is_physical_memory(monkeypatch):
    # 40 bytes per slot and pixel against one fake 4 KiB page
    pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert BackgroundModel(2, 2, max_components=25).weight.shape == (25, 4)
    with pytest.raises(ConfigError, match="max_components=26"):
        BackgroundModel(2, 2, max_components=26)


# ---------------------------------------------------------------------------
# Classification basics

def test_first_white_frame_is_all_foreground():
    m = BackgroundModel(4, 3)
    mask = m.update(gray_frame(255))
    assert mask.all()
    assert m.frames_seen == 1


def test_black_frame_on_fresh_model_is_background():
    m = BackgroundModel(4, 3)
    assert not m.update(gray_frame(0)).any()


def test_dimension_mismatch():
    m = BackgroundModel(4, 3)
    with pytest.raises(ShapeError):
        m.update(gray_frame(0, w=3, h=4))


def test_stationary_scene_goes_quiet():
    # constant video: zero foreground pixels from frame index T onward
    t = 40
    m = BackgroundModel(8, 6, history_length=t)
    counts = [int(m.update(gray_frame(140, 8, 6, i)).sum()) for i in range(2 * t)]
    assert all(c == 0 for c in counts[t:])


def test_background_swap_is_absorbed():
    t = 40
    m = BackgroundModel(8, 6, history_length=t)
    for i in range(100):
        m.update(gray_frame(140, 8, 6, i))
    counts = [int(m.update(gray_frame(30, 8, 6, 100 + i)).sum())
              for i in range(3 * t)]
    assert counts[0] == 8 * 6  # swap frame is fully foreground
    assert counts[-1] == 0
    # once quiet, stays quiet
    first_zero = counts.index(0)
    assert all(c == 0 for c in counts[first_zero:])


# ---------------------------------------------------------------------------
# Model state invariants

def test_weights_normalized_and_sorted_after_updates():
    rng = np.random.default_rng(3)
    m = BackgroundModel(5, 4, history_length=50)
    for i in range(60):
        pixels = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        m.update(Frame(i, pixels))
        assert np.allclose(m.weight.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(np.diff(m.weight, axis=0) <= 1e-12)
        assert np.all((m.variance >= m.var_min) | (m.weight == 0.0))
        assert np.all(m.variance <= m.var_max)


def test_update_is_deterministic():
    rng = np.random.default_rng(4)
    frames = [Frame(i, rng.integers(0, 256, size=(6, 7, 3), dtype=np.uint8))
              for i in range(30)]
    a = BackgroundModel(7, 6, history_length=25)
    b = BackgroundModel(7, 6, history_length=25)
    for f in frames:
        assert np.array_equal(a.update(f), b.update(f))
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)


# ---------------------------------------------------------------------------
# Recurrence oracle: straight-line scalar reimplementation of the update
# rules, driven against a single-pixel model.

def reference_update(comps, x, *, eta, k, cf, mmax, var_init, var_min, var_max,
                     w_init):
    """One update of a single pixel's mixture, written longhand.

    comps is a list of [weight, mean triple, variance] sorted by descending
    weight.  Returns (is_foreground, new comps).
    """
    cum = 0.0
    in_prefix = []
    for w, _, _ in comps:
        in_prefix.append(cum <= 1.0 - cf)
        cum += w

    matches = []
    for i, (w, mean, var) in enumerate(comps):
        d2 = sum((float(xc) - mc) ** 2 for xc, mc in zip(x, mean))
        if d2 <= 3.0 * k * k * var:
            matches.append((d2, i))

    is_bg = any(in_prefix[i] for _, i in matches)

    if matches:
        _, hit = min(matches)  # ties fall to the lowest index
        new = []
        for i, (w, mean, var) in enumerate(comps):
            w = (1.0 - eta) * w
            if i == hit:
                w += eta
                rho = eta / w
                delta = [float(xc) - mc for xc, mc in zip(x, mean)]
                d2 = sum(dc * dc for dc in delta)
                mean = tuple(mc + rho * dc for mc, dc in zip(mean, delta))
                var = var + rho * (d2 / 3.0 - var)
                var = min(max(var, var_min), var_max)
            new.append([w, mean, var])
    else:
        new = [[w, mean, var] for w, mean, var in comps]
        fresh = [w_init, tuple(float(c) for c in x), var_init]
        if len(new) < mmax:
            new.append(fresh)
        else:
            new[-1] = fresh
        total = sum(w for w, _, _ in new)
        new = [[w / total, mean, var] for w, mean, var in new]

    new.sort(key=lambda c: -c[0])  # stable, ties keep slot order
    return (not is_bg), new


SCRIPT = [
    (200, 30, 30), (200, 30, 30), (30, 200, 30), (30, 30, 200), (200, 200, 0),
    (0, 0, 0), (200, 32, 28), (255, 255, 255), (30, 198, 35), (128, 128, 128),
    (200, 30, 30), (0, 0, 0), (30, 30, 200), (255, 255, 255), (130, 126, 129),
    (200, 30, 30), (60, 60, 60), (30, 200, 30), (201, 29, 31), (128, 128, 128),
]


def test_single_pixel_matches_reference_recurrence():
    t = 100
    m = BackgroundModel(1, 1, history_length=t)
    comps = [[1.0, (0.0, 0.0, 0.0), m.var_init]]
    for step, x in enumerate(SCRIPT):
        frame = Frame(step, np.array(x, np.uint8).reshape(1, 1, 3))
        fg = bool(m.update(frame)[0, 0])
        want_fg, comps = reference_update(
            comps, x, eta=m.learning_rate, k=m.match_threshold,
            cf=m.background_fraction, mmax=m.max_components,
            var_init=m.var_init, var_min=m.var_min, var_max=m.var_max,
            w_init=m.learning_rate)
        assert fg == want_fg, f"step {step}: fg {fg} != {want_fg}"
        assert m.ncomp[0] == len(comps)
        for i, (w, mean, var) in enumerate(comps):
            assert m.weight[i, 0] == pytest.approx(w, abs=1e-9)
            assert m.variance[i, 0] == pytest.approx(var, abs=1e-9)
            for c in range(3):
                assert m.mean[i, 0, c] == pytest.approx(mean[c], abs=1e-9)


def test_script_exercises_all_branches():
    # the scripted sequence must hit: append, match, and replace-at-capacity
    t = 100
    m = BackgroundModel(1, 1, history_length=t)
    saw_full = False
    for step, x in enumerate(SCRIPT):
        m.update(Frame(step, np.array(x, np.uint8).reshape(1, 1, 3)))
        saw_full = saw_full or m.ncomp[0] == m.max_components
    assert saw_full
    assert m.frames_seen == len(SCRIPT)


def test_closest_match_tie_takes_lowest_slot():
    m = BackgroundModel(1, 1, history_length=100)
    m.ncomp[0] = 2
    m.weight[:2, 0] = [0.5, 0.5]
    m.mean[0, 0] = (100.0, 0.0, 0.0)
    m.mean[1, 0] = (140.0, 0.0, 0.0)
    m.variance[:2, 0] = 225.0
    m.update(Frame(0, np.array((120, 0, 0), np.uint8).reshape(1, 1, 3)))
    # equidistant: slot 0 must take the sample
    assert m.mean[0, 0, 0] != 100.0
    assert m.mean[1, 0, 0] == 140.0


# ---------------------------------------------------------------------------
# apply_mask

def test_apply_mask_identity_and_zero():
    rng = np.random.default_rng(5)
    frame = Frame(0, rng.integers(0, 256, size=(6, 8, 3), dtype=np.uint8))
    ones = np.ones((6, 8), bool)
    zeros = np.zeros((6, 8), bool)
    assert np.array_equal(apply_mask(frame, ones).pixels, frame.pixels)
    assert not apply_mask(frame, zeros).pixels.any()


def test_apply_mask_against_pixel_loop():
    rng = np.random.default_rng(6)
    frame = Frame(0, rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8))
    mask = rng.integers(0, 2, size=(5, 7)).astype(bool)
    out = apply_mask(frame, mask).pixels
    for y in range(5):
        for x in range(7):
            want = frame.pixels[y, x] if mask[y, x] else (0, 0, 0)
            assert tuple(out[y, x]) == tuple(want)


def test_apply_mask_shape_error():
    frame = Frame(0, np.zeros((4, 4, 3), np.uint8))
    with pytest.raises(ShapeError):
        apply_mask(frame, np.zeros((3, 4), bool))


# ---------------------------------------------------------------------------
# Mixture density

def test_likelihood_at_mean():
    m = BackgroundModel(2, 2)
    var = m.var_init
    want = 1.0 * (2 * np.pi * var) ** -1.5
    assert m.likelihood((0, 0, 0), (0, 0)) == pytest.approx(want, rel=1e-12)


def test_likelihood_matches_multivariate_normal():
    m = BackgroundModel(1, 1)
    m.ncomp[0] = 2
    m.weight[:2, 0] = [0.7, 0.3]
    m.mean[0, 0] = (10.0, 20.0, 30.0)
    m.mean[1, 0] = (200.0, 100.0, 50.0)
    m.variance[:2, 0] = [100.0, 400.0]
    x = np.array([50.0, 60.0, 70.0])
    want = (0.7 * multivariate_normal.pdf(x, m.mean[0, 0], 100.0 * np.eye(3))
            + 0.3 * multivariate_normal.pdf(x, m.mean[1, 0], 400.0 * np.eye(3)))
    assert m.likelihood(x, (0, 0)) == pytest.approx(want, rel=1e-12)


def test_likelihood_far_tail():
    m = BackgroundModel(1, 1)
    assert m.likelihood((255, 255, 255), (0, 0)) < 1e-30


def test_likelihood_bounds_check():
    m = BackgroundModel(2, 2)
    with pytest.raises(ShapeError):
        m.likelihood((0, 0, 0), (2, 0))
