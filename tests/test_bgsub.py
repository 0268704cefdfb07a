import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
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
    assert m.variance.shape == (5, 4)
    assert m.mean.shape == (5, 4, 3)
    assert m.ncomp.shape == (4,)
    assert np.all(m.weight[0] == 1.0)
    assert np.all(m.weight[1:] == 0.0)
    assert np.all(m.mean == 0.0)
    assert np.all(m.variance[0] == 225.0)
    assert np.all(m.ncomp == 1)
    assert m.frames_seen == 0
    # mean is a writable view of the model's own state
    m.mean[0, 3] = (10.0, 20.0, 30.0)
    want = (2 * np.pi * m.var_init) ** -1.5
    assert m.likelihood((10, 20, 30), (1, 1)) == pytest.approx(want, rel=1e-12)
    assert m.likelihood((10, 20, 30), (0, 1)) < want


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
# Whole frames, cut into row strips, against the per-pixel recurrence

# far enough apart that a fresh model appends a component for each colour,
# and more of them than max_components, so full pixels replace
PALETTE = np.array([(0, 0, 0), (200, 30, 30), (30, 200, 30), (30, 30, 200),
                    (255, 255, 255), (128, 128, 128), (200, 200, 0), (60, 60, 60)])


def palette_frames(script, seed):
    """Frames whose pixel (y, x) shows colour script[t, y, x] at frame t,
    jittered by up to 4 per channel so matches move means and variances."""
    jitter = np.random.default_rng(seed).integers(-4, 5, size=script.shape + (3,))
    pixels = np.clip(PALETTE[script] + jitter, 0, 255).astype(np.uint8)
    return [Frame(i, p) for i, p in enumerate(pixels)]


def strip_model(strips, width, height, model=BackgroundModel, **overrides):
    """A model built as on a host with `strips` usable CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(strips)))
        return model(width, height, **overrides)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_pixel_matches_reference_recurrence(data):
    w, h = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 7))
    script = data.draw(hnp.arrays(np.int64, (data.draw(st.integers(1, 20)), h, w),
                                  elements=st.integers(0, len(PALETTE) - 1)))
    frames = palette_frames(script, data.draw(st.integers(0, 2**32 - 1)))
    m = strip_model(3, w, h, history_length=20)
    params = dict(eta=m.learning_rate, k=m.match_threshold, cf=m.background_fraction,
                  mmax=m.max_components, var_init=m.var_init, var_min=m.var_min,
                  var_max=m.var_max, w_init=m.learning_rate)
    comps = [[[1.0, (0.0, 0.0, 0.0), m.var_init]] for _ in range(w * h)]
    for frame in frames:
        fg = m.update(frame).ravel()
        for i, x in enumerate(frame.pixels.reshape(-1, 3)):
            want_fg, comps[i] = reference_update(comps[i], x, **params)
            assert fg[i] == want_fg, f"frame {frame.index} pixel {i}"
            live = len(comps[i])
            assert m.ncomp[i] == live
            assert np.all(m.weight[live:, i] == 0.0)
            want_w, want_mean, want_var = (np.array(c) for c in zip(*comps[i]))
            np.testing.assert_allclose(m.weight[:live, i], want_w, rtol=0, atol=1e-9)
            np.testing.assert_allclose(m.mean[:live, i], want_mean, rtol=0, atol=1e-9)
            np.testing.assert_allclose(m.variance[:live, i], want_var, rtol=0, atol=1e-9)


def test_strip_count_does_not_change_the_result():
    w, h = 24, 17
    script = np.random.default_rng(12).integers(0, len(PALETTE), size=(40, h, w))
    frames = palette_frames(script, 12)

    def run(strips):
        m = strip_model(strips, w, h, history_length=20)
        assert m._strips == strips
        masks = [m.update(f) for f in frames]
        return masks, (m.weight, m.mean, m.variance, m.ncomp)

    want_masks, want_state = run(1)
    # the script fills pixels to capacity and leaves both background and foreground
    assert want_state[3].max() == 5 and want_masks[-1].any() and not want_masks[-1].all()
    old = sys.getswitchinterval()
    try:
        for strips in (2, 3, 17, 8):
            if strips == 8:
                sys.setswitchinterval(1e-6)
            masks, state = run(strips)
            assert all(np.array_equal(a, b) for a, b in zip(masks, want_masks)), strips
            assert all(np.array_equal(a, b) for a, b in zip(state, want_state)), strips
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("bad_lo", [0, 4], ids=["worker", "caller"])
def test_a_failing_strip_fails_the_update(bad_lo):
    """An error in either strip reaches the caller, and the frame is not counted."""
    class FailingStrip(BackgroundModel):
        def _update_span(self, pixels, fg, lo, hi):
            if lo == bad_lo:
                raise RuntimeError(f"strip at {lo} failed")
            super()._update_span(pixels, fg, lo, hi)

    m = strip_model(2, 4, 3, FailingStrip)  # strips at 0 (on the thread) and 4
    assert m._strips == 2
    with pytest.raises(RuntimeError, match=f"strip at {bad_lo} failed"):
        m.update(gray_frame(0))
    assert m.frames_seen == 0


# ---------------------------------------------------------------------------
# The update body against its fancy-index form, bit for bit

class FancyIndexModel(BackgroundModel):
    """The update with fancy-index gather and scatter of the matched slot and
    einsum distances over (n, 3) rows.  It does the same arithmetic in the
    same order as the model's own body, so the two must agree exactly."""

    def _update_span(self, pixels, fg, lo, hi):
        eta = self.learning_rate
        weight, mean, variance = (a[:, lo:hi] for a in (self.weight, self.mean, self.variance))
        ncomp = self.ncomp[lo:hi]
        m, n = weight.shape
        x = pixels[lo:hi].astype(np.float64)

        kmax = int(ncomp.max())
        d2 = np.empty((kmax, n))
        diff = np.empty_like(x)
        for k in range(kmax):
            np.subtract(x, mean[k], out=diff)
            d2[k] = np.einsum("nc,nc->n", diff, diff)
        matched = d2 <= 3.0 * self.match_threshold ** 2 * variance[:kmax]
        if int(ncomp.min()) < kmax:
            matched &= np.arange(kmax)[:, None] < ncomp

        wpre = weight[:kmax]
        before = np.empty_like(wpre)
        before[0] = 0.0
        np.cumsum(wpre[:-1], axis=0, out=before[1:])
        in_background = before <= 1.0 - self.background_fraction
        bg = (matched & in_background).any(axis=0)

        has_match = matched.any(axis=0)
        rows = np.flatnonzero(has_match)
        missed = np.flatnonzero(~has_match)
        if rows.size:
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
            w_new = weight[closest, rows] + eta
            weight[closest, rows] = w_new
            rho = eta / w_new
            delta = (x if rows.size == n else x[rows]) - mean[closest, rows]
            mean[closest, rows] += rho[:, None] * delta
            v = variance[closest, rows]
            v = v + rho * (np.einsum("nc,nc->n", delta, delta) / 3.0 - v)
            variance[closest, rows] = np.clip(v, self.var_min, self.var_max)

        if missed.size:
            nc = ncomp[missed]
            slot = np.where(nc < m, nc, m - 1)
            weight[slot, missed] = eta
            mean[slot, missed] = x[missed]
            variance[slot, missed] = self.var_init
            ncomp[missed] = np.minimum(nc + 1, m)
            weight[:, missed] /= weight[:, missed].sum(axis=0, keepdims=True)
            kmax = int(ncomp.max())

        if kmax > 1:
            wpre = weight[:kmax]
            unsorted = np.flatnonzero((wpre[1:] > wpre[:-1]).any(axis=0))
            if unsorted.size:
                w = weight[:kmax, unsorted]
                order = np.argsort(-w, axis=0, kind="stable")
                weight[:kmax, unsorted] = np.take_along_axis(w, order, axis=0)
                variance[:kmax, unsorted] = np.take_along_axis(
                    variance[:kmax, unsorted], order, axis=0)
                mean[:kmax, unsorted] = np.take_along_axis(
                    mean[:kmax, unsorted], order[:, :, None], axis=0)
        fg[lo:hi] = ~bg


@st.composite
def frame_runs(draw, h, w):
    """Pixel arrays for a run of frames, drawn as blocks of two kinds:
    palette scripts that fill pixels to capacity and replace, and uniform
    gray with sigma-8 noise, whose level steps put d2 near the threshold."""
    frames = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            script = draw(hnp.arrays(np.int64, (draw(st.integers(1, 8)), h, w),
                                     elements=st.integers(0, len(PALETTE) - 1)))
            frames += [f.pixels for f in palette_frames(script, draw(st.integers(0, 99)))]
        else:
            rng = np.random.default_rng(draw(st.integers(0, 99)))
            for level in draw(st.lists(st.integers(0, 255), min_size=1, max_size=6)):
                noisy = rng.normal(level, 8.0, size=(h, w, 3)).round()
                frames.append(np.clip(noisy, 0, 255).astype(np.uint8))
    return frames


def put_on_edge(model, pixels, seed):
    """Give every pixel two slots whose differences from its value in
    `pixels` are exactly (a, b, c) and (c, b, a), random per pixel, so their
    squared distances tie when summed as (d0² + d2²) + d1², and a variance
    that puts that distance on the match threshold, or within an ulp of it.
    The offsets lie on a 2^-30 grid below 64, so pixel minus mean is exact."""
    x = pixels.reshape(-1, 3).astype(np.float64)
    a, b, c = np.random.default_rng(seed).integers(1, 64 * 2**30, (3, len(x))) / 2**30
    model.ncomp[:] = 2
    model.weight[:2] = 0.5
    model.mean[0] = x - np.stack([a, b, c], axis=1)
    model.mean[1] = x - np.stack([c, b, a], axis=1)
    d2 = (a * a + c * c) + b * b
    scale = 3.0 * model.match_threshold ** 2
    var = d2 / scale
    for nudged in (np.nextafter(var, 0.0), np.nextafter(var, np.inf)):
        var = np.where((scale * var != d2) & (scale * nudged == d2), nudged, var)
    model.variance[:2] = var


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_update_body_matches_fancy_index_form_exactly(data):
    w, h = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 7))
    frames = data.draw(frame_runs(h, w))
    strips = data.draw(st.integers(1, 3))
    params = dict(history_length=data.draw(st.integers(2, 30)),
                  max_components=data.draw(st.integers(1, 5)))
    model = strip_model(strips, w, h, **params)
    ref = strip_model(strips, w, h, FancyIndexModel, **params)
    if params["max_components"] > 1 and data.draw(st.booleans()):
        seed = data.draw(st.integers(0, 2**32 - 1))
        put_on_edge(model, frames[0], seed)
        put_on_edge(ref, frames[0], seed)
    for i, pixels in enumerate(frames):
        frame = Frame(i, pixels)
        assert np.array_equal(model.update(frame), ref.update(frame)), i
        for name in ("weight", "mean", "variance", "ncomp"):
            assert np.array_equal(getattr(model, name), getattr(ref, name)), (i, name)


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
