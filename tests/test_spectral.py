"""Spectral diagnostics against closed forms and Monte Carlo."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from ddtlab.datasets import BandlimitedDataset, GaussianDataset
from ddtlab.metrics import mmd_rbf, spectral_distance
from ddtlab.spectral import (
    SpectrumProfile,
    dct2,
    empirical_noisy_spectrum,
    idct2,
    lemma_bound,
    num_radial_bins,
    radial_bin_map,
    radial_spectrum,
    retained_frequency,
    write_spectrum_csv,
)


# ---------------------------------------------------------------------------
# transform plumbing
# ---------------------------------------------------------------------------

def test_radial_bins_hand_computed():
    bins = radial_bin_map(4)
    expected = np.array([
        [0, 1, 2, 3],
        [1, 1, 2, 3],
        [2, 2, 2, 3],
        [3, 3, 3, 4],
    ])
    assert np.array_equal(bins, expected)
    assert num_radial_bins(4) == 5
    assert num_radial_bins(8) == 10  # floor(sqrt(49+49)) = 9


def test_dct2_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 8, 8))
    mine = dct2(x)
    ref = scipy.fft.dctn(x, axes=(-2, -1), norm="ortho")
    assert np.allclose(mine, ref, atol=1e-12)
    assert np.allclose(idct2(mine), x, atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 2, 5, 9), (0, 8, 8)])
def test_dct2_and_idct2_match_scipy_on_batches(shape):
    x = np.random.default_rng(3).normal(size=shape)
    fwd, inv = dct2(x), idct2(x)
    assert fwd.shape == inv.shape == shape
    np.testing.assert_allclose(
        fwd, scipy.fft.dctn(x, axes=(-2, -1), norm="ortho"), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        inv, scipy.fft.idctn(x, axes=(-2, -1), norm="ortho"), rtol=0, atol=1e-12)


def test_dct2_parseval():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 6))
    assert np.sum(dct2(x) ** 2) == pytest.approx(np.sum(x ** 2), rel=1e-12)


def test_radial_spectrum_white_noise_is_flat():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4000, 1, 8, 8))
    spec = radial_spectrum(x)
    assert spec.shape == (10,)
    assert np.allclose(spec, 1.0, atol=0.1)


def test_radial_spectrum_shape_validation():
    with pytest.raises(ValueError, match="square"):
        radial_spectrum(np.zeros((2, 4, 6)))
    with pytest.raises(ValueError, match="expected"):
        radial_spectrum(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# expected spectrum
# ---------------------------------------------------------------------------

def test_profile_endpoints_exact():
    c = np.array([4.0, 2.0, 0.5, 0.0])
    clean = SpectrumProfile(c, lam=1.0, t=1.0)
    assert np.array_equal(clean.coefficients, c)
    noise_only = SpectrumProfile(c, lam=1.0, t=0.0)
    assert np.array_equal(noise_only.coefficients, np.ones(4))
    assert clean.k_freq == 2


def test_profile_validation():
    with pytest.raises(ValueError, match=">= 0"):
        SpectrumProfile(np.array([1.0, -0.1]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SpectrumProfile(np.ones(3), t=1.5)
    with pytest.raises(ValueError, match="noise power"):
        SpectrumProfile(np.ones(3), lam=-1.0)


def test_mixture_formula_midpoint():
    prof = SpectrumProfile(np.array([8.0, 0.0]), t=0.5)
    assert prof.coefficients == pytest.approx([0.25 * 8 + 0.25, 0.25])


def test_retained_frequency_flat_unit_spectrum():
    # signal t^2 * 1 vs noise (1-t)^2: crossover exactly at t = 0.5
    c = np.ones(10)
    assert retained_frequency(SpectrumProfile(c, t=0.3)) == 0
    assert retained_frequency(SpectrumProfile(c, t=0.5)) == 0  # strict >
    assert retained_frequency(SpectrumProfile(c, t=0.6)) == 9
    assert retained_frequency(SpectrumProfile(c, t=1.0)) == 9


def test_retained_frequency_banded():
    c = np.array([100.0, 10.0, 1.0, 0.0, 0.0])
    # at t=0.5 the threshold is c_i > 1
    assert retained_frequency(SpectrumProfile(c, t=0.5)) == 1
    # weaker signal at t=0.2: t^2 c_i > 0.64 means c_i > 16
    assert retained_frequency(SpectrumProfile(c, t=0.2)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_retained_frequency_monotone_in_t(seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 5.0, size=8)
    ts = np.linspace(0.0, 1.0, 21)
    vals = [retained_frequency(SpectrumProfile(c, t=t)) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# lemma bound
# ---------------------------------------------------------------------------

def test_lemma_bound_examples():
    assert lemma_bound(0.8, 100) == pytest.approx(16.0, rel=1e-12)
    assert lemma_bound(0.5, 7) == pytest.approx(1.0)
    assert lemma_bound(0.99, 3) == 3.0  # capped by the bandlimit
    assert lemma_bound(0.0, 5) == 0.0
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        lemma_bound(1.0, 5)
    with pytest.raises(ValueError, match="bandlimit"):
        lemma_bound(0.5, -1)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=0.0, max_value=0.99))
def test_lemma_bound_monotone(t1, t2):
    lo, hi = sorted((t1, t2))
    assert lemma_bound(lo, 50) <= lemma_bound(hi, 50)


def test_unit_spectrum_retained_vs_bound():
    # white unit-variance data: measured retained band must reach the bound
    # (up to one bin) at every time
    c = np.ones(10)
    for t in np.arange(0.1, 0.95, 0.1):
        measured = retained_frequency(SpectrumProfile(c, t=t))
        bound = lemma_bound(t, 9)
        assert measured >= bound - 1.0, f"t={t}: {measured} < {bound} - 1"


# ---------------------------------------------------------------------------
# Monte Carlo agreement
# ---------------------------------------------------------------------------

def test_empirical_spectrum_matches_analytic():
    ds = BandlimitedDataset(image_size=8)
    rng = np.random.default_rng(3)
    x, _ = ds.sample(rng, 3000)
    data = ds.spectrum_coefficients()
    for t in (0.1, 0.5, 0.9):
        analytic = SpectrumProfile(data, t=t).coefficients
        empirical = empirical_noisy_spectrum(x, t, rng)
        rel = np.abs(empirical - analytic) / np.maximum(analytic, 1e-12)
        assert rel.max() < 0.05, f"t={t}: max rel err {rel.max():.3f}"


def test_empirical_spectrum_time_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        empirical_noisy_spectrum(np.zeros((2, 4, 4)), 1.2, np.random.default_rng(0))


def test_spectrum_csv(tmp_path):
    prof = SpectrumProfile(np.array([2.0, 1.0, 0.0]), t=0.5)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, prof, empirical=np.array([0.7, 0.5, 0.3]))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "freq,c_data,c_noisy_analytic,c_noisy_empirical"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 2.0
    assert float(first[2]) == 0.5 ** 2 * 2.0 + 0.5 ** 2
    with pytest.raises(ValueError, match="length"):
        write_spectrum_csv(path, prof, empirical=np.ones(5))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_mmd_separates_distributions():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(128, 16))
    b = rng.normal(size=(128, 16))
    shifted = rng.normal(size=(128, 16)) + 3.0
    near = mmd_rbf(a, b)
    far = mmd_rbf(a, shifted)
    assert 0.0 <= near < far
    assert far > 0.5


def test_mmd_identical_batches_near_zero():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(64, 8))
    assert mmd_rbf(a, a.copy()) == pytest.approx(0.0, abs=1e-7)


def test_mmd_validation():
    with pytest.raises(ValueError, match="two samples"):
        mmd_rbf(np.ones((1, 3)), np.ones((4, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        mmd_rbf(np.ones((4, 3)), np.ones((4, 2)))


@pytest.mark.parametrize("bandwidth", [-1.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_mmd_rejects_bad_bandwidth(bandwidth):
    # -1 once returned 0.0 for clearly different batches, nan returned
    # NaN and 0 raised ZeroDivisionError
    x = np.random.default_rng(7).normal(size=(8, 4))
    with pytest.raises(ValueError, match="bandwidth"):
        mmd_rbf(x, x + 1.0, bandwidth=bandwidth)


def test_mmd_accepts_positive_bandwidth():
    x = np.random.default_rng(7).normal(size=(8, 4))
    assert mmd_rbf(x, x + 1.0, bandwidth=2.0) > 0.0


def test_mmd_deterministic():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(32, 4))
    b = rng.normal(size=(32, 4))
    assert mmd_rbf(a, b) == mmd_rbf(a, b)


def reference_mmd_rbf(x, y, bandwidth=None):
    """The whole-matrix formula that mmd_rbf evaluates in place, kept as
    it was written before as the bit-exactness oracle."""
    def sq_dists(a, b):
        aa = np.sum(a * a, axis=1)
        bb = np.sum(b * b, axis=1)
        d = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
        return np.maximum(d, 0.0)

    x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    y = np.asarray(y, dtype=np.float64).reshape(len(y), -1)
    d_xx = sq_dists(x, x)
    d_yy = sq_dists(y, y)
    d_xy = sq_dists(x, y)
    if bandwidth is None:
        pooled = np.concatenate([
            d_xx[np.triu_indices(len(x), k=1)],
            d_yy[np.triu_indices(len(y), k=1)],
            d_xy.ravel(),
        ])
        med = float(np.median(pooled))
        bandwidth = med if med > 0 else 1.0
    gamma = 1.0 / bandwidth
    stat = (np.mean(np.exp(-gamma * d_xx)) + np.mean(np.exp(-gamma * d_yy))
            - 2.0 * np.mean(np.exp(-gamma * d_xy)))
    return float(np.sqrt(max(stat, 0.0)))


@pytest.mark.parametrize("case", ["few", "blocks", "reference_set", "same_array",
                                  "equal_copy", "all_equal_rows", "bandwidth"])
def test_mmd_matches_whole_matrix_formula_bit_for_bit(case):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(37, 12)) * 3.0
    y = rng.normal(size=(300, 12)) + 0.5
    bandwidth = None
    if case == "few":  # fewer rows than one block, odd sizes
        x, y = x[:3], y[:5]
    elif case == "reference_set":  # the sample workload's 64 vs 1024 images
        x = rng.normal(size=(64, 1, 8, 8))
        y = rng.normal(size=(1024, 1, 8, 8)) * 1.1
    elif case == "same_array":  # one buffer on both sides takes the x x^T path
        y = x
    elif case == "equal_copy":
        y = x.copy()
    elif case == "all_equal_rows":  # median 0 falls back to bandwidth 1
        x, y = np.ones((6, 4)), np.ones((9, 4))
    elif case == "bandwidth":
        bandwidth = 7.5
    assert mmd_rbf(x, y, bandwidth) == reference_mmd_rbf(x, y, bandwidth)


def test_mmd_peak_memory_at_reference_set_size():
    # one 1024 x 1024 distance matrix plus the pooled buffer for the
    # median; the whole-matrix formula peaked at 3.6 x 8n^2 bytes
    n = 1024
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 64))
    y = rng.normal(size=(n, 64))
    mmd_rbf(x, y)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mmd_rbf(x, y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * n * n, peak / (8 * n * n)


def test_spectral_distance_prefers_matching_band():
    ds = BandlimitedDataset(image_size=8)
    rng = np.random.default_rng(7)
    x1, _ = ds.sample(rng, 400)
    x2, _ = ds.sample(rng, 400)
    noise = GaussianDataset(image_size=8, channels=1, data_std=1.0)
    n, _ = noise.sample(rng, 400)
    assert spectral_distance(x1, x2) < spectral_distance(x1, n)
