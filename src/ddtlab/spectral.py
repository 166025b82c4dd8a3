"""Frequency-domain diagnostics for the linear noising process.

Mixing x_t = t*x + (1-t)*eps acts independently on each orthonormal DCT
coefficient, so the expected squared coefficient at time t is

    c_i(t) = t^2 * c_i(data) + (1-t)^2 * lam

with lam the per-coefficient noise power (1 for unit Gaussian noise). A
frequency is "retained" at time t when its signal term still dominates the
noise term; for data bandlimited to K_freq the retained band is also
bounded by min((t/(1-t))^2, K_freq).

Spectra are summarized radially: coefficient (i, j) lands in bin
floor(sqrt(i^2 + j^2)) and each bin reports its mean squared coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .files import atomic_write

__all__ = [
    "SpectrumProfile",
    "radial_bin_map",
    "dct_matrix",
    "dct2",
    "radial_spectrum",
    "retained_frequency",
    "lemma_bound",
    "empirical_noisy_spectrum",
    "write_spectrum_csv",
]


@lru_cache(maxsize=32)
def radial_bin_map(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"grid size must be positive, got {n}")
    idx = np.arange(n)
    r = np.sqrt(idx[:, None] ** 2 + idx[None, :] ** 2)
    out = np.floor(r).astype(np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix; rows are the basis vectors u_i.
    Read-only, since every caller shares the cached array."""
    if n < 1:
        raise ValueError("DCT size must be >= 1")
    k = np.arange(n)[:, None]
    r = np.arange(n)[None, :]
    mat = np.cos(np.pi / n * k * (r + 0.5))
    mat *= np.sqrt(2.0 / n)
    mat[0] *= np.sqrt(0.5)
    mat.setflags(write=False)
    return mat


def dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the last two axes: m_r @ x @ m_c.T,
    two matrix products broadcast over the leading axes, O(n^3) an image."""
    x = np.asarray(x, dtype=np.float64)
    m_r = dct_matrix(x.shape[-2])
    m_c = dct_matrix(x.shape[-1])
    return m_r @ x @ m_c.T


def radial_spectrum(images: np.ndarray) -> np.ndarray:
    """Per-bin mean squared DCT coefficient, averaged over batch (and
    channels if present). Accepts [B,H,W] or [B,C,H,W]."""
    x = np.asarray(images, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ValueError(f"expected [B,H,W] or [B,C,H,W], got shape {x.shape}")
    if x.shape[-1] != x.shape[-2]:
        raise ValueError("radial binning requires square images")
    sq = dct2(x) ** 2
    sq = sq.reshape(-1, x.shape[-2], x.shape[-1]).mean(axis=0)
    bins = radial_bin_map(x.shape[-1])
    count = np.bincount(bins.ravel())
    total = np.bincount(bins.ravel(), weights=sq.ravel())
    return total / count


@dataclass(frozen=True)
class SpectrumProfile:
    """Radial data spectrum plus the mixing time it is viewed at."""
    data_coefficients: np.ndarray
    lam: float = 1.0
    t: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.data_coefficients, dtype=np.float64)
        object.__setattr__(self, "data_coefficients", c)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("data coefficients must be a non-empty vector")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ValueError("squared coefficients must be finite and >= 0")
        if self.lam < 0:
            raise ValueError(f"noise power must be >= 0, got {self.lam}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"time must lie in [0, 1], got {self.t}")

    @property
    def coefficients(self) -> np.ndarray:
        """Expected noisy spectrum c_i(t) = t^2 c_i + (1-t)^2 lam."""
        return self.t ** 2 * self.data_coefficients + (1.0 - self.t) ** 2 * self.lam

    @property
    def k_freq(self) -> int:
        """Highest bin the data occupies (its bandlimit)."""
        nonzero = np.nonzero(self.data_coefficients > 0.0)[0]
        return int(nonzero[-1]) if nonzero.size else 0


def retained_frequency(profile: SpectrumProfile) -> int:
    """Largest bin whose signal power still exceeds the noise power at the
    profile's time, 0 if none does."""
    signal = profile.t ** 2 * profile.data_coefficients
    noise = (1.0 - profile.t) ** 2 * profile.lam
    above = np.nonzero(signal > noise)[0]
    return int(above[-1]) if above.size else 0


def lemma_bound(t: float, k_freq: int) -> float:
    """Upper bound min((t/(1-t))^2, K_freq) on the retained band."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"bound needs t in [0, 1), got {t}")
    if k_freq < 0:
        raise ValueError(f"bandlimit must be >= 0, got {k_freq}")
    return min((t / (1.0 - t)) ** 2, float(k_freq))


def empirical_noisy_spectrum(images: np.ndarray, t: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Radial spectrum of t*x + (1-t)*eps on a clean batch."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must lie in [0, 1], got {t}")
    x = np.asarray(images, dtype=np.float64)
    noisy = t * x + (1.0 - t) * rng.standard_normal(size=x.shape)
    return radial_spectrum(noisy)


def write_spectrum_csv(path, profile: SpectrumProfile, empirical: np.ndarray) -> None:
    """CSV with one row per radial bin: freq,c_data,c_noisy_analytic,
    c_noisy_empirical."""
    analytic = profile.coefficients
    if len(empirical) != len(analytic):
        raise ValueError("empirical spectrum length does not match profile")
    with atomic_write(path) as fh:
        fh.write("freq,c_data,c_noisy_analytic,c_noisy_empirical\n")
        for i in range(len(analytic)):
            fh.write(f"{i},{profile.data_coefficients[i]:.17g},"
                     f"{analytic[i]:.17g},{empirical[i]:.17g}\n")
