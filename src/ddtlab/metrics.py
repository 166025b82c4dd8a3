"""Sample-quality metrics for synthetic experiments."""

from __future__ import annotations

import numpy as np

from .spectral import radial_spectrum

__all__ = ["mmd_rbf", "spectral_distance"]

# elements of aa_i + bb_j built at a time (64 kB); a whole-matrix sum
# would be one more n×m temporary
_BLOCK_ELEMENTS = 1 << 13


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(aa_i + bb_j - 2 a_i·b_j, 0) in one n×m array: the product is
    doubled in place (exact), aa_i + bb_j is built a row block at a time
    and the product subtracted from it, and the clip is in place. Each
    element goes through the same operations as in the whole-matrix
    expression, so the result is bit-identical to it."""
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d = a @ b.T
    d *= 2.0
    rows = max(1, _BLOCK_ELEMENTS // len(b))
    for lo in range(0, len(a), rows):
        block = d[lo:lo + rows]
        np.subtract(aa[lo:lo + rows, None] + bb, block, out=block)
    np.maximum(d, 0.0, out=d)
    return d


def _upper_into(pooled: np.ndarray, pos: int, d: np.ndarray) -> int:
    """Copy the strict upper triangle of square d, row by row, into
    pooled from pos on; returns the position after it."""
    n = len(d)
    for i in range(n - 1):
        pooled[pos:pos + n - 1 - i] = d[i, i + 1:]
        pos += n - 1 - i
    return pos


def _median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median of the pooled pairwise squared distances (the within-set
    upper triangles and every cross pair), or 1.0 when it is 0."""
    nx, ny = len(x), len(y)
    pooled = np.empty(nx * (nx - 1) // 2 + ny * (ny - 1) // 2 + nx * ny)
    pos = _upper_into(pooled, 0, _pairwise_sq_dists(x, x))
    pos = _upper_into(pooled, pos, _pairwise_sq_dists(y, y))
    pooled[pos:] = _pairwise_sq_dists(x, y).ravel()
    med = float(np.median(pooled, overwrite_input=True))
    return med if med > 0 else 1.0


def _kernel_mean(a: np.ndarray, b: np.ndarray, gamma: float) -> float:
    """mean(exp(-gamma * d)) over the pairwise squared distances, in place."""
    d = _pairwise_sq_dists(a, b)
    d *= -gamma
    np.exp(d, out=d)
    return np.mean(d)


def mmd_rbf(x: np.ndarray, y: np.ndarray, bandwidth: float | None = None) -> float:
    """RBF-kernel maximum mean discrepancy (biased V-statistic, >= 0).

    The kernel scale defaults to the median heuristic: gamma = 1 / median
    of the pooled pairwise squared distances, which keeps the statistic
    deterministic and comparable across calls on the same data. A given
    bandwidth must be a finite number > 0; anything else raises
    ValueError.

    Memory: one distance matrix is live at a time, so the peak is the
    largest of n_x², n_y² and n_x·n_y doubles plus, for the median, one
    pooled buffer of n_x(n_x-1)/2 + n_y(n_y-1)/2 + n_x·n_y doubles that is
    partitioned in place. The median pass computes each matrix once and
    the kernel pass computes it again, with the same operations in the
    same order, so the statistic is bit-identical to holding all three.
    """
    x = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    y = np.asarray(y, dtype=np.float64).reshape(len(y), -1)
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ValueError("mmd needs at least two samples per side")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if bandwidth is None:
        bandwidth = _median_bandwidth(x, y)
    elif not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be a finite number > 0, got {bandwidth}")
    gamma = 1.0 / bandwidth
    stat = (_kernel_mean(x, x, gamma) + _kernel_mean(y, y, gamma)
            - 2.0 * _kernel_mean(x, y, gamma))
    return float(np.sqrt(max(stat, 0.0)))


def spectral_distance(x: np.ndarray, y: np.ndarray) -> float:
    """L2 distance between the radial spectra of two image batches."""
    sx = radial_spectrum(x)
    sy = radial_spectrum(y)
    if len(sx) != len(sy):
        raise ValueError("batches must share the image size")
    return float(np.linalg.norm(sx - sy))
