"""Synthetic datasets with known structure.

bandlimited : class-conditional images whose DCT spectrum lives in a few
              low-frequency modes; large mode amplitudes so the velocity
              target is dominated by learnable signal rather than noise.
gaussian    : x ~ N(0, s_d^2 I); the flow ODE has a closed-form solution,
              used as a convergence oracle for the samplers.
pointmass   : every sample is the same image; the analytic velocity field
              is constant along trajectories, so Euler is exact.
"""

from __future__ import annotations

import numpy as np

from .spectral import dct_matrix, radial_bin_map

__all__ = ["BandlimitedDataset", "GaussianDataset", "PointMassDataset", "DATASETS",
           "make_dataset"]

# the names make_dataset accepts
DATASETS = ("bandlimited", "gaussian", "pointmass")


class BandlimitedDataset:
    """Each class k owns two low-frequency DCT modes; samples are those
    modes with jittered amplitudes. Spectrum beyond radial bin 3 is empty,
    which the spectral diagnostics rely on."""

    amplitude, jitter = 6.0, 0.3

    def __init__(self, image_size: int = 8, channels: int = 1, num_classes: int = 4):
        self.image_size = image_size
        self.channels = channels
        self.num_classes = num_classes
        # class k -> modes (0, k%3+1) and (k%3+1, 0): all inside radial bin 3
        self.class_modes = [
            ((0, k % 3 + 1), (k % 3 + 1, 0)) for k in range(num_classes)
        ]
        # [mode, axis, class]: self._modes[..., y] unpacks to (a1, b1), (a2, b2)
        self._modes = np.array(self.class_modes, dtype=np.int64).transpose(1, 2, 0)
        self._basis = dct_matrix(image_size)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n images, each the sum of its class's two DCT modes (a1, b1) and
        (a2, b2) with coefficients c1 and c2, in closed form:
        (u_a1 c1) u_b1^T + (u_a2 c2) u_b2^T with u the basis rows. A dense
        inverse DCT of the coefficient image adds only exact zeros to
        these two terms, so it gives the same images bit for bit."""
        y = rng.integers(0, self.num_classes, size=n)
        scale = self.amplitude * (1.0 + self.jitter * rng.standard_normal((n, 2)))
        sign = rng.choice([-1.0, 1.0], size=n)
        c = scale * sign[:, None]
        basis = self._basis
        (a1, b1), (a2, b2) = self._modes[..., y]
        imgs = ((basis[a1] * c[:, :1])[:, :, None] * basis[b1][:, None, :]
                + (basis[a2] * c[:, 1:])[:, :, None] * basis[b2][:, None, :])
        x = np.repeat(imgs[:, None, :, :], self.channels, axis=1)
        return x, y

    def spectrum_coefficients(self) -> np.ndarray:
        """Per-radial-bin mean squared DCT coefficient of the data,
        computed in closed form from the generative recipe."""
        s = self.image_size
        energy = np.zeros((s, s))
        per_class = 1.0 / self.num_classes
        second_moment = self.amplitude ** 2 * (1.0 + self.jitter ** 2)
        for modes in self.class_modes:
            for (a, b) in modes:
                energy[a, b] += per_class * second_moment
        bins = radial_bin_map(s).ravel()
        return np.bincount(bins, weights=energy.ravel()) / np.bincount(bins)


class GaussianDataset:
    def __init__(self, image_size: int = 8, channels: int = 1, data_std: float = 1.5):
        self.image_size = image_size
        self.channels = channels
        self.num_classes = 1
        self.data_std = data_std

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        shape = (n, self.channels, self.image_size, self.image_size)
        return self.data_std * rng.standard_normal(shape), np.zeros(n, dtype=np.int64)


class PointMassDataset:
    def __init__(self, image_size: int = 8, channels: int = 1, value: float = 1.0):
        self.image_size = image_size
        self.channels = channels
        self.num_classes = 1
        self.x_star = np.full((channels, image_size, image_size), value)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        x = np.broadcast_to(self.x_star, (n, *self.x_star.shape)).copy()
        return x, np.zeros(n, dtype=np.int64)


def make_dataset(name: str, image_size: int = 8, channels: int = 1,
                 num_classes: int = 4):
    if name == "bandlimited":
        return BandlimitedDataset(image_size, channels, num_classes)
    if name == "gaussian":
        return GaussianDataset(image_size, channels)
    if name == "pointmass":
        return PointMassDataset(image_size, channels)
    raise ValueError(f"unknown dataset {name!r}; choose from {', '.join(DATASETS)}")
