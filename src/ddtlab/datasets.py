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

from .numcore import dct_matrix

__all__ = ["BandlimitedDataset", "GaussianDataset", "PointMassDataset", "DATASETS",
           "make_dataset"]

# the names make_dataset accepts
DATASETS = ("bandlimited", "gaussian", "pointmass")


class BandlimitedDataset:
    """Each class k owns two low-frequency DCT modes; samples are those
    modes with jittered amplitudes. Spectrum beyond radial bin 3 is empty,
    which the spectral diagnostics rely on."""

    name = "bandlimited"

    def __init__(self, image_size: int = 8, channels: int = 1, num_classes: int = 4,
                 amplitude: float = 6.0, jitter: float = 0.3):
        self.image_size = image_size
        self.channels = channels
        self.num_classes = num_classes
        self.amplitude = amplitude
        self.jitter = jitter
        # class k -> modes (0, k%3+1) and (k%3+1, 0): all inside radial bin 3
        self.class_modes = [
            ((0, k % 3 + 1), (k % 3 + 1, 0)) for k in range(num_classes)
        ]
        self._basis = dct_matrix(image_size)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        s = self.image_size
        y = rng.integers(0, self.num_classes, size=n)
        coeffs = np.zeros((n, s, s))
        scale = self.amplitude * (1.0 + self.jitter * rng.standard_normal((n, 2)))
        sign = rng.choice([-1.0, 1.0], size=n)
        for i in range(n):
            (a1, b1), (a2, b2) = self.class_modes[y[i]]
            coeffs[i, a1, b1] = scale[i, 0] * sign[i]
            coeffs[i, a2, b2] = scale[i, 1] * sign[i]
        imgs = np.einsum("ij,njk,kl->nil", self._basis.T, coeffs, self._basis)
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
        radius = np.floor(np.sqrt(
            np.arange(s)[:, None] ** 2 + np.arange(s)[None, :] ** 2)).astype(int)
        bins = np.arange(radius.max() + 1)
        return np.array([energy[radius == r].mean() for r in bins])


class GaussianDataset:
    name = "gaussian"

    def __init__(self, image_size: int = 8, channels: int = 1, data_std: float = 1.5):
        self.image_size = image_size
        self.channels = channels
        self.num_classes = 1
        self.data_std = data_std

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        shape = (n, self.channels, self.image_size, self.image_size)
        return self.data_std * rng.standard_normal(shape), np.zeros(n, dtype=np.int64)


class PointMassDataset:
    name = "pointmass"

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
