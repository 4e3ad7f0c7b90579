"""Synthetic MRI-like test subjects with known ground-truth labels.

Each phantom is an ellipsoidal bright lesion (optionally several, optionally
with a small detached satellite) on a darker background, box-smoothed and
corrupted with Gaussian noise.  Everything is a pure function of the spec,
so cohorts regenerate bit-identically from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import uniform_filter

from .seeding import derive_rng
from .volume import Volume, VolumeError

_MAX_PLACEMENT_TRIES = 64


class PlacementError(RuntimeError):
    """Lesion could not be placed inside the grid after bounded retries."""


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one synthetic subject; ``seed`` makes it deterministic."""

    dims: tuple[int, int, int] = (32, 32, 16)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_lesions: int = 1
    radius_range: tuple[float, float] = (2.5, 4.5)  # voxels
    background_mean: float = 0.2
    foreground_mean: float = 1.0
    noise_std: float = 0.05
    satellite: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise VolumeError(f"bad dims {self.dims}")
        lo, hi = self.radius_range
        if not (0 < lo <= hi):
            raise VolumeError(f"radius range must be positive and ordered, got {self.radius_range}")
        # _place_center keeps a margin of ceil(radius) voxels on each side
        if not math.isfinite(hi) or any(2 * math.ceil(hi) >= d for d in self.dims):
            raise VolumeError(f"max radius {hi} does not fit inside dims {self.dims}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise VolumeError(f"noise std must be finite and >= 0, got {self.noise_std}")
        if self.n_lesions < 1:
            raise VolumeError(f"need at least one lesion, got {self.n_lesions}")


def _ellipsoid_bits(dims: tuple[int, int, int], center: np.ndarray, radii: np.ndarray) -> np.ndarray:
    ix, iy, iz = np.indices(dims)
    d2 = (
        ((ix - center[0]) / radii[0]) ** 2
        + ((iy - center[1]) / radii[1]) ** 2
        + ((iz - center[2]) / radii[2]) ** 2
    )
    return d2 <= 1.0


def _place_center(rng: np.random.Generator, dims, radii) -> np.ndarray:
    """Integer lattice center such that the ellipsoid fits fully inside (:class:`PhantomSpec` checks it can)."""
    margins = np.ceil(radii).astype(int)
    return np.array([int(rng.integers(m, d - m)) for m, d in zip(margins, dims)])


def generate_phantom(spec: PhantomSpec) -> tuple[Volume, Volume]:
    """Return ``(image, label)`` for one subject.

    The label is exactly {0, 1}-valued.  The image is the two-level step
    image smoothed with a fixed 3x3x3 box kernel, plus Gaussian noise.
    """
    rng = derive_rng(spec.seed, "phantom")
    dims = tuple(int(d) for d in spec.dims)
    label = np.zeros(dims, dtype=bool)

    for _ in range(spec.n_lesions):
        radii = rng.uniform(spec.radius_range[0], spec.radius_range[1], size=3)
        center = _place_center(rng, dims, radii)
        label |= _ellipsoid_bits(dims, center, radii)
        if spec.satellite:
            label |= _satellite_bits(rng, dims, center, radii)

    step = spec.background_mean + (spec.foreground_mean - spec.background_mean) * label.astype(np.float64)
    image = uniform_filter(step, size=3, mode="nearest")
    if spec.noise_std > 0:
        image = image + rng.normal(0.0, spec.noise_std, size=dims)
    return Volume(image, spec.spacing), Volume(label.astype(np.float32), spec.spacing)


def _satellite_bits(rng, dims, center, radii) -> np.ndarray:
    """Small detached lesion near the main one, separated by a >=1 voxel gap."""
    sat_radii = np.maximum(0.4 * radii, 1.2)
    for _ in range(_MAX_PLACEMENT_TRIES):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        dist = np.max(radii) + np.max(sat_radii) + 2.0
        sat_center = np.rint(center + dist * direction).astype(int)
        margins = np.ceil(sat_radii).astype(int)
        if all(m <= c <= d - 1 - m for c, m, d in zip(sat_center, margins, dims)):
            return _ellipsoid_bits(dims, sat_center, sat_radii)
    raise PlacementError(f"could not place satellite lesion near {center} inside {dims}")


def generate_cohort(spec: PhantomSpec, n_subjects: int) -> list[tuple[Volume, Volume]]:
    """Subjects ``i = 0..n-1``, each generated with ``seed = spec.seed + i``."""
    if n_subjects < 1:
        raise VolumeError(f"need at least one subject, got {n_subjects}")
    return [generate_phantom(replace(spec, seed=spec.seed + i)) for i in range(n_subjects)]
