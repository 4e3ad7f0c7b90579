"""Input perturbations for aleatoric-uncertainty sampling.

Three transform families, each with a "low" (likely in practice) and a
"high" (uncommon but plausible) parameter range:

* affine -- per-axis scaling, rotation and translation, resampled on the
  source grid by trilinear interpolation in mm space;
* ghosting -- attenuation of periodic k-space planes along one axis,
  mimicking subject-motion replicas;
* bias field -- multiplicative ``exp`` of a low-order 3-D polynomial,
  mimicking RF coil inhomogeneity.

Parameter ranges:

=========  ======================  ======================
family     low                     high
=========  ======================  ======================
affine     scale U(0.98, 1.02)     scale U(0.80, 1.20)
           rot(deg) U(-5, 5)       rot(deg) U(-45, 45)
           trans(mm) U(-5, 5)      trans(mm) U(-5, 5)
ghosting   strength U(0.00, 0.15)  strength U(0.25, 0.75)
           ghosts U{2..6}, axis 1  ghosts U{2..6}, axis 1
bias       |coeff| <= 0.2, order 3 |coeff| <= 0.8, order 3
=========  ======================  ======================

Combined draws all three families from one range.  Application order is
affine, then ghosting, then bias field (spatial motion precedes
acquisition artefacts).  Sign convention: positive translation moves image
content toward the positive axis direction (output resamples the input at
``x - t``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.ndimage import map_coordinates

from .volume import Volume

AFFINE_SCALE_RANGE = {"low": (0.98, 1.02), "high": (0.80, 1.20)}
AFFINE_ROTATION_RANGE = {"low": (-5.0, 5.0), "high": (-45.0, 45.0)}
AFFINE_TRANSLATION_RANGE = (-5.0, 5.0)  # mm, both ranges
GHOST_STRENGTH_RANGE = {"low": (0.0, 0.15), "high": (0.25, 0.75)}
GHOST_COUNT_CHOICES = (2, 3, 4, 5, 6)
GHOST_AXIS = 1  # 2nd image axis
GHOST_PROTECTED_FRACTION = 0.02  # low-frequency band excluded from attenuation
BIAS_COEFF_MAX = {"low": 0.2, "high": 0.8}
BIAS_ORDER = 3


class TransformError(ValueError):
    """Invalid transform parameters or inapplicable transform."""


# --------------------------------------------------------------------------
# parameter containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineParams:
    """Rotation (z*y*x about the grid center, degrees), then scaling, then translation (mm)."""

    scale: tuple[float, float, float] = (1.0, 1.0, 1.0)
    rotation_deg: tuple[float, float, float] = (0.0, 0.0, 0.0)
    translation_mm: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("scale", "rotation_deg", "translation_mm"):
            vals = tuple(float(x) for x in getattr(self, name))
            if len(vals) != 3 or any(not math.isfinite(x) for x in vals):
                raise TransformError(f"{name} must be three finite values, got {vals}")
            object.__setattr__(self, name, vals)
        if any(s <= 0 for s in self.scale):
            raise TransformError(f"scale components must be > 0, got {self.scale}")

    @property
    def is_identity(self) -> bool:
        return (
            self.scale == (1.0, 1.0, 1.0)
            and self.rotation_deg == (0.0, 0.0, 0.0)
            and self.translation_mm == (0.0, 0.0, 0.0)
        )

    @classmethod
    def identity(cls) -> "AffineParams":
        return cls()


@dataclass(frozen=True)
class GhostingParams:
    """Attenuate every k-th k-space plane along ``axis`` by ``1 - strength``."""

    strength: float
    num_ghosts: int = 2
    axis: int = GHOST_AXIS

    def __post_init__(self) -> None:
        if not (0.0 <= self.strength <= 1.0):
            raise TransformError(f"ghost strength must be in [0, 1], got {self.strength}")
        if self.num_ghosts < 2:
            raise TransformError(f"num_ghosts must be >= 2, got {self.num_ghosts}")
        if self.axis not in (0, 1, 2):
            raise TransformError(f"axis must be 0, 1 or 2, got {self.axis}")


def bias_monomials(order: int = BIAS_ORDER) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (i, j, k), 1 <= i+j+k <= order, in lexicographic order."""
    return tuple(
        (i, j, k)
        for i, j, k in product(range(order + 1), repeat=3)
        if 0 < i + j + k <= order
    )


@dataclass(frozen=True)
class BiasFieldParams:
    """Coefficients of the log-field polynomial, one per :func:`bias_monomials` entry."""

    coeffs: tuple[float, ...]
    order: int = BIAS_ORDER

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        expected = len(bias_monomials(self.order))
        if len(coeffs) != expected:
            raise TransformError(
                f"bias field of order {self.order} needs {expected} coefficients, got {len(coeffs)}"
            )
        if any(not math.isfinite(c) for c in coeffs):
            raise TransformError("bias coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_monomials(cls, mapping: dict[tuple[int, int, int], float], order: int = BIAS_ORDER) -> "BiasFieldParams":
        """Build params from a sparse {(i, j, k): coeff} mapping."""
        monos = bias_monomials(order)
        unknown = set(mapping) - set(monos)
        if unknown:
            raise TransformError(f"unknown monomials for order {order}: {sorted(unknown)}")
        return cls(tuple(mapping.get(m, 0.0) for m in monos), order)


@dataclass(frozen=True)
class TransformSample:
    """One drawn perturbation; combined cases carry all three components."""

    affine: AffineParams | None = None
    ghosting: GhostingParams | None = None
    bias: BiasFieldParams | None = None

    def __post_init__(self) -> None:
        if self.affine is None and self.ghosting is None and self.bias is None:
            raise TransformError("transform sample must carry at least one component")


# --------------------------------------------------------------------------
# affine resampling
# --------------------------------------------------------------------------

def _rotation_matrix(rotation_deg: tuple[float, float, float]) -> np.ndarray:
    ax, ay, az = (math.radians(a) for a in rotation_deg)
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _forward_map(p: AffineParams, dims, spacing) -> tuple[np.ndarray, np.ndarray]:
    """Matrix/offset of the forward point map y = A(x - c) + c + t in mm space."""
    a = np.diag(p.scale) @ _rotation_matrix(p.rotation_deg)
    center = (np.array(dims, dtype=np.float64) - 1.0) / 2.0 * np.array(spacing, dtype=np.float64)
    t = np.array(p.translation_mm, dtype=np.float64)
    b = center + t - a @ center
    return a, b


def _resample_at(v: Volume, matrix: np.ndarray, offset: np.ndarray) -> Volume:
    """Trilinear sample of ``v`` at mm points ``matrix @ y + offset`` per grid point y."""
    # built in place, so at most two (3, N) coordinate arrays are alive at once
    spacing = np.array(v.spacing, dtype=np.float64)[:, None]
    mm = np.indices(v.dims, dtype=np.float64).reshape(3, -1)
    mm *= spacing
    src = matrix @ mm
    del mm
    src += offset[:, None]
    src /= spacing
    # order-1 interpolation reads float32 samples as float64, so no float64 copy of the input is needed
    out = map_coordinates(v.data, src, output=np.float64, order=1, mode="constant", cval=0.0)
    return Volume(out.reshape(v.dims), v.spacing)


def apply_affine(v: Volume, p: AffineParams) -> Volume:
    """Resample ``v`` under the forward affine map.

    Sample points falling outside the source grid take value 0 outright
    (no partial edge blending).  Identity parameters return the input
    unchanged (no resampling blur).
    """
    if p.is_identity:
        return v
    a, b = _forward_map(p, v.dims, v.spacing)
    a_inv = np.linalg.inv(a)
    return _resample_at(v, a_inv, -a_inv @ b)


def apply_affine_inverse(v: Volume, p: AffineParams) -> Volume:
    """Exact inverse resampling of :func:`apply_affine` (samples at forward-mapped points).

    Used to map predictions made on an affine-perturbed grid back to the
    original grid without re-deriving approximate inverse parameters.
    """
    if p.is_identity:
        return v
    a, b = _forward_map(p, v.dims, v.spacing)
    return _resample_at(v, a, b)


# --------------------------------------------------------------------------
# ghosting
# --------------------------------------------------------------------------

def _ghost_plane_indices(n: int, num_ghosts: int) -> np.ndarray:
    """Indices of attenuated k-space planes along an axis of length n."""
    k = n // num_ghosts
    if k < 1:
        raise TransformError(f"num_ghosts {num_ghosts} too large for axis length {n}")
    planes = np.arange(k, n, k)
    dist_to_dc = np.minimum(planes, n - planes)
    return planes[dist_to_dc > GHOST_PROTECTED_FRACTION * n]


def apply_ghosting(v: Volume, p: GhostingParams) -> Volume:
    """Attenuate every k-th frequency plane (k = n // num_ghosts) by ``1 - strength``.

    The low-frequency band within +/-2% of the axis length around the
    zero-frequency plane is protected, so constant volumes pass through and
    strength 0 is an identity up to FFT round-off.
    """
    n = v.dims[p.axis]
    if n < 4:
        raise TransformError(f"ghosting axis {p.axis} has length {n}, need >= 4")
    planes = _ghost_plane_indices(n, p.num_ghosts)
    spectrum = np.fft.fft(v.data.astype(np.float64), axis=p.axis)
    sel = [slice(None)] * 3
    sel[p.axis] = planes
    spectrum[tuple(sel)] *= 1.0 - p.strength
    out = np.fft.ifft(spectrum, axis=p.axis).real
    return Volume(out, v.spacing)


# --------------------------------------------------------------------------
# bias field
# --------------------------------------------------------------------------

def _unit_coords(n: int) -> np.ndarray:
    """Voxel indices mapped affinely onto [-1, 1] (0 for a single-voxel axis)."""
    if n == 1:
        return np.zeros(1)
    return -1.0 + 2.0 * np.arange(n) / (n - 1)


def bias_field(dims: tuple[int, int, int], spacing: tuple[float, float, float], p: BiasFieldParams) -> Volume:
    """Field exp(sum c_ijk u^i v^j w^k) on unit-cube coordinates; strictly positive."""
    u = _unit_coords(dims[0])[:, None, None]
    v = _unit_coords(dims[1])[None, :, None]
    w = _unit_coords(dims[2])[None, None, :]
    log_field = np.zeros(dims, dtype=np.float64)
    for (i, j, k), c in zip(bias_monomials(p.order), p.coeffs):
        if c != 0.0:
            log_field += c * (u**i) * (v**j) * (w**k)
    return Volume(np.exp(log_field), spacing)


def apply_bias(v: Volume, p: BiasFieldParams) -> Volume:
    """Multiply ``v`` elementwise by the bias field on its grid."""
    field = bias_field(v.dims, v.spacing, p)
    return Volume(v.data.astype(np.float64) * field.data.astype(np.float64), v.spacing)


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def _check_range(range_name: str) -> str:
    if range_name not in ("low", "high"):
        raise TransformError(f"range must be 'low' or 'high', got {range_name!r}")
    return range_name


def sample_affine(range_name: str, rng: np.random.Generator) -> AffineParams:
    """Draw per-axis scale, rotation and translation from the named range."""
    _check_range(range_name)
    scale = tuple(rng.uniform(*AFFINE_SCALE_RANGE[range_name], size=3))
    rotation = tuple(rng.uniform(*AFFINE_ROTATION_RANGE[range_name], size=3))
    translation = tuple(rng.uniform(*AFFINE_TRANSLATION_RANGE, size=3))
    return AffineParams(scale, rotation, translation)


def sample_ghosting(range_name: str, rng: np.random.Generator) -> GhostingParams:
    """Draw strength from the named range and ghost count uniform on {2..6}."""
    _check_range(range_name)
    strength = float(rng.uniform(*GHOST_STRENGTH_RANGE[range_name]))
    num_ghosts = int(rng.choice(GHOST_COUNT_CHOICES))
    return GhostingParams(strength, num_ghosts, GHOST_AXIS)


def sample_bias(range_name: str, rng: np.random.Generator) -> BiasFieldParams:
    """Draw each polynomial coefficient uniform in +/- the range's maximum."""
    _check_range(range_name)
    c_max = BIAS_COEFF_MAX[range_name]
    n = len(bias_monomials(BIAS_ORDER))
    return BiasFieldParams(tuple(rng.uniform(-c_max, c_max, size=n)), BIAS_ORDER)


def sample_transform(case, rng: np.random.Generator) -> TransformSample:
    """Draw the component parameter sets an uncertainty case calls for.

    ``case`` is any object with ``kind`` ("tta"), ``family`` ("affine",
    "ghosting", "bias" or "combined") and ``level`` ("low"/"high").
    Combined cases draw affine, then ghosting, then bias from one stream,
    matching the application order.
    """
    if getattr(case, "kind", None) != "tta":
        raise TransformError(f"transform sampling needs a TTA case, got {case!r}")
    family, level = case.family, _check_range(case.level)
    if family == "affine":
        return TransformSample(affine=sample_affine(level, rng))
    if family == "ghosting":
        return TransformSample(ghosting=sample_ghosting(level, rng))
    if family == "bias":
        return TransformSample(bias=sample_bias(level, rng))
    if family == "combined":
        return TransformSample(
            affine=sample_affine(level, rng),
            ghosting=sample_ghosting(level, rng),
            bias=sample_bias(level, rng),
        )
    raise TransformError(f"unknown transform family {family!r}")


def apply_transform(v: Volume, sample: TransformSample) -> Volume:
    """Apply the sampled components in order: affine, ghosting, bias field."""
    out = v
    if sample.affine is not None:
        out = apply_affine(out, sample.affine)
    if sample.ghosting is not None:
        out = apply_ghosting(out, sample.ghosting)
    if sample.bias is not None:
        out = apply_bias(out, sample.bias)
    return out
