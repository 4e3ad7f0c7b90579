import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import uniform_filter

import oracles
from oracles import invert_affine
from uqcat import augment
from uqcat import (
    AffineParams,
    BiasFieldParams,
    GhostingParams,
    TransformError,
    TransformSample,
    Volume,
    apply_affine,
    apply_affine_inverse,
    apply_bias,
    apply_ghosting,
    apply_transform,
    bias_field,
    bias_monomials,
    get_case,
    sample_affine,
    sample_bias,
    sample_ghosting,
    sample_transform,
)


def smooth_volume(dims, seed, spacing=(1.0, 1.0, 1.0)):
    """Band-limited random volume (double box smoothing of white noise)."""
    rng = np.random.default_rng(seed)
    arr = rng.random(dims)
    arr = uniform_filter(uniform_filter(arr, size=3, mode="nearest"), size=3, mode="nearest")
    return Volume(arr, spacing)


# --------------------------------------------------------------------------
# affine
# --------------------------------------------------------------------------

def test_affine_identity_is_exact():
    v = smooth_volume((7, 6, 5), seed=0)
    out = apply_affine(v, AffineParams.identity())
    assert out.data is v.data  # fast path, no resampling


def test_translation_moves_impulse_toward_positive_axis():
    arr = np.zeros((9, 9, 5), dtype=np.float32)
    arr[4, 4, 2] = 1.0
    v = Volume(arr)
    out = apply_affine(v, AffineParams(translation_mm=(1.0, 0.0, 0.0)))
    assert out.data[5, 4, 2] == pytest.approx(1.0, abs=1e-6)
    assert out.data[4, 4, 2] == pytest.approx(0.0, abs=1e-6)
    expected = oracles.affine_resample(arr, (1, 1, 1), (1, 1, 1), (0, 0, 0), (1, 0, 0))
    assert np.allclose(out.data, expected, atol=1e-6)


def test_rotation_90deg_bar_on_odd_grid():
    arr = np.zeros((9, 9, 3), dtype=np.float32)
    arr[2:7, 4, 1] = 1.0  # bar along x through the center
    v = Volume(arr)
    out = apply_affine(v, AffineParams(rotation_deg=(0.0, 0.0, 90.0)))
    expected = oracles.affine_resample(arr, (1, 1, 1), (1, 1, 1), (0, 0, 90), (0, 0, 0))
    assert np.allclose(out.data, expected, atol=1e-5)
    # bar now runs along y, intensity conserved within 2%
    assert out.data[4, 2:7, 1].sum() == pytest.approx(5.0, rel=0.02)
    assert abs(out.data.sum() - arr.sum()) <= 0.02 * arr.sum()


def test_affine_matches_scalar_oracle():
    v = smooth_volume((8, 7, 6), seed=1, spacing=(1.0, 1.2, 0.8))
    p = AffineParams(scale=(1.01, 0.99, 1.02), rotation_deg=(4.0, -3.0, 2.5), translation_mm=(0.8, -1.1, 0.4))
    out = apply_affine(v, p)
    expected = oracles.affine_resample(v.data, v.spacing, p.scale, p.rotation_deg, p.translation_mm)
    assert np.allclose(out.data, expected, atol=1e-5)


RESAMPLE_PARAMS = {
    "identity": AffineParams.identity(),
    "affine-low": AffineParams((1.01, 0.985, 1.02), (4.0, -3.0, 2.5), (0.8, -1.1, 4.2)),
    "affine-high": AffineParams((1.18, 0.83, 0.91), (-40.0, 27.0, 12.5), (-4.6, 2.3, -1.7)),
}


@pytest.mark.parametrize("name", RESAMPLE_PARAMS)
@pytest.mark.parametrize("dims", [(16, 16, 8), (32, 32, 16), (64, 64, 32), (33, 17, 5)])
def test_resample_oracle_bit_for_bit(dims, name):
    p = RESAMPLE_PARAMS[name]
    v = smooth_volume(dims, seed=sum(dims), spacing=(1.0, 1.0, 1.2))
    a, b = augment._forward_map(p, v.dims, v.spacing)
    a_inv = np.linalg.inv(a)
    forward = augment._resample_at(v, a_inv, -a_inv @ b)
    inverse = augment._resample_at(v, a, b)
    assert forward.data.tobytes() == oracles.resample_at(v, a_inv, -a_inv @ b).data.tobytes()
    assert inverse.data.tobytes() == oracles.resample_at(v, a, b).data.tobytes()
    if not p.is_identity:
        assert apply_affine(v, p).data.tobytes() == forward.data.tobytes()
        assert apply_affine_inverse(v, p).data.tobytes() == inverse.data.tobytes()


def test_apply_affine_memory_is_bounded():
    # four (3, N) float64 coordinate arrays and a float64 copy of the input peaked at 14 MB here
    v = smooth_volume((64, 64, 32), seed=4, spacing=(1.0, 1.0, 1.2))
    p = RESAMPLE_PARAMS["affine-high"]
    tracemalloc.start()
    try:
        apply_affine(v, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20, peak


def test_invert_affine_trivial_cases():
    ident = invert_affine(AffineParams.identity())
    assert ident.is_identity
    inv = invert_affine(AffineParams(translation_mm=(2.0, -3.0, 0.5)))
    assert inv.scale == (1.0, 1.0, 1.0)
    assert inv.rotation_deg == (0.0, 0.0, 0.0)
    assert np.allclose(inv.translation_mm, (-2.0, 3.0, -0.5))


def test_affine_roundtrip_low_range_rms():
    # crop excludes the border band wiped by out-of-bounds zeros (|t| <= 5 mm)
    rng = np.random.default_rng(5)
    v = smooth_volume((40, 40, 24), seed=2)
    value_range = float(v.data.max() - v.data.min())
    crop = (slice(8, -8), slice(8, -8), slice(8, -8))
    for _ in range(3):
        p = sample_affine("low", rng)
        back = apply_affine(apply_affine(v, p), invert_affine(p))
        rms = float(np.sqrt(np.mean((back.data[crop] - v.data[crop]) ** 2)))
        assert rms <= 0.05 * value_range


def test_exact_inverse_resampling_beats_parameterized_inverse():
    rng = np.random.default_rng(6)
    v = smooth_volume((40, 40, 24), seed=3)
    p = sample_affine("high", rng)
    exact = apply_affine_inverse(apply_affine(v, p), p)
    approx = apply_affine(apply_affine(v, p), invert_affine(p))
    crop = (slice(12, -12), slice(12, -12), slice(8, -8))
    err_exact = np.sqrt(np.mean((exact.data[crop] - v.data[crop]) ** 2))
    err_approx = np.sqrt(np.mean((approx.data[crop] - v.data[crop]) ** 2))
    assert err_exact <= err_approx + 1e-9


def test_sample_affine_ranges():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = sample_affine("low", rng)
        assert all(0.98 <= s <= 1.02 for s in p.scale)
        assert all(-5.0 <= r <= 5.0 for r in p.rotation_deg)
        assert all(-5.0 <= t <= 5.0 for t in p.translation_mm)
        p = sample_affine("high", rng)
        assert all(0.80 <= s <= 1.20 for s in p.scale)
        assert all(-45.0 <= r <= 45.0 for r in p.rotation_deg)
        assert all(-5.0 <= t <= 5.0 for t in p.translation_mm)


def test_sample_affine_means():
    rng = np.random.default_rng(8)
    draws = np.array([sample_affine("low", rng).scale for _ in range(10_000)])
    se = (0.04 / np.sqrt(12.0)) / np.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 3 * se + 1e-12
    draws = np.array([sample_affine("high", rng).rotation_deg for _ in range(10_000)])
    se = (90.0 / np.sqrt(12.0)) / np.sqrt(draws.size)
    assert abs(draws.mean()) < 3 * se


def test_affine_params_validation():
    with pytest.raises(TransformError):
        AffineParams(scale=(0.0, 1.0, 1.0))
    with pytest.raises(TransformError):
        AffineParams(rotation_deg=(np.inf, 0.0, 0.0))


# --------------------------------------------------------------------------
# ghosting
# --------------------------------------------------------------------------

def test_ghosting_zero_strength_is_identity():
    v = smooth_volume((8, 16, 6), seed=4)
    out = apply_ghosting(v, GhostingParams(strength=0.0, num_ghosts=3))
    assert np.allclose(out.data, v.data, atol=1e-5)


def test_ghosting_constant_volume_unchanged():
    v = Volume(np.full((8, 12, 6), 3.25, dtype=np.float32))
    out = apply_ghosting(v, GhostingParams(strength=0.9, num_ghosts=2))
    assert np.allclose(out.data, v.data, atol=1e-5)


def test_ghosting_cosine_matches_dft_oracle():
    n = 16
    y = np.arange(n)
    line = np.cos(2 * np.pi * 8 * y / n)  # hits the attenuated plane for num_ghosts=2
    arr = np.broadcast_to(line[None, :, None], (4, n, 3)).astype(np.float32).copy()
    v = Volume(arr)
    p = GhostingParams(strength=0.5, num_ghosts=2, axis=1)
    out = apply_ghosting(v, p)
    expected = oracles.ghost_attenuate(arr, 1, 0.5, 2)
    assert np.allclose(out.data, expected, atol=1e-4)
    # the Nyquist cosine is attenuated exactly by (1 - strength)
    assert np.allclose(out.data, 0.5 * arr, atol=1e-4)


def test_ghosting_random_volume_matches_dft_oracle():
    v = smooth_volume((5, 12, 4), seed=9)
    p = GhostingParams(strength=0.35, num_ghosts=5, axis=1)
    out = apply_ghosting(v, p)
    expected = oracles.ghost_attenuate(v.data, 1, 0.35, 5)
    assert np.allclose(out.data, expected, atol=1e-4)


def test_ghosting_energy_removal_monotone_in_strength():
    v = smooth_volume((8, 16, 6), seed=10)
    total = float(np.sum(v.data.astype(np.float64) ** 2))
    removed = []
    for s in np.linspace(0.0, 1.0, 9):
        out = apply_ghosting(v, GhostingParams(strength=float(s), num_ghosts=2))
        removed.append(total - float(np.sum(out.data.astype(np.float64) ** 2)))
    assert all(b >= a - 1e-9 for a, b in zip(removed, removed[1:]))


def test_ghosting_preserves_dims_and_finite():
    v = smooth_volume((6, 8, 4), seed=11)
    out = apply_ghosting(v, GhostingParams(strength=0.7, num_ghosts=4))
    assert out.dims == v.dims
    assert np.isfinite(out.data).all()


def test_ghosting_short_axis_errors():
    v = Volume(np.zeros((8, 3, 8), dtype=np.float32))
    with pytest.raises(TransformError, match="length"):
        apply_ghosting(v, GhostingParams(strength=0.5, num_ghosts=2, axis=1))
    v = Volume(np.zeros((8, 5, 8), dtype=np.float32))
    with pytest.raises(TransformError, match="num_ghosts"):
        apply_ghosting(v, GhostingParams(strength=0.5, num_ghosts=6, axis=1))


def test_sample_ghosting_ranges_and_count_frequencies():
    rng = np.random.default_rng(12)
    strengths_low = []
    counts = {c: 0 for c in (2, 3, 4, 5, 6)}
    for _ in range(10_000):
        p = sample_ghosting("low", rng)
        strengths_low.append(p.strength)
        counts[p.num_ghosts] += 1
        assert p.axis == 1
    assert 0.0 <= min(strengths_low) and max(strengths_low) <= 0.15
    for c in counts:
        assert abs(counts[c] / 10_000 - 0.2) <= 0.02
    p = sample_ghosting("high", rng)
    assert 0.25 <= p.strength <= 0.75


def test_ghosting_params_validation():
    with pytest.raises(TransformError):
        GhostingParams(strength=1.5)
    with pytest.raises(TransformError):
        GhostingParams(strength=0.5, num_ghosts=1)
    with pytest.raises(TransformError):
        GhostingParams(strength=0.5, axis=3)


# --------------------------------------------------------------------------
# bias field
# --------------------------------------------------------------------------

def test_bias_monomial_count():
    assert len(bias_monomials(3)) == 19


def test_bias_zero_coeffs_is_unity_field():
    p = BiasFieldParams(tuple([0.0] * 19))
    field = bias_field((4, 5, 6), (1.0, 1.0, 1.0), p)
    assert np.array_equal(field.data, np.ones((4, 5, 6), dtype=np.float32))


def test_bias_single_linear_coeff_closed_form():
    p = BiasFieldParams.from_monomials({(1, 0, 0): 0.2})
    field = bias_field((5, 5, 5), (1.0, 1.0, 1.0), p)
    assert field.data[0, 2, 2] == pytest.approx(np.exp(-0.2), rel=1e-6)
    assert field.data[4, 2, 2] == pytest.approx(np.exp(0.2), rel=1e-6)
    assert field.data[2, 2, 2] == pytest.approx(1.0, rel=1e-6)


def test_bias_field_matches_scalar_oracle():
    rng = np.random.default_rng(13)
    coeffs = {m: float(rng.uniform(-0.3, 0.3)) for m in bias_monomials(3)}
    p = BiasFieldParams.from_monomials(coeffs)
    field = bias_field((4, 3, 5), (1.0, 1.0, 1.0), p)
    for i, j, k in [(0, 0, 0), (3, 2, 4), (1, 1, 2), (2, 0, 3)]:
        assert field.data[i, j, k] == pytest.approx(oracles.bias_field_value((4, 3, 5), coeffs, i, j, k), rel=1e-6)


def test_bias_field_bounds_and_positivity():
    rng = np.random.default_rng(14)
    p = sample_bias("high", rng)
    field = bias_field((6, 6, 6), (1.0, 1.0, 1.0), p)
    bound = np.exp(sum(abs(c) for c in p.coeffs))
    assert (field.data > 0).all()
    assert field.data.max() <= bound * (1 + 1e-6)
    assert field.data.min() >= 1.0 / bound * (1 - 1e-6)


def test_apply_bias_identity_and_ratio():
    v = smooth_volume((6, 6, 6), seed=15)
    out = apply_bias(v, BiasFieldParams(tuple([0.0] * 19)))
    assert np.array_equal(out.data, v.data)

    ones = Volume(np.ones((6, 6, 6), dtype=np.float32))
    rng = np.random.default_rng(16)
    p = sample_bias("low", rng)
    field = bias_field((6, 6, 6), (1.0, 1.0, 1.0), p)
    assert np.allclose(apply_bias(ones, p).data, field.data, atol=1e-7)

    out = apply_bias(v, p)
    ratio = out.data / v.data
    assert np.allclose(ratio, field.data, atol=1e-6)


def test_sample_bias_ranges():
    rng = np.random.default_rng(17)
    for level, cmax in (("low", 0.2), ("high", 0.8)):
        p = sample_bias(level, rng)
        assert len(p.coeffs) == 19
        assert all(-cmax <= c <= cmax for c in p.coeffs)


def test_bias_params_validation():
    with pytest.raises(TransformError):
        BiasFieldParams((0.1, 0.2))  # wrong count
    with pytest.raises(TransformError):
        BiasFieldParams.from_monomials({(4, 0, 0): 0.1})


# --------------------------------------------------------------------------
# transform sampling / application
# --------------------------------------------------------------------------

def test_sample_transform_single_families():
    rng = np.random.default_rng(18)
    ts = sample_transform(get_case(7), rng)
    assert ts.affine is not None and ts.ghosting is None and ts.bias is None
    ts = sample_transform(get_case(8), rng)
    assert ts.ghosting is not None and ts.affine is None and ts.bias is None
    ts = sample_transform(get_case(9), rng)
    assert ts.bias is not None and ts.affine is None and ts.ghosting is None


def test_sample_transform_combined_low_draws_low_ranges():
    rng = np.random.default_rng(19)
    ts = sample_transform(get_case(10), rng)
    assert ts.affine is not None and ts.ghosting is not None and ts.bias is not None
    assert all(0.98 <= s <= 1.02 for s in ts.affine.scale)
    assert 0.0 <= ts.ghosting.strength <= 0.15
    assert all(-0.2 <= c <= 0.2 for c in ts.bias.coeffs)


def test_sample_transform_deterministic_in_seed():
    ts1 = sample_transform(get_case(14), np.random.default_rng(20))
    ts2 = sample_transform(get_case(14), np.random.default_rng(20))
    assert ts1 == ts2


def test_sample_transform_rejects_ttd_case():
    with pytest.raises(TransformError):
        sample_transform(get_case(1), np.random.default_rng(0))


def test_apply_transform_component_order():
    v = smooth_volume((8, 8, 8), seed=21)
    rng = np.random.default_rng(22)
    ts = sample_transform(get_case(10), rng)
    out = apply_transform(v, ts)
    manual = apply_bias(apply_ghosting(apply_affine(v, ts.affine), ts.ghosting), ts.bias)
    assert np.array_equal(out.data, manual.data)
    assert np.isfinite(out.data).all()


def test_transform_sample_needs_component():
    with pytest.raises(TransformError):
        TransformSample()
