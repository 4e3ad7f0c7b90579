import tracemalloc

import numpy as np
import pytest

import oracles
from uqcat import analysis
from uqcat import (
    AnalysisError,
    Mask,
    UndefinedCorrelationError,
    Volume,
    correlation_matrix,
    entropy_support_mask,
    mean_correlation_matrix,
    mean_nonzero_entropy,
    spatial_correlation,
    voxelwise_median_iqr,
)
from conftest import make_volume


def full_mask(dims):
    return Mask(np.ones(dims, dtype=bool))


# --------------------------------------------------------------------------
# median / IQR
# --------------------------------------------------------------------------

def test_median_iqr_one_to_five():
    maps = [make_volume(np.full((2, 2, 2), v)) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    median, iqr = voxelwise_median_iqr(maps)
    assert np.allclose(median.data, oracles.quantile_linear([1, 2, 3, 4, 5], 0.5))
    assert np.allclose(median.data, 3.0)
    expected_iqr = oracles.quantile_linear([1, 2, 3, 4, 5], 0.75) - oracles.quantile_linear([1, 2, 3, 4, 5], 0.25)
    assert np.allclose(iqr.data, expected_iqr)
    assert np.allclose(iqr.data, 2.0)


def test_median_iqr_identical_maps():
    rng = np.random.default_rng(0)
    base = rng.random((3, 3, 3)).astype(np.float32)
    median, iqr = voxelwise_median_iqr([make_volume(base)] * 4)
    assert np.allclose(median.data, base, atol=1e-7)
    assert np.allclose(iqr.data, 0.0)


def test_median_iqr_two_maps_closed_form():
    a = make_volume(np.full((2, 2, 1), 1.0))
    b = make_volume(np.full((2, 2, 1), 5.0))
    median, iqr = voxelwise_median_iqr([a, b])
    assert np.allclose(median.data, 3.0)  # (a + b) / 2
    assert np.allclose(iqr.data, 2.0)  # |a - b| / 2


def test_median_iqr_matches_oracle_on_random_stack():
    rng = np.random.default_rng(1)
    stack = rng.random((7, 3, 2, 2))
    maps = [make_volume(stack[i]) for i in range(7)]
    median, iqr = voxelwise_median_iqr(maps)
    for idx in np.ndindex(3, 2, 2):
        vals = [float(stack[i][idx]) for i in range(7)]
        assert median.data[idx] == pytest.approx(oracles.quantile_linear(vals, 0.5), abs=1e-6)
        expected = oracles.quantile_linear(vals, 0.75) - oracles.quantile_linear(vals, 0.25)
        assert iqr.data[idx] == pytest.approx(expected, abs=1e-6)


def test_median_iqr_permutation_invariant():
    rng = np.random.default_rng(2)
    maps = [make_volume(rng.random((3, 3, 2))) for _ in range(6)]
    m1, i1 = voxelwise_median_iqr(maps)
    m2, i2 = voxelwise_median_iqr(maps[::-1])
    assert np.array_equal(m1.data, m2.data)
    assert np.array_equal(i1.data, i2.data)


def test_median_iqr_validation():
    v = make_volume(np.zeros((2, 2, 2)))
    with pytest.raises(AnalysisError):
        voxelwise_median_iqr([v])
    with pytest.raises(AnalysisError):
        voxelwise_median_iqr([v, make_volume(np.zeros((3, 2, 2)))])


BLOCK = analysis.MEDIAN_IQR_BLOCK
MEDIAN_IQR_GRIDS = {
    "one-block": (32, 32, BLOCK // (32 * 32)),
    "two-blocks": (32, 32, 2 * BLOCK // (32 * 32)),
    "one-voxel-last-block": (5, 29, 113),  # BLOCK + 1 voxels
}


def median_iqr_maps(k, dims, kind, seed):
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    if kind == "ties-and-zeros":
        vals = rng.integers(0, 5, size=(k, n)) / 4.0  # five levels, so most voxels repeat values
        vals[:, ::7] = 0.0  # zero in every map
        vals[:, -1] = 0.0  # the last voxel, which may sit alone in its block
    else:
        vals = rng.random((k, n))
    return [make_volume(v.reshape(dims)) for v in vals]


@pytest.mark.parametrize("kind", ["random", "ties-and-zeros"])
@pytest.mark.parametrize("grid", MEDIAN_IQR_GRIDS.values(), ids=MEDIAN_IQR_GRIDS)
@pytest.mark.parametrize("k", [2, 3, 8, 14, 20])
def test_blocked_median_iqr_oracle_bit_for_bit(k, grid, kind):
    assert (int(np.prod(grid)) % BLOCK) in (0, 1)
    maps = median_iqr_maps(k, grid, kind, seed=k)
    median, iqr = voxelwise_median_iqr(maps)
    want_median, want_iqr = oracles.whole_stack_median_iqr(maps)
    assert median.data.tobytes() == want_median.data.tobytes()
    assert iqr.data.tobytes() == want_iqr.data.tobytes()
    assert median.spacing == want_median.spacing and iqr.spacing == want_iqr.spacing


def test_median_iqr_memory_is_bounded():
    # one float64 stack of all 14 maps and its partition copy peaked at 43 MB here
    maps = median_iqr_maps(14, (64, 64, 32), "random", seed=0)
    tracemalloc.start()
    try:
        voxelwise_median_iqr(maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


# --------------------------------------------------------------------------
# support mask
# --------------------------------------------------------------------------

def test_entropy_support_mask_empty_errors():
    with pytest.raises(AnalysisError, match="empty"):
        entropy_support_mask(make_volume(np.zeros((3, 3, 3))))


def test_entropy_support_mask_single_voxel():
    arr = np.zeros((3, 3, 3), dtype=np.float32)
    arr[1, 2, 0] = 0.4
    mask = entropy_support_mask(make_volume(arr))
    assert mask.count == 1
    assert mask.bits[1, 2, 0]


def test_entropy_support_mask_matches_brute_force():
    rng = np.random.default_rng(3)
    arr = np.where(rng.random((4, 4, 4)) > 0.5, rng.random((4, 4, 4)), 0.0)
    mask = entropy_support_mask(make_volume(arr))
    assert mask.count == oracles.threshold_count(arr.astype(np.float32), 1e-12)


# --------------------------------------------------------------------------
# spatial correlation
# --------------------------------------------------------------------------

def test_correlation_self_is_one():
    rng = np.random.default_rng(4)
    a = make_volume(rng.random((3, 3, 3)))
    assert spatial_correlation(a, a, full_mask((3, 3, 3))) == pytest.approx(1.0, abs=1e-12)


def test_correlation_anti():
    rng = np.random.default_rng(5)
    a = make_volume(rng.random((3, 3, 3)))
    b = make_volume(2.0 - a.data)
    assert spatial_correlation(a, b, full_mask((3, 3, 3))) == pytest.approx(-1.0, abs=1e-6)


def test_correlation_three_point_oracle():
    a = np.array([1.0, 2.0, 3.0], dtype=np.float32).reshape(3, 1, 1)
    b = np.array([2.0, 4.0, 5.0], dtype=np.float32).reshape(3, 1, 1)
    r = spatial_correlation(make_volume(a), make_volume(b), full_mask((3, 1, 1)))
    assert r == pytest.approx(oracles.pearson([1, 2, 3], [2, 4, 5]), abs=1e-12)
    assert r == pytest.approx(0.9819805060619659, abs=1e-9)
    assert round(r, 3) == 0.982


def test_correlation_affine_invariance_and_sign_flip():
    rng = np.random.default_rng(6)
    a = make_volume(rng.random((4, 3, 2)))
    b = make_volume(rng.random((4, 3, 2)))
    m = full_mask((4, 3, 2))
    r = spatial_correlation(a, b, m)
    scaled = make_volume(2.5 * a.data + 0.7)
    assert spatial_correlation(scaled, b, m) == pytest.approx(r, abs=1e-6)
    flipped = make_volume(-1.5 * a.data + 0.2)
    assert spatial_correlation(flipped, b, m) == pytest.approx(-r, abs=1e-6)


def test_correlation_undefined_and_validation():
    m = full_mask((2, 2, 2))
    const = make_volume(np.full((2, 2, 2), 0.3))
    varying = make_volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
    with pytest.raises(UndefinedCorrelationError):
        spatial_correlation(const, const, m)
    with pytest.raises(UndefinedCorrelationError):
        spatial_correlation(const, varying, m)
    single = Mask(np.pad(np.ones((1, 1, 1), dtype=bool), ((0, 1), (0, 1), (0, 1))))
    with pytest.raises(AnalysisError, match="masked voxels"):
        spatial_correlation(varying, varying, single)
    with pytest.raises(AnalysisError, match="dims"):
        spatial_correlation(varying, make_volume(np.zeros((3, 2, 2))), m)


# --------------------------------------------------------------------------
# correlation matrices
# --------------------------------------------------------------------------

def test_matrix_identical_maps_all_ones():
    rng = np.random.default_rng(7)
    base = rng.random((4, 4, 2))
    maps = {cid: make_volume(base) for cid in range(1, 15)}
    matrix = correlation_matrix(maps, full_mask((4, 4, 2)), subject=3)
    assert matrix.case_ids == tuple(range(1, 15))
    assert matrix.subject == 3
    assert np.allclose(matrix.values, 1.0, atol=1e-12)


def test_matrix_orthogonal_patterns():
    a = np.zeros((4, 1, 1), dtype=np.float32)
    b = np.zeros((4, 1, 1), dtype=np.float32)
    a[:, 0, 0] = [1.0, -1.0, 1.0, -1.0]
    b[:, 0, 0] = [1.0, 1.0, -1.0, -1.0]  # orthogonal after mean centering
    matrix = correlation_matrix({1: make_volume(a), 2: make_volume(b)}, full_mask((4, 1, 1)))
    assert abs(matrix.values[0, 1]) <= 1e-6
    assert matrix.values[0, 0] == 1.0


def test_matrix_symmetry_unit_diagonal_range():
    rng = np.random.default_rng(8)
    maps = {cid: make_volume(rng.random((4, 4, 3))) for cid in range(1, 15)}
    matrix = correlation_matrix(maps, full_mask((4, 4, 3)))
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.allclose(np.diag(matrix.values), 1.0)
    assert (matrix.values >= -1.0).all() and (matrix.values <= 1.0).all()


def test_matrix_undefined_entries_are_nan_not_zero():
    rng = np.random.default_rng(9)
    maps = {
        1: make_volume(rng.random((3, 3, 3))),
        2: make_volume(np.full((3, 3, 3), 0.5)),  # constant: undefined everywhere
        3: make_volume(rng.random((3, 3, 3))),
    }
    matrix = correlation_matrix(maps, full_mask((3, 3, 3)))
    assert np.isnan(matrix.values[0, 1]) and np.isnan(matrix.values[1, 2])
    assert np.isnan(matrix.values[1, 1])
    assert np.isfinite(matrix.values[0, 2])


def test_mean_matrix_single_and_cancel():
    rng = np.random.default_rng(10)
    vals = rng.uniform(-1, 1, size=(3, 3))
    vals = (vals + vals.T) / 2
    np.fill_diagonal(vals, 1.0)
    from uqcat import CorrelationMatrix

    m1 = CorrelationMatrix(vals, (1, 2, 3), 0)
    mean1 = mean_correlation_matrix([m1])
    assert np.allclose(mean1.values, vals)
    m2 = CorrelationMatrix(-vals, (1, 2, 3), 1)
    mean2 = mean_correlation_matrix([m1, m2])
    assert np.allclose(mean2.values, 0.0)
    assert (mean2.counts == 2).all()


def test_mean_matrix_matches_scalar_average_and_skips_nan():
    from uqcat import CorrelationMatrix

    rng = np.random.default_rng(11)
    stack = rng.uniform(-1, 1, size=(3, 4, 4))
    mats = [CorrelationMatrix(stack[i], (1, 2, 3, 4), i) for i in range(3)]
    mean = mean_correlation_matrix(mats)
    for i in range(4):
        for j in range(4):
            expected = sum(stack[s][i, j] for s in range(3)) / 3
            assert mean.values[i, j] == pytest.approx(expected, abs=1e-7)

    with_nan = stack.copy()
    with_nan[0, 1, 2] = np.nan
    mats = [CorrelationMatrix(with_nan[i], (1, 2, 3, 4), i) for i in range(3)]
    mean = mean_correlation_matrix(mats)
    expected = (stack[1][1, 2] + stack[2][1, 2]) / 2
    assert mean.values[1, 2] == pytest.approx(expected, abs=1e-7)
    assert mean.counts[1, 2] == 2


# --------------------------------------------------------------------------
# mean non-zero entropy
# --------------------------------------------------------------------------

def test_mean_nonzero_entropy_cases():
    v = make_volume(np.array([0.0, 0.5, 1.0, 0.0], dtype=np.float32).reshape(4, 1, 1))
    mean, count = mean_nonzero_entropy(v)
    assert mean == pytest.approx(0.75)
    assert count == 2

    mean, count = mean_nonzero_entropy(make_volume(np.zeros((2, 2, 2))))
    assert np.isnan(mean) and count == 0


def test_mean_nonzero_entropy_oracle_and_zero_padding_invariance():
    rng = np.random.default_rng(12)
    arr = np.where(rng.random((4, 4, 2)) > 0.4, rng.random((4, 4, 2)), 0.0).astype(np.float32)
    mean, count = mean_nonzero_entropy(make_volume(arr))
    vals = [float(v) for v in arr.ravel() if v > 1e-12]
    assert count == len(vals)
    assert mean == pytest.approx(sum(vals) / len(vals), abs=1e-7)

    padded = np.concatenate([arr, np.zeros((4, 4, 3), dtype=np.float32)], axis=2)
    mean_p, count_p = mean_nonzero_entropy(make_volume(padded))
    assert count_p == count
    assert mean_p == pytest.approx(mean, abs=1e-12)
