import numpy as np
import pytest
from scipy.ndimage import label as cc_label

import oracles
from uqcat import PhantomSpec, PlacementError, VolumeError, generate_cohort, generate_phantom


def test_single_sphere_voxel_count_matches_ball_oracle():
    spec = PhantomSpec(dims=(16, 16, 16), radius_range=(3.0, 3.0), noise_std=0.0, seed=4)
    _, lab = generate_phantom(spec)
    assert int(lab.data.sum()) == oracles.ball_count(3.0) == 123


def test_determinism_same_spec():
    spec = PhantomSpec(seed=11)
    img1, lab1 = generate_phantom(spec)
    img2, lab2 = generate_phantom(spec)
    assert np.array_equal(img1.data, img2.data)
    assert np.array_equal(lab1.data, lab2.data)


def test_flat_contrast_gives_constant_image():
    spec = PhantomSpec(background_mean=0.5, foreground_mean=0.5, noise_std=0.0, seed=2)
    img, _ = generate_phantom(spec)
    assert np.allclose(img.data, 0.5, atol=1e-6)


def test_label_is_binary(small_cohort):
    for _, lab in small_cohort:
        assert set(np.unique(lab.data)) <= {0.0, 1.0}


def test_smoothing_blurs_edges():
    spec = PhantomSpec(dims=(16, 16, 16), radius_range=(3.0, 3.0), noise_std=0.0, seed=4)
    img, lab = generate_phantom(spec)
    # deep interior and far background keep their plateau values
    assert img.data.max() == pytest.approx(1.0, abs=1e-6)
    assert img.data.min() == pytest.approx(0.2, abs=1e-6)
    # the smoothed rim takes intermediate values
    mid = (img.data > 0.35) & (img.data < 0.85)
    assert mid.any()
    assert img.data[lab.data == 1.0].mean() > img.data[lab.data == 0.0].mean()


def test_cohort_seeding_and_distinctness():
    spec = PhantomSpec(seed=100)
    cohort = generate_cohort(spec, 3)
    again = generate_cohort(spec, 3)
    for (i1, l1), (i2, l2) in zip(cohort, again):
        assert np.array_equal(i1.data, i2.data)
        assert np.array_equal(l1.data, l2.data)
    # subject i is the phantom of seed + i
    from dataclasses import replace

    img1, _ = generate_phantom(replace(spec, seed=101))
    assert np.array_equal(cohort[1][0].data, img1.data)
    # pairwise distinct with noise
    assert not np.array_equal(cohort[0][0].data, cohort[1][0].data)
    assert not np.array_equal(cohort[1][0].data, cohort[2][0].data)


def test_default_cohort_has_lesions():
    cohort = generate_cohort(PhantomSpec(seed=0), 8)
    for _, lab in cohort:
        assert int(lab.data.sum()) >= 1


def test_satellite_adds_detached_component():
    spec = PhantomSpec(dims=(32, 32, 32), radius_range=(3.0, 3.0), satellite=True, noise_std=0.0, seed=9)
    _, lab = generate_phantom(spec)
    _, n_components = cc_label(lab.data > 0)
    assert n_components >= 2


def test_satellite_placement_failure():
    spec = PhantomSpec(dims=(9, 9, 9), radius_range=(3.0, 3.0), satellite=True, noise_std=0.0, seed=1)
    with pytest.raises(PlacementError):
        generate_phantom(spec)


def test_spec_validation():
    with pytest.raises(VolumeError):
        PhantomSpec(radius_range=(0.0, 2.0))
    with pytest.raises(VolumeError):
        PhantomSpec(dims=(8, 8, 8), radius_range=(4.0, 4.0))  # does not fit
    with pytest.raises(VolumeError):
        PhantomSpec(dims=(6, 6, 6), radius_range=(2.2, 2.2))  # a margin of ceil(2.2) = 3 leaves no center
    with pytest.raises(VolumeError):
        PhantomSpec(noise_std=-0.1)
    with pytest.raises(VolumeError):
        PhantomSpec(n_lesions=0)
    with pytest.raises(VolumeError):
        generate_cohort(PhantomSpec(), 0)


def test_spec_accepts_every_radius_placement_fits():
    # a margin of ceil(3) = 3 voxels on each side leaves the one center 3 in 7 voxels
    spec = PhantomSpec(dims=(7, 7, 7), radius_range=(3.0, 3.0), noise_std=0.0, seed=0)
    _, lab = generate_phantom(spec)
    assert int(lab.data.sum()) == oracles.ball_count(3.0)
    assert lab.data[3, 3, 3] == 1.0
