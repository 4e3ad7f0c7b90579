import numpy as np
import pytest

import oracles
from uqcat import (
    CASES,
    CaseError,
    CaseSpec,
    SampleStack,
    TinySegmenter,
    Volume,
    VolumeError,
    binary_entropy_bits,
    get_case,
    parse_case_selection,
    run_case,
    uncertainty_maps,
)
from uqcat import uq as uq_module
from uqcat.augment import AffineParams, TransformSample


def make_stack(samples, case_id=1, subject_id=0):
    return SampleStack(case_id, subject_id, np.asarray(samples, dtype=np.float32), (1.0, 1.0, 1.0))


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

def test_registry_ttd_rates():
    assert [c.dropout_rate for c in CASES[:6]] == [0.03, 0.06, 0.09, 0.12, 0.15, 0.40]
    assert all(c.kind == "ttd" for c in CASES[:6])
    assert [c.id for c in CASES] == list(range(1, 15))


def test_registry_tta_order():
    expected = [
        ("affine", "low"),
        ("ghosting", "low"),
        ("bias", "low"),
        ("combined", "low"),
        ("affine", "high"),
        ("ghosting", "high"),
        ("bias", "high"),
        ("combined", "high"),
    ]
    assert [(c.family, c.level) for c in CASES[6:]] == expected
    assert all(c.kind == "tta" for c in CASES[6:])


def test_get_case_bounds():
    assert get_case(1).dropout_rate == 0.03
    assert get_case(14).family == "combined"
    with pytest.raises(CaseError):
        get_case(0)
    with pytest.raises(CaseError):
        get_case(15)


def test_parse_case_selection():
    assert parse_case_selection("1-14") == list(range(1, 15))
    assert parse_case_selection("1,3, 7") == [1, 3, 7]
    assert parse_case_selection("1-3,10") == [1, 2, 3, 10]
    with pytest.raises(CaseError):
        parse_case_selection("0-3")
    with pytest.raises(CaseError):
        parse_case_selection("abc")
    with pytest.raises(CaseError):
        parse_case_selection("")


@pytest.mark.parametrize("text, repeated", [("1,1", "1"), ("1-3,2", "2"), ("7,1-7,1", "1, 7")])
def test_parse_case_selection_rejects_repeated_ids(text, repeated):
    with pytest.raises(CaseError, match=f"'{text}' repeats case id\\(s\\) {repeated}$"):
        parse_case_selection(text)


# --------------------------------------------------------------------------
# run_case
# --------------------------------------------------------------------------

@pytest.mark.parametrize("case_id", [1, 6, 7, 8, 9, 10])
def test_run_case_reproducible(trained_model, small_cohort, case_id):
    img = small_cohort[6][0]
    s1 = run_case(trained_model, img, get_case(case_id), n_samples=4, seed=42)
    s2 = run_case(trained_model, img, get_case(case_id), n_samples=4, seed=42)
    assert np.array_equal(s1.samples, s2.samples)
    assert s1.pass_records == s2.pass_records
    s3 = run_case(trained_model, img, get_case(case_id), n_samples=4, seed=43)
    assert not np.array_equal(s1.samples, s3.samples)


def test_run_case_rate_zero_control(trained_model, small_cohort):
    img = small_cohort[6][0]
    control = CaseSpec(id=1, kind="ttd", dropout_rate=0.0)
    stack = run_case(trained_model, img, control, n_samples=5, seed=0)
    # at rate 0 every mask keeps every channel, so each dropout pass gives the dropout-free forward's bits
    baseline = trained_model.forward(img).data
    for i in range(5):
        assert stack.samples[i].tobytes() == baseline.tobytes()


def test_run_case_identity_augmentation_equals_deterministic(trained_model, small_cohort, monkeypatch):
    img = small_cohort[6][0]
    monkeypatch.setattr(
        uq_module.augment,
        "sample_transform",
        lambda case, rng: TransformSample(affine=AffineParams.identity()),
    )
    stack = run_case(trained_model, img, get_case(7), n_samples=3, seed=1)
    baseline = trained_model.forward(img)
    for i in range(3):
        assert np.array_equal(stack.samples[i], baseline.data)


def test_run_case_ttd_uses_original_image_and_records(trained_model, small_cohort):
    img = small_cohort[6][0]
    stack = run_case(trained_model, img, get_case(2), n_samples=3, seed=5)
    assert all(rec["kind"] == "ttd" and rec["dropout_rate"] == 0.06 for rec in stack.pass_records)
    stack = run_case(trained_model, img, get_case(10), n_samples=3, seed=5)
    for rec in stack.pass_records:
        assert rec["kind"] == "tta"
        assert rec["affine"] is not None and rec["ghosting"] is not None and rec["bias"] is not None


def test_run_case_binarized_samples(trained_model, small_cohort):
    img = small_cohort[6][0]
    stack = run_case(trained_model, img, get_case(4), n_samples=4, seed=2, binarize=True)
    assert set(np.unique(stack.samples)) <= {0.0, 1.0}


@pytest.mark.parametrize("case_id", [3, 12])
def test_run_case_failure_notes_subject_case_and_pass(case_id):
    class FailsOnThirdPass:
        calls = 0

        def forward(self, v, dropout_rate=0.0, seed=0):
            self.calls += 1
            if self.calls == 3:
                raise RuntimeError("boom")
            return Volume(np.full(v.dims, 0.5))

        def dropout_passes(self, v, rate, seeds):
            return (self.forward(v, rate, s) for s in seeds)

    with pytest.raises(RuntimeError, match="boom") as info:
        run_case(FailsOnThirdPass(), Volume(np.zeros((8, 8, 4))), get_case(case_id), n_samples=4, subject_id=5)
    assert info.value.__notes__ == [f"subject 5, case {case_id}, pass 2"]


def test_run_case_needs_two_samples(trained_model, small_cohort):
    with pytest.raises(VolumeError):
        run_case(trained_model, small_cohort[6][0], get_case(1), n_samples=1, seed=0)


# --------------------------------------------------------------------------
# uncertainty maps
# --------------------------------------------------------------------------

def test_maps_constant_one():
    stack = make_stack(np.ones((4, 2, 2, 2)))
    maps = uncertainty_maps(stack)
    assert np.array_equal(maps.mean.data, np.ones((2, 2, 2), dtype=np.float32))
    assert np.array_equal(maps.variance.data, np.zeros((2, 2, 2), dtype=np.float32))
    assert np.array_equal(maps.entropy.data, np.zeros((2, 2, 2), dtype=np.float32))


def test_maps_alternating_half():
    samples = np.zeros((4, 2, 2, 2), dtype=np.float32)
    samples[::2] = 1.0
    maps = uncertainty_maps(make_stack(samples))
    assert np.allclose(maps.mean.data, 0.5)
    assert np.allclose(maps.variance.data, 0.25)
    assert np.allclose(maps.entropy.data, 1.0)


def test_maps_three_quarters_entropy_closed_form():
    samples = np.ones((4, 1, 1, 1), dtype=np.float32)
    samples[0] = 0.0  # mean 0.75
    maps = uncertainty_maps(make_stack(samples))
    assert maps.mean.data[0, 0, 0] == pytest.approx(0.75)
    assert maps.variance.data[0, 0, 0] == pytest.approx(0.1875)
    assert maps.entropy.data[0, 0, 0] == pytest.approx(0.8112781244591328, abs=1e-7)


def test_maps_match_scalar_oracle_exactly():
    rng = np.random.default_rng(8)
    samples = rng.random((5, 4, 4, 4)).astype(np.float32)
    maps = uncertainty_maps(make_stack(samples))
    mean_o, var_o, ent_o = oracles.stack_stats(samples)
    assert np.array_equal(maps.mean.data, mean_o.astype(np.float32))
    assert np.array_equal(maps.variance.data, var_o.astype(np.float32))
    assert np.abs(maps.entropy.data - ent_o).max() <= 1e-7


def test_entropy_extremes_and_bounds():
    p = np.array([0.0, 0.5, 1.0, 0.25])
    ent = binary_entropy_bits(p)
    assert ent[0] == 0.0 and ent[2] == 0.0
    assert ent[1] == 1.0
    assert 0.0 < ent[3] < 1.0
    rng = np.random.default_rng(1)
    grid = rng.random(1000)
    ents = binary_entropy_bits(grid)
    assert (ents <= 1.0).all() and (ents >= 0.0).all()
    assert ents.argmax() == np.abs(grid - 0.5).argmin()


def test_maps_invariant_under_label_flip():
    rng = np.random.default_rng(9)
    samples = rng.random((6, 3, 3, 3)).astype(np.float32)
    m1 = uncertainty_maps(make_stack(samples))
    m2 = uncertainty_maps(make_stack(1.0 - samples))
    assert np.allclose(m1.variance.data, m2.variance.data, atol=1e-7)
    assert np.allclose(m1.entropy.data, m2.entropy.data, atol=1e-6)


def test_stack_validation():
    with pytest.raises(VolumeError):
        make_stack(np.full((1, 2, 2, 2), 0.5))  # n < 2
    with pytest.raises(VolumeError):
        make_stack(np.full((3, 2, 2, 2), 1.5))  # out of [0, 1]
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.full((3, 2, 2, 2), 0.5)
        samples[1, 0, 1, 0] = bad
        with pytest.raises(VolumeError, match="finite"):
            make_stack(samples)
    stack = make_stack(np.full((3, 2, 2, 2), 0.5))
    assert stack.n_samples == 3
    assert stack.dims == (2, 2, 2)
