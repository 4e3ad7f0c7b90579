import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fuzzing import damaged
from uqcat import Mask, Volume, VolumeError, VolumeFormatError, read_volume, threshold_mask, write_volume


def test_read_handwritten_raw_file(tmp_path):
    path = tmp_path / "ones.vvol"
    path.write_bytes(struct.pack("<8f", *([1.0] * 8)))
    (tmp_path / "ones.vvol.json").write_text('{"dims": [2, 2, 2], "spacing": [1, 1, 1]}')
    v = read_volume(path)
    assert v.dims == (2, 2, 2)
    assert v.spacing == (1.0, 1.0, 1.0)
    assert np.array_equal(v.data, np.ones((2, 2, 2), dtype=np.float32))


def test_write_read_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    v = Volume(rng.random((5, 3, 4)).astype(np.float32), spacing=(1.0, 1.0, 2.5))
    path = tmp_path / "v.vvol"
    write_volume(v, path)
    back = read_volume(path)
    assert np.array_equal(back.data, v.data)
    assert back.spacing == (1.0, 1.0, 2.5)


def test_payload_is_x_fastest(tmp_path):
    v = Volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
    path = tmp_path / "order.vvol"
    write_volume(v, path)
    flat = np.frombuffer(path.read_bytes(), dtype="<f4")
    # first two payload entries step along x: (0,0,0) then (1,0,0)
    assert flat[0] == v.data[0, 0, 0]
    assert flat[1] == v.data[1, 0, 0]


def test_overwrite_replaces_content(tmp_path):
    path = tmp_path / "v.vvol"
    write_volume(Volume(np.zeros((2, 2, 2), dtype=np.float32)), path)
    write_volume(Volume(np.full((3, 2, 2), 7.0, dtype=np.float32)), path)
    back = read_volume(path)
    assert back.dims == (3, 2, 2)
    assert float(back.data[0, 0, 0]) == 7.0


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(*[st.integers(min_value=1, max_value=16)] * 3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_property(tmp_path_factory, dims, seed):
    rng = np.random.default_rng(seed)
    v = Volume(
        rng.normal(size=dims).astype(np.float32),
        spacing=tuple(rng.uniform(0.5, 3.0, size=3)),
    )
    path = tmp_path_factory.mktemp("rt") / "v.vvol"
    write_volume(v, path)
    back = read_volume(path)
    assert np.array_equal(back.data, v.data)
    assert back.spacing == v.spacing


def test_dims_size_mismatch(tmp_path):
    path = tmp_path / "bad.vvol"
    path.write_bytes(struct.pack("<32f", *([0.5] * 32)))
    (tmp_path / "bad.vvol.json").write_text('{"dims": [4, 4, 4], "spacing": [1, 1, 1]}')
    with pytest.raises(VolumeFormatError, match="mismatch"):
        read_volume(path)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_volume(tmp_path / "nope.vvol")


def test_missing_sidecar(tmp_path):
    path = tmp_path / "naked.vvol"
    path.write_bytes(struct.pack("<f", 1.0))
    with pytest.raises(VolumeFormatError, match="sidecar"):
        read_volume(path)


@pytest.mark.parametrize("sidecar", [
    "{not json",
    '[2, 2, 2]',
    '{"dims": [2, 2, 2]}',
    '{"dims": [2.9, 2, 2], "spacing": [1, 1, 1]}',
    '{"dims": [true, 2, 4], "spacing": [1, 1, 1]}',
    '{"dims": ["2", 2, 2], "spacing": [1, 1, 1]}',
    '{"dims": [2, 2, 2, 1], "spacing": [1, 1, 1]}',
    '{"dims": [8, 1, 0], "spacing": [1, 1, 1]}',
    '{"dims": [2, 2, 2], "spacing": [0, 1, 1]}',
    '{"dims": [2, 2, 2], "spacing": [1, 1]}',
    '{"dims": [2, 2, 2], "spacing": [1, NaN, 1]}',
    '{"dims": [2, 2, 2], "spacing": [1, true, 1]}',
    '{"dims": [2, 2, 2], "spacing": [1, 1%s, 1]}' % ("0" * 400),
    '{"dims": [2, 2, 2], "spacing": "1,1,1"}',
    "[" * 200_000,
], ids=["not-json", "not-object", "no-spacing", "float-dim", "bool-dim", "string-dim", "four-dims", "zero-dim",
        "zero-spacing", "two-spacings", "nan-spacing", "bool-spacing", "huge-spacing",
        "string-spacing", "deep-nesting"])
def test_malformed_sidecar(tmp_path, sidecar):
    # eight values fit every dims above that a lenient reader would accept
    path = tmp_path / "bad.vvol"
    path.write_bytes(struct.pack("<8f", *range(8)))
    (tmp_path / "bad.vvol.json").write_text(sidecar)
    with pytest.raises(VolumeFormatError, match=r"malformed header bad\.vvol\.json: "):
        read_volume(path)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), part=st.sampled_from(["payload", "sidecar"]))
def test_damaged_vvol_reads_or_raises_volume_error(tmp_path_factory, data, part):
    path = tmp_path_factory.mktemp("fuzz") / "v.vvol"
    write_volume(Volume(np.arange(24, dtype=np.float32).reshape(4, 3, 2), spacing=(1.0, 1.0, 2.5)), path)
    target = path if part == "payload" else path.with_name("v.vvol.json")
    target.write_bytes(data.draw(damaged(target.read_bytes())))
    try:
        v = read_volume(path)
    except VolumeError as exc:
        assert "v.vvol" in str(exc)
        return
    # read: the volume holds the payload's values in the dims its sidecar gives
    header = json.loads(path.with_name("v.vvol.json").read_text())
    assert list(v.dims) == header["dims"]
    assert v.data.ravel(order="F").astype("<f4").tobytes() == path.read_bytes()


def test_unsupported_extension(tmp_path):
    path = tmp_path / "v.dcm"
    path.write_bytes(b"\x00")
    with pytest.raises(VolumeFormatError, match="unsupported"):
        read_volume(path)


def test_volume_invariants():
    with pytest.raises(VolumeError):
        Volume(np.array([[[np.nan]]], dtype=np.float32))
    with pytest.raises(VolumeError):
        Volume(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(VolumeError):
        Volume(np.zeros((2, 2, 2), dtype=np.float32), spacing=(1.0, 0.0, 1.0))
    v = Volume(np.zeros((2, 3, 4), dtype=np.float32))
    assert v.dims == (2, 3, 4)
    assert v.n_voxels == 24
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0  # immutable


# --------------------------------------------------------------------------
# NIfTI
# --------------------------------------------------------------------------

def _nifti_bytes(arr, spacing=(1.0, 1.0, 1.0), datatype=16, endian="<", vox_offset=352.0, magic=b"n+1\x00"):
    dtype = {2: "u1", 4: "i2", 16: "f4"}.get(datatype, "f8")
    header = bytearray(352)
    struct.pack_into(endian + "i", header, 0, 348)
    struct.pack_into(endian + "8h", header, 40, 3, *arr.shape, 1, 1, 1, 1)
    itemsize = np.dtype(dtype).itemsize
    struct.pack_into(endian + "2h", header, 70, datatype, 8 * itemsize)
    struct.pack_into(endian + "8f", header, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(endian + "f", header, 108, vox_offset)
    struct.pack_into("4s", header, 344, magic)
    payload = np.asarray(arr).astype(endian + dtype).ravel(order="F").tobytes()
    return bytes(header) + payload


@pytest.mark.parametrize("datatype,np_dtype", [(16, np.float32), (4, np.int16), (2, np.uint8)])
def test_nifti_datatypes(tmp_path, datatype, np_dtype):
    rng = np.random.default_rng(1)
    arr = (rng.random((4, 3, 2)) * 50).astype(np_dtype)
    path = tmp_path / "img.nii"
    path.write_bytes(_nifti_bytes(arr, spacing=(0.9, 1.1, 2.0), datatype=datatype))
    v = read_volume(path)
    assert v.data.dtype == np.float32
    assert np.array_equal(v.data, arr.astype(np.float32))
    assert np.allclose(v.spacing, (0.9, 1.1, 2.0), atol=1e-6)


def test_nifti_big_endian(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "be.nii"
    path.write_bytes(_nifti_bytes(arr, endian=">"))
    v = read_volume(path)
    assert np.array_equal(v.data, arr)


def test_nifti_bad_magic(tmp_path):
    arr = np.zeros((2, 2, 2), dtype=np.float32)
    path = tmp_path / "bad.nii"
    path.write_bytes(_nifti_bytes(arr, magic=b"ni1\x00"))
    with pytest.raises(VolumeFormatError, match="magic"):
        read_volume(path)


def test_nifti_unsupported_datatype(tmp_path):
    arr = np.zeros((2, 2, 2), dtype=np.float64)
    path = tmp_path / "f64.nii"
    path.write_bytes(_nifti_bytes(arr, datatype=64))
    with pytest.raises(VolumeFormatError, match="datatype"):
        read_volume(path)


def test_nifti_truncated_payload(tmp_path):
    arr = np.zeros((4, 4, 4), dtype=np.float32)
    blob = _nifti_bytes(arr)
    path = tmp_path / "short.nii"
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(VolumeFormatError, match="mismatch"):
        read_volume(path)


@pytest.mark.parametrize("vox_offset", [float("nan"), float("inf"), float("-inf")])
def test_nifti_nonfinite_vox_offset_rejected(tmp_path, vox_offset):
    path = tmp_path / "badoffset.nii"
    path.write_bytes(_nifti_bytes(np.zeros((4, 4, 4), dtype=np.float32), vox_offset=vox_offset))
    with pytest.raises(VolumeFormatError, match="badoffset.nii.*vox_offset"):
        read_volume(path)


def _scaled_int16_nifti(slope, inter):
    arr = np.arange(-6, 6, dtype=np.int16).reshape(3, 2, 2)
    blob = bytearray(_nifti_bytes(arr, datatype=4))
    struct.pack_into("<2f", blob, 112, slope, inter)  # scl_slope, scl_inter
    return arr, bytes(blob)


def test_nifti_applies_scl_slope_and_inter(tmp_path):
    arr, blob = _scaled_int16_nifti(2.0, -1.0)
    path = tmp_path / "scaled.nii"
    path.write_bytes(blob)
    assert np.array_equal(read_volume(path).data, arr.astype(np.float32) * 2 - 1)


@pytest.mark.parametrize("slope,inter", [(0.0, 5.0), (float("nan"), float("nan")), (float("inf"), 0.0)])
def test_nifti_zero_or_nonfinite_slope_means_unscaled(tmp_path, slope, inter):
    # NaN is how nibabel marks an unscaled image; a slope of 0 or a non-finite
    # slope means "no scaling", and the intercept is then ignored.
    arr, blob = _scaled_int16_nifti(slope, inter)
    path = tmp_path / "unscaled.nii"
    path.write_bytes(blob)
    assert np.array_equal(read_volume(path).data, arr.astype(np.float32))


@pytest.mark.parametrize("inter", [float("nan"), float("inf")])
def test_nifti_nonfinite_intercept_rejected(tmp_path, inter):
    _, blob = _scaled_int16_nifti(1.0, inter)
    path = tmp_path / "badscale.nii"
    path.write_bytes(blob)
    with pytest.raises(VolumeFormatError, match="non-finite"):
        read_volume(path)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), datatype=st.sampled_from([16, 4]))
def test_damaged_nifti_reads_or_raises_volume_error(tmp_path_factory, data, datatype):
    # half the flips land in the 352-byte header; the int16 file is scaled, so they reach scl_slope and scl_inter
    arr = np.arange(-12, 12).reshape(4, 3, 2)
    blob = bytearray(_nifti_bytes(arr, spacing=(0.9, 1.1, 2.0), datatype=datatype))
    if datatype == 4:
        struct.pack_into("<2f", blob, 112, 2.0, -1.0)
    bad = data.draw(damaged(bytes(blob), hot=352))
    path = tmp_path_factory.mktemp("fuzz") / "v.nii"
    path.write_bytes(bad)
    try:
        v = read_volume(path)
    except VolumeError as exc:
        assert "v.nii" in str(exc)
        return
    # read: the volume has the dims its header gives
    endian = "<" if struct.unpack_from("<i", bad, 0)[0] == 348 else ">"
    assert v.dims == struct.unpack_from(endian + "8h", bad, 40)[1:4]


# --------------------------------------------------------------------------
# threshold mask
# --------------------------------------------------------------------------

def test_threshold_simple():
    v = Volume(np.array([0.0, 0.3, 0.0], dtype=np.float32).reshape(3, 1, 1))
    m = threshold_mask(v, 0.0)
    assert m.bits.ravel().tolist() == [False, True, False]
    assert m.count == 1


def test_threshold_at_max_all_false():
    rng = np.random.default_rng(2)
    v = Volume(rng.random((4, 4, 4)).astype(np.float32))
    m = threshold_mask(v, float(v.data.max()))
    assert m.count == 0


def test_threshold_count_matches_oracle():
    rng = np.random.default_rng(3)
    v = Volume(rng.random((6, 5, 4)).astype(np.float32))
    m = threshold_mask(v, 0.1)
    assert m.count == oracles.threshold_count(v.data, 0.1)


def test_threshold_nonfinite_tau():
    v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(VolumeError):
        threshold_mask(v, float("nan"))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_threshold_count_monotone_in_tau(seed):
    rng = np.random.default_rng(seed)
    v = Volume(rng.random((5, 4, 3)).astype(np.float32))
    taus = sorted(rng.uniform(-0.2, 1.2, size=6))
    counts = [threshold_mask(v, t).count for t in taus]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_mask_validation():
    m = Mask(np.ones((2, 2, 2), dtype=bool))
    assert m.dims == (2, 2, 2)
    assert m.count == 8
    with pytest.raises(VolumeError):
        Mask(np.ones((2, 2), dtype=bool))
