"""3-D voxel grids, boolean masks, and minimal file I/O.

A :class:`Volume` is an immutable float32 scalar grid indexed ``(x, y, z)``
with strictly positive per-axis voxel spacing in millimetres.  Two on-disk
formats are supported:

* ``<name>.vvol`` -- raw little-endian float32 payload in x-fastest linear
  order, with a JSON sidecar ``<name>.vvol.json`` holding
  ``{"dims": [nx, ny, nz], "spacing": [sx, sy, sz]}``.  Read and write.
* Uncompressed single-file NIfTI-1 (magic ``n+1``, header size 348) with
  datatype uint8, int16 or float32, promoted to float32 on load and scaled
  by ``scl_slope``/``scl_inter`` when the slope is finite and not 0.  Spacing
  is taken from ``pixdim`` only; orientation matrices are ignored.  Read only.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class VolumeError(ValueError):
    """Invalid volume construction or use."""


class VolumeFormatError(VolumeError):
    """Unreadable or inconsistent volume file."""


@dataclass(frozen=True)
class Volume:
    """Immutable 3-D float32 scalar grid with voxel spacing in mm."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise VolumeError(f"volume data must be 3-D, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise VolumeError(f"all dims must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise VolumeError("volume contains non-finite values")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise VolumeError(f"spacing must be three positive finite values, got {self.spacing}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def n_voxels(self) -> int:
        return int(self.data.size)


@dataclass(frozen=True)
class Mask:
    """Boolean voxel selection on the same grid as the volumes it masks."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=bool)
        if arr.ndim != 3:
            raise VolumeError(f"mask must be 3-D, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.bits.shape  # type: ignore[return-value]

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.bits))


def threshold_mask(v: Volume, tau: float) -> Mask:
    """Mask of voxels strictly greater than ``tau``."""
    if not np.isfinite(tau):
        raise VolumeError(f"threshold must be finite, got {tau}")
    return Mask(v.data > np.float32(tau))


# --------------------------------------------------------------------------
# raw .vvol format
# --------------------------------------------------------------------------

def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def write_volume(v: Volume, path: str | Path) -> None:
    """Write ``<path>`` (.vvol payload) and its ``.vvol.json`` sidecar.

    Round-trips exactly: ``read_volume(path)`` reproduces data, dims and
    spacing bit-for-bit.
    """
    path = Path(path)
    if path.suffix != ".vvol":
        raise VolumeFormatError(f"can only write .vvol files, got '{path.name}'")
    header = {
        "dims": [int(d) for d in v.dims],
        "spacing": [float(s) for s in v.spacing],
    }
    payload = np.asarray(v.data, dtype="<f4").ravel(order="F").tobytes()
    path.write_bytes(payload)
    _sidecar_path(path).write_text(json.dumps(header) + "\n")


def read_volume(path: str | Path) -> Volume:
    """Read a ``.vvol`` (raw + sidecar) or uncompressed ``.nii`` file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such volume file: {path}")
    if path.suffix == ".vvol":
        return _read_vvol(path)
    if path.suffix == ".nii":
        return _read_nifti(path)
    raise VolumeFormatError(f"unsupported volume format: '{path.name}' (expected .vvol or .nii)")


def _read_vvol(path: Path) -> Volume:
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise VolumeFormatError(f"missing sidecar header {sidecar.name} for {path.name}")
    try:
        header = json.loads(sidecar.read_text())
        dims, spacing = header["dims"], header["spacing"]
        # JSON integers >= 1 and positive finite JSON numbers: true is no integer and 2.9 no dim
        if not (isinstance(dims, list) and len(dims) == 3 and all(type(d) is int and d >= 1 for d in dims)):
            raise ValueError(f"bad dims {dims!r}")
        if not (isinstance(spacing, list) and len(spacing) == 3
                and all(type(s) in (int, float) and 0 < float(s) < np.inf for s in spacing)):
            raise ValueError(f"bad spacing {spacing!r}")
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise VolumeFormatError(f"malformed header {sidecar.name}: {exc}") from exc
    dims = tuple(dims)
    payload = path.read_bytes()
    n_expected = dims[0] * dims[1] * dims[2]
    if len(payload) != 4 * n_expected:
        raise VolumeFormatError(
            f"dims/size mismatch in {path.name}: header says {dims} "
            f"({n_expected} float32 values), payload holds {len(payload) // 4}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(dims, order="F")
    if not np.isfinite(data).all():
        raise VolumeFormatError(f"{path.name} contains non-finite values")
    return Volume(data, spacing)


# --------------------------------------------------------------------------
# minimal NIfTI-1 reader
# --------------------------------------------------------------------------

_NIFTI_DTYPES = {2: "u1", 4: "i2", 16: "f4"}  # accepted datatype codes
_NIFTI_HDR_SIZE = 348


def _read_nifti(path: Path) -> Volume:
    blob = path.read_bytes()
    if len(blob) < _NIFTI_HDR_SIZE:
        raise VolumeFormatError(f"malformed NIfTI header in {path.name}: file shorter than 348 bytes")
    for endian in ("<", ">"):
        (sizeof_hdr,) = struct.unpack_from(endian + "i", blob, 0)
        if sizeof_hdr == _NIFTI_HDR_SIZE:
            break
    else:
        raise VolumeFormatError(f"malformed NIfTI header in {path.name}: sizeof_hdr != 348")
    magic = struct.unpack_from("4s", blob, 344)[0]
    if magic not in (b"n+1\x00",):
        raise VolumeFormatError(f"malformed NIfTI header in {path.name}: magic {magic!r} (single-file 'n+1' required)")
    dim = struct.unpack_from(endian + "8h", blob, 40)
    (datatype, bitpix) = struct.unpack_from(endian + "2h", blob, 70)
    pixdim = struct.unpack_from(endian + "8f", blob, 76)
    (vox_offset, slope, inter) = struct.unpack_from(endian + "3f", blob, 108)

    ndim = dim[0]
    if ndim < 3 or any(d != 1 for d in dim[4 : 1 + max(3, ndim)]):
        raise VolumeFormatError(f"unsupported NIfTI in {path.name}: need a single 3-D frame, dim={dim}")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise VolumeFormatError(f"malformed NIfTI header in {path.name}: bad dims {dims}")
    if datatype not in _NIFTI_DTYPES:
        raise VolumeFormatError(
            f"unsupported NIfTI datatype code {datatype} in {path.name} (accepted: 2=uint8, 4=int16, 16=float32)"
        )
    np_dtype = np.dtype(endian + _NIFTI_DTYPES[datatype])
    if bitpix != 8 * np_dtype.itemsize:
        raise VolumeFormatError(f"malformed NIfTI header in {path.name}: bitpix {bitpix} for datatype {datatype}")
    spacing = tuple(float(p) for p in pixdim[1:4])
    if any(not np.isfinite(s) or s <= 0 for s in spacing):
        raise VolumeFormatError(f"malformed NIfTI header in {path.name}: nonpositive pixdim {spacing}")

    if not (np.isfinite(vox_offset) and vox_offset >= _NIFTI_HDR_SIZE):
        raise VolumeFormatError(f"malformed NIfTI header in {path.name}: vox_offset {vox_offset}")
    offset = int(vox_offset)
    n_expected = dims[0] * dims[1] * dims[2]
    payload = blob[offset : offset + n_expected * np_dtype.itemsize]
    if len(payload) < n_expected * np_dtype.itemsize:
        raise VolumeFormatError(
            f"dims/size mismatch in {path.name}: header says {dims} but payload holds "
            f"{len(payload) // np_dtype.itemsize} of {n_expected} values"
        )
    data = np.frombuffer(payload, dtype=np_dtype).reshape(dims, order="F").astype(np.float32)
    if np.isfinite(slope) and slope != 0:
        data = (data.astype(np.float64) * slope + inter).astype(np.float32)
    if not np.isfinite(data).all():
        raise VolumeFormatError(f"{path.name} contains non-finite values")
    return Volume(data, spacing)
