"""Cross-case stability and diversity analytics for uncertainty maps.

Given one uncertainty map per case for a subject, this module computes the
voxelwise median and interquartile range across cases, the support mask of
voxels with non-zero median entropy (which excludes background voxels that
would otherwise inflate correlations), masked Pearson correlations between
case maps, their per-subject matrices and the mean matrix across subjects,
and the mean of non-zero entropy values per (subject, case).

Undefined correlations (a map constant over the mask) are reported as
missing entries, never coerced to 0, so the mean matrix is not corrupted
by degenerate cases.  Quartiles use linear interpolation between order
statistics (quantile position q*(K-1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Mask, Volume, threshold_mask

NONZERO_EPS = 1e-12  # "non-zero" guard against float round-off
MEDIAN_IQR_BLOCK = 2**14  # voxels per quartile slab in voxelwise_median_iqr


class AnalysisError(ValueError):
    """Invalid analysis input."""


class UndefinedCorrelationError(AnalysisError):
    """Pearson correlation undefined (a side is constant over the mask)."""


@dataclass(frozen=True)
class CorrelationMatrix:
    """K x K Pearson matrix; NaN marks undefined (missing) entries."""

    values: np.ndarray
    case_ids: tuple[int, ...]
    subject: int | str
    counts: np.ndarray | None = None  # contributing subjects per entry (mean matrix only)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        k = len(self.case_ids)
        if arr.shape != (k, k):
            raise AnalysisError(f"matrix shape {arr.shape} does not match {k} case ids")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "case_ids", tuple(int(c) for c in self.case_ids))


def voxelwise_median_iqr(maps: list[Volume]) -> tuple[Volume, Volume]:
    """Per-voxel median and Q3 - Q1 across the given same-grid maps.

    The quartiles are taken over blocks of ``MEDIAN_IQR_BLOCK`` voxels, so
    the float64 working set stays at K x block values whatever the grid.
    """
    if len(maps) < 2:
        raise AnalysisError(f"need >= 2 maps, got {len(maps)}")
    dims = maps[0].dims
    for m in maps[1:]:
        if m.dims != dims:
            raise AnalysisError(f"dims mismatch: {m.dims} vs {dims}")
    flat = [m.data.reshape(-1) for m in maps]
    median = np.empty(dims, dtype=np.float32)
    iqr = np.empty(dims, dtype=np.float32)
    med_flat, iqr_flat = median.reshape(-1), iqr.reshape(-1)
    # one (K, block) float64 slab at a time: the quartiles of a voxel do not depend on its neighbours
    for s in range(0, median.size, MEDIAN_IQR_BLOCK):
        block = slice(s, s + MEDIAN_IQR_BLOCK)
        slab = np.array([f[block] for f in flat], dtype=np.float64)
        q1, med, q3 = np.percentile(slab, [25.0, 50.0, 75.0], axis=0)
        med_flat[block] = med
        iqr_flat[block] = q3 - q1
    return Volume(median, maps[0].spacing), Volume(iqr, maps[0].spacing)


def entropy_support_mask(median_entropy: Volume) -> Mask:
    """Voxels whose median entropy is non-zero (> 1e-12); errors when empty."""
    mask = threshold_mask(median_entropy, NONZERO_EPS)
    if mask.count == 0:
        raise AnalysisError("entropy support mask is empty; correlations are undefined")
    return mask


def spatial_correlation(a: Volume, b: Volume, m: Mask) -> float:
    """Pearson correlation of two maps over the masked voxels.

    Raises :class:`UndefinedCorrelationError` when either map is constant
    over the mask; callers treat that as a missing entry.
    """
    if a.dims != b.dims or a.dims != m.dims:
        raise AnalysisError(f"dims mismatch: {a.dims}, {b.dims}, mask {m.dims}")
    if m.count < 2:
        raise AnalysisError(f"need >= 2 masked voxels, got {m.count}")
    av = a.data[m.bits].astype(np.float64)
    bv = b.data[m.bits].astype(np.float64)
    ad = av - av.mean()
    bd = bv - bv.mean()
    ss_a = float(np.dot(ad, ad))
    ss_b = float(np.dot(bd, bd))
    if ss_a == 0.0 or ss_b == 0.0:
        raise UndefinedCorrelationError("constant map over the mask")
    r = float(np.dot(ad, bd)) / np.sqrt(ss_a * ss_b)
    return float(np.clip(r, -1.0, 1.0))


def correlation_matrix(maps: dict[int, Volume], mask: Mask, subject: int | str = 0) -> CorrelationMatrix:
    """Symmetric unit-diagonal matrix of masked correlations between {case_id: map} maps.

    Rows and columns follow ascending case id.  Entries whose correlation
    is undefined are NaN.
    """
    case_ids = tuple(sorted(maps))
    vols = [maps[c] for c in case_ids]
    k = len(vols)
    values = np.full((k, k), np.nan)
    for i in range(k):
        try:
            values[i, i] = spatial_correlation(vols[i], vols[i], mask)
        except UndefinedCorrelationError:
            continue
    for i in range(k):
        for j in range(i + 1, k):
            try:
                r = spatial_correlation(vols[i], vols[j], mask)
            except UndefinedCorrelationError:
                r = np.nan
            values[i, j] = values[j, i] = r
    return CorrelationMatrix(values, case_ids, subject)


def mean_correlation_matrix(matrices: list[CorrelationMatrix]) -> CorrelationMatrix:
    """Elementwise mean across subjects, skipping missing entries.

    The ``counts`` field of the result records how many subjects
    contributed to each entry.
    """
    if not matrices:
        raise AnalysisError("need at least one matrix")
    case_ids = matrices[0].case_ids
    for m in matrices[1:]:
        if m.case_ids != case_ids:
            raise AnalysisError("matrices cover different case sets")
    stack = np.stack([m.values for m in matrices])
    defined = np.isfinite(stack)
    counts = defined.sum(axis=0)
    totals = np.where(defined, stack, 0.0).sum(axis=0)
    mean = np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)
    return CorrelationMatrix(mean, case_ids, "mean", counts=counts)


def mean_nonzero_entropy(ent: Volume) -> tuple[float, int]:
    """Mean of entropy values > 1e-12 and their count; (NaN, 0) when none."""
    vals = ent.data[ent.data > NONZERO_EPS]
    if vals.size == 0:
        return float("nan"), 0
    return float(vals.astype(np.float64).mean()), int(vals.size)

