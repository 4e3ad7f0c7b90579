"""Output checks behind ``failed`` / ``attempted``.

A (subject, case) job fails when its stage exits non-zero, when one of its
map files is missing or unreadable, or when its maps fail a check:

* invariants that hold for any seed: finite values, mean and entropy in
  [0, 1], variance in [0, 0.25] and at most mean*(1-mean), entropy equal
  to the binary entropy of the mean map;
* for the probe unit that every run makes at ``PROBE_SEED``, moments of
  each map (plain and spatially weighted) compared with the committed
  ``reference.json``, within tolerances derived from measured float32
  reordering drift, carried through training;
* for a seed-chosen sample of jobs, an independent float64 recomputation
  of mean, variance and entropy from passes collected through
  ``TinySegmenter.forward`` and ``augment``.

The analysis stage is checked as a whole (symmetric, unit-diagonal
correlation CSVs, a complete summary table); a failure there fails every
job of the unit.  Probe jobs whose output bytes match the committed
digests are counted as bit-identical, which lets an exact speed-up show
that it is exact; a digest mismatch alone is not a failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import Workload

TAGS = ("mean", "var", "ent")
MOMENTS = ("mean", "mean_sq", "centroid_x", "centroid_y", "centroid_z", "spread")
INVARIANT_TOL = 1e-5      # float32 storage of float64 statistics
RECOMPUTE_TOL = 1e-6      # same passes, different float64 summation order, float32 storage
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def read_vvol(path: Path) -> tuple[np.ndarray, tuple[float, ...]]:
    """A .vvol payload as float64 (x-fastest order) and its spacing."""
    header = json.loads(path.with_name(path.name + ".json").read_text())
    dims = tuple(int(d) for d in header["dims"])
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    if raw.size != int(np.prod(dims)):
        raise ValueError(f"{path.name}: {raw.size} values for dims {dims}")
    return raw.reshape(dims, order="F").astype(np.float64), tuple(float(s) for s in header["spacing"])


def map_path(maps: Path, sid: int, cid: int, tag: str) -> Path:
    return maps / f"sub-{sid}_case-{cid}_{tag}.vvol"


def binary_entropy(p: np.ndarray) -> np.ndarray:
    """Bits; 0*log(0) = 0."""
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        pos = q > 0
        out[pos] -= q[pos] * np.log(q[pos]) / np.log(2.0)
    return out


def moments(v: np.ndarray) -> list[float]:
    """Mean, mean square, value-weighted centroid (voxels) and weighted spread about it."""
    total = float(v.sum())
    out = [float(v.mean()), float(np.mean(v * v))]
    if total <= 0.0:
        return out + [0.0, 0.0, 0.0, 0.0]
    grids = np.indices(v.shape, dtype=np.float64)
    centroid = [float((v * g).sum() / total) for g in grids]
    spread = float((v * sum((g - c) ** 2 for g, c in zip(grids, centroid))).sum() / total)
    return out + centroid + [spread]


def job_digest(maps: Path, sid: int, cid: int) -> str:
    h = hashlib.sha256()
    for tag in TAGS:
        h.update(map_path(maps, sid, cid, tag).read_bytes())
    return h.hexdigest()


def invariant_failures(m: np.ndarray, var: np.ndarray, ent: np.ndarray) -> list[str]:
    reasons = []
    for tag, arr in zip(TAGS, (m, var, ent)):
        if not np.isfinite(arr).all():
            return [f"{tag} map has non-finite values"]
    if m.min() < 0.0 or m.max() > 1.0:
        reasons.append(f"mean outside [0, 1]: [{m.min():.6g}, {m.max():.6g}]")
    if ent.min() < 0.0 or ent.max() > 1.0:
        reasons.append(f"entropy outside [0, 1]: [{ent.min():.6g}, {ent.max():.6g}]")
    if var.min() < 0.0 or var.max() > 0.25:
        reasons.append(f"variance outside [0, 0.25]: [{var.min():.6g}, {var.max():.6g}]")
    excess = float(np.max(var - m * (1.0 - m)))
    if excess > INVARIANT_TOL:
        reasons.append(f"variance exceeds mean*(1-mean) by {excess:.3g}")
    gap = float(np.max(np.abs(ent - binary_entropy(m))))
    if gap > INVARIANT_TOL:
        reasons.append(f"entropy differs from H(mean) by {gap:.3g}")
    return reasons


def reference_failures(got: dict[str, list[float]], ref: dict, tol: dict) -> list[str]:
    reasons = []
    for tag in TAGS:
        for name, a, b, t in zip(MOMENTS, got[tag], ref["moments"][tag], tol[tag]):
            if abs(a - b) > t:
                reasons.append(f"{tag} {name} {a:.9g} differs from reference {b:.9g} by more than {t:.3g}")
    return reasons


def _csv_matrix(path: Path, case_ids: list[int]) -> list[str]:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if rows[0] != ["case"] + [str(c) for c in case_ids]:
        return [f"{path.name}: header {rows[0]} does not list cases {case_ids}"]
    if len(rows) != len(case_ids) + 1 or any(len(r) != len(case_ids) + 1 for r in rows):
        return [f"{path.name}: not a {len(case_ids)}x{len(case_ids)} matrix"]
    cells = [r[1:] for r in rows[1:]]
    reasons = []
    for i, row in enumerate(cells):
        if row[i] not in ("1", ""):
            reasons.append(f"{path.name}: diagonal entry {i + 1} is {row[i]!r}")
        for j, cell in enumerate(row):
            if cell != cells[j][i]:
                reasons.append(f"{path.name}: entry ({i + 1}, {j + 1}) {cell!r} differs from its transpose")
            elif cell and not -1.0 <= float(cell) <= 1.0:
                reasons.append(f"{path.name}: entry ({i + 1}, {j + 1}) {cell} outside [-1, 1]")
    return reasons


def analysis_failures(w: Workload, analysis: Path) -> list[str]:
    """Checks on the analyze stage's outputs; any failure fails every job."""
    try:
        reasons = []
        for sid in range(w.subjects):
            reasons += _csv_matrix(analysis / f"corr_sub-{sid}.csv", list(w.cases))
            for name in (f"median_ent_sub-{sid}.vvol", f"iqr_ent_sub-{sid}.vvol", f"mask_sub-{sid}.vvol"):
                arr, _ = read_vvol(analysis / name)
                if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
                    reasons.append(f"{name}: values outside [0, 1]")
        reasons += _csv_matrix(analysis / "corr_mean.csv", list(w.cases))
        rows = (analysis / "summary.csv").read_text().splitlines()
        if len(rows) != 1 + len(w.jobs):
            reasons.append(f"summary.csv: {len(rows) - 1} rows for {len(w.jobs)} jobs")
        return reasons
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"analysis output unreadable: {type(exc).__name__}: {exc}"]


def recompute(w: Workload, seed: int, dirs: dict[str, Path], sid: int, cid: int) -> dict[str, np.ndarray]:
    """Float64 mean/variance/entropy of one job, recomputed from its forward passes."""
    from uqcat import augment
    from uqcat.predictor import TinySegmenter
    from uqcat.seeding import derive_seed
    from uqcat.uq import get_case
    from uqcat.volume import Volume

    run_seed = derive_seed(seed, "run-stage") if w.pipeline else seed
    job_seed = derive_seed(run_seed, "run", sid)
    model = TinySegmenter.load(dirs["model"])
    data, spacing = read_vvol(dirs["phantoms"] / f"sub-{sid}_img.vvol")
    image = Volume(data, spacing)
    case = get_case(cid)
    passes = []
    for i in range(w.samples):
        pass_seed = derive_seed(job_seed, "pass", cid, i)
        if case.kind == "ttd":
            prob = model.forward(image, dropout_rate=case.dropout_rate, seed=pass_seed)
        else:
            ts = augment.sample_transform(case, np.random.default_rng(pass_seed))
            prob = model.forward(augment.apply_transform(image, ts))
            if ts.affine is not None:
                prob = augment.apply_affine_inverse(prob, ts.affine)
        passes.append(np.clip(prob.data, 0.0, 1.0).astype(np.float64))
    total = np.zeros_like(passes[0])
    for p in passes:
        total += p
    mean = total / len(passes)
    var = sum((p - mean) ** 2 for p in passes) / len(passes)
    return {"mean": mean, "var": var, "ent": binary_entropy(mean)}


def check_unit(w: Workload, seed: int, dirs: dict[str, Path], ref: dict | None = None,
               recompute_jobs: int = 0) -> dict:
    """Check one unit's outputs; returns per-job results and the analysis verdict.

    ``ref`` is the workload's entry of ``reference.json`` when the unit is its probe.
    """
    chosen = set()
    if recompute_jobs:
        picks = np.random.default_rng(seed).choice(len(w.jobs), size=recompute_jobs, replace=False)
        chosen = {w.jobs[int(i)] for i in picks}
    jobs = []
    for sid, cid in w.jobs:
        key = f"{sid}-{cid}"
        result = {"job": key, "failed": [], "sha256": None, "moments": None, "recomputed": False}
        jobs.append(result)
        try:
            arrays = {tag: read_vvol(map_path(dirs["maps"], sid, cid, tag))[0] for tag in TAGS}
            result["sha256"] = job_digest(dirs["maps"], sid, cid)
        except (OSError, ValueError, KeyError) as exc:
            result["failed"].append(f"maps unreadable: {type(exc).__name__}: {exc}")
            continue
        if any(a.shape != w.dims for a in arrays.values()):
            result["failed"].append(f"map dims differ from {w.dims}")
            continue
        result["failed"] += invariant_failures(arrays["mean"], arrays["var"], arrays["ent"])
        result["moments"] = {tag: moments(arrays[tag]) for tag in TAGS}
        if ref is not None:
            result["failed"] += reference_failures(result["moments"], ref["probe"][key], ref["tolerance"])
            result["bit_identical"] = result["sha256"] == ref["probe"][key]["sha256"]
        if (sid, cid) in chosen:
            result["recomputed"] = True
            try:
                expect = recompute(w, seed, dirs, sid, cid)
            except (OSError, ValueError, KeyError) as exc:
                result["failed"].append(f"float64 recomputation failed: {type(exc).__name__}: {exc}")
                continue
            for tag in TAGS:
                gap = float(np.max(np.abs(arrays[tag] - expect[tag])))
                if gap > RECOMPUTE_TOL:
                    result["failed"].append(f"{tag} map differs from float64 recomputation by {gap:.3g}")
    return {
        "jobs": jobs,
        "analysis_failed": analysis_failures(w, dirs["analysis"]),
        "reference_checked": ref is not None,
        "bit_identical_jobs": sum(1 for j in jobs if j.get("bit_identical")),
    }
