"""Regenerate ``reference.json``: committed digests, map moments and tolerances.

    python3 benchmarks/reference.py

Run from the root of a uqcat checkout (about 2 minutes on 2 cores).  For
every workload it runs the probe (``workloads.probe``) at ``PROBE_SEED``
and records each job's output digest and map moments.  It then measures
float32 reordering drift: probes at ``CALIBRATION_SEEDS`` are rerun with
every convolution (forward and backward, so the drift is carried through
training) computed as im2col + matrix product, which sums in a different
order, and the largest moment change seen becomes the drift.  Tolerance =
``DRIFT_FACTOR`` x drift + 1e-6 x the largest moment magnitude, per
workload, map and moment.  One traced workload unit per workload records
the call counts that must repeat from run to run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

CALIBRATION_SEEDS = (0, 1, 2)
DRIFT_FACTOR = 10.0


def _im2col(x: np.ndarray) -> np.ndarray:
    bsz, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((bsz, c, 3, 3, h, w), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, :, di, dj] = xp[:, :, di : di + h, dj : dj + w]
    return cols.reshape(bsz, c * 9, h * w)


def _conv3(x, w, b):
    bsz, _, h, wd = x.shape
    out = np.matmul(w.reshape(w.shape[0], -1), _im2col(x))
    return out.reshape(bsz, w.shape[0], h, wd) + b[None, :, None, None]


def _conv3_backward(dout, x, w):
    bsz, c, h, wd = x.shape
    d2 = dout.reshape(bsz, w.shape[0], h * wd)
    dw = np.tensordot(d2, _im2col(x), axes=([0, 2], [0, 2])).reshape(w.shape).astype(w.dtype)
    dcols = np.matmul(w.reshape(w.shape[0], -1).T, d2).reshape(bsz, c, 3, 3, h, wd)
    dxp = np.zeros((bsz, c, h + 2, wd + 2), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, :, di : di + h, dj : dj + wd] += dcols[:, :, di, dj]
    return dxp[:, :, 1:-1, 1:-1], dw, dout.sum(axis=(0, 2, 3))


def _conv1(x, w, b):
    bsz, c, h, wd = x.shape
    out = np.matmul(w[:, :, 0, 0], x.reshape(bsz, c, h * wd))
    return out.reshape(bsz, w.shape[0], h, wd) + b[None, :, None, None]


def _conv1_backward(dout, x, w):
    bsz, c, h, wd = x.shape
    d2 = dout.reshape(bsz, w.shape[0], h * wd)
    dw = np.zeros_like(w)
    dw[:, :, 0, 0] = np.tensordot(d2, x.reshape(bsz, c, h * wd), axes=([0, 2], [0, 2]))
    dx = np.matmul(w[:, :, 0, 0].T, d2).reshape(x.shape)
    return dx, dw, dout.sum(axis=(0, 2, 3))


def patch_im2col() -> None:
    """Swap the predictor's convolutions for im2col versions (same maths, other float32 order)."""
    from uqcat import predictor

    predictor._conv3, predictor._conv3_backward = _conv3, _conv3_backward
    predictor._conv1, predictor._conv1_backward = _conv1, _conv1_backward


def _unit(root: Path, workdir: Path, workload: str, seed: int, trace: int = 0, extra: tuple[str, ...] = ()) -> dict:
    from run import child_env, run_unit

    env, _ = child_env(root)
    return run_unit(root, env, workdir, workload, seed, trace, recompute=0, deadline=None, extra=list(extra))


def _moments(unit: dict) -> dict[str, dict]:
    return {j["job"]: j["moments"] for j in unit["check"]["jobs"]}


def main() -> int:
    from check import MOMENTS, REFERENCE_PATH, TAGS
    from workloads import PROBE_SEED, WORKLOADS

    root = Path.cwd()
    workdir = root / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    out = {"format": 2, "probe_seed": PROBE_SEED, "drift_factor": DRIFT_FACTOR,
           "calibration_seeds": list(CALIBRATION_SEEDS), "workloads": {}}
    try:
        for name in WORKLOADS:
            probe = _unit(root, workdir, name, PROBE_SEED, extra=("--probe",))
            drift = {tag: [0.0] * len(MOMENTS) for tag in TAGS}
            scale = {tag: [0.0] * len(MOMENTS) for tag in TAGS}
            for seed in CALIBRATION_SEEDS:
                plain = _moments(_unit(root, workdir, name, seed, extra=("--probe",)))
                other = _moments(_unit(root, workdir, name, seed, extra=("--probe", "--im2col")))
                for job, ref in plain.items():
                    for tag in TAGS:
                        for k, (a, b) in enumerate(zip(other[job][tag], ref[tag])):
                            drift[tag][k] = max(drift[tag][k], abs(a - b))
                            scale[tag][k] = max(scale[tag][k], abs(b))
            out["workloads"][name] = {
                "probe": {j["job"]: {"sha256": j["sha256"], "moments": j["moments"]} for j in probe["check"]["jobs"]},
                "drift": drift,
                "tolerance": {tag: [DRIFT_FACTOR * d + 1e-6 * m for d, m in zip(drift[tag], scale[tag])]
                              for tag in TAGS},
                "counts": _unit(root, workdir, name, PROBE_SEED, trace=1)["layers"]["counts"],
            }
            print(f"{name} drift {json.dumps(drift)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
