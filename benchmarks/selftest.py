"""Self-test of the benchmark's own checks.

    python3 benchmarks/selftest.py

Run from the root of a uqcat checkout (about 15 s).  It runs the
``ttd_sweep`` probe, keeps its outputs, and shows on copies of them that
the output check counts as failed: a job whose maps are another case's
(each invariant holds, only the committed reference tells), a corrupted
map, a missing map file and an asymmetric correlation CSV.  It also
checks that ``BENCHMARK.json`` names exactly the metrics ``run.py``
reports, and that ``run.py`` exits non-zero without a result in a
directory that holds only the benchmark.  Exit code 0 means every
expectation held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import check
import spans
from run import END_TO_END, HERE, child_env
from workloads import PROBE_SEED, WORKLOADS, output_dirs, probe


def expect(label: str, ok: bool, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def count(w, dirs, ref) -> tuple[int, int]:
    checked = check.check_unit(w, PROBE_SEED, dirs, ref)
    for job in checked["jobs"]:
        job["failed"] += checked["analysis_failed"]
    return sum(1 for _ in checked["jobs"]), sum(1 for j in checked["jobs"] if j["failed"])


def swap_maps(dirs, sid: int, cid: int, other: int) -> None:
    """Give job (sid, cid) the maps of case ``other``."""
    for tag in check.TAGS:
        shutil.copy(check.map_path(dirs["maps"], sid, other, tag), check.map_path(dirs["maps"], sid, cid, tag))


def bump_mean(dirs, sid: int, cid: int) -> None:
    """Raise the mean map voxel nearest 0.5 by 0.05."""
    path = check.map_path(dirs["maps"], sid, cid, "mean")
    data = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
    data[np.argmin(np.abs(data - 0.5))] += 0.05
    path.write_bytes(data.tobytes())


def break_csv_symmetry(dirs) -> None:
    corr = dirs["analysis"] / "corr_sub-0.csv"
    rows = [line.split(",") for line in corr.read_text().splitlines()]
    rows[1][2] = "0.123456" if rows[1][2] != "0.123456" else "0.654321"
    corr.write_text("\n".join(",".join(r) for r in rows) + "\n")


def main() -> int:
    root = Path.cwd()
    failures: list[str] = []
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json end_to_end names match run.py",
           [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END], failures)
    expect("BENCHMARK.json per_layer entries match spans.LAYER_METRICS",
           [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [(n, u, b) for n, u, b, _ in spans.LAYER_METRICS], failures)

    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=base, prefix="selftest-"))
    try:
        w = probe(WORKLOADS["ttd_sweep"])
        env, _ = child_env(root)
        work = scratch / "work"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", w.name, "--seed", str(PROBE_SEED), "--trace", "0",
             "--workdir", str(work), "--result", str(scratch / "result.json"), "--recompute", "1", "--probe",
             "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
            cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
            return 1
        unit = json.loads((scratch / "result.json").read_text())
        ref = check.load_reference()["workloads"][w.name]
        n_jobs = len(w.jobs)
        (sid, first), (_, last) = w.jobs[0], w.jobs[-1]
        expect("clean probe: compared with the reference, no failed jobs",
               unit["check"]["reference_checked"] and not any(j["failed"] for j in unit["check"]["jobs"])
               and count(w, output_dirs(w, work, 0), ref) == (n_jobs, 0), failures)

        for label, expected, corrupt in (
            (f"job {sid}-{first} given case {last}'s maps: 1 failed job", 1,
             lambda d: swap_maps(d, sid, first, last)),
            ("corrupted mean map: 1 failed job", 1, lambda d: bump_mean(d, sid, first)),
            ("missing variance map: 1 failed job", 1,
             lambda d: check.map_path(d["maps"], sid, last, "var").unlink()),
            ("asymmetric correlation CSV: every job failed", n_jobs, break_csv_symmetry),
        ):
            copy = Path(tempfile.mkdtemp(dir=scratch, prefix="corrupt-")) / "work"
            shutil.copytree(work, copy)
            dirs = output_dirs(w, copy, 0)
            corrupt(dirs)
            expect(label, count(w, dirs, ref) == (n_jobs, expected), failures)

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", w.name, "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect("benchmark alone: non-zero exit, no result", proc.returncode != 0 and not proc.stdout.strip(),
               failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed" if not failures else f"selftest FAILED: {len(failures)} expectation(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
