"""uqcat benchmark command.

    python3 benchmarks/run.py --workload ttd_sweep --seed 1 --seconds 45 --trace 0

Run from the root of a uqcat checkout; ``--workload all`` runs the three
workloads in turn and prefixes each metric with its workload.  Each
workload unit runs in a fresh process (``worker.py``) that drives the
program only through ``uqcat.cli.main``: it sets up, then repeats the
measured calls ``reps`` times (``workloads.py``).  A run first makes the
workload's probe (checked against ``reference.json``) and, untraced,
``SETUP_ONLY_UNITS`` units that stop after set-up; then workload units
repeat until ``--seconds`` is used, with at least three untraced units
(one untraced and one traced with ``--trace 1``).  Every repetition's
outputs are checked.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count (subject, case) jobs, and
``metrics`` holds the end-to-end metrics (``wall_s`` and ``passes_per_s``
are medians over the untraced units' repetitions, the first unit left out
as warm-up when more than ``MIN_UNTRACED`` remain; ``setup_s`` and
``peak_rss_mb`` over the untraced units, ``setup_s`` also over the
set-up-only units) or, with ``--trace 1``, the per-layer metrics from the
traced units.  Lines before it give each
metric with its unit, ``failed_frac``, per-stage wall and CPU seconds, and
the environment.  The record is also appended to
``.bench_work/results.jsonl`` for ``compare.py``, and traced units' spans
are written to ``.bench_work/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import spans
from workloads import PROBE_SEED, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("passes_per_s", "1/s"), ("peak_rss_mb", "MB"))
MIN_UNTRACED = 3
SETUP_ONLY_UNITS = 3  # so that setup_s is a median of at least six set-ups
RUN_LIMIT_S = 150.0  # whole run, set-up and checks included
RECOMPUTE_JOBS = 1


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> tuple[dict, dict]:
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in THREAD_VARS if k in env}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave src/ untouched
    return env, removed


def run_unit(root: Path, env: dict, workdir: Path, workload: str, seed: int, trace: int, recompute: int,
             deadline: float | None, extra: list[str] = ()) -> dict:
    """Run one worker process; its result, or BenchError if it produced none."""
    unit_dir = Path(tempfile.mkdtemp(dir=workdir, prefix="unit-"))
    result_path, log_path = unit_dir / "result.json", unit_dir / "log.txt"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--workdir", str(unit_dir / "work"), "--result", str(result_path),
           "--recompute", str(recompute), *extra]
    with open(log_path, "w") as log:
        t0 = now()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=None if deadline is None else max(1.0, deadline - now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"a {workload} unit did not finish within the run limit")
        except BaseException:  # interrupted or terminated: stop the worker before leaving
            proc.kill()
            proc.wait()
            raise
    if rc != 0 or not result_path.exists():
        raise BenchError(f"a {workload} unit's worker exited {rc}:\n{log_path.read_text()[-2000:]}")
    unit = json.loads(result_path.read_text())
    unit["unit_s"] = now() - t0
    shutil.rmtree(unit_dir)
    return unit


def run_units(root: Path, env: dict, workdir: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, list[dict], list[dict]]:
    """The probe, the set-up-only units (untraced runs only), then workload units
    (alternately untraced and traced with trace=1) until the time is used."""
    start = now()
    deadline = start + RUN_LIMIT_S
    probe = run_unit(root, env, workdir, workload, PROBE_SEED, 0, 0, deadline, ["--probe"])
    setups = [] if trace else [run_unit(root, env, workdir, workload, seed, 0, 0, deadline, ["--setup-only"])
                               for _ in range(SETUP_ONLY_UNITS)]
    for unit in setups:
        if unit["failed"]:
            raise BenchError(f"a {workload} set-up-only unit failed: {'; '.join(unit['failed'])}")
    units: list[dict] = []
    while True:
        traced = 1 if trace and len(units) % 2 == 1 else 0
        recompute = RECOMPUTE_JOBS if not units else 0
        units.append(run_unit(root, env, workdir, workload, seed, traced, recompute, deadline))
        elapsed = now() - start
        typical = statistics.median(u["unit_s"] for u in units)
        n_traced = sum(u["trace"] for u in units)
        enough = len(units) - n_traced >= (1 if trace else MIN_UNTRACED) and n_traced >= trace
        if enough and (elapsed + typical > seconds or elapsed + typical > RUN_LIMIT_S):
            return probe, setups, units


def job_failures(probe: dict, units: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over the probe's and the units' jobs.

    A unit's job also fails if its bytes differ from those of unit 0's first
    repetition (same seed), and a probe job if the probe had no committed
    reference."""
    if not probe["check"]["reference_checked"]:
        for job in probe["check"]["jobs"]:
            job["failed"].append("no committed reference for the probe")
    first = {j["job"]: j["sha256"] for j in units[0]["check"]["jobs"] if j["rep"] == 0}
    attempted = failed = 0
    reasons = []
    for label, unit in [("probe", probe)] + [(f"unit {i}", u) for i, u in enumerate(units)]:
        for job in unit["check"]["jobs"]:
            if unit is not probe and job["sha256"] != first[job["job"]]:
                job["failed"].append("output bytes differ from unit 0, repetition 0 (same seed)")
            attempted += 1
            if job["failed"]:
                failed += 1
                reasons.append(f"{label} rep {job['rep']} job {job['job']}: " + "; ".join(job["failed"][:3]))
    return attempted, failed, reasons


def rep_walls(units: list[dict]) -> list[float]:
    return [r["wall_s"] for u in units for r in u["reps"]]


def timed_units(units: list[dict]) -> list[dict]:
    """The untraced units whose repetitions give ``wall_s`` and ``passes_per_s``.

    The first one warms the machine up (it read slower than the run's median
    in most runs) and is left out when more than ``MIN_UNTRACED`` remain."""
    plain = [u for u in units if not u["trace"]]
    return plain[1:] if len(plain) > MIN_UNTRACED else plain


def end_to_end(setups: list[dict], units: list[dict]) -> dict:
    plain = [u for u in units if not u["trace"]]
    timed = timed_units(units)
    return {
        "setup_s": statistics.median(u["setup_s"] for u in setups + plain),
        "wall_s": statistics.median(rep_walls(timed)),
        "passes_per_s": statistics.median(u["passes"] / r["run_wall_s"] if r["run_wall_s"] else 0.0
                                          for u in timed for r in u["reps"]),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in plain),
    }


def per_layer(probe: dict, units: list[dict], committed: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer values, counts that did not repeat within the run, and counts unlike the committed ones."""
    traced = [u for u in units if u["trace"]]
    values, mismatched = spans.aggregate(
        [u["layers"] for u in traced],
        statistics.median(rep_walls(timed_units(units))),
        statistics.median(rep_walls(traced)),
    )
    values["check.bit_identical_jobs"] = probe["check"]["bit_identical_jobs"]
    changed = [f"{k} is {values[k]}, committed run had {v}" for k, v in committed.items() if values.get(k) != v]
    return values, mismatched, changed


def write_spans(path: Path, units: list[dict]) -> None:
    """Write the traced units' spans, one JSON object per line."""
    fields = ("id", "name", "start", "end", "parent", "job", "cpu_s")
    traced = [(i, u) for i, u in enumerate(units) if u["spans"]]
    if not traced:
        return
    with open(path, "w") as f:
        for i, unit in traced:
            for span in unit["spans"]:
                f.write(json.dumps({"unit": i, **dict(zip(fields, span))}) + "\n")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(root: Path, env: dict, removed: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Run, check and report one workload; returns its result object."""
    load_start = os.getloadavg()
    workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        probe, setups, units = run_units(root, env, workdir, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    write_spans(root / ".bench_work" / f"spans-{workload}-{seed}.jsonl", units)
    attempted, failed, reasons = job_failures(probe, units)
    changed: list[str] = []
    if trace:
        committed = check.load_reference().get("workloads", {}).get(workload, {}).get("counts", {})
        values, problems, changed = per_layer(probe, units, committed)
        specs = [(name, unit) for name, unit, _, _ in spans.LAYER_METRICS]
    else:
        values, problems = end_to_end(setups, units), []
        specs = list(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    env_record = {
        **units[0]["env"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "removed_env": removed,
    }
    n_traced = sum(u["trace"] for u in units)
    timed = timed_units(units)
    print(f"uqcat benchmark: workload {workload}, seed {seed}, probe (seed {PROBE_SEED}), "
          f"{len(setups)} set-up-only units, {len(units)} units ({len(units) - n_traced} untraced, "
          f"{n_traced} traced)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")
    for i, u in enumerate(units):
        role = " traced" if u["trace"] else "" if any(u is t for t in timed) else " warm-up"
        print(f"  unit {i}{role}: setup {u['setup_s']:.3f} s, "
              f"{len(u['reps'])} reps {u['measured_s']:.3f} s wall / {u['measured_cpu_s']:.3f} s cpu")
        for j, r in enumerate(u["reps"]):
            stages = ", ".join(f"{k} {v['wall_s']:.3f} s wall / {v['cpu_s']:.3f} s cpu"
                               for k, v in r["stages"].items())
            print(f"    rep {j}: {r['wall_s']:.3f} s wall / {r['cpu_s']:.3f} s cpu ({stages})")
    probe_check = probe["check"]
    if setups:
        print("  set-up-only units: setup " + ", ".join(f"{u['setup_s']:.3f}" for u in setups) + " s")
    print(f"  checks: probe {'compared with reference.json' if probe_check['reference_checked'] else 'NOT compared'}, "
          f"{probe_check['bit_identical_jobs']} of {len(probe_check['jobs'])} probe jobs bit-identical to "
          f"committed digests, {sum(j['recomputed'] for j in units[0]['check']['jobs'])} unit job(s) "
          f"recomputed in float64")
    for line in changed:
        print(f"  count changed from the committed run: {line}")
    for line in (problems + reasons)[:20]:
        print(f"  FAILED {line}")
    print("env " + json.dumps(env_record, sort_keys=True))

    record = {"workload": workload, "seed": seed, "trace": trace, "result": result, "env": env_record}
    with open(root / ".bench_work" / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "uqcat" / "__init__.py").is_file():
        print(f"error: {root} holds no uqcat source tree (src/uqcat); run from a checkout root", file=sys.stderr)
        return 2
    env, removed = child_env(root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(root, env, removed, n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
