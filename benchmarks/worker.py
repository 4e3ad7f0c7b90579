"""One unit of a workload in a fresh process: set up, measure, check.

``run.py`` starts this script once per unit with the thread variables
removed from its environment and ``src`` on ``PYTHONPATH``.  The unit
builds its fixture through the CLI, times ``reps`` repetitions of the
measured CLI calls (each into its own directory), records peak RSS, then
(with tracing removed) checks every repetition's outputs, and writes one
JSON result file.  Setup time runs from ``--t0`` (taken by the parent just
before it started this process) to the first measured call.  With
``--setup-only`` the unit stops there and reports only its setup time;
with ``--probe`` it runs the workload's probe and checks it against
``reference.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import check
import spans
from workloads import WORKLOADS, measured_argvs, output_dirs, pipeline_config, probe, setup_argvs


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class StageMarks:
    """Passes stderr through and timestamps the pipeline's own stage messages."""

    def __init__(self, stream):
        self.stream = stream
        self.marks: dict[str, tuple[float, float]] = {}

    def write(self, text: str) -> int:
        if text.startswith("[pipeline] stage "):
            self.marks[text.split()[2]] = (now(), time.process_time())
        return self.stream.write(text)

    def flush(self) -> None:
        self.stream.flush()


def blas_info() -> dict:
    """OpenBLAS build and effective thread count of the numpy in this process."""
    import numpy as np

    info = {"blas_config": "unknown", "blas_threads": None}
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {"blas_config": get_config().decode(), "blas_threads": get_threads()}
    return info


def stage_times(w, stages: dict, marks: dict, end: tuple[float, float]) -> dict:
    """Wall and CPU seconds per stage; the pipeline's are split at its stage messages."""
    if not w.pipeline:
        return stages
    names = [name for name in ("phantom", "train", "run", "analyze") if name in marks]
    bounds = [marks[name] for name in names] + [end]
    out = dict(stages)
    for name, (t0, c0), (t1, c1) in zip(names, bounds, bounds[1:]):
        out[name] = {"wall_s": t1 - t0, "cpu_s": c1 - c0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--recompute", type=int, default=0, help="jobs to recompute in float64")
    parser.add_argument("--im2col", action="store_true", help="reorder float32 conv sums (drift calibration)")
    parser.add_argument("--probe", action="store_true", help="run the workload's probe")
    parser.add_argument("--setup-only", action="store_true", help="stop at the first measured call")
    args = parser.parse_args()
    w = probe(WORKLOADS[args.workload]) if args.probe else WORKLOADS[args.workload]
    wd = Path(args.workdir)
    wd.mkdir(parents=True)

    import numpy as np
    import scipy
    import uqcat
    from uqcat import cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(uqcat.__file__).resolve().parents:
        print(f"uqcat imported from {uqcat.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.im2col:
        import reference

        reference.patch_im2col()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    if w.pipeline:
        (wd / "config.json").write_text(json.dumps(pipeline_config(w, args.seed)))
    rcs = {argv[0]: cli.main(argv) for argv in setup_argvs(w, args.seed, wd)}

    t_first = now()
    cpu_first = time.process_time()
    if args.setup_only:
        failed = [f"stage {name} exited {rc}" for name, rc in rcs.items() if rc != 0]
        Path(args.result).write_text(json.dumps({"setup_s": t_first - args.t0, "failed": failed}))
        return 0
    reps, rep_rcs = [], []
    for rep in range(w.reps):
        marks = StageMarks(sys.stderr)
        sys.stderr = marks
        stages, rcs_rep = {}, {}
        t_rep, cpu_rep = now(), time.process_time()
        try:
            for stage, argv in measured_argvs(w, args.seed, wd, rep):
                t, c = now(), time.process_time()
                failed_before = any(rcs.values()) or any(rcs_rep.values())
                rcs_rep[stage] = cli.main(argv) if not failed_before else -1
                stages[stage] = {"wall_s": now() - t, "cpu_s": time.process_time() - c}
        finally:
            sys.stderr = marks.stream
        end = (now(), time.process_time())
        stages = stage_times(w, stages, marks.marks, end)
        reps.append({
            "wall_s": end[0] - t_rep,
            "cpu_s": end[1] - cpu_rep,
            "stages": stages,
            "run_wall_s": stages["run"]["wall_s"] if "run" in stages else None,
        })
        rep_rcs.append(rcs_rep)
    end = (now(), time.process_time())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.unit_layers(tracer.spans)

    ref = check.load_reference().get("workloads", {}).get(w.name) if args.probe else None
    jobs = []
    for rep, (timing, rcs_rep) in enumerate(zip(reps, rep_rcs)):
        stage_failures = [f"stage {name} exited {rc}" for name, rc in {**rcs, **rcs_rep}.items() if rc != 0]
        if not stage_failures and "run" not in timing["stages"]:
            stage_failures.append("pipeline printed no run-stage message")
        checked = check.check_unit(w, args.seed, output_dirs(w, wd, rep), ref, args.recompute if rep == 0 else 0)
        for job in checked["jobs"]:
            job["failed"] = stage_failures + checked["analysis_failed"] + job["failed"]
            job["rep"] = rep
        jobs += checked["jobs"]

    result = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": t_first - args.t0,
        "measured_s": end[0] - t_first,
        "measured_cpu_s": end[1] - cpu_first,
        "reps": reps,
        "passes": w.passes,
        "peak_rss_mb": peak_rss_mb,
        "check": {
            "jobs": jobs,
            "reference_checked": ref is not None,
            "bit_identical_jobs": sum(1 for j in jobs if j.get("bit_identical")),
        },
        "layers": layers,
        "spans": [s[:7] for s in tracer.spans] if tracer is not None else None,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "uqcat": uqcat.__version__,
            **blas_info(),
        },
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
