"""The benchmark's workloads: inputs, CLI argument lists and seed paths.

Every workload drives uqcat only through ``uqcat.cli.main``.  A unit is
one fresh process: it builds the fixture, then repeats the measured CLI
calls ``reps`` times, each repetition writing to its own directory.  The
machine's speed wanders by 10-15% over seconds and from process to
process, so the end-to-end figures are medians over many short
repetitions spread across several processes:

* ``ttd_sweep``: dropout cases 1-6 at 10 passes on one 32x32x16 subject,
  3 repetitions per unit.  Every pass is a dropout forward on the
  unperturbed image; augment idles.
* ``tta_sweep``: augmentation cases 7-14 at 10 passes on the same grid,
  2 repetitions per unit.  Every pass goes through augment and a
  dropout-free forward.
* ``cold_pipeline``: ``uqcat pipeline`` from nothing at 64x64x32, all 14
  cases at 2 passes, one repetition per unit.  Training (13 epochs) is its
  largest stage.

Every run also runs one small *probe* unit per workload (``probe``): the
same grid and code paths at the fixed seed ``PROBE_SEED``, whose outputs
are compared with the committed ``reference.json`` whatever ``--seed`` is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

THREAD_VARS = ("UQCAT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    subjects: int
    cases: tuple[int, ...]
    samples: int
    epochs: int  # fixture training for the sweeps, the train stage for the pipeline
    pipeline: bool
    reps: int  # measured repetitions per unit

    @property
    def case_text(self) -> str:
        first, last = self.cases[0], self.cases[-1]
        if self.cases == tuple(range(first, last + 1)):
            return f"{first}-{last}"
        return ",".join(str(c) for c in self.cases)

    @property
    def jobs(self) -> list[tuple[int, int]]:
        return [(s, c) for s in range(self.subjects) for c in self.cases]

    @property
    def passes(self) -> int:
        return len(self.jobs) * self.samples


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ttd_sweep", (32, 32, 16), 1, tuple(range(1, 7)), 10, 4, False, 3),
        Workload("tta_sweep", (32, 32, 16), 1, tuple(range(7, 15)), 10, 4, False, 2),
        Workload("cold_pipeline", (64, 64, 32), 1, tuple(range(1, 15)), 2, 13, True, 1),
    )
}


def probe(w: Workload) -> Workload:
    """The workload's first and last case at 2 passes after 1 training epoch, once."""
    return replace(w, cases=(w.cases[0], w.cases[-1]), samples=2, epochs=1, reps=1)


def dims_text(w: Workload) -> str:
    return ",".join(str(d) for d in w.dims)


def setup_argvs(w: Workload, seed: int, wd: Path) -> list[list[str]]:
    """CLI calls that build the fixture before the first measured call."""
    if w.pipeline:
        return []
    return [
        ["phantom", "--out", str(wd / "phantoms"), "--subjects", str(w.subjects), "--seed", str(seed),
         "--dims", dims_text(w)],
        ["train", "--data", str(wd / "phantoms"), "--out", str(wd / "model.uqp"), "--epochs", str(w.epochs),
         "--seed", str(seed)],
    ]


def pipeline_config(w: Workload, seed: int) -> dict:
    return {
        "seed": seed,
        "phantom": {"subjects": w.subjects, "dims": list(w.dims)},
        "train": {"epochs": w.epochs},
        "run": {"samples": w.samples, "cases": w.case_text},
        "analyze": {},
    }


def rep_dir(wd: Path, rep: int) -> Path:
    return wd / f"rep-{rep}"


def measured_argvs(w: Workload, seed: int, wd: Path, rep: int) -> list[tuple[str, list[str]]]:
    """(stage, argv) pairs of one repetition, timed together as ``wall_s``."""
    out = rep_dir(wd, rep)
    if w.pipeline:
        return [("pipeline", ["pipeline", "--config", str(wd / "config.json"), "--out", str(out)])]
    return [
        ("run", ["run", "--model", str(wd / "model.uqp"), "--subjects", str(wd / "phantoms"),
                 "--out", str(out / "maps"), "--samples", str(w.samples), "--seed", str(seed),
                 "--cases", w.case_text]),
        ("analyze", ["analyze", "--maps", str(out / "maps"), "--out", str(out / "analysis")]),
    ]


def output_dirs(w: Workload, wd: Path, rep: int) -> dict[str, Path]:
    """Where repetition ``rep``'s phantoms, model, maps and analysis end up."""
    out = rep_dir(wd, rep)
    base = out if w.pipeline else wd
    return {
        "phantoms": base / "phantoms",
        "model": base / "model.uqp",
        "maps": out / "maps",
        "analysis": out / "analysis",
    }
