"""End-to-end command-line driver.

Subcommands wire phantom generation, training, Monte-Carlo case execution
and cross-case analysis into reproducible runs:

* ``uqcat phantom``  -- write a synthetic subject cohort
* ``uqcat train``    -- fit the built-in segmenter on a cohort
* ``uqcat run``      -- sample the 14 uncertainty cases, write voxelwise maps
* ``uqcat analyze``  -- correlation matrices, median/IQR maps, summary tables
* ``uqcat cases``    -- print the case registry with all parameter ranges
* ``uqcat pipeline`` -- run all stages from one JSON config

Every stage writes a JSON manifest recording the tool version, the
effective configuration, the base seed, every sampled parameter and the
SHA-256 of each input/output file, so any output is reproducible
bit-exactly from its manifest.  Manifests contain only paths relative to
their own directory.

``uqcat run`` runs its (subject, case) jobs in worker processes forked from
itself, as many as the usable cores, each with one BLAS thread, which it
inherits from the forking process (that process holds one BLAS thread
while the pool lives and restores its count after);
``UQCAT_THREADS`` caps the count, and with one worker, or where the platform
cannot fork, the jobs run in the calling process.  Outputs are bit-identical
regardless of the worker count because all randomness is derived from
(seed, subject, case, pass) names, never from scheduling.  A worker returns
a job's three maps and pass records; it dies with the process that forked
it and leaves Ctrl-C to that process.

Subject ids come from the ``sub-<i>_img.vvol`` file names.  ``uqcat run``
writes each job's maps, in job order, as soon as the job finishes and
``run_manifest.json`` last, so a maps directory without that manifest is an
incomplete run.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  Pipeline
config errors exit 2 before any stage runs.  A runtime failure prints the
error's type and message followed by its notes, which name the subject,
case and pass when a run pass failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import multiprocessing
import os
import re
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, analysis, augment
from .phantom import PhantomSpec, generate_cohort
from .predictor import PredictorError, TinySegmenter, TrainConfig, dice_score, train
from .seeding import derive_seed
from .uq import CASES, CaseError, get_case, parse_case_selection, run_case, uncertainty_maps
from .volume import Volume, VolumeError, read_volume, write_volume


class UsageError(Exception):
    """Bad flags, config file or environment; maps to exit code 2."""


# --------------------------------------------------------------------------
# small helpers
# --------------------------------------------------------------------------

def _describe(exc: Exception) -> str:
    """The message with the exception's notes (such as the failing job of a run) appended."""
    notes = getattr(exc, "__notes__", ())
    return f"{exc} ({'; '.join(notes)})" if notes else str(exc)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(path: Path, command: str, **fields) -> None:
    manifest = {"tool": "uqcat", "version": __version__, "command": command, **fields}
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _fmt(x: float) -> str:
    return "" if not np.isfinite(x) else f"{x:.6g}"


def _thread_cap() -> int | None:
    """``UQCAT_THREADS``, the cap on run-stage worker processes, or None when it is unset."""
    raw = os.environ.get("UQCAT_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"UQCAT_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"UQCAT_THREADS must be >= 1, got {n}")
    return n


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def _worker_count(n_jobs: int, cap: int | None) -> int:
    """Run-stage workers: ``cap`` (else the usable cores), but no more than the usable cores or the jobs."""
    cores = _usable_cores()
    return min(cap or cores, cores, n_jobs)


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        x, y, z = (int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"dims must be three integers 'X,Y,Z', got {text!r}")
    return x, y, z


def _parse_radius(text: str) -> tuple[float, float]:
    parts = text.split(",")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"radius must be 'LO,HI', got {text!r}")
    return lo, hi


def _parse_cases(text: str) -> list[int]:
    try:
        return parse_case_selection(text)
    except CaseError as exc:
        raise UsageError(f"bad --cases: {exc}")


def _check_seed(seed: int) -> int:
    """``seed`` when :func:`derive_seed` takes it as a key, checked before a command writes anything."""
    try:
        derive_seed(seed)
    except ValueError as exc:
        raise UsageError(f"bad --seed: {exc}")
    return seed


def _digests(directory: Path, names: list[str]) -> dict[str, str]:
    return {name: _sha256(directory / name) for name in sorted(names)}


def _write_vvol(vol: Volume, path: Path) -> list[str]:
    """Write ``vol``; return the names of the two files written (volume and sidecar)."""
    write_volume(vol, path)
    return [path.name, path.name + ".json"]


# --------------------------------------------------------------------------
# phantom
# --------------------------------------------------------------------------

def cmd_phantom(out: Path, subjects: int, seed: int, dims: tuple[int, int, int], lesions: int,
                radius: tuple[float, float], noise: float, satellite: bool) -> int:
    if subjects < 1:
        raise UsageError(f"--subjects must be >= 1, got {subjects}")
    try:
        spec = PhantomSpec(dims=dims, n_lesions=lesions, radius_range=radius, noise_std=noise, satellite=satellite,
                           seed=derive_seed(seed, "phantom"))
    except VolumeError as exc:
        raise UsageError(str(exc))
    cohort = generate_cohort(spec, subjects)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for i, (img, lab) in enumerate(cohort):
        for tag, vol in (("img", img), ("lab", lab)):
            written.extend(_write_vvol(vol, out / f"sub-{i}_{tag}.vvol"))
    config = {
        "subjects": subjects,
        "dims": list(spec.dims),
        "lesions": spec.n_lesions,
        "radius": list(spec.radius_range),
        "noise": spec.noise_std,
        "satellite": spec.satellite,
        "seed": seed,
    }
    _write_manifest(out / "phantom_manifest.json", "phantom", config=config, outputs=_digests(out, written))
    print(f"wrote {subjects} subjects to {out}")
    return 0


_IMG_RE = re.compile(r"^sub-(0|[1-9]\d*)_img\.vvol$")


def _load_cohort(directory: Path, labels: bool) -> dict[int, tuple[Volume, Volume | None]]:
    """Subjects keyed by the id in their ``sub-<i>_img.vvol`` file name, in id order.

    Labels are read only when ``labels`` is true; otherwise each label is None.
    """
    ids = sorted(int(m.group(1)) for p in directory.glob("sub-*_img.vvol") if (m := _IMG_RE.match(p.name)))
    if not ids:
        raise FileNotFoundError(f"no sub-*_img.vvol files in {directory}")
    cohort = {}
    for sid in ids:
        label = read_volume(directory / f"sub-{sid}_lab.vvol") if labels else None
        cohort[sid] = (read_volume(directory / f"sub-{sid}_img.vvol"), label)
    return cohort


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def cmd_train(data: Path, out: Path, epochs: int, seed: int, holdout: int) -> int:
    try:
        cfg = TrainConfig(epochs=epochs, seed=seed)
    except PredictorError as exc:
        raise UsageError(str(exc))
    if holdout < 0:
        raise UsageError(f"--holdout must be >= 0, got {holdout}")
    cohort = list(_load_cohort(data, labels=True).values())
    if holdout >= len(cohort):
        raise UsageError(f"--holdout {holdout} leaves no training subjects (cohort has {len(cohort)})")
    train_set = cohort[: len(cohort) - holdout] if holdout else cohort
    val_set = cohort[len(cohort) - holdout :] if holdout else None

    model = TinySegmenter(seed=seed)
    history = train(model, train_set, cfg, val_cohort=val_set)
    out.parent.mkdir(parents=True, exist_ok=True)
    model.save(out)

    scores = [dice_score(model.forward(img).data >= 0.5, lab) for img, lab in val_set or []]
    _write_manifest(
        out.parent / (out.stem + "_manifest.json"),
        "train",
        config={"epochs": epochs, "seed": seed, "holdout": holdout},
        final_train_loss=history.train_loss[-1],
        final_val_loss=history.val_loss[-1] if history.val_loss else None,
        holdout_dice=scores or None,
        model={"file": out.name, "sha256": _sha256(out)},
    )
    msg = f"trained {epochs} epochs, final loss {history.train_loss[-1]:.4f}"
    if scores:
        msg += f", holdout dice {np.mean(scores):.3f}"
    print(msg)
    return 0


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def _blas_threads(n: int | None = None) -> int | None:
    """numpy's bundled OpenBLAS thread count, which is then set to ``n`` when given; None where no such library
    is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in map(ctypes.CDLL, glob.glob(libs)):  # the copy numpy has loaded, so no new load
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            count = getter()
            if n is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(n)
            return count
    return None


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
_worker_job = None  # the job function of a forked run-stage worker, set by _init_worker


def _init_worker(job, parent: int) -> None:
    """Set up a forked worker: it dies with ``parent`` and ignores Ctrl-C (the parent handles it and shuts the
    pool down).  It leaves BLAS alone: it inherits one thread from the parent (see :func:`_job_results`)."""
    global _worker_job
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_job = job


def _run_worker_job(job: tuple[int, int]):
    return _worker_job(job)


@contextlib.contextmanager
def _job_results(one_job, jobs: list, workers: int):
    """``one_job`` over ``jobs``, in job order: from ``workers`` forked processes, which inherit ``one_job`` and
    what it holds, or in this process when ``workers`` is 1 or the platform cannot fork.

    A process pool, not ``multiprocessing.Pool``: when a worker dies (killed, out of memory) the pending jobs
    fail with ``BrokenProcessPool`` where a ``Pool`` would wait for them forever.  On leaving, jobs not yet
    started are cancelled and the running ones finished.

    The workers run BLAS on one thread, since they already keep every core busy.  This process drops to one
    BLAS thread before it forks them (at the first submit), and OpenBLAS shuts its thread pool down at a fork,
    so each worker inherits one thread and never builds a pool, whose threads would busy-wait beside its jobs.
    The previous count comes back only once the pool is shut down, so this process builds no pool of its own
    while the workers run.
    """
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield map(one_job, jobs)
        return
    threads = _blas_threads(1)
    try:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_init_worker, initargs=(one_job, os.getpid()))
        try:
            yield pool.map(_run_worker_job, jobs)
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        if threads is not None:
            _blas_threads(threads)


def cmd_run(model: Path, subjects: Path, out: Path, samples: int, seed: int, cases: list[int], binarize: bool) -> int:
    if samples < 2:
        raise UsageError(f"--samples must be >= 2, got {samples}")
    cap = _thread_cap()
    segmenter = TinySegmenter.load(model)
    cohort = _load_cohort(subjects, labels=False)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(sid, cid) for sid in cohort for cid in cases]

    def one_job(job: tuple[int, int]):
        sid, cid = job
        stack = run_case(
            segmenter,
            cohort[sid][0],
            get_case(cid),
            n_samples=samples,
            seed=derive_seed(seed, "run", sid),
            subject_id=sid,
            binarize=binarize,
        )
        return job, uncertainty_maps(stack), stack.pass_records

    written: list[str] = []
    passes: dict[str, dict] = {}
    with _job_results(one_job, jobs, _worker_count(len(jobs), cap)) as results:
        for (sid, cid), maps, records in results:
            for tag, vol in (("mean", maps.mean), ("var", maps.variance), ("ent", maps.entropy)):
                written.extend(_write_vvol(vol, out / f"sub-{sid}_case-{cid}_{tag}.vvol"))
            passes.setdefault(f"subject-{sid}", {})[f"case-{cid}"] = list(records)

    _write_manifest(
        out / "run_manifest.json",
        "run",
        config={"samples": samples, "seed": seed, "cases": cases, "binarize": binarize},
        model={"file": model.name, "sha256": _sha256(model)},
        inputs={f"sub-{sid}_img.vvol": _sha256(subjects / f"sub-{sid}_img.vvol") for sid in cohort},
        passes=passes,
        outputs=_digests(out, written),
    )
    print(f"wrote {len(jobs)} case maps for {len(cohort)} subjects to {out}")
    return 0


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

_ENT_RE = re.compile(r"^sub-(0|[1-9]\d*)_case-(0|[1-9]\d*)_ent\.vvol$")


def _write_matrix_csv(path: Path, matrix: analysis.CorrelationMatrix) -> None:
    lines = ["case," + ",".join(str(c) for c in matrix.case_ids)]
    for i, cid in enumerate(matrix.case_ids):
        lines.append(f"{cid}," + ",".join(_fmt(x) for x in matrix.values[i]))
    path.write_text("\n".join(lines) + "\n")


def cmd_analyze(maps: Path, out: Path) -> int:
    found: dict[int, dict[int, Path]] = {}
    for p in maps.glob("sub-*_case-*_ent.vvol"):
        m = _ENT_RE.match(p.name)
        if m:
            found.setdefault(int(m.group(1)), {})[int(m.group(2))] = p
    if not found:
        raise FileNotFoundError(f"no sub-*_case-*_ent.vvol maps in {maps}")
    subjects = sorted(found)
    case_ids = sorted(found[subjects[0]])
    for sid in subjects:
        if sorted(found[sid]) != case_ids:
            raise UsageError(f"subject {sid} has cases {sorted(found[sid])}, expected {case_ids}")
    if len(case_ids) < 2:
        raise UsageError(f"{maps} holds maps of case {case_ids[0]} only; analyze needs >= 2 cases")
    # every subject is analyzed before --out exists, so a failing subject leaves no partial tree
    results = []
    summary = ["subject,case,mean_nonzero_entropy,count"]
    for sid in subjects:
        ent_maps = {cid: read_volume(found[sid][cid]) for cid in case_ids}
        median, iqr = analysis.voxelwise_median_iqr([ent_maps[c] for c in case_ids])
        mask = analysis.entropy_support_mask(median)
        matrix = analysis.correlation_matrix(ent_maps, mask, subject=sid)
        for cid in case_ids:
            mean_nz, count = analysis.mean_nonzero_entropy(ent_maps[cid])
            summary.append(f"{sid},{cid},{_fmt(mean_nz)},{count}")
        results.append((sid, median, iqr, mask, matrix))
    mean_matrix = analysis.mean_correlation_matrix([matrix for *_, matrix in results])

    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for sid, median, iqr, mask, matrix in results:
        for name, vol in (
            (f"median_ent_sub-{sid}.vvol", median),
            (f"iqr_ent_sub-{sid}.vvol", iqr),
            (f"mask_sub-{sid}.vvol", Volume(mask.bits.astype(np.float32), median.spacing)),
        ):
            written.extend(_write_vvol(vol, out / name))
        _write_matrix_csv(out / f"corr_sub-{sid}.csv", matrix)
        written.append(f"corr_sub-{sid}.csv")

    _write_matrix_csv(out / "corr_mean.csv", mean_matrix)
    written.append("corr_mean.csv")

    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    written.append("summary.csv")

    _write_manifest(
        out / "analyze_manifest.json",
        "analyze",
        config={"subjects": subjects, "cases": case_ids, "quantile_method": "linear-interpolation"},
        inputs={found[sid][cid].name: _sha256(found[sid][cid]) for sid in subjects for cid in case_ids},
        outputs=_digests(out, written),
    )
    print(f"analyzed {len(subjects)} subjects x {len(case_ids)} cases into {out}")
    return 0


# --------------------------------------------------------------------------
# cases
# --------------------------------------------------------------------------

def _case_table() -> list[str]:
    sc, rot = augment.AFFINE_SCALE_RANGE, augment.AFFINE_ROTATION_RANGE
    tr = augment.AFFINE_TRANSLATION_RANGE
    gs = augment.GHOST_STRENGTH_RANGE
    bc = augment.BIAS_COEFF_MAX

    def affine_desc(lvl: str) -> str:
        return (
            f"scale U({sc[lvl][0]:.2f},{sc[lvl][1]:.2f}), rot(deg) U({rot[lvl][0]:g},{rot[lvl][1]:g}), "
            f"trans(mm) U({tr[0]:g},{tr[1]:g})"
        )

    def ghost_desc(lvl: str) -> str:
        return f"strength U({gs[lvl][0]:.2f},{gs[lvl][1]:.2f}), ghosts U{{2..6}}, axis {augment.GHOST_AXIS}"

    def bias_desc(lvl: str) -> str:
        return f"order {augment.BIAS_ORDER}, |coeff| <= {bc[lvl]}"

    def combined_desc(lvl: str) -> str:
        return (
            f"affine U({sc[lvl][0]:.2f},{sc[lvl][1]:.2f})/U({rot[lvl][0]:g},{rot[lvl][1]:g}), "
            f"ghost U({gs[lvl][0]:.2f},{gs[lvl][1]:.2f}), bias {bc[lvl]}"
        )

    family_desc = {"affine": affine_desc, "ghosting": ghost_desc, "bias": bias_desc, "combined": combined_desc}
    rows = ["id  kind  parameters"]
    for case in CASES:
        if case.kind == "ttd":
            rows.append(f"{case.id:>2}  TTD   dropout {case.dropout_rate:.2f}")
        else:
            rows.append(f"{case.id:>2}  TTA   {case.family} {case.level}: {family_desc[case.family](case.level)}")
    return rows


def cmd_cases() -> int:
    print("\n".join(_case_table()))
    return 0


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------

DEFAULT_CONFIG: dict = {
    "seed": 1234,
    "phantom": {
        "subjects": 8,
        "dims": [32, 32, 16],
        "lesions": 1,
        "radius": [2.5, 4.5],
        "noise": 0.05,
        "satellite": False,
    },
    "train": {"epochs": 30, "holdout": 0},
    "run": {"samples": 50, "cases": "1-14", "binarize": False},
    "analyze": {},
}


def _load_config(p: Path) -> dict:
    if not p.exists():
        raise UsageError(f"no such config file: {p}")
    try:
        loaded = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed config {p.name}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise UsageError(f"malformed config {p.name}: nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"malformed config {p.name}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise UsageError(f"unreadable config {p.name}: {exc.strerror}") from None
    if not isinstance(loaded, dict):
        raise UsageError(f"config {p.name} must be a JSON object")
    return loaded


def _merge_config(file_cfg: dict, model: Path | None, seed: int | None, samples: int | None,
                  subjects: int | None, epochs: int | None) -> dict:
    """Precedence: flags > config file > defaults.  ``"train": null`` or ``--model`` disables training.

    A section or section key that the defaults lack is a ``ValueError``.
    """
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    for section, value in file_cfg.items():
        if section not in cfg:
            raise ValueError(f"unknown section {section!r}")
        if isinstance(value, dict) and isinstance(cfg[section], dict):
            unknown = sorted(set(value) - set(cfg[section]))
            if unknown:
                raise ValueError(f"unknown key {section}.{unknown[0]}")
            cfg[section].update(value)
        else:
            cfg[section] = value
    if cfg.get("train") is None or model:
        cfg.pop("train", None)  # disabled, or the model is supplied externally
    if seed is not None:
        cfg["seed"] = seed
    if samples is not None:
        cfg.setdefault("run", {})["samples"] = samples
    if subjects is not None:
        cfg.setdefault("phantom", {})["subjects"] = subjects
    if epochs is not None and "train" in cfg:
        cfg["train"]["epochs"] = epochs
    return cfg


def _json_value(key: str, value, kind: type):
    """``value`` when its JSON type is ``kind`` (int, float or bool): ``true`` is no number, ``2.7`` or ``"1"`` no
    integer.  A float ``kind`` takes any JSON number and returns it as a float."""
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ValueError(f"{key} must be a JSON {({int: 'integer', float: 'number', bool: 'boolean'})[kind]}, "
                         f"got {value!r}")
    return value


def _stage_args(cfg: dict) -> tuple[dict, dict | None, dict]:
    """Typed phantom/train/run arguments, seeds included; ``cfg`` itself is left as written."""
    seed, phantom, run = _json_value("seed", cfg["seed"], int), cfg["phantom"], cfg["run"]
    x, y, z = (_json_value("phantom.dims", d, int) for d in phantom["dims"])
    lo, hi = (_json_value("phantom.radius", r, float) for r in phantom["radius"])
    phantom_args = dict(subjects=_json_value("phantom.subjects", phantom["subjects"], int), seed=seed, dims=(x, y, z),
                        lesions=_json_value("phantom.lesions", phantom["lesions"], int), radius=(lo, hi),
                        noise=_json_value("phantom.noise", phantom["noise"], float),
                        satellite=_json_value("phantom.satellite", phantom["satellite"], bool))
    if phantom_args["subjects"] < 1:
        raise ValueError(f"phantom.subjects must be >= 1, got {phantom_args['subjects']}")
    if x % 2 or y % 2:  # the segmenter pools each slice 2x2
        raise ValueError(f"phantom.dims in-plane size {(x, y)} must be even for the segmenter")
    # rejects the lesion count, radius range, noise and dims that cmd_phantom's spec would
    PhantomSpec(dims=(x, y, z), n_lesions=phantom_args["lesions"], radius_range=(lo, hi),
                noise_std=phantom_args["noise"])
    train_args = None
    if "train" in cfg:
        train_args = dict(epochs=_json_value("train.epochs", cfg["train"]["epochs"], int),
                          seed=derive_seed(seed, "train-stage"),
                          holdout=_json_value("train.holdout", cfg["train"]["holdout"], int))
        if train_args["holdout"] < 0:
            raise ValueError(f"train.holdout must be >= 0, got {train_args['holdout']}")
        if train_args["holdout"] >= phantom_args["subjects"]:
            raise ValueError(f"holdout {train_args['holdout']} leaves no training subjects")
        TrainConfig(epochs=train_args["epochs"])  # rejects epochs < 1
    run_args = dict(samples=_json_value("run.samples", run["samples"], int), seed=derive_seed(seed, "run-stage"),
                    cases=parse_case_selection(str(run["cases"])),
                    binarize=_json_value("run.binarize", run["binarize"], bool))
    if run_args["samples"] < 2:
        raise ValueError(f"run samples must be >= 2, got {run_args['samples']}")
    if len(run_args["cases"]) < 2:
        raise ValueError(f"run cases {run['cases']!r} name fewer than 2 cases; analyze needs >= 2")
    return phantom_args, train_args, run_args


def cmd_pipeline(out: Path, config: Path | None = None, model: Path | None = None, seed: int | None = None,
                 samples: int | None = None, subjects: int | None = None, epochs: int | None = None) -> int:
    file_cfg = _load_config(config) if config else {}
    try:
        cfg = _merge_config(file_cfg, model, seed, samples, subjects, epochs)
        phantom_args, train_args, run_args = _stage_args(cfg)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config {config.name if config else '(defaults)'}: {exc}") from None
    if train_args is None and not model:
        raise UsageError("config has no 'train' section and no --model was given")
    _thread_cap()  # reject a bad UQCAT_THREADS before any stage writes

    stage = "phantom"
    try:
        print(f"[pipeline] stage phantom -> {out / 'phantoms'}", file=sys.stderr)
        cmd_phantom(out / "phantoms", **phantom_args)

        if train_args is not None:
            stage = "train"
            model = out / "model.uqp"
            print(f"[pipeline] stage train -> {model}", file=sys.stderr)
            cmd_train(out / "phantoms", model, **train_args)
        else:
            print(f"[pipeline] stage train skipped, using {model}", file=sys.stderr)

        stage = "run"
        print(f"[pipeline] stage run -> {out / 'maps'}", file=sys.stderr)
        cmd_run(model, out / "phantoms", out / "maps", **run_args)

        stage = "analyze"
        print(f"[pipeline] stage analyze -> {out / 'analysis'}", file=sys.stderr)
        cmd_analyze(out / "maps", out / "analysis")
    except UsageError:
        raise
    except Exception as exc:
        print(f"[pipeline] stage '{stage}' failed: {_describe(exc)}", file=sys.stderr)
        return 1

    names = [f"{sub}/{p.name}" for sub in ("phantoms", "maps", "analysis")
             for p in (out / sub).iterdir() if p.is_file()]
    if train_args is not None:
        names += ["model.uqp", "model_manifest.json"]
    _write_manifest(out / "pipeline_manifest.json", "pipeline", effective_config=cfg, outputs=_digests(out, names))
    print(f"pipeline complete: {out}")
    return 0


# --------------------------------------------------------------------------
# parser / entry
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uqcat", description="Voxelwise uncertainty-category mapping")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic subject cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="32,32,16")
    p.add_argument("--lesions", type=int, default=1)
    p.add_argument("--radius", default="2.5,4.5", help="lesion radius range LO,HI in voxels")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--satellite", action="store_true")
    p.set_defaults(func=lambda a: cmd_phantom(
        Path(a.out), a.subjects, _check_seed(a.seed), _parse_dims(a.dims), a.lesions, _parse_radius(a.radius), a.noise,
        a.satellite))

    p = sub.add_parser("train", help="train the built-in segmenter")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--holdout", type=int, default=0, help="trailing subjects held out for validation")
    p.set_defaults(func=lambda a: cmd_train(Path(a.data), Path(a.out), a.epochs, _check_seed(a.seed), a.holdout))

    p = sub.add_parser("run", help="sample uncertainty cases and write voxelwise maps")
    p.add_argument("--model", required=True)
    p.add_argument("--subjects", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", default="1-14")
    p.add_argument("--binarize", action="store_true")
    p.set_defaults(func=lambda a: cmd_run(
        Path(a.model), Path(a.subjects), Path(a.out), a.samples, _check_seed(a.seed), _parse_cases(a.cases),
        a.binarize))

    p = sub.add_parser("analyze", help="cross-case correlation and stability analytics")
    p.add_argument("--maps", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda a: cmd_analyze(Path(a.maps), Path(a.out)))

    p = sub.add_parser("cases", help="print the uncertainty case registry")
    p.add_argument("--list", action="store_true", default=True)
    p.set_defaults(func=lambda a: cmd_cases())

    p = sub.add_parser("pipeline", help="run phantom/train/run/analyze from a JSON config")
    p.add_argument("--config", required=False)
    p.add_argument("--out", required=True)
    p.add_argument("--model", help="skip training and use this checkpoint")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--subjects", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=lambda a: cmd_pipeline(
        Path(a.out), a.config and Path(a.config), a.model and Path(a.model), a.seed, a.samples, a.subjects, a.epochs))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {_describe(exc)}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it


def entry() -> None:
    sys.exit(main())
