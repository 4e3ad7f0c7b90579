"""In-memory span tracer for traced runs, and the per-layer metrics built from it.

A traced unit replaces uqcat's public functions where their callers look
them up (module and class attributes) with wrappers that record one span
per call: id, name, start, end, parent span, job (subject, case), process
CPU seconds and a few call facts.  Nothing under ``src/`` changes and the
wrappers are removed before the unit's outputs are checked.  A layer's self
time is its span minus the union of its children's spans.

``LAYER_METRICS`` is the per-layer -> end-to-end map: each entry names the
end-to-end metric (and workload) the layer metric should move.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ALL = "all workloads"
SWEEPS = "ttd_sweep, tta_sweep"
COLD = "cold_pipeline"

# (name, unit, better, end-to-end metric it should move @ workloads)
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("cli.phantom_s", "s", "lower", f"wall_s @ {COLD}; setup_s @ {SWEEPS}"),
    ("cli.train_s", "s", "lower", f"wall_s @ {COLD}; setup_s @ {SWEEPS}"),
    ("cli.run_s", "s", "lower", f"wall_s @ {ALL}"),
    ("cli.analyze_s", "s", "lower", f"wall_s @ {ALL}"),
    ("cli.run_self_s", "s", "lower", f"wall_s @ {COLD}"),
    ("cli.run_cpu_s_per_pass", "s", "lower", f"passes_per_s @ {SWEEPS}"),
    ("cli.job_concurrency", "ratio", "higher", f"passes_per_s @ {SWEEPS}"),
    ("predictor.forward_ttd_ms.p50", "ms", "lower", "passes_per_s @ ttd_sweep"),
    ("predictor.forward_ttd_ms.tail", "ms", "lower", "passes_per_s @ ttd_sweep"),
    ("predictor.forward_ttd_ms.tail_pct", "%", "higher", "percentile reported as .tail"),
    ("predictor.forward_ttd_ms.n", "count", "higher", "samples behind .p50/.tail"),
    ("predictor.forward_det_ms.p50", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("predictor.forward_det_ms.tail", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("predictor.forward_det_ms.tail_pct", "%", "higher", "percentile reported as .tail"),
    ("predictor.forward_det_ms.n", "count", "higher", "samples behind .p50/.tail"),
    ("predictor.forward_calls", "count", "lower", f"passes_per_s @ {ALL}"),
    ("predictor.train_s", "s", "lower", f"wall_s @ {COLD}; setup_s @ {SWEEPS}"),
    ("predictor.train_step_ms", "ms", "lower", f"wall_s @ {COLD}; setup_s @ {SWEEPS}"),
    ("predictor.load_ms", "ms", "lower", f"wall_s @ {ALL}"),
    ("predictor.conv_mflop_per_pass", "MFLOP", "lower", "computed from PredictorConfig and dims"),
    ("predictor.conv_mb_per_pass", "MB", "lower", "computed minimum bytes of conv inputs, weights, outputs"),
    ("predictor.forward_gflops", "GFLOP/s", "higher", f"passes_per_s @ {SWEEPS}"),
    ("augment.apply_transform_ms.p50", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("augment.apply_transform_ms.tail", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("augment.apply_transform_ms.tail_pct", "%", "higher", "percentile reported as .tail"),
    ("augment.apply_transform_ms.n", "count", "higher", "samples behind .p50/.tail"),
    ("augment.apply_affine_ms.p50", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("augment.apply_affine_inverse_ms.p50", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("augment.apply_ghosting_ms.p50", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("augment.apply_bias_ms.p50", "ms", "lower", "passes_per_s @ tta_sweep"),
    ("augment.sample_transform_us.p50", "us", "lower", "passes_per_s @ tta_sweep"),
    ("augment.calls", "count", "lower", "passes_per_s @ tta_sweep; 0 on ttd_sweep"),
    ("uq.run_case_s.p50", "s", "lower", f"passes_per_s @ {SWEEPS}"),
    ("uq.run_case_s.tail", "s", "lower", f"passes_per_s @ {SWEEPS}"),
    ("uq.run_case_s.tail_pct", "%", "higher", "percentile reported as .tail"),
    ("uq.run_case_s.n", "count", "higher", "samples behind .p50/.tail"),
    ("uq.pass_self_ms", "ms", "lower", f"passes_per_s @ {SWEEPS}"),
    ("uq.uncertainty_maps_ms.p50", "ms", "lower", f"passes_per_s @ {SWEEPS}"),
    ("uq.stack_mb", "MB", "lower", f"peak_rss_mb @ {ALL}; computed: passes x voxels x (4 + 8) bytes"),
    ("uq.jobs", "count", "higher", "jobs behind the uq metrics"),
    ("analysis.voxelwise_median_iqr_ms.p50", "ms", "lower", f"wall_s @ {COLD}"),
    ("analysis.correlation_matrix_ms.p50", "ms", "lower", f"wall_s @ {COLD}"),
    ("analysis.spatial_correlation_calls", "count", "lower", f"wall_s @ {COLD}"),
    ("analysis.mean_nonzero_entropy_ms.p50", "ms", "lower", f"wall_s @ {COLD}"),
    ("analysis.mean_correlation_matrix_ms", "ms", "lower", f"wall_s @ {COLD}"),
    ("volume.write_volume_ms.p50", "ms", "lower", f"wall_s @ {COLD}"),
    ("volume.write_calls", "count", "lower", f"wall_s @ {COLD}"),
    ("volume.bytes_written", "byte", "lower", f"wall_s @ {COLD}"),
    ("volume.read_volume_ms.p50", "ms", "lower", f"wall_s @ {COLD}"),
    ("volume.read_calls", "count", "lower", f"wall_s @ {COLD}"),
    ("phantom.generate_cohort_s", "s", "lower", f"setup_s @ {SWEEPS}; wall_s @ {COLD}"),
    ("trace.overhead_frac", "ratio", "lower", "traced / untraced wall_s - 1"),
    ("trace.spans", "count", "lower", "spans recorded per unit"),
    ("check.bit_identical_jobs", "count", "higher", "jobs whose output bytes match committed digests"),
]

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Records spans from wrapped functions; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job, cpu_s, info)
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _frame(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.job = [], None
        return local

    def wrap(self, owner, attr: str, name: str, job=None, info=None) -> None:
        """Replace ``owner.attr``; ``job``/``info`` map (bound args, result) to span facts."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._frame()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            parent = frame.stack[-1] if frame.stack else None
            span_id = next(tracer._ids)
            outer_job = frame.job
            if job is not None:
                frame.job = job(bound.arguments)
            frame.stack.append(span_id)
            result, returned = None, False
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter()
                cpu = time.process_time() - cpu0
                frame.stack.pop()
                span_job = frame.job
                frame.job = outer_job
                facts = info(bound.arguments, result) if info is not None and returned else None
                tracer.spans.append((span_id, name, t0, t1, parent, span_job, cpu, facts))

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


def _file_bytes(path) -> int:
    p = Path(path)
    side = p.with_name(p.name + ".json")
    return p.stat().st_size + (side.stat().st_size if side.exists() else 0)


def _train_steps(a, _result) -> dict:
    cohort, cfg = a["cohort"], a["cfg"]
    nz = cohort[0][0].dims[2]
    return {"steps": cfg.epochs * len(cohort) * max(1, nz // cfg.batch_slices)}


def install(tracer: Tracer) -> None:
    """Wrap every public boundary the benchmark reports on."""
    from uqcat import analysis, augment, cli
    from uqcat.predictor import TinySegmenter

    for stage in ("phantom", "train", "run", "analyze", "pipeline"):
        tracer.wrap(cli, f"cmd_{stage}", f"cli.{stage}")
    tracer.wrap(cli, "run_case", "uq.run_case",
                job=lambda a: (int(a["subject_id"]), int(a["case"].id)),
                info=lambda a, r: {"passes": int(a["n_samples"]), "voxels": int(a["image"].n_voxels)})
    tracer.wrap(cli, "uncertainty_maps", "uq.uncertainty_maps",
                job=lambda a: (int(a["stack"].subject_id), int(a["stack"].case_id)))
    tracer.wrap(cli, "train", "predictor.train", info=_train_steps)
    tracer.wrap(cli, "generate_cohort", "phantom.generate_cohort")
    tracer.wrap(cli, "read_volume", "volume.read_volume", info=lambda a, r: {"bytes": _file_bytes(a["path"])})
    tracer.wrap(cli, "write_volume", "volume.write_volume", info=lambda a, r: {"bytes": _file_bytes(a["path"])})
    tracer.wrap(TinySegmenter, "forward", "predictor.forward",
                info=lambda a, r: {"rate": float(a["dropout_rate"]), "dims": tuple(a["v"].dims)})
    tracer.wrap(TinySegmenter, "load", "predictor.load",
                info=lambda a, r: {"config": (r.config.context_slices, r.config.n_blocks, r.config.base_filters)})
    for fn in ("apply_transform", "apply_affine", "apply_affine_inverse", "apply_ghosting", "apply_bias",
               "sample_transform"):
        tracer.wrap(augment, fn, f"augment.{fn}")
    for fn in ("voxelwise_median_iqr", "entropy_support_mask", "correlation_matrix", "spatial_correlation",
               "mean_correlation_matrix", "mean_nonzero_entropy"):
        tracer.wrap(analysis, fn, f"analysis.{fn}")


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def conv_counts(config: tuple[int, int, int], dims: tuple[int, int, int]) -> tuple[float, float]:
    """(MFLOP, MB) of one forward pass's convolutions, computed from the layer shapes.

    Bytes are the minimum traffic: each conv reads its input, weights and
    bias once and writes its output once, in float32.
    """
    ctx, n_blocks, base = config
    nx, ny, nz = dims
    filters = [base * 2**i for i in range(n_blocks)]
    convs = []  # (c_in, c_out, ksize, h, w)
    c_in, h, w = 2 * ctx + 1, nx, ny
    for i in range(n_blocks - 1):
        convs.append((c_in, filters[i], 3, h, w))
        c_in, h, w = filters[i], h // 2, w // 2
    convs.append((c_in, filters[-1], 3, h, w))
    for i in reversed(range(n_blocks - 1)):
        h, w = h * 2, w * 2
        convs.append((filters[i + 1] + filters[i], filters[i], 3, h, w))
    convs.append((filters[0], 1, 1, h, w))
    flop = sum(2 * nz * h * w * ci * co * k * k for ci, co, k, h, w in convs)
    nbytes = sum(4 * (nz * ci * h * w + co * ci * k * k + co + nz * co * h * w) for ci, co, k, h, w in convs)
    return flop / 1e6, nbytes / 1e6


def _self_time(span, children) -> float:
    """Span duration minus the part of it that its children's spans cover."""
    start, end = span[2], span[3]
    covered, cursor = 0.0, start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, cursor), min(c1, end)
        if c1 > c0:
            covered += c1 - c0
            cursor = c1
    return (end - start) - covered


def unit_layers(spans: list[tuple]) -> dict:
    """Scalars, counts and sample lists of one traced unit.

    Stage times (``cli.*_s``, ``predictor.train_s`` and the like) are per
    call, so they compare with one repetition's ``wall_s``; counts cover the
    whole unit: its set-up and every repetition.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))

    def dur(name):
        return [s[3] - s[2] for s in by_name[name]]

    def total(name):
        return float(sum(dur(name)))

    def per_call(name):
        return total(name) / len(by_name[name]) if by_name[name] else 0.0

    def self_per_call(name):
        calls = by_name[name]
        return float(sum(_self_time(s, children[s[0]]) for s in calls)) / len(calls) if calls else 0.0

    runs = by_name["uq.run_case"]
    passes = sum(s[7]["passes"] for s in runs if s[7])
    forwards = by_name["predictor.forward"]
    loads = [s[7]["config"] for s in by_name["predictor.load"] if s[7]]
    mflop = mb = 0.0
    if loads and forwards and forwards[0][7]:
        mflop, mb = conv_counts(loads[0], forwards[0][7]["dims"])
    forward_s = total("predictor.forward")
    run_s = total("cli.run")
    train_s = total("predictor.train")
    steps = sum(s[7]["steps"] for s in by_name["predictor.train"] if s[7])
    augment_calls = sum(len(v) for k, v in by_name.items() if k.startswith("augment."))
    scalars = {
        "cli.phantom_s": per_call("cli.phantom"),
        "cli.train_s": per_call("cli.train"),
        "cli.run_s": per_call("cli.run"),
        "cli.analyze_s": per_call("cli.analyze"),
        "cli.run_self_s": self_per_call("cli.run"),
        "cli.run_cpu_s_per_pass": sum(s[6] for s in by_name["cli.run"]) / passes if passes else 0.0,
        "cli.job_concurrency": total("uq.run_case") / run_s if run_s else 0.0,
        "predictor.train_s": per_call("predictor.train"),
        "predictor.train_step_ms": 1e3 * train_s / steps if steps else 0.0,
        "predictor.load_ms": 1e3 * per_call("predictor.load"),
        "predictor.forward_gflops": mflop * len(forwards) / forward_s / 1e3 if forward_s else 0.0,
        "uq.pass_self_ms": 1e3 * sum(_self_time(s, children[s[0]]) for s in runs) / passes if passes else 0.0,
        "analysis.mean_correlation_matrix_ms": 1e3 * per_call("analysis.mean_correlation_matrix"),
        "phantom.generate_cohort_s": per_call("phantom.generate_cohort"),
    }
    counts = {
        "predictor.forward_calls": len(forwards),
        "predictor.conv_mflop_per_pass": round(mflop, 6),
        "predictor.conv_mb_per_pass": round(mb, 6),
        "augment.calls": augment_calls,
        "uq.stack_mb": round(max((s[7]["passes"] * s[7]["voxels"] * 12 / 1e6 for s in runs if s[7]),
                                 default=0.0), 6),
        "uq.jobs": len(runs),
        "analysis.spatial_correlation_calls": len(by_name["analysis.spatial_correlation"]),
        "volume.write_calls": len(by_name["volume.write_volume"]),
        "volume.bytes_written": sum(s[7]["bytes"] for s in by_name["volume.write_volume"] if s[7]),
        "volume.read_calls": len(by_name["volume.read_volume"]),
        "trace.spans": len(spans),
    }
    ms = [1e3 * (s[3] - s[2]) for s in forwards]
    samples = {
        "predictor.forward_ttd_ms": [t for t, s in zip(ms, forwards) if s[7] and s[7]["rate"] > 0.0],
        "predictor.forward_det_ms": [t for t, s in zip(ms, forwards) if s[7] and s[7]["rate"] == 0.0],
        "uq.run_case_s": dur("uq.run_case"),
        "uq.uncertainty_maps_ms": [1e3 * t for t in dur("uq.uncertainty_maps")],
        "augment.sample_transform_us": [1e6 * t for t in dur("augment.sample_transform")],
        "volume.write_volume_ms": [1e3 * t for t in dur("volume.write_volume")],
        "volume.read_volume_ms": [1e3 * t for t in dur("volume.read_volume")],
    }
    for fn in ("apply_transform", "apply_affine", "apply_affine_inverse", "apply_ghosting", "apply_bias"):
        samples[f"augment.{fn}_ms"] = [1e3 * t for t in dur(f"augment.{fn}")]
    for fn in ("voxelwise_median_iqr", "correlation_matrix", "mean_nonzero_entropy"):
        samples[f"analysis.{fn}_ms"] = [1e3 * t for t in dur(f"analysis.{fn}")]
    return {"scalars": scalars, "counts": counts, "samples": samples}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest ladder percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies; the maximum is
    reported with percentile 100.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return float(np.percentile(values, pct)), pct
    return (float(max(values)) if values else 0.0), 100.0


def aggregate(units: list[dict], untraced_wall: float, traced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics over a run's traced units, and any count that failed to repeat."""
    out: dict[str, float] = {}
    for key in units[0]["scalars"]:
        out[key] = statistics.median(u["scalars"][key] for u in units)
    mismatched = []
    for key in units[0]["counts"]:
        values = {u["counts"][key] for u in units}
        if len(values) != 1:
            mismatched.append(f"{key} took values {sorted(values)} across units")
        out[key] = units[0]["counts"][key]
    pooled = {key: [v for u in units for v in u["samples"][key]] for key in units[0]["samples"]}
    for key, values in pooled.items():
        out[f"{key}.p50"] = float(np.median(values)) if values else 0.0
    for key in ("predictor.forward_ttd_ms", "predictor.forward_det_ms", "augment.apply_transform_ms",
                "uq.run_case_s"):
        out[f"{key}.tail"], out[f"{key}.tail_pct"] = tail(pooled[key])
        out[f"{key}.n"] = len(pooled[key])
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out, mismatched
