"""The 14 uncertainty cases and the Monte-Carlo sampling engine.

Cases 1-6 are test-time dropout (epistemic source): repeated forward passes
with channel dropout at rates 0.03, 0.06, 0.09, 0.12, 0.15 and 0.40.
Cases 7-14 are test-time augmentation (aleatoric source): repeated forward
passes on a randomly perturbed input, in the order affine-low, ghosting-low,
bias-low, combined-low, affine-high, ghosting-high, bias-high, combined-high.
Categories are kept pure: dropout passes see the unaugmented image, and
augmented passes run with dropout rate 0, so each map is attributable to a
single uncertainty source.

Spatial (affine) perturbations are inverted on the predicted probability
volume so all samples live on the original grid; intensity artefacts need
no output mapping.  Per-pass seeds are derived from (seed, case id, pass),
making results independent of execution order and parallelism.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import augment
from .predictor import Predictor
from .seeding import derive_rng, derive_seed
from .volume import Volume, VolumeError

TTD_RATES = (0.03, 0.06, 0.09, 0.12, 0.15, 0.40)
TTA_FAMILIES = (
    ("affine", "low"),
    ("ghosting", "low"),
    ("bias", "low"),
    ("combined", "low"),
    ("affine", "high"),
    ("ghosting", "high"),
    ("bias", "high"),
    ("combined", "high"),
)


class CaseError(ValueError):
    """Unknown or inapplicable uncertainty case."""


@dataclass(frozen=True)
class CaseSpec:
    """One uncertainty case: a dropout rate (ttd) or a transform family+range (tta)."""

    id: int
    kind: str  # "ttd" | "tta"
    dropout_rate: float | None = None
    family: str | None = None
    level: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "ttd":
            return f"TTD dropout {self.dropout_rate:.2f}"
        return f"TTA {self.family} {self.level}"


CASES: tuple[CaseSpec, ...] = tuple(
    [CaseSpec(i + 1, "ttd", dropout_rate=r) for i, r in enumerate(TTD_RATES)]
    + [
        CaseSpec(7 + i, "tta", family=fam, level=lvl)
        for i, (fam, lvl) in enumerate(TTA_FAMILIES)
    ]
)


def get_case(case_id: int) -> CaseSpec:
    if not 1 <= case_id <= len(CASES):
        raise CaseError(f"case id must be 1..{len(CASES)}, got {case_id}")
    return CASES[case_id - 1]


def parse_case_selection(text: str) -> list[int]:
    """Parse selections like '1-14', '1,3,7' or '1-6,10'; each id may appear once."""
    ids: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                lo, hi = part.split("-", 1)
                span = list(range(int(lo), int(hi) + 1))
                if not span:
                    raise CaseError(f"empty case range {part!r}")
                ids.extend(span)
            elif part:
                ids.append(int(part))
    except ValueError as exc:
        raise CaseError(f"bad case selection {text!r}: {exc}") from exc
    if not ids:
        raise CaseError(f"no case ids in {text!r}")
    for i in ids:
        get_case(i)
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise CaseError(f"case selection {text!r} repeats case id(s) {', '.join(map(str, repeated))}")
    return ids


@dataclass(frozen=True)
class SampleStack:
    """N per-voxel probability samples for one (subject, case)."""

    case_id: int
    subject_id: int
    samples: np.ndarray  # (n, nx, ny, nz) float32 in [0, 1]
    spacing: tuple[float, float, float]
    pass_records: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float32)
        if arr.ndim != 4 or arr.shape[0] < 2:
            raise VolumeError(f"sample stack needs >= 2 samples of 3-D volumes, got shape {arr.shape}")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # false for NaN too: min and max propagate it
            raise VolumeError("sample probabilities must be finite and lie in [0, 1]")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.samples.shape[1:]  # type: ignore[return-value]


@dataclass(frozen=True)
class UncertaintyMaps:
    """Voxelwise mean, variance and entropy (bits) of a sample stack."""

    mean: Volume
    variance: Volume
    entropy: Volume


def run_case(
    pred: Predictor,
    image: Volume,
    case: CaseSpec,
    n_samples: int = 50,
    seed: int = 0,
    subject_id: int = 0,
    binarize: bool = False,
) -> SampleStack:
    """Collect ``n_samples`` stochastic predictions for one (subject, case).

    Dropout cases run the predictor's dropout passes on the original image
    at the case's rate with a fresh derived seed per pass, in one
    ``dropout_passes`` call.  Augmentation cases perturb the image, predict
    deterministically, and map affine components back to the original
    grid.  ``binarize`` thresholds each sample at 0.5 before stacking (off
    by default; summary statistics then describe hard-vote distributions
    instead of soft probabilities).  An exception from a pass gets a note
    (``__notes__``, PEP 678) naming the subject, case and pass.
    """
    if n_samples < 2:
        raise VolumeError(f"need at least 2 samples, got {n_samples}")
    samples = np.empty((n_samples,) + image.dims, dtype=np.float32)
    records: list[dict] = []
    passes = _passes(pred, image, case, seed, n_samples)
    for i in range(n_samples):
        try:
            prob, record = next(passes)
        except Exception as exc:
            # what add_note does; Python 3.10 has no add_note
            exc.__notes__ = [*getattr(exc, "__notes__", ()), f"subject {subject_id}, case {case.id}, pass {i}"]
            raise
        records.append(record)
        arr = np.clip(prob.data, 0.0, 1.0)
        samples[i] = (arr > 0.5).astype(np.float32) if binarize else arr
    return SampleStack(case.id, subject_id, samples, image.spacing, tuple(records))


def _passes(pred: Predictor, image: Volume, case: CaseSpec, seed: int, n: int) -> Iterator[tuple[Volume, dict]]:
    """Each pass's prediction on the original grid, and its record, in pass order."""
    pass_seeds = [derive_seed(seed, "pass", case.id, i) for i in range(n)]
    if case.kind == "ttd":
        probs = pred.dropout_passes(image, case.dropout_rate, pass_seeds)
        for pass_seed, prob in zip(pass_seeds, probs):
            yield prob, {"kind": "ttd", "dropout_rate": case.dropout_rate, "seed": pass_seed}
    elif case.kind == "tta":
        for i, pass_seed in enumerate(pass_seeds):
            ts = augment.sample_transform(case, derive_rng(seed, "pass", case.id, i))
            prob = pred.forward(augment.apply_transform(image, ts), dropout_rate=0.0, seed=pass_seed)
            if ts.affine is not None:
                prob = augment.apply_affine_inverse(prob, ts.affine)
            yield prob, {"kind": "tta", **asdict(ts)}
    else:
        raise CaseError(f"unknown case kind {case.kind!r}")


def uncertainty_maps(stack: SampleStack) -> UncertaintyMaps:
    """Voxelwise mean, population variance and predictive entropy of a stack.

    The entropy is the binary entropy (base 2, so the range is [0, 1]) of
    the mean probability, with 0*log(0) taken as 0.
    """
    samples = stack.samples.astype(np.float64)
    mean = samples.mean(axis=0)
    variance = np.square(samples - mean).mean(axis=0)
    entropy = binary_entropy_bits(mean)
    spacing = stack.spacing
    return UncertaintyMaps(
        mean=Volume(mean, spacing),
        variance=Volume(np.clip(variance, 0.0, 0.25), spacing),
        entropy=Volume(entropy, spacing),
    )


def binary_entropy_bits(p: np.ndarray) -> np.ndarray:
    """Elementwise -p*log2(p) - (1-p)*log2(1-p) with the 0*log(0) = 0 convention."""
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    t1 = np.zeros_like(p)
    np.log2(p, where=p > 0, out=t1)
    t2 = np.zeros_like(q)
    np.log2(q, where=q > 0, out=t2)
    return np.clip(-(p * t1 + q * t2), 0.0, 1.0)
