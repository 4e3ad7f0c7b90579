"""Tiny trainable slice-context segmenter with hand-rolled gradients.

The network is one fixed two-level 2-D encoder-decoder applied to axial
slices, with two adjacent slices on each side stacked as five input
channels: a 3x3 block of 8 filters (enc0), 2x2 mean pooling, a 3x3
bottleneck of 16 filters (bot), nearest-neighbour upsampling concatenated
with enc0's output, a 3x3 block of 8 filters (dec0) and a 1x1 head, so
in-plane sizes must be even.  Stochasticity at inference time is channel
dropout: each convolution block's output channels are zeroed independently with a global
probability and survivors are rescaled by 1/(1-rate); one mask per block is
drawn per forward pass and shared across slices, so a pass behaves like one
sampled network.

Forward, backward and the Adamax optimizer are written directly in numpy,
which keeps every gradient verifiable against finite differences
(:func:`gradient_check`).  Activations are softplus rather than ReLU so
the loss surface is smooth and central differences at step 1e-3 agree with
backpropagation to well under 0.1% everywhere.  Training uses one
fixed recipe (:class:`TrainConfig`): Adamax at learning rate 1e-3 on a
composite of binary cross-entropy and soft-Dice loss weighted 0.3/0.7, a
reduce-on-plateau schedule, and 4-slice batches without dropout.

The 3x3 convolutions reach BLAS through ``np.matmul`` directly, one
product per kernel tap: the forward pass multiplies each tap's (F, C)
weights by the whole zero-padded image, and the backward pass multiplies
the taps' transposed weights by the output gradient (dx) and the shifted
inputs by that gradient (dw).  Every product computes the same float32
dot products in the same order as the einsum formulation the committed
golden digests were made with (``tests/oracles.py``), so on the BLAS
kernel they were made with the outputs are bit-identical to it; the dw
product keeps einsum's operand order, and the 1x1 head's forward pass
stays an einsum.

The forward pass streams through memory once.  Each tap's product goes
into one reused (B, F, (H+2)*(W+2)) buffer and is added to an accumulator
of the same padded shape, filled with the bias, as one contiguous 1-D
slice over the whole batch shifted by the tap's offset
``off = di*(W+2) + dj``: ``acc.ravel()[:n-off] += prod.ravel()[off:]``.
Output pixel (i, j) sits at flat index i*(W+2) + j of its plane, so the
shifted read lands on flat index (i+di)*(W+2) + (j+dj), the element of the
padded product that the tap's (di, dj) window reads for that pixel, in the
same plane (the largest such index is (H+2)*(W+2) - 1).  The top-left
(H, W) window of each plane is therefore the result, summed bias first and
then taps (0,0) to (2,2), the add order of the window form, so the bits
are the window form's.  The other positions, the last two rows and
columns of each plane, are scratch: they may mix in the next plane and are
never read.  Only the whole-batch add is fast.  Slicing it per plane
(``acc[:, :, :n]``) was slower than the strided window adds it replaces,
which numpy runs as thousands of W-float rows.

The backward pass pads and copies no window either.  In flat (B*H*W)
order tap (di, dj) reads input pixel t + off for output pixel t, with
``off = (di-1)*W + (dj-1)``.  dw's left operand is a view, shifted by
off, of one transposed copy of the input with W+1 zero columns on each
side, and the gradient matrix's rows for the output pixels whose read
crosses an image edge (row 0 for di=0, row H-1 for di=2, column 0 for
dj=0, column W-1 for dj=2) are zeroed for that tap's product: the terms
that differ from the padded window form's are exact zeros on both sides
for a finite input, in the same gemm.  That matrix is a private copy of
``dout.transpose(0, 2, 3, 1).reshape(-1, F)`` in the layout of the
reshape (``copy(order="K")``), because at B=1 the reshape is an F-ordered
view whose layout selects the BLAS transpose path; a C-ordered copy
changes dw's bits.  dx runs one slice at a time, the per-slice gemm that
numpy's batched matmul makes, into one reused (C, H*W) buffer whose
column that would wrap to the next or previous row is zeroed; the buffer
is added to the slice's dense dx as one 2-D slice shifted by off, and
rows shifted out of the image fall outside the slice.  The tests hold
both kernels bit for bit to the window-add forms they replace
(``tests/oracles.py``), on any BLAS kernel, since both make the same
BLAS calls.

The layers around the convolutions copy as little as they can, and each
keeps the bits of the numpy idiom it replaced (also in ``tests/oracles.py``).
Padding writes the image into a zero buffer.  Pooling adds the four
strided 2x2 views pairwise, ``((a00 + a01) + (a10 + a11)) / 4``, the order
in which numpy reduces the reshaped mean (the left-to-right sum rounds
differently; 2-pixel-wide inputs keep the reshape).  Upsampling makes four strided assignments, in the decoder
straight into the concat buffer with the skip copied in after it, and
softplus reuses one temporary.

Test-time dropout passes share every all-keep mask prefix within one
call.  The passes of one :meth:`TinySegmenter.dropout_passes` call see
the same unperturbed image at one rate, and enc0's conv and softplus come
before the first mask.  A mask that drops no channel scales every channel
by the same 1/(1-rate), so a pass whose enc0 mask is all-keep gives bot
the same input as every other such pass; at rates of 0.03-0.15 an
8-channel mask drops nothing in 27-78% of draws.  The call holds the
activations these prefixes reach until it ends: enc0's, bot's, and the
logits of a pass whose masks are all all-keep, 4 + 2 + 0.5 MB at
64x64x32.  Each pass still draws all its masks from its own generator in
block order, and a shared activation holds the bits the pass would
compute, so the outputs are bit-identical to recomputing every block.
The model itself keeps nothing between calls.

Every pass runs the encoder-decoder in one loop over chunks of axial
slices, so that each tap's conv product is read back from cache rather
than from memory.  A chunk holds as many slices as fit one
(16, (H+2)*(W+2)) product, at the bottleneck's filter count, into
``_CHUNK_BYTES`` (at least one); in float32 that is 3 slices at 32x32, 1 at
64x64 and a whole 16x16x8 stack.  Passes that keep backward state
(training, :func:`gradient_check`) run their batch as one chunk.
The input is a read-only view over one copy of the volume, edge-padded
along z, whose slice context is never copied per channel.  A pass draws
all its dropout masks before the first chunk, in block order, which is
the stream the per-block draws took.  Every block, the first included,
is computed only in this loop: a recorded activation is written chunk
by chunk into a whole-stack buffer, and a block that shares one takes
the chunk's slice and skips building its input (bot's pooling, or enc0's
slice context, so a pass that shares enc0 builds no input).  Each 3x3
conv is one gemm per slice and the other layers are elementwise, so
their bits do not depend on the chunking; the 1x1 head's einsum does
depend on the batch size in float32, so the head runs once on a
preallocated stack of the chunks' outputs, which dec0 writes its
softplus, or its dropout product, straight into.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar, Protocol

import numpy as np
from scipy.special import expit

from .seeding import derive_rng
from .volume import Volume

_PROB_CLIP = 1e-7  # probability clamp for the cross-entropy log
_DICE_EPS = 1.0
_CHECKPOINT_MAGIC = b"UQPCKPT1"
_CHUNK_BYTES = 256 * 1024  # one conv tap's product per slice chunk, sized to stay in L2


class PredictorError(ValueError):
    """Invalid predictor configuration or input."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


class Predictor(Protocol):
    """Stochastic segmenter contract used by the uncertainty engine."""

    def forward(self, v: Volume, dropout_rate: float = 0.0, seed: int = 0) -> Volume: ...

    def dropout_passes(self, v: Volume, rate: float, seeds: Iterable[int]) -> Iterator[Volume]:
        """``forward(v, rate, seed)`` for each seed in turn; ``(self.forward(v, rate, s) for s in seeds)`` will do."""


@dataclass(frozen=True)
class _Architecture:
    """The one network's settings, which a checkpoint header records and :meth:`TinySegmenter.load` requires."""

    context_slices: int = 2
    n_blocks: int = 2
    base_filters: int = 8

    in_channels: ClassVar[int] = 5


@dataclass(frozen=True)
class TrainConfig:
    """Epochs and seed of one training run; the recipe itself is fixed."""

    epochs: int = 30
    seed: int = 0

    lr: ClassVar[float] = 1e-3
    plateau_factor: ClassVar[float] = 0.25
    patience: ClassVar[int] = 3
    cooldown: ClassVar[int] = 2
    w_ce: ClassVar[float] = 0.3
    w_dice: ClassVar[float] = 0.7
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    batch_slices: ClassVar[int] = 4  # axial slices per optimization step

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise PredictorError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)


# --------------------------------------------------------------------------
# losses and metrics (public, probability-space)
# --------------------------------------------------------------------------

def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Volume) else np.asarray(x)


def soft_dice_loss(p, y) -> float:
    """1 - (2*sum(p*y) + eps) / (sum(p) + sum(y) + eps), eps = 1."""
    pa, ya = _as_array(p).astype(np.float64), _as_array(y).astype(np.float64)
    if pa.shape != ya.shape:
        raise PredictorError(f"dims mismatch: {pa.shape} vs {ya.shape}")
    inter = float(np.sum(pa * ya))
    denom = float(np.sum(pa) + np.sum(ya)) + _DICE_EPS
    return 1.0 - (2.0 * inter + _DICE_EPS) / denom


def binary_cross_entropy(p, y) -> float:
    """Mean BCE with probabilities clamped to [1e-7, 1 - 1e-7]."""
    pa, ya = _as_array(p).astype(np.float64), _as_array(y).astype(np.float64)
    if pa.shape != ya.shape:
        raise PredictorError(f"dims mismatch: {pa.shape} vs {ya.shape}")
    pc = np.clip(pa, _PROB_CLIP, 1.0 - _PROB_CLIP)
    return float(-np.mean(ya * np.log(pc) + (1.0 - ya) * np.log(1.0 - pc)))


def composite_loss(p, y, w_ce: float = TrainConfig.w_ce, w_dice: float = TrainConfig.w_dice) -> float:
    """Weighted cross-entropy plus soft-Dice loss, by default with the training weights."""
    return w_ce * binary_cross_entropy(p, y) + w_dice * soft_dice_loss(p, y)


def dice_score(p_bin, y) -> float:
    """Overlap 2|A.B| / (|A| + |B|); 1.0 when both are empty."""
    pa, ya = _as_array(p_bin), _as_array(y)
    if pa.shape != ya.shape:
        raise PredictorError(f"dims mismatch: {pa.shape} vs {ya.shape}")
    pa = pa > 0.5
    ya = ya > 0.5
    total = int(pa.sum()) + int(ya.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((pa & ya).sum()) / total


def _loss_and_grad_wrt_logits(logits: np.ndarray, y: np.ndarray, w_ce: float, w_dice: float):
    """Composite loss and its exact gradient with respect to the logits."""
    p = expit(logits.astype(np.float64))
    n = p.size
    pc = np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)
    loss_ce = -np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    # d(BCE)/dlogit = (p - y)/n inside the clamp, 0 where the clamp is active
    inside = (p > _PROB_CLIP) & (p < 1.0 - _PROB_CLIP)
    g_ce = np.where(inside, p - y, 0.0) / n

    s_inter = np.sum(p * y)
    s_total = np.sum(p) + np.sum(y) + _DICE_EPS
    loss_dice = 1.0 - (2.0 * s_inter + _DICE_EPS) / s_total
    dd_dp = -(2.0 * y * s_total - (2.0 * s_inter + _DICE_EPS)) / s_total**2
    g_dice = dd_dp * p * (1.0 - p)

    loss = w_ce * loss_ce + w_dice * loss_dice
    grad = (w_ce * g_ce + w_dice * g_dice).astype(logits.dtype)
    return float(loss), grad


# --------------------------------------------------------------------------
# numpy layers
# --------------------------------------------------------------------------

def _pad1(x: np.ndarray) -> np.ndarray:
    """``x`` with a one-pixel zero border around its last two axes."""
    *lead, h, w = x.shape
    xp = np.zeros((*lead, h + 2, w + 2), dtype=x.dtype)
    xp[..., 1:-1, 1:-1] = x
    return xp


def _conv3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 'same' convolution, zero padded; x is (B, C, H, W), w is (F, C, 3, 3).

    Each tap is one batched (F, C) @ (C, (H+2)*(W+2)) product over the
    whole padded image, written into one reused buffer and added to a
    padded-shape accumulator as one 1-D slice shifted by the tap's offset;
    the result is the top-left (H, W) window of each accumulator plane
    (see the module docstring).
    """
    bsz, c, h, wd = x.shape
    f = w.shape[0]
    xp = _pad1(x).reshape(bsz, c, -1)
    acc = np.empty((bsz, f, xp.shape[2]), dtype=x.dtype)
    acc[:] = b[None, :, None]
    prod = np.empty_like(acc)
    flat_acc, flat_prod = acc.reshape(-1), prod.reshape(-1)
    n = flat_acc.size
    for di in range(3):
        for dj in range(3):
            np.matmul(w[:, :, di, dj], xp, out=prod)
            off = di * (wd + 2) + dj
            flat_acc[: n - off] += flat_prod[off:]
    return acc.reshape(bsz, f, h + 2, wd + 2)[:, :, :h, :wd]


def _conv3_weight_grads(dout: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dw, db) of :func:`_conv3`; writes none of its arguments.

    The taps are shifted by the flat offset ``off`` of the module docstring.
    dw multiplies (C, B*H*W) by (B*H*W, F) and transposes the result: this
    operand order fixes the float32 summation order of the long B*H*W sum.
    The gradient matrix's edge rows are zeroed for each tap and restored
    from ``dout``; its layout is the reshape's, F-ordered at B=1, where a
    C-ordered copy would select another BLAS path and other bits.
    """
    bsz, c, h, wd = x.shape
    f = w.shape[0]
    n, m = bsz * h * wd, wd + 1
    xf = np.empty((c, n + 2 * m), dtype=x.dtype)
    xf[:, :m] = 0
    xf[:, m + n :] = 0
    xf[:, m : m + n].reshape(c, bsz, h, wd)[...] = x.transpose(1, 0, 2, 3)
    dt = dout.transpose(0, 2, 3, 1)  # (B, H, W, F)
    dmat = dt.reshape(-1, f).copy(order="K")
    d4 = dmat.reshape(bsz, h, wd, f)
    rows = {0: np.s_[:, 0], 2: np.s_[:, h - 1]}
    cols = {0: np.s_[:, :, 0], 2: np.s_[:, :, wd - 1]}  # axis 2 is W in (B, H, W, F)
    dw = np.empty_like(w)
    for di in range(3):
        for dj in range(3):
            edges = [e for e in (rows.get(di), cols.get(dj)) if e is not None]
            for e in edges:
                d4[e] = 0
            off = (di - 1) * wd + (dj - 1)
            dw[:, :, di, dj] = (xf[:, m + off : m + off + n] @ dmat).T
            for e in edges:
                d4[e] = dt[e]
    return dw, dout.sum(axis=(0, 2, 3))


def _conv3_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw, db) of :func:`_conv3`; writes none of its arguments.

    dw and db come from :func:`_conv3_weight_grads`, whose buffers are freed
    before dx is allocated, which keeps the peak under twice the size of x.
    dx adds the taps in the window form's order, and a zeroed column adds
    +0.0 to a sum that started at +0.0, which changes no bit.
    """
    dw, db = _conv3_weight_grads(dout, x, w)
    bsz, c, h, wd = x.shape
    hw = h * wd
    d3 = dout.reshape(bsz, w.shape[0], hw)
    cols = {0: np.s_[:, :, 0], 2: np.s_[:, :, wd - 1]}  # axis 2 is W in (C, H, W)
    dx = np.zeros((bsz, c, hw), dtype=x.dtype)
    prod = np.empty((c, hw), dtype=x.dtype)
    window = prod.reshape(c, h, wd)
    for k in range(bsz):
        for di in range(3):
            for dj in range(3):
                off = (di - 1) * wd + (dj - 1)
                if abs(off) >= hw:
                    continue
                np.matmul(w[:, :, di, dj].T, d3[k], out=prod)
                if dj in cols:
                    window[cols[dj]] = 0
                lo, hi = max(off, 0), hw + min(off, 0)
                dx[k, :, lo:hi] += prod[:, lo - off : hi - off]
    return dx.reshape(bsz, c, h, wd), dw, db


def _conv1(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1x1 convolution; w is (F, C, 1, 1).

    Stays an einsum: for the F=1 head a per-image matmul becomes a
    matrix-vector product, which sums in another float32 order.
    """
    return np.einsum("fc,bchw->bfhw", w[:, :, 0, 0], x, optimize=True) + b[None, :, None, None]


def _conv1_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray):
    """(dx, dw, db) of :func:`_conv1`, with dw in the operand order of :func:`_conv3_backward`."""
    bsz, c, h, wd = x.shape
    f = w.shape[0]
    dw = np.empty_like(w)
    dw[:, :, 0, 0] = (x.transpose(1, 0, 2, 3).reshape(c, -1) @ dout.transpose(0, 2, 3, 1).reshape(-1, f)).T
    dx = (w[:, :, 0, 0].T @ dout.reshape(bsz, f, h * wd)).reshape(x.shape)
    return dx, dw, dout.sum(axis=(0, 2, 3))


def _sum2x2(x: np.ndarray) -> np.ndarray:
    """Sum of each 2x2 block of the last two axes, bit-identical to
    ``x.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))``.

    numpy sums that reshape as ``(0 + (a00 + a01)) + (a10 + a11)``: the two
    row pairs, accumulated from a zero start.  Adding 0.0 last does what
    the zero start does, turning a -0.0 sum into +0.0.  At width 2 numpy
    fuses each block into one left-to-right sum instead, so that case
    keeps the reshape.
    """
    b, c, h, w = x.shape
    if w == 2:
        return x.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
    s = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
    s += x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]
    s += 0.0
    return s


def _avgpool2(x: np.ndarray) -> np.ndarray:
    s = _sum2x2(x)
    s /= 4
    return s


def _avgpool2_backward(dout: np.ndarray) -> np.ndarray:
    return _upsample2(dout / 4.0)


def _upsample2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Nearest-neighbour 2x upsampling, written into ``out`` when one is given."""
    b, c, h, w = x.shape
    if out is None:
        out = np.empty((b, c, 2 * h, 2 * w), dtype=x.dtype)
    for i in (0, 1):
        for j in (0, 1):
            out[:, :, i::2, j::2] = x
    return out


def _concat(deep: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Decoder input: ``deep`` upsampled straight into the concat buffer, then ``skip`` copied after it."""
    c = deep.shape[1]
    cat = np.empty((skip.shape[0], c + skip.shape[1], *skip.shape[2:]), dtype=skip.dtype)
    _upsample2(deep, out=cat[:, :c])
    cat[:, c:] = skip
    return cat


_upsample2_backward = _sum2x2  # each input pixel fed one 2x2 block of the output


def channel_dropout_scale(n_channels: int, rate: float, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Per-channel multiplier: 0 with probability ``rate``, else 1/(1-rate)."""
    keep = rng.random(n_channels) >= rate
    return (keep / (1.0 - rate)).astype(dtype)


def _softplus(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(x)), overflow-safe: max(x, 0) + log1p(exp(-|x|)), written into ``out`` when one is given.

    ``x`` is not written.
    """
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out = np.maximum(x, 0, out=out)
    out += t
    return out


# --------------------------------------------------------------------------
# the segmenter
# --------------------------------------------------------------------------

# every parameter's shape, in the order :func:`_init_params` draws them; dec0 reads the 16 upsampled
# bottleneck channels followed by enc0's 8
_PARAM_SHAPES: dict[str, tuple[int, ...]] = {
    "enc0.W": (8, 5, 3, 3), "enc0.b": (8,),
    "bot.W": (16, 8, 3, 3), "bot.b": (16,),
    "dec0.W": (8, 24, 3, 3), "dec0.b": (8,),
    "head.W": (1, 8, 1, 1), "head.b": (1,),
}
_BLOCKS = ("enc0", "bot", "dec0")  # the 3x3 blocks in forward order, each with its own dropout mask


def _init_params(rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """Uniform +/- sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    params: dict[str, np.ndarray] = {}
    for name, shape in _PARAM_SHAPES.items():
        if len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        c_out, c_in, ksize, _ = shape
        bound = np.sqrt(6.0 / (c_in * ksize * ksize + c_out * ksize * ksize))
        params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return params


def _probabilities(logits: np.ndarray, v: Volume) -> Volume:
    """The (B, 1, H, W) slice logits as a foreground probability volume on ``v``'s grid."""
    probs = expit(logits[:, 0].astype(np.float64))
    return Volume(np.moveaxis(probs, 0, 2), v.spacing)


class TinySegmenter:
    """Trainable 2.5-D slice-context segmenter; see the module docstring."""

    config: ClassVar[_Architecture] = _Architecture()

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.params = _init_params(derive_rng(self.seed, "init"))

    # -- volume-level API ---------------------------------------------------

    def forward(self, v: Volume, dropout_rate: float = 0.0, seed: int = 0) -> Volume:
        """Per-voxel foreground probability; deterministic in (params, v, rate, seed)."""
        if dropout_rate != 0.0:
            return next(self.dropout_passes(v, dropout_rate, (seed,)))
        return _probabilities(self._forward_slices(self._stack_slices(v), self.params), v)

    def dropout_passes(self, v: Volume, rate: float, seeds: Iterable[int]) -> Iterator[Volume]:
        """``forward(v, rate, seed)`` for each seed in turn, sharing what the passes' all-keep mask prefixes share.

        enc0 comes before every mask, and if enc0's mask keeps every
        channel, bot gets the same input too, on every pass of the call.
        The first pass that reaches enc0's activation, bot's after an
        all-keep enc0 mask, or the logits of a pass whose masks all keep
        every channel records it, in :meth:`_forward_slices`'s chunk loop,
        and later passes take it from there, so a pass that shares enc0
        builds no input.  What is held lives only as long as the call.
        The parameters are read once, when the first pass starts.  The
        masks are drawn from each pass's own generator in block order
        either way, so the outputs are those of passes that share nothing.
        At rate 0 every mask keeps every channel and each pass gives
        ``forward(v)``'s bits.
        """
        if not (0.0 <= rate < 1.0):
            raise PredictorError(f"dropout rate must be in [0, 1), got {rate}")
        params = self.params
        held: dict[str, np.ndarray] = {}
        for seed in seeds:
            # one expression, so that between passes the generator holds only what later passes share
            yield _probabilities(self._pass_logits(v, params, rate, seed, held), v)

    def _pass_logits(self, v: Volume, params, rate: float, seed: int, held: dict[str, np.ndarray]) -> np.ndarray:
        """Logits of the dropout pass ``seed``, taking what ``held`` has and recording in it what the pass reaches."""
        scales = self._dropout_scales(rate, np.random.default_rng(seed), np.float32)
        keeps = [bool(scales[name].all()) for name in _BLOCKS]
        if all(keeps) and "head" in held:
            return held["head"]
        x = held["enc0"] if "enc0" in held else self._stack_slices(v)
        n, _, hgt, wid = x.shape
        shapes = {"enc0": (n, 8, hgt, wid), "bot": (n, 16, hgt // 2, wid // 2)}
        shared, record = {}, {}
        for name in ("enc0", "bot") if keeps[0] else ("enc0",):
            if name in held:
                shared[name] = held[name]
            else:
                record[name] = np.empty(shapes[name], x.dtype)
        logits = self._forward_slices(x, params, scales, shared=shared, record=record)
        if all(keeps):
            record["head"] = logits
        held.update(record)
        return logits

    def _stack_slices(self, v: Volume, dtype=np.float32) -> np.ndarray:
        """(nz, 5, nx, ny) input with replicate-padded slice context, as a read-only view.

        A 5-slice window slides along z over one copy of ``v`` edge-padded
        by 2 slices, so channel k of slice z is slice clip(z + k - 2, 0, nz - 1).
        """
        nx, ny, nz = v.dims
        if nx % 2 or ny % 2:
            raise PredictorError(f"in-plane dims {(nx, ny)} must be divisible by 2")
        padded = np.pad(v.data.astype(dtype, copy=False), ((0, 0), (0, 0), (2, 2)), mode="edge")
        return np.lib.stride_tricks.sliding_window_view(padded, 5, axis=2).transpose(2, 3, 0, 1)

    def _forward_slices(self, x, params, scales=None, cache=None, shared=None, record=None):
        """Logits (B, 1, H, W) for a slice batch ``x``, each block's output times its multiplier in ``scales``.

        Without ``scales`` the pass has no dropout.  The encoder-decoder runs
        over chunks of slices into one preallocated stack of dec0's outputs
        and the head runs once over that stack (see the module docstring).
        A ``cache`` list, when given, receives the backward state, and the
        batch is then one chunk.  ``shared`` maps a block name to its
        whole-stack activation, which the block takes for each chunk instead
        of computing it, and whose input is never built; ``x`` is then only
        read by the blocks not found there.  ``record`` maps a block name to
        a whole-stack buffer that receives its activation chunk by chunk.
        """
        scales, shared, record = scales or {}, shared or {}, record or {}

        def block(name: str, chunk: slice, inp: np.ndarray | None, dst: np.ndarray | None = None) -> np.ndarray:
            pre = None
            if name in shared:
                act = shared[name][chunk]
            else:
                pre = _conv3(inp, params[f"{name}.W"], params[f"{name}.b"])
                act = _softplus(pre, record[name][chunk] if name in record else None if scales else dst)
            if cache is not None:
                cache.append({"name": name, "x": inp, "pre": pre})
            if scales:
                # a new array or ``dst``: ``act`` may be a shared one
                return np.multiply(act, scales[name], out=dst)
            return act

        n, _, hgt, wid = x.shape
        step = n if cache is not None else self._chunk_slices(x)
        top = np.empty((n, 8, hgt, wid), dtype=x.dtype)
        for s in range(0, n, step):
            chunk = slice(s, s + step)
            enc0 = block("enc0", chunk, x[chunk])
            bot = block("bot", chunk, None if "bot" in shared else _avgpool2(enc0))
            block("dec0", chunk, _concat(bot, enc0), top[chunk])
        logits = _conv1(top, params["head.W"], params["head.b"])
        if cache is not None:
            cache.append({"name": "head", "x": top})
        return logits

    @staticmethod
    def _dropout_scales(rate, rng, dtype) -> dict[str, np.ndarray]:
        """Each block's channel dropout multiplier, drawn from ``rng`` in block order."""
        return {name: channel_dropout_scale(_PARAM_SHAPES[f"{name}.W"][0], rate, rng, dtype)[None, :, None, None]
                for name in _BLOCKS}

    @staticmethod
    def _chunk_slices(src: np.ndarray) -> int:
        """Slices per chunk: one tap's product at the bottleneck's 16 filters fits in ``_CHUNK_BYTES``."""
        _, _, hgt, wid = src.shape
        return max(1, _CHUNK_BYTES // (src.itemsize * (hgt + 2) * (wid + 2) * 16))

    @staticmethod
    def _backward_slices(dlogits, params, cache):
        """Gradients for every parameter given d(loss)/d(logits) and the cache of a one-chunk forward pass."""
        enc0, bot, dec0, head = cache
        grads: dict[str, np.ndarray] = {}
        dh, grads["head.W"], grads["head.b"] = _conv1_backward(dlogits, head["x"], params["head.W"])

        def block_backward(entry: dict, dout: np.ndarray) -> np.ndarray:
            name = entry["name"]
            dout = dout * expit(entry["pre"])  # d softplus(x)/dx = sigmoid(x)
            dx, grads[f"{name}.W"], grads[f"{name}.b"] = _conv3_backward(dout, entry["x"], params[f"{name}.W"])
            return dx

        dcat = block_backward(dec0, dh)
        # dec0's input is the upsampled bottleneck's 16 channels, then enc0's 8
        dh = _avgpool2_backward(block_backward(bot, _upsample2_backward(dcat[:, :-8])))
        dh += dcat[:, -8:]
        # the input image needs no gradient, so enc0 skips dx
        grads["enc0.W"], grads["enc0.b"] = _conv3_weight_grads(dh * expit(enc0["pre"]), enc0["x"], params["enc0.W"])
        return grads

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Versioned binary checkpoint: magic, JSON shape manifest, raw float32 payload."""
        names = sorted(self.params)
        header = {
            "format_version": 1,
            "config": asdict(self.config),
            "seed": self.seed,
            "params": [{"name": n, "shape": list(self.params[n].shape)} for n in names],
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(_CHECKPOINT_MAGIC)
            f.write(len(header_bytes).to_bytes(4, "little"))
            f.write(header_bytes)
            for n in names:
                f.write(np.ascontiguousarray(self.params[n], dtype="<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "TinySegmenter":
        """Read a :meth:`save` checkpoint; each parameter is read from the file straight into its array."""
        path = Path(path)
        with open(path, "rb") as f:
            file_size = os.fstat(f.fileno()).st_size
            if f.read(8) != _CHECKPOINT_MAGIC:
                raise PredictorError(f"not a segmenter checkpoint: {path.name}")
            header_len = int.from_bytes(f.read(4), "little")
            offset = 12 + header_len
            try:
                if offset > file_size:  # read(n) allocates n bytes before it reads
                    raise ValueError(f"header length {header_len} runs past the end of the file")
                header = json.loads(f.read(header_len).decode("utf-8"))
                if header.get("format_version") != 1:
                    raise PredictorError(f"unsupported checkpoint version {header.get('format_version')}")
                config = header["config"]
                seed = int(header.get("seed", 0))
                entries = [(entry["name"], tuple(entry["shape"])) for entry in header["params"]]
            except (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
                raise PredictorError(f"bad checkpoint header in {path.name}: {exc}") from exc
            # nothing is allocated until the header matches the one architecture and the file its payload size
            if config != asdict(cls.config):
                raise PredictorError(f"checkpoint {path.name} is not of the built-in architecture {asdict(cls.config)}")
            expected = sorted(_PARAM_SHAPES.items())
            if entries != expected:
                raise PredictorError(f"checkpoint shape manifest mismatch in {path.name}")
            size = offset + 4 * sum(math.prod(shape) for _, shape in expected)
            if file_size != size:
                raise PredictorError(f"checkpoint {path.name} has {file_size} bytes, its header implies {size}")
            params = {}
            for name, shape in expected:
                params[name] = np.empty(shape, dtype="<f4")
                if f.readinto(params[name]) != params[name].nbytes:
                    raise PredictorError(f"checkpoint {path.name} ended inside parameter {name}")
        # the payload sets every parameter, so the model is built without drawing an initialisation
        model = cls.__new__(cls)
        model.seed, model.params = seed, params
        return model


# --------------------------------------------------------------------------
# optimization
# --------------------------------------------------------------------------

class _Adamax:
    """Infinity-norm variant of adaptive moments (update: lr/(1-b1^t) * m / u)."""

    def __init__(self, params: dict[str, np.ndarray], beta1: float, beta2: float, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.u = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        correction = 1.0 - self.beta1**self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.u[k] = np.maximum(self.beta2 * self.u[k], np.abs(g))
            params[k] = params[k] - (lr / correction) * self.m[k] / (self.u[k] + self.eps)


class _PlateauSchedule:
    """Multiply lr by ``factor`` after ``patience`` epochs without improvement, then cool down."""

    def __init__(self, lr: float, factor: float, patience: int, cooldown: int):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.cooldown = cooldown
        self.best = np.inf
        self.wait = 0
        self.cooling = 0

    def step(self, monitored: float) -> float:
        if monitored < self.best:
            self.best = monitored
            self.wait = 0
        elif self.cooling > 0:
            self.cooling -= 1
        else:
            self.wait += 1
            if self.wait >= self.patience:
                self.lr *= self.factor
                self.wait = 0
                self.cooling = self.cooldown
        return self.lr


def train(
    pred: TinySegmenter,
    cohort: list[tuple[Volume, Volume]],
    cfg: TrainConfig,
    val_cohort: list[tuple[Volume, Volume]] | None = None,
) -> TrainHistory:
    """Fit ``pred`` in place on (image, label) pairs; returns the loss history.

    Subjects are visited in a seed-derived shuffled order each epoch; each
    subject's slice stack is split into strided ``batch_slices`` chunks
    (chunk c takes slices c, c+n_chunks, ...) with one optimizer step per
    chunk.  Striding keeps foreground slices in every chunk, which guards
    the soft-Dice term against all-background collapse on sparse labels.
    The plateau schedule monitors the validation loss when a validation
    cohort is given, otherwise the mean training loss.
    """
    if not cohort:
        raise PredictorError("training cohort is empty")
    history = TrainHistory()
    optimizer = _Adamax(pred.params, cfg.beta1, cfg.beta2)
    schedule = _PlateauSchedule(cfg.lr, cfg.plateau_factor, cfg.patience, cfg.cooldown)
    lr = cfg.lr

    data = [(pred._stack_slices(img), _label_batch(lab)) for img, lab in cohort]
    val_data = None
    if val_cohort:
        val_data = [(pred._stack_slices(img), _label_batch(lab)) for img, lab in val_cohort]

    for epoch in range(cfg.epochs):
        order = derive_rng(cfg.seed, "order", epoch).permutation(len(data))
        epoch_losses = []
        step_idx = 0
        for subject in order:
            x_all, y_all = data[subject]
            n_chunks = max(1, x_all.shape[0] // cfg.batch_slices)
            for chunk in range(n_chunks):
                x = x_all[chunk::n_chunks]
                y = y_all[chunk::n_chunks]
                # the last step's cache is dropped only after this forward: dropped before it, its memory is
                # trimmed off the heap and faulted back in (4x the minor faults of a 64x64x32 training run)
                step_cache: list = []
                logits = pred._forward_slices(x, pred.params, cache=step_cache)
                cache = step_cache
                loss, dlogits = _loss_and_grad_wrt_logits(logits, y, cfg.w_ce, cfg.w_dice)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss at epoch {epoch}, step {step_idx}")
                grads = pred._backward_slices(dlogits, pred.params, cache)
                optimizer.step(pred.params, grads, lr)
                epoch_losses.append(loss)
                step_idx += 1
        train_loss = float(np.mean(epoch_losses))

        if val_data is not None:
            val_losses = []
            for x, y in val_data:
                logits = pred._forward_slices(x, pred.params)
                loss, _ = _loss_and_grad_wrt_logits(logits, y, cfg.w_ce, cfg.w_dice)
                val_losses.append(loss)
            monitored = float(np.mean(val_losses))
            history.val_loss.append(monitored)
        else:
            monitored = train_loss
        history.train_loss.append(train_loss)
        history.lr.append(lr)
        lr = schedule.step(monitored)
    return history


def _label_batch(label: Volume) -> np.ndarray:
    """Label volume as a (nz, 1, nx, ny) float batch aligned with the slice stack."""
    arr = label.data
    if not np.isin(arr, (0.0, 1.0)).all():
        raise PredictorError("labels must be binary {0, 1}")
    return np.moveaxis(arr, 2, 0)[:, None].astype(np.float64)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

def gradient_check(pred: TinySegmenter, image: Volume, label: Volume, n_coords: int = 120, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs the whole network in float64 without dropout, on the training
    loss, and compares the backpropagated gradient against
    (loss(th+h) - loss(th-h)) / 2h, h = 1e-3, on ``n_coords`` randomly
    chosen parameter coordinates.
    """
    step = 1e-3
    params64 = {k: v.astype(np.float64) for k, v in pred.params.items()}
    x = pred._stack_slices(image, dtype=np.float64)
    y = _label_batch(label)

    cache: list = []
    logits = pred._forward_slices(x, params64, cache=cache)
    _, dlogits = _loss_and_grad_wrt_logits(logits, y, TrainConfig.w_ce, TrainConfig.w_dice)
    analytic = pred._backward_slices(dlogits, params64, cache)

    def loss_at(p64: dict[str, np.ndarray]) -> float:
        lg = pred._forward_slices(x, p64)
        loss, _ = _loss_and_grad_wrt_logits(lg, y, TrainConfig.w_ce, TrainConfig.w_dice)
        return loss

    names = sorted(params64)
    sizes = np.array([params64[n].size for n in names])
    total = int(sizes.sum())
    rng = derive_rng(seed, "gradcheck")
    chosen = rng.choice(total, size=min(n_coords, total), replace=False)

    max_rel = 0.0
    for flat_idx in chosen:
        k = int(np.searchsorted(np.cumsum(sizes), flat_idx, side="right"))
        local = int(flat_idx - np.concatenate([[0], np.cumsum(sizes)])[k])
        name = names[k]
        orig = params64[name].flat[local]
        params64[name].flat[local] = orig + step
        loss_plus = loss_at(params64)
        params64[name].flat[local] = orig - step
        loss_minus = loss_at(params64)
        params64[name].flat[local] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        a = analytic[name].flat[local]
        rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel
