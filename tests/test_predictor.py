import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import oracles
from uqcat import (
    PhantomSpec,
    PredictorError,
    TinySegmenter,
    TrainConfig,
    TrainingDivergedError,
    Volume,
    binary_cross_entropy,
    composite_loss,
    dice_score,
    generate_phantom,
    gradient_check,
    soft_dice_loss,
    train,
)
from uqcat import predictor
from uqcat.predictor import _loss_and_grad_wrt_logits, _PlateauSchedule, channel_dropout_scale


def small_phantom(seed=4):
    return generate_phantom(PhantomSpec(dims=(16, 16, 8), radius_range=(2.0, 3.0), seed=seed))


# --------------------------------------------------------------------------
# forward contract
# --------------------------------------------------------------------------

def test_forward_rate_zero_deterministic():
    img, _ = small_phantom()
    model = TinySegmenter(seed=1)
    p1 = model.forward(img)
    p2 = model.forward(img, dropout_rate=0.0, seed=999)  # seed irrelevant at rate 0
    assert np.array_equal(p1.data, p2.data)
    assert p1.data.min() >= 0.0 and p1.data.max() <= 1.0


def test_forward_seed_contract():
    img, _ = small_phantom()
    model = TinySegmenter(seed=1)
    a = model.forward(img, dropout_rate=0.03, seed=7)
    b = model.forward(img, dropout_rate=0.03, seed=7)
    c = model.forward(img, dropout_rate=0.03, seed=8)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def dropout_scales(model, rate, seed, dtype=np.float32):
    """Every block's multiplier for the pass ``seed``; None at rate 0, which runs the dropout-free path."""
    return model._dropout_scales(rate, np.random.default_rng(seed), dtype) if rate else None


def forward_from_scratch(model, img, rate, seed):
    """The dropout forward pass from scratch: fresh slice stack, first block and masks, nothing shared."""
    x = model._stack_slices(img)
    logits = model._forward_slices(x, model.params, dropout_scales(model, rate, seed))
    return np.moveaxis(expit(logits[:, 0].astype(np.float64)), 0, 2).astype(np.float32)


def chunk_test_model(dims, seed=0):
    """Segmenter with nonzero biases and a noise image of ``dims`` (nx, ny, nz)."""
    rng = np.random.default_rng([*dims, seed])
    model = TinySegmenter(seed=seed)
    for name, p in model.params.items():
        if name.endswith(".b"):
            model.params[name] = rng.normal(scale=0.1, size=p.shape).astype(p.dtype)
    return model, Volume(rng.normal(size=dims))


def grid_ids(grids):
    return ["x".join(map(str, dims)) for dims in grids]


# each grid splits into several float32 and float64 chunks; the comments give the float32 chunk sizes
CHUNKED_GRIDS = [
    (32, 32, 16),  # 3 slices per chunk, 5 chunks and a remainder of 1
    (64, 64, 32),  # 1 slice per chunk
    (32, 32, 17),  # 3 per chunk, a remainder of 2
    (32, 48, 16),  # non-square: 2 per chunk
    (48, 32, 15),  # non-square the other way, a remainder of 1
    (16, 64, 10),  # 3 per chunk, a remainder of 1
    (64, 16, 10),
    (8, 128, 7),   # a bottleneck 4 rows high
    (128, 8, 7),
    (2, 512, 3),   # one-row bottleneck: every vertical tap of bot falls off the grid
    (512, 2, 3),   # one-column bottleneck
    (30, 30, 10),  # odd 15x15 bottleneck, 4 per chunk
    (18, 18, 23),  # odd 9x9 bottleneck, 10 per chunk, a remainder of 3
    (14, 14, 30),  # odd 7x7 bottleneck, 16 per chunk
    (10, 50, 13),  # odd 5x25 bottleneck, 6 per chunk
    (6, 6, 70),    # odd 3x3 bottleneck, 64 per chunk, a remainder of 6
    (2, 2, 260),   # 1x1 bottleneck, 256 per chunk, a remainder of 4
    (96, 96, 5),   # 1 per chunk at the widest grid
]


@pytest.mark.parametrize("rate", [0.0, 0.03, 0.4])
@pytest.mark.parametrize("grid", CHUNKED_GRIDS, ids=grid_ids(CHUNKED_GRIDS))
def test_chunked_forward_reproduces_whole_stack_oracle_bit_for_bit(grid, rate):
    nz = grid[2]
    model, img = chunk_test_model(grid)
    x = model._stack_slices(img)
    assert 1 <= model._chunk_slices(x) < nz

    def oracle_probs(seed):
        logits, _ = oracles.whole_stack_forward(model, x, model.params, rate, np.random.default_rng(seed), False)
        return np.moveaxis(expit(logits[:, 0].astype(np.float64)), 0, 2).astype(np.float32)

    # float32 through the public calls; at rate > 0 one dropout_passes call, whose second pass shares the first block
    got = model.dropout_passes(img, rate, (3, 4)) if rate else [model.forward(img)]
    for seed, prob in zip((3, 4), got):
        assert prob.data.tobytes() == oracle_probs(seed).tobytes(), seed
    # float64, as gradient_check runs it, with the smaller float64 chunks
    params64 = {k: v.astype(np.float64) for k, v in model.params.items()}
    x64 = model._stack_slices(img, dtype=np.float64)
    assert model._chunk_slices(x64) < nz
    got = model._forward_slices(x64, params64, dropout_scales(model, rate, 5, np.float64))
    want, _ = oracles.whole_stack_forward(model, x64, params64, rate, np.random.default_rng(5), False)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# every grid fits one float32 chunk: 12 slices at 16x16, 40 at 8x8, 48 at 4x12
ONE_CHUNK_GRIDS = [(16, 16, 6), (8, 8, 1), (4, 12, 9)]


@pytest.mark.parametrize("rate", [0.0, 0.03, 0.4])
@pytest.mark.parametrize("grid", ONE_CHUNK_GRIDS, ids=grid_ids(ONE_CHUNK_GRIDS))
def test_one_chunk_forward_reproduces_whole_stack_oracle_bit_for_bit(grid, rate):
    model, img = chunk_test_model(grid)
    x = model._stack_slices(img)
    assert model._chunk_slices(x) >= grid[2]

    def oracle_logits(seed):
        logits, _ = oracles.whole_stack_forward(model, x, model.params, rate, np.random.default_rng(seed), False)
        return logits

    # through the public calls; at rate > 0 one dropout_passes call, whose second pass shares the first block
    got = model.dropout_passes(img, rate, (3, 4)) if rate else [model.forward(img)]
    for seed, prob in zip((3, 4), got):
        want = np.moveaxis(expit(oracle_logits(seed)[:, 0].astype(np.float64)), 0, 2).astype(np.float32)
        assert prob.data.tobytes() == want.tobytes(), seed
    # from the slice stack, without the shared first block
    got = model._forward_slices(x, model.params, dropout_scales(model, rate, 5))
    assert got.tobytes() == oracle_logits(5).tobytes()


def all_keep_prefix(model, rate, seed):
    """How many leading blocks the pass ``seed`` keeps every channel of."""
    scales = model._dropout_scales(rate, np.random.default_rng(seed), np.float32)
    names = predictor._BLOCKS
    return next((k for k, name in enumerate(names) if not scales[name].all()), len(names))


@pytest.mark.parametrize("rate", [1e-6, 0.03, 0.4])
@pytest.mark.parametrize("grid", CHUNKED_GRIDS, ids=grid_ids(CHUNKED_GRIDS))
def test_dropout_passes_share_each_all_keep_prefix_bit_for_bit(grid, rate, monkeypatch):
    # the first block comes before every mask, so every pass reaches it; at 1e-6 every mask keeps every channel,
    # so the first pass computes every block and the later ones take its logits
    model, img = chunk_test_model(grid)
    seeds = range(8)
    want = [forward_from_scratch(model, img, rate, seed).tobytes() for seed in seeds]
    blocks = {id(model.params[f"{name}.W"]): name for name in predictor._BLOCKS}
    convs = dict.fromkeys(predictor._BLOCKS, 0)
    real_conv3 = predictor._conv3

    def counting_conv3(x, w, b):
        convs[blocks[id(w)]] += 1
        return real_conv3(x, w, b)

    monkeypatch.setattr(predictor, "_conv3", counting_conv3)
    got = [prob.data.tobytes() for prob in model.dropout_passes(img, rate, seeds)]
    assert got == want
    # a block is computed once for all the passes that share it, those whose masks keep every channel of the
    # blocks before it (dec0's sharers take the logits), and once by each other pass
    kept = [all_keep_prefix(model, rate, seed) for seed in seeds]
    sharing = {"enc0": len(kept), "bot": sum(k >= 1 for k in kept), "dec0": sum(k == 3 for k in kept)}
    computed = {name: min(n, 1) + len(kept) - n for name, n in sharing.items()}
    chunks = -(-grid[2] // model._chunk_slices(model._stack_slices(img)))
    assert convs == {name: chunks * n for name, n in computed.items()}
    if rate == 1e-6:
        assert computed == {"enc0": 1, "bot": 1, "dec0": 1}
    elif rate == 0.03:
        assert computed["bot"] < len(kept)  # a deeper level is shared at least once


def test_model_holds_only_seed_and_params_after_forward_dropout_passes_and_load(tmp_path):
    model, img = chunk_test_model((16, 16, 8))
    model.forward(img)
    model.forward(img, dropout_rate=1e-6, seed=0)
    list(model.dropout_passes(img, 1e-6, range(3)))
    assert vars(model).keys() == {"seed", "params"}
    model.save(tmp_path / "m.uqp")
    loaded = TinySegmenter.load(tmp_path / "m.uqp")
    assert vars(loaded).keys() == {"seed", "params"}
    list(loaded.dropout_passes(img, 1e-6, range(3)))
    assert vars(loaded).keys() == {"seed", "params"}


def test_dropout_prefix_memo_under_thread_contention():
    # threads alternate two images and two rates on one model, whose forward passes hold nothing between calls
    model, img = chunk_test_model((32, 32, 16))
    images = (img, Volume(np.random.default_rng(7).normal(size=img.dims)))
    jobs = [(seed % 2, (1e-6, 0.03)[seed // 2 % 2], seed) for seed in range(24)]
    want = {job: forward_from_scratch(model, images[job[0]], *job[1:]).tobytes() for job in jobs}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = dict(zip(jobs, pool.map(
                lambda job: model.forward(images[job[0]], dropout_rate=job[1], seed=job[2]).data.tobytes(),
                jobs, timeout=120)))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


CACHED_GRIDS = [(32, 32, 16), (18, 18, 23), (2, 8, 3)]  # square, an odd bottleneck, a one-row bottleneck


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grid", CACHED_GRIDS, ids=grid_ids(CACHED_GRIDS))
def test_cached_forward_is_one_whole_stack_chunk(grid, dtype):
    # training and gradient_check keep backward state, so their batch runs as one chunk
    model, img = chunk_test_model(grid)
    params = {k: v.astype(dtype) for k, v in model.params.items()}
    x = model._stack_slices(img, dtype=dtype)
    got_cache: list = []
    got = model._forward_slices(x, params, cache=got_cache)
    want, want_cache = oracles.whole_stack_forward(model, x, params, 0.0, None, True)
    assert got.tobytes() == want.tobytes()
    assert [e["name"] for e in got_cache] == [e["name"] for e in want_cache]
    for g, e in zip(got_cache, want_cache):
        for key in ("x", "pre"):
            assert (g.get(key) is None) == (e.get(key) is None), (g["name"], key)
            if g.get(key) is not None:
                assert g[key].tobytes() == e[key].tobytes(), (g["name"], key)


def test_chunk_size_follows_the_input():
    model = TinySegmenter()  # widest filter count 16
    for (side, nz), step in {(16, 8): 12, (32, 16): 3, (64, 32): 1}.items():
        x = model._stack_slices(Volume(np.zeros((side, side, nz))))
        assert model._chunk_slices(x) == step
    assert model._chunk_slices(np.zeros((16, 5, 32, 32))) == 1  # float64 halves the slices per chunk


@pytest.mark.parametrize("rate, shared", [(0.0, "none"), (0.03, "hit"), (0.03, "miss"), (0.03, "record"),
                                          (0.03, "all-hit")])
def test_inference_forward_memory_is_bounded(rate, shared):
    # the whole-stack forward peaked at 39-43 MB here; slice chunks keep every pass near 10 MB.  One pass is measured:
    # "none" is the dropout-free forward; "miss" and "record" are a dropout_passes call's first pass, which records
    # enc0 (seed 0 drops one of enc0's channels) or enc0, bot and the logits (seed 2 keeps every channel); "hit" and
    # "all-hit" are its second pass, which takes enc0 or the logits from the first
    model, img = chunk_test_model((64, 64, 32))
    seeds = (2, 4) if shared in ("record", "all-hit") else (0, 1)
    assert [all_keep_prefix(model, 0.03, seed) for seed in seeds] == ([3, 3] if seeds == (2, 4) else [0, 1])
    passes = model.dropout_passes(img, rate, seeds)
    if shared in ("hit", "all-hit"):
        next(passes)
    tracemalloc.start()
    try:
        if rate:
            next(passes)
        else:
            model.forward(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_forward_dims_validation():
    model = TinySegmenter(seed=0)
    odd = Volume(np.zeros((15, 16, 4), dtype=np.float32))
    with pytest.raises(PredictorError, match="divisible"):
        model.forward(odd)
    with pytest.raises(PredictorError, match="dropout"):
        model.forward(Volume(np.zeros((16, 16, 4), dtype=np.float32)), dropout_rate=1.0)


def test_higher_dropout_disrupts_more(trained_model, small_cohort):
    img = small_cohort[6][0]
    baseline = trained_model.forward(img).data.astype(np.float64)
    mad = {}
    for rate in (0.03, 0.40):
        devs = [
            np.mean(np.abs(trained_model.forward(img, rate, seed=s).data.astype(np.float64) - baseline))
            for s in range(50)
        ]
        mad[rate] = float(np.mean(devs))
    assert mad[0.40] > mad[0.03]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nz", [1, 2, 5, 16])
@pytest.mark.parametrize("plane", [(8, 6), (6, 8), (2, 2), (4, 10)], ids=["8x6", "6x8", "2x2", "4x10"])
def test_context_channels_replicate_at_edges(plane, nz, dtype):
    # at nz <= 2 the window reaches past both ends of the stack at once
    img = Volume(np.random.default_rng([*plane, nz]).normal(size=(*plane, nz)))
    model = TinySegmenter(seed=0)
    context = model.config.context_slices
    x = model._stack_slices(img, dtype=dtype)
    want = oracles.stack_slices(img, context, dtype)
    assert x.shape == want.shape and x.dtype == want.dtype
    assert x.tobytes() == want.tobytes()
    # context channels past either end clamp to the end slice
    for c in range(context + 1):
        assert np.array_equal(x[0, c], img.data[:, :, 0].astype(dtype))
        assert np.array_equal(x[nz - 1, 2 * context - c], img.data[:, :, nz - 1].astype(dtype))
    with pytest.raises(ValueError, match="read-only"):
        x[0, 0, 0, 0] = 1.0


def test_expectation_consistency_with_sample_count(trained_model):
    # standard error of the N-sample mean map shrinks ~ 1/sqrt(N); dropout
    # deviations are heavy-tailed, so estimate the SE over many replicates
    img, _ = small_phantom(seed=12)
    rate = 0.12
    replicates = 30
    pool = np.stack(
        [trained_model.forward(img, rate, seed=s).data for s in range(80 * replicates)]
    ).astype(np.float64)

    def se_of_mean(n):
        means = pool[: n * replicates].reshape(replicates, n, *img.dims).mean(axis=1)
        return float(np.sqrt(np.mean(means.var(axis=0))))

    se = {n: se_of_mean(n) for n in (5, 20, 80)}
    assert se[5] > se[20] > se[80]
    assert 1.4 < se[5] / se[20] < 2.8  # theoretical 2.0
    assert 1.4 < se[20] / se[80] < 2.8


def test_channel_dropout_frequency_and_scaling():
    rng = np.random.default_rng(123)
    rate = 0.15
    n_channels = 8
    drops = np.zeros(n_channels)
    trials = 10_000
    for _ in range(trials):
        scale = channel_dropout_scale(n_channels, rate, rng)
        dropped = scale == 0.0
        drops += dropped
        survivors = scale[~dropped]
        assert np.allclose(survivors, 1.0 / (1.0 - rate), atol=1e-6)
    freq = drops / trials
    assert np.all(np.abs(freq - rate) <= 0.02)


# --------------------------------------------------------------------------
# convolution kernels
# --------------------------------------------------------------------------

# in-plane size divisor of each layer of the default network (bot runs after one pooling)
CONV_LAYERS = {"enc0": 1, "bot": 2, "dec0": 1, "head": 1}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grid", [(16, 8), (32, 16), (64, 32)], ids=["16x16x8", "32x32x16", "64x64x32"])
@pytest.mark.parametrize("batch", ["step", "volume"])
@pytest.mark.parametrize("layer", CONV_LAYERS)
def test_conv_kernels_reproduce_einsum_formulation_bit_for_bit(layer, batch, grid, dtype):
    # the golden digests were made with the einsum kernels, so any change of bits fails here first
    side, nz = grid
    h = side // CONV_LAYERS[layer]
    bsz = TrainConfig().batch_slices if batch == "step" else nz
    f, c, k, _ = TinySegmenter().params[f"{layer}.W"].shape
    rng = np.random.default_rng([side, bsz, f, c])
    x = rng.normal(size=(bsz, c, h, h)).astype(dtype)
    w = rng.uniform(-0.5, 0.5, size=(f, c, k, k)).astype(dtype)
    b = rng.normal(size=f).astype(dtype)
    dout = rng.normal(size=(bsz, f, h, h)).astype(dtype)
    kind = f"conv{k}"
    got = [getattr(predictor, f"_{kind}")(x, w, b), *getattr(predictor, f"_{kind}_backward")(dout, x, w)]
    want = [getattr(oracles, f"einsum_{kind}")(x, w, b), *getattr(oracles, f"einsum_{kind}_backward")(dout, x, w)]
    for name, g, e in zip(("out", "dx", "dw", "db"), got, want):
        assert g.dtype == e.dtype and g.shape == e.shape, name
        assert np.array_equal(g, e), name


def test_conv3_matches_brute_force_loops():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 3, 4, 6))  # non-square, so a swapped axis shows
    w = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=2)
    dout = rng.normal(size=(2, 2, 4, 6))
    np.testing.assert_allclose(predictor._conv3(x, w, b), oracles.conv3_loops(x, w, b), rtol=1e-12, atol=1e-12)
    for got, want in zip(predictor._conv3_backward(dout, x, w), oracles.conv3_backward_loops(dout, x, w)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def assert_same_bits(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert np.array_equal(got, want), name
    assert got.tobytes() == want.tobytes(), name  # also tells -0.0 from 0.0


def plumbing_input(rng, shape, dtype):
    """Normal values of mixed magnitude, with signed zeros and large magnitudes mixed in."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    specials = np.array([0.0, -0.0, 30.0, -30.0, 100.0, -100.0, 1e4, -1e4, 1e30, -1e30])
    pick = rng.random(shape) < 0.05
    x[pick] = rng.choice(specials, size=int(pick.sum()))
    x[:, :, :2, :2] = -0.0  # a whole pooling block of -0.0
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grid", [(16, 8), (32, 16), (64, 32)], ids=["16x16x8", "32x32x16", "64x64x32"])
@pytest.mark.parametrize("layer", ["enc0", "bot", "dec0"])
def test_layer_plumbing_reproduces_old_kernels_bit_for_bit(layer, grid, dtype):
    # each kernel gets the shape of the layer's conv input or of its activation
    side, nz = grid
    h = side // CONV_LAYERS[layer]
    f, c, _, _ = TinySegmenter().params[f"{layer}.W"].shape
    rng = np.random.default_rng([side, f, c])
    x = plumbing_input(rng, (nz, c, h, h), dtype)
    act = plumbing_input(rng, (nz, f, h, h), dtype)
    assert_same_bits(predictor._pad1(x), oracles.pad1(x), "pad")
    xt = x.transpose(1, 0, 2, 3)
    assert_same_bits(predictor._pad1(xt), oracles.pad1(xt), "pad of the transposed input")
    before = act.copy()
    assert_same_bits(predictor._softplus(act), oracles.softplus(act), "softplus")
    assert act.tobytes() == before.tobytes(), "softplus wrote to its input"
    assert_same_bits(predictor._avgpool2(act), oracles.avgpool2(act), "avgpool2")
    assert_same_bits(predictor._avgpool2_backward(act), oracles.avgpool2_backward(act), "avgpool2_backward")
    assert_same_bits(predictor._upsample2(act), oracles.upsample2(act), "upsample2")
    assert_same_bits(predictor._upsample2_backward(act), oracles.upsample2_backward(act), "upsample2_backward")
    # the backward pass hands the upsampling the leading channels of the concat gradient
    d_deeper = x[:, : max(1, c // 2)]
    assert_same_bits(predictor._upsample2_backward(d_deeper), oracles.upsample2_backward(d_deeper),
                     "upsample2_backward of a channel slice")


def assert_conv3_matches_window_kernels(x, w, b, dout):
    assert_same_bits(predictor._conv3(x, w, b), oracles.window_conv3(x, w, b), "out")
    got = predictor._conv3_backward(dout, x, w)
    for name, g, e in zip(("dx", "dw", "db"), got, oracles.window_conv3_backward(dout, x, w)):
        assert_same_bits(g, e, name)
    # the first block's backward pass takes dw and db alone
    for name, g, e in zip(("dw alone", "db alone"), predictor._conv3_weight_grads(dout, x, w), got[1:]):
        assert_same_bits(g, e, name)


def conv3_operands(rng, bsz, c, f, h, wd, dtype):
    """Plumbing-style input, a nonzero bias with a -0.0 and an output gradient with -0.0 entries."""
    x = plumbing_input(rng, (bsz, c, h, wd), dtype)
    w = rng.uniform(-0.5, 0.5, size=(f, c, 3, 3)).astype(dtype)
    b = rng.normal(size=f).astype(dtype)
    b[0] = -0.0
    dout = rng.normal(size=(bsz, f, h, wd))
    dout[rng.random(dout.shape) < 0.05] = -0.0
    return x, w, b, dout.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", ["chunk", "step"])
@pytest.mark.parametrize("grid", [(16, 8), (32, 16), (64, 32)], ids=["16x16x8", "32x32x16", "64x64x32"])
@pytest.mark.parametrize("layer", ["enc0", "bot", "dec0"])
def test_conv3_reproduces_window_add_kernels_bit_for_bit(layer, grid, batch, dtype):
    # the flat shifted-slice accumulation reads each output from the same product element, on every BLAS core
    side, nz = grid
    h = side // CONV_LAYERS[layer]
    model = TinySegmenter()
    f, c, _, _ = model.params[f"{layer}.W"].shape
    if batch == "chunk":
        bsz = min(nz, model._chunk_slices(np.empty((nz, model.config.in_channels, side, side), dtype)))
    else:
        bsz = TrainConfig.batch_slices
    rng = np.random.default_rng([side, bsz, f, c])
    x, w, b, dout = conv3_operands(rng, bsz, c, f, h, h, dtype)
    assert_conv3_matches_window_kernels(x, w, b, dout)
    # every other channel of a wider stack: not contiguous at any batch size
    strided = plumbing_input(rng, (bsz, 2 * c, h, h), dtype)[:, 1::2]
    assert not strided.flags.c_contiguous
    assert_conv3_matches_window_kernels(strided, w, b, dout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5, 8, 2, 2), (4, 24, 8, 2, 6), (2, 8, 16, 6, 10), (1, 1, 1, 6, 10),
                                   (2, 5, 8, 1, 7), (3, 4, 6, 7, 1), (2, 5, 8, 1, 1)],
                         ids=["2x2", "2x6", "6x10", "one-channel", "1x7", "7x1", "1x1"])
def test_conv3_window_kernels_at_small_and_non_square_grids(shape, dtype):
    # on a 1-pixel axis some taps shift by at least a whole slice and reach no pixel of it
    rng = np.random.default_rng(list(shape))
    x, w, b, dout = conv3_operands(rng, *shape, dtype)
    assert_conv3_matches_window_kernels(x, w, b, dout)
    assert_conv3_matches_window_kernels(x.transpose(0, 1, 3, 2), w, b, dout.transpose(0, 1, 3, 2))


@pytest.mark.parametrize("bsz", [1, 4])
def test_conv3_backward_writes_none_of_its_inputs(bsz):
    # at B=1 the gradient matrix reshaped from dout is a view of dout, whose edge rows dw zeroes per tap
    rng = np.random.default_rng([bsz, 3])
    x, w, _, dout = conv3_operands(rng, bsz, 6, 8, 8, 10, np.float32)
    before = [a.tobytes() for a in (x, w, dout)]
    for a in (x, w, dout):
        a.flags.writeable = False
    got = predictor._conv3_backward(dout, x, w)
    assert [a.tobytes() for a in (x, w, dout)] == before
    for name, g, e in zip(("dx", "dw", "db"), got, oracles.window_conv3_backward(dout, x, w)):
        assert_same_bits(g, e, name)


def test_conv3_backward_memory_is_bounded():
    # a padded transposed copy, nine window copies and a padded dx peaked at 2.76x the input here
    f, c, _, _ = TinySegmenter().params["dec0.W"].shape
    rng = np.random.default_rng(11)
    x, w, _, dout = conv3_operands(rng, TrainConfig.batch_slices, c, f, 64, 64, np.float32)
    tracemalloc.start()
    try:
        predictor._conv3_backward(dout, x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.nbytes, (peak, x.nbytes)


@pytest.mark.parametrize("shape", [(3, 4, 2, 2), (2, 3, 6, 2), (2, 3, 2, 6), (1, 1, 4, 4)])
def test_block_sums_reproduce_reshape_at_small_widths(shape):
    # numpy sums a width-2 reshape in another order than wider ones
    rng = np.random.default_rng(list(shape))
    for dtype in (np.float32, np.float64):
        x = plumbing_input(rng, shape, dtype)
        assert_same_bits(predictor._avgpool2(x), oracles.avgpool2(x), "avgpool2")
        assert_same_bits(predictor._upsample2_backward(x), oracles.upsample2_backward(x), "upsample2_backward")


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def test_soft_dice_perfect_prediction_is_zero():
    y = np.zeros((4, 4, 4), dtype=np.float32)
    y[1:3, 1:3, 1:3] = 1.0
    assert soft_dice_loss(y, y) == pytest.approx(0.0, abs=1e-12)


def test_soft_dice_disjoint_closed_form():
    p = np.zeros((4, 4, 2), dtype=np.float32)
    y = np.zeros((4, 4, 2), dtype=np.float32)
    p[0, :, :] = 1.0  # 8 voxels
    y[2, :, :] = 1.0  # disjoint 8 voxels
    assert soft_dice_loss(p, y) == pytest.approx(1.0 - 1.0 / 17.0, abs=1e-12)
    assert soft_dice_loss(p, y) == pytest.approx(0.9411764705882353, abs=1e-12)


def test_soft_dice_matches_scalar_oracle():
    y = np.zeros((2, 2, 2), dtype=np.float32)
    y[:, :, 0] = 1.0
    p = np.full((2, 2, 2), 0.5, dtype=np.float32)
    assert soft_dice_loss(p, y) == pytest.approx(oracles.soft_dice(p, y), abs=1e-12)


def test_composite_loss_cases():
    rng = np.random.default_rng(3)
    y = (rng.random((3, 3, 3)) > 0.5).astype(np.float32)
    confident = np.clip(y, 1e-9, 1 - 1e-9)
    assert composite_loss(confident, y) <= 1e-3

    p = rng.random((3, 3, 3)).astype(np.float32)
    assert composite_loss(p, y, w_ce=1.0, w_dice=0.0) == pytest.approx(binary_cross_entropy(p, y), abs=1e-12)
    assert composite_loss(p, y) == pytest.approx(oracles.composite(p, y), abs=1e-6)


def test_dice_score_cases():
    a = np.zeros((4, 4, 1), dtype=np.float32)
    b = np.zeros((4, 4, 1), dtype=np.float32)
    a[0:2, 0:2] = 1.0  # 4 voxels
    b[1:3, 0:2] = 1.0  # 4 voxels, overlap 2
    assert dice_score(a, a) == 1.0
    assert dice_score(a, 1.0 - a) == 0.0
    assert dice_score(a, b) == pytest.approx(0.5)
    assert dice_score(np.zeros((2, 2, 2)), np.zeros((2, 2, 2))) == 1.0
    assert dice_score(a, b) == pytest.approx(oracles.dice_overlap(a, b))


# --------------------------------------------------------------------------
# gradients
# --------------------------------------------------------------------------

def test_gradient_check_random_init():
    img, lab = small_phantom(seed=5)
    model = TinySegmenter(seed=2)
    assert gradient_check(model, img, lab, n_coords=120, seed=0) <= 1e-3


def test_gradient_zero_weights_zero_input_first_layer():
    model = TinySegmenter(seed=0)
    for k in model.params:
        model.params[k] = np.zeros_like(model.params[k])
    img = Volume(np.zeros((8, 8, 4), dtype=np.float32))
    lab = Volume(np.zeros((8, 8, 4), dtype=np.float32))
    from uqcat.predictor import _label_batch

    params64 = {k: v.astype(np.float64) for k, v in model.params.items()}
    x = model._stack_slices(img, dtype=np.float64)
    cache: list = []
    logits = model._forward_slices(x, params64, cache=cache)
    _, dlogits = _loss_and_grad_wrt_logits(logits, _label_batch(lab), 0.3, 0.7)
    grads = model._backward_slices(dlogits, params64, cache)
    # first-layer weights multiply the zero input, so their gradient is exactly 0
    assert np.array_equal(grads["enc0.W"], np.zeros_like(grads["enc0.W"]))


def test_bce_gradient_matches_closed_form():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(3, 1, 4, 4))
    y = (rng.random((3, 1, 4, 4)) > 0.5).astype(np.float64)
    _, grad = _loss_and_grad_wrt_logits(logits, y, w_ce=1.0, w_dice=0.0)
    from scipy.special import expit

    closed = (expit(logits) - y) / y.size
    assert np.abs(grad - closed).max() <= 1e-5


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------

def test_training_improves_and_is_deterministic(small_cohort):
    cfg = TrainConfig(epochs=4, seed=11)
    m1 = TinySegmenter(seed=6)
    h1 = train(m1, small_cohort[:4], cfg)
    m2 = TinySegmenter(seed=6)
    h2 = train(m2, small_cohort[:4], cfg)
    assert h1.train_loss[-1] < h1.train_loss[0]
    assert h1.train_loss == h2.train_loss
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_trained_model_reaches_good_dice(trained_model, small_cohort):
    scores = []
    for img, lab in small_cohort[6:]:
        pred = trained_model.forward(img)
        scores.append(dice_score(pred.data >= 0.5, lab))
    assert min(scores) >= 0.85


def test_training_divergence_detected(small_cohort):
    model = TinySegmenter(seed=0)
    model.params["head.b"] = np.array([np.nan], dtype=np.float32)
    with pytest.raises(TrainingDivergedError):
        train(model, small_cohort[:1], TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(PredictorError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(PredictorError):
        train(TinySegmenter(), [], TrainConfig())


def test_plateau_schedule_semantics():
    sched = _PlateauSchedule(lr=1.0, factor=0.25, patience=3, cooldown=2)
    lrs = [sched.step(1.0) for _ in range(10)]
    # first value sets best; three stale epochs trigger a cut; two cool down;
    # then three more stale epochs trigger the next cut
    assert lrs == [1.0, 1.0, 1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.0625, 0.0625]

    sched = _PlateauSchedule(lr=1.0, factor=0.25, patience=3, cooldown=2)
    improving = [sched.step(1.0 / (t + 1)) for t in range(8)]
    assert improving == [1.0] * 8


# --------------------------------------------------------------------------
# checkpointing
# --------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, trained_model, small_cohort):
    path = tmp_path / "model.uqp"
    trained_model.save(path)
    back = TinySegmenter.load(path)
    assert back.config == trained_model.config
    for k in trained_model.params:
        assert np.array_equal(back.params[k], trained_model.params[k])
    img = small_cohort[7][0]
    assert np.array_equal(back.forward(img).data, trained_model.forward(img).data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.uqp"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(PredictorError):
        TinySegmenter.load(path)
    with pytest.raises(FileNotFoundError):
        TinySegmenter.load(tmp_path / "absent.uqp")


def _drop_last_param(blob: bytes) -> bytes:
    """Rewrite the header without its last parameter and cut that parameter's bytes."""
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + hlen])
    last = header["params"].pop()
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + len(head).to_bytes(4, "little") + head + blob[12 + hlen : -4 * int(np.prod(last["shape"]))]


def _claim_architecture(blob: bytes, payload: bool, **config) -> bytes:
    """``blob``'s header with ``config`` changed and a manifest to match, then a zero payload of that size or none."""
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + hlen])
    header["config"].update(config)
    shapes = oracles.param_shapes(**header["config"])
    header["params"] = [{"name": n, "shape": list(shapes[n])} for n in sorted(shapes)]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = bytes(4 * sum(int(np.prod(shape)) for shape in shapes.values())) if payload else b""
    return blob[:8] + len(head).to_bytes(4, "little") + head + body


def _with_header(blob: bytes, **fields) -> bytes:
    """``blob`` with ``fields`` set in its header (a float infinity is written as JSON's ``Infinity``)."""
    hlen = int.from_bytes(blob[8:12], "little")
    header = {**json.loads(blob[12 : 12 + hlen]), **fields}
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + len(head).to_bytes(4, "little") + head + blob[12 + hlen :]


def _oversized_config(blob: bytes) -> bytes:
    """A header-only file whose config and manifest claim 256 base filters, about 3 million weights."""
    return _claim_architecture(blob, payload=False, base_filters=256)


CHECKPOINT_CORRUPTIONS = {
    "truncated-payload": lambda blob: blob[:-100],
    "trailing-bytes": lambda blob: blob + bytes(4),
    "ten-bytes": lambda blob: blob[:10],
    "oversized-header-length": lambda blob: blob[:8] + (2**31).to_bytes(4, "little") + blob[12:],
    "header-not-object": lambda blob: blob[:8] + (2).to_bytes(4, "little") + b"[]",
    "missing-parameter": _drop_last_param,
    "oversized-config": _oversized_config,
    "other-architecture": lambda blob: _claim_architecture(blob, payload=True, n_blocks=3),
    "deeply-nested-header": lambda blob: blob[:8] + (200_000).to_bytes(4, "little") + b"[" * 200_000,
    "infinite-seed": lambda blob: _with_header(blob, seed=float("inf")),
}


@pytest.mark.parametrize("corrupt", CHECKPOINT_CORRUPTIONS.values(), ids=CHECKPOINT_CORRUPTIONS)
def test_checkpoint_rejects_corruption_naming_the_file(tmp_path, corrupt):
    good = tmp_path / "good.uqp"
    TinySegmenter(seed=1).save(good)
    bad = tmp_path / "corrupt.uqp"
    bad.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(PredictorError, match="corrupt.uqp"):
        TinySegmenter.load(bad)


@st.composite
def damaged(draw, blob: bytes, hot: int) -> bytes:
    """``blob`` cut short, or with 1-4 bytes flipped, half of them among its first ``hot`` bytes."""
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.one_of(st.integers(0, hot - 1), st.integers(0, len(blob) - 1)))
        out[at] ^= draw(st.integers(1, 255))
    return bytes(out)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_reads_or_raises_predictor_error(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("fuzz")
    TinySegmenter(seed=1).save(root / "good.uqp")
    good = (root / "good.uqp").read_bytes()
    bad = data.draw(damaged(good, hot=12 + int.from_bytes(good[8:12], "little")))
    (root / "bad.uqp").write_bytes(bad)
    try:
        model = TinySegmenter.load(root / "bad.uqp")
    except PredictorError as exc:
        assert "bad.uqp" in str(exc)
        return
    # read: the header was accepted, and the parameters are the payload that follows it
    payload = b"".join(model.params[name].tobytes() for name in sorted(model.params))
    assert bad == bad[: 12 + int.from_bytes(bad[8:12], "little")] + payload


def test_checkpoint_rejected_before_allocating_what_its_config_claims(tmp_path):
    good = tmp_path / "good.uqp"
    TinySegmenter(seed=1).save(good)
    bad = tmp_path / "corrupt.uqp"
    bad.write_bytes(_oversized_config(good.read_bytes()))
    tracemalloc.start()
    try:
        with pytest.raises(PredictorError, match="corrupt.uqp"):
            TinySegmenter.load(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_checkpoint_load_memory_is_bounded_by_the_payload(tmp_path, monkeypatch):
    # reading the whole file, copying it out and drawing a discarded initialisation peaked at 3.2x the payload.
    # The 13 kB payload costs a fixed ~8 kB more to load, so the bound is the file plus the payload, which a
    # whole-file read exceeds once it copies the parameters out; parameters left as views into it own no memory
    model = TinySegmenter(seed=2)
    path = tmp_path / "model.uqp"
    model.save(path)
    payload = sum(arr.nbytes for arr in model.params.values())
    monkeypatch.setattr(predictor, "_init_params", None)  # loading must not draw an initialisation
    tracemalloc.start()
    try:
        back = TinySegmenter.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + payload, (peak, payload)
    assert all(arr.flags.owndata and arr.flags.writeable for arr in back.params.values())
    assert (back.config, back.seed) == (model.config, model.seed)
    assert sorted(back.params) == sorted(model.params)
    for name, arr in model.params.items():
        assert back.params[name].shape == arr.shape
        assert back.params[name].tobytes() == arr.tobytes()
