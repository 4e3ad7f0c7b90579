"""Independent scalar-loop reference implementations.

Everything here is deliberately brute force and shares no code with the
library: plain Python loops, explicit formulas, O(n^2) transforms.  Tests
compare the vectorized implementations against these.  Three exceptions:
:func:`invert_affine`, a baseline rather than an oracle, which takes and
returns the library's parameter container; the ``einsum_conv*``
functions, the numpy layer bodies after them (padding, pooling,
upsampling, softplus) and :func:`whole_stack_forward`, which runs the
library's layers over the whole slice stack: the formulation of the
segmenter the committed golden digests were made with, which the library
must reproduce bit for bit; and the ``window_conv3*`` functions, the
BLAS-direct 3x3 kernels that add each tap's product window by window.
They make the same BLAS calls as the library's kernels on any BLAS core,
so the library must match them bit for bit on every core, including
those where the einsum bodies sum in another order.  The same holds for
:func:`stack_slices`, :func:`resample_at` and :func:`whole_stack_median_iqr`,
the library's earlier full-size bodies of the slice-context input, of
affine resampling and of the voxelwise median/IQR, which the view and
the memory-bounded bodies must reproduce bit for bit.
"""

import math

import numpy as np

from scipy.ndimage import map_coordinates

from uqcat import AffineParams, Volume


def threshold_count(values, tau) -> int:
    n = 0
    for v in np.asarray(values).ravel():
        if v > tau:
            n += 1
    return n


def ball_count(radius: float) -> int:
    """Voxels of the discrete ball ||x - c|| <= r around an integer center."""
    n = 0
    reach = int(math.ceil(radius))
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            for dz in range(-reach, reach + 1):
                if dx * dx + dy * dy + dz * dz <= radius * radius:
                    n += 1
    return n


# --------------------------------------------------------------------------
# affine resampling
# --------------------------------------------------------------------------

def trilinear(arr, x, y, z) -> float:
    """Index-space trilinear interpolation; sample points outside the grid are 0.

    A point is out of bounds as soon as any coordinate leaves [0, n-1]
    (no partial blending at the edges), matching the resampling convention
    of the library and of standard medical-image resamplers.
    """
    nx, ny, nz = arr.shape
    if not (0 <= x <= nx - 1 and 0 <= y <= ny - 1 and 0 <= z <= nz - 1):
        return 0.0

    def at(i, j, k):
        if 0 <= i < nx and 0 <= j < ny and 0 <= k < nz:
            return float(arr[i, j, k])
        return 0.0

    i0, j0, k0 = math.floor(x), math.floor(y), math.floor(z)
    fx, fy, fz = x - i0, y - j0, z - k0
    total = 0.0
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                w = (fx if di else 1 - fx) * (fy if dj else 1 - fy) * (fz if dk else 1 - fz)
                total += w * at(i0 + di, j0 + dj, k0 + dk)
    return total


def rotation_zyx(deg):
    ax, ay, az = (math.radians(a) for a in deg)
    rx = np.array([[1, 0, 0], [0, math.cos(ax), -math.sin(ax)], [0, math.sin(ax), math.cos(ax)]])
    ry = np.array([[math.cos(ay), 0, math.sin(ay)], [0, 1, 0], [-math.sin(ay), 0, math.cos(ay)]])
    rz = np.array([[math.cos(az), -math.sin(az), 0], [math.sin(az), math.cos(az), 0], [0, 0, 1]])
    return rz @ ry @ rx


def affine_resample(arr, spacing, scale, rotation_deg, translation_mm) -> np.ndarray:
    """Scalar re-sampling under y = S R (x - c) + c + t: out(y) = in(A^-1 (y - b))."""
    arr = np.asarray(arr, dtype=np.float64)
    spacing = np.asarray(spacing, dtype=np.float64)
    a = np.diag(scale) @ rotation_zyx(rotation_deg)
    center = (np.array(arr.shape) - 1.0) / 2.0 * spacing
    b = center + np.asarray(translation_mm, dtype=np.float64) - a @ center
    a_inv = np.linalg.inv(a)
    out = np.zeros_like(arr)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            for k in range(arr.shape[2]):
                y_mm = np.array([i, j, k]) * spacing
                x_mm = a_inv @ (y_mm - b)
                xi, yj, zk = x_mm / spacing
                out[i, j, k] = trilinear(arr, xi, yj, zk)
    return out


def resample_at(v: Volume, matrix: np.ndarray, offset: np.ndarray) -> Volume:
    """``augment._resample_at`` with every coordinate array and a float64 copy of the input alive."""
    spacing = np.array(v.spacing, dtype=np.float64)
    idx = np.indices(v.dims, dtype=np.float64).reshape(3, -1)
    mm = idx * spacing[:, None]
    src_mm = matrix @ mm + offset[:, None]
    src_idx = src_mm / spacing[:, None]
    out = map_coordinates(
        v.data.astype(np.float64), src_idx, order=1, mode="constant", cval=0.0
    ).reshape(v.dims)
    return Volume(out, v.spacing)


def invert_affine(p: AffineParams) -> AffineParams:
    """Parameterized inverse: reciprocal scales, negated angles, back-mapped translation.

    The scale-then-rotate family is not closed under inversion when the
    scaling is anisotropic, so this is exact only for axis-aligned or
    isotropic cases; for small perturbations the residual is far below
    interpolation error.  It is the approximate baseline that exact inverse
    resampling is compared against.
    """
    scale = tuple(1.0 / s for s in p.scale)
    rotation = tuple(-r for r in p.rotation_deg)
    a_inv_approx = np.diag(scale) @ rotation_zyx(rotation)
    t = -(a_inv_approx @ np.array(p.translation_mm, dtype=np.float64))
    return AffineParams(scale, rotation, tuple(t))


# --------------------------------------------------------------------------
# ghosting via brute-force DFT
# --------------------------------------------------------------------------

def _dft(line):
    n = len(line)
    return [
        sum(line[m] * complex(math.cos(-2 * math.pi * f * m / n), math.sin(-2 * math.pi * f * m / n)) for m in range(n))
        for f in range(n)
    ]


def _idft(spectrum):
    n = len(spectrum)
    return [
        sum(
            spectrum[f] * complex(math.cos(2 * math.pi * f * m / n), math.sin(2 * math.pi * f * m / n))
            for f in range(n)
        ).real
        / n
        for m in range(n)
    ]


def ghost_attenuate(arr, axis, strength, num_ghosts, protected_fraction=0.02) -> np.ndarray:
    """O(n^2) DFT along ``axis``; every k-th plane (k = n // num_ghosts) times (1 - strength)."""
    arr = np.asarray(arr, dtype=np.float64)
    moved = np.moveaxis(arr, axis, -1)
    n = moved.shape[-1]
    k = n // num_ghosts
    factors = [1.0] * n
    for f in range(k, n, k):
        if min(f, n - f) > protected_fraction * n:
            factors[f] = 1.0 - strength
    flat = np.ascontiguousarray(moved).reshape(-1, n)
    out_flat = np.empty_like(flat)
    for row in range(flat.shape[0]):
        spectrum = _dft(list(flat[row]))
        spectrum = [s * fac for s, fac in zip(spectrum, factors)]
        out_flat[row] = _idft(spectrum)
    return np.moveaxis(out_flat.reshape(moved.shape), -1, axis)


# --------------------------------------------------------------------------
# bias field
# --------------------------------------------------------------------------

def bias_field_value(dims, coeff_by_monomial, i, j, k) -> float:
    """exp(sum c_pqr u^p v^q w^r) at one voxel, with per-axis [-1, 1] coordinates."""

    def unit(idx, n):
        return 0.0 if n == 1 else -1.0 + 2.0 * idx / (n - 1)

    u, v, w = unit(i, dims[0]), unit(j, dims[1]), unit(k, dims[2])
    log_field = 0.0
    for (p, q, r), c in coeff_by_monomial.items():
        log_field += c * (u**p) * (v**q) * (w**r)
    return math.exp(log_field)


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def pearson(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def quantile_linear(values, q) -> float:
    """Linear interpolation between order statistics at position q*(n-1)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(s[lo])
    frac = pos - lo
    return float(s[lo] * (1 - frac) + s[hi] * frac)


def whole_stack_median_iqr(maps) -> tuple[Volume, Volume]:
    """``analysis.voxelwise_median_iqr`` over one float64 stack of every map."""
    stack = np.stack([m.data for m in maps]).astype(np.float64)
    q1, med, q3 = np.percentile(stack, [25.0, 50.0, 75.0], axis=0)
    return Volume(med, maps[0].spacing), Volume(q3 - q1, maps[0].spacing)


def entropy_bits(p: float) -> float:
    h = 0.0
    if p > 0:
        h -= p * math.log2(p)
    if 1 - p > 0:
        h -= (1 - p) * math.log2(1 - p)
    return h


def stack_stats(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-voxel mean / population variance / entropy of an (n, X, Y, Z) stack."""
    samples = np.asarray(samples)
    n = samples.shape[0]
    dims = samples.shape[1:]
    mean = np.zeros(dims)
    var = np.zeros(dims)
    ent = np.zeros(dims)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                vals = [float(samples[s, i, j, k]) for s in range(n)]
                m = sum(vals) / n
                mean[i, j, k] = m
                var[i, j, k] = sum((v - m) ** 2 for v in vals) / n
                ent[i, j, k] = entropy_bits(m)
    return mean, var, ent


def soft_dice(p, y, eps=1.0) -> float:
    inter = s_p = s_y = 0.0
    for pv, yv in zip(np.asarray(p).ravel(), np.asarray(y).ravel()):
        inter += float(pv) * float(yv)
        s_p += float(pv)
        s_y += float(yv)
    return 1.0 - (2.0 * inter + eps) / (s_p + s_y + eps)


def bce(p, y, clip=1e-7) -> float:
    total = 0.0
    flat_p = np.asarray(p).ravel()
    flat_y = np.asarray(y).ravel()
    for pv, yv in zip(flat_p, flat_y):
        pc = min(max(float(pv), clip), 1.0 - clip)
        total += -(float(yv) * math.log(pc) + (1.0 - float(yv)) * math.log(1.0 - pc))
    return total / len(flat_p)


def composite(p, y, w_ce=0.3, w_dice=0.7) -> float:
    return w_ce * bce(p, y) + w_dice * soft_dice(p, y)


def dice_overlap(a, b) -> float:
    sa = sb = inter = 0
    for av, bv in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        av = av > 0.5
        bv = bv > 0.5
        sa += av
        sb += bv
        inter += av and bv
    if sa + sb == 0:
        return 1.0
    return 2.0 * inter / (sa + sb)


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks for ties."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for idx in order[i : j + 1]:
                r[idx] = avg
            i = j + 1
        return r

    return pearson(ranks(list(xs)), ranks(list(ys)))


# --------------------------------------------------------------------------
# convolutions
# --------------------------------------------------------------------------

def conv3_loops(x, w, b) -> np.ndarray:
    """3x3 'same' zero-padded convolution; x is (B, C, H, W), w is (F, C, 3, 3)."""
    bsz, c_in, h, wd = x.shape
    out = np.zeros((bsz, w.shape[0], h, wd))
    for n in range(bsz):
        for f in range(w.shape[0]):
            for i in range(h):
                for j in range(wd):
                    total = float(b[f])
                    for c in range(c_in):
                        for di in range(3):
                            for dj in range(3):
                                ii, jj = i + di - 1, j + dj - 1
                                if 0 <= ii < h and 0 <= jj < wd:
                                    total += float(w[f, c, di, dj]) * float(x[n, c, ii, jj])
                    out[n, f, i, j] = total
    return out


def conv3_backward_loops(dout, x, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dw, db) of :func:`conv3_loops` for the upstream gradient ``dout``."""
    bsz, c_in, h, wd = x.shape
    dx = np.zeros(x.shape)
    dw = np.zeros(w.shape)
    db = np.zeros(w.shape[0])
    for n in range(bsz):
        for f in range(w.shape[0]):
            for i in range(h):
                for j in range(wd):
                    g = float(dout[n, f, i, j])
                    db[f] += g
                    for c in range(c_in):
                        for di in range(3):
                            for dj in range(3):
                                ii, jj = i + di - 1, j + dj - 1
                                if 0 <= ii < h and 0 <= jj < wd:
                                    dw[f, c, di, dj] += g * float(x[n, c, ii, jj])
                                    dx[n, c, ii, jj] += g * float(w[f, c, di, dj])
    return dx, dw, db


def einsum_conv3(x, w, b):
    bsz, _, h, wd = x.shape
    out = np.empty((bsz, w.shape[0], h, wd), dtype=x.dtype)
    out[:] = b[None, :, None, None]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for di in range(3):
        for dj in range(3):
            out += np.einsum(
                "fc,bchw->bfhw", w[:, :, di, dj], xp[:, :, di : di + h, dj : dj + wd], optimize=True
            )
    return out


def einsum_conv3_backward(dout, x, w):
    bsz, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    db = dout.sum(axis=(0, 2, 3))
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di : di + h, dj : dj + wd]
            dw[:, :, di, dj] = np.einsum("bfhw,bchw->fc", dout, patch, optimize=True)
            dxp[:, :, di : di + h, dj : dj + wd] += np.einsum(
                "fc,bfhw->bchw", w[:, :, di, dj], dout, optimize=True
            )
    return dxp[:, :, 1:-1, 1:-1], dw, db


def window_conv3(x, w, b):
    """BLAS-direct forward that adds each tap's shifted window of the padded product."""
    from uqcat import predictor

    bsz, c, h, wd = x.shape
    f = w.shape[0]
    xp = predictor._pad1(x).reshape(bsz, c, -1)
    out = np.empty((bsz, f, h, wd), dtype=x.dtype)
    out[:] = b[None, :, None, None]
    for di in range(3):
        for dj in range(3):
            out += (w[:, :, di, dj] @ xp).reshape(bsz, f, h + 2, wd + 2)[:, :, di : di + h, dj : dj + wd]
    return out


def window_conv3_backward(dout, x, w):
    """BLAS-direct backward with batched dx products added window by window."""
    from uqcat import predictor

    bsz, c, h, wd = x.shape
    f = w.shape[0]
    xt = predictor._pad1(x.transpose(1, 0, 2, 3))
    d3 = dout.reshape(bsz, f, h * wd)
    dmat = dout.transpose(0, 2, 3, 1).reshape(-1, f)
    dxp = np.zeros((bsz, c, h + 2, wd + 2), dtype=x.dtype)
    dw = np.empty_like(w)
    for di in range(3):
        for dj in range(3):
            dw[:, :, di, dj] = (xt[:, :, di : di + h, dj : dj + wd].reshape(c, -1) @ dmat).T
            dxp[:, :, di : di + h, dj : dj + wd] += (w[:, :, di, dj].T @ d3).reshape(bsz, c, h, wd)
    return dxp[:, :, 1:-1, 1:-1], dw, dout.sum(axis=(0, 2, 3))


def einsum_conv1(x, w, b):
    return np.einsum("fc,bchw->bfhw", w[:, :, 0, 0], x, optimize=True) + b[None, :, None, None]


def einsum_conv1_backward(dout, x, w):
    dw = np.zeros_like(w)
    dw[:, :, 0, 0] = np.einsum("bfhw,bchw->fc", dout, x, optimize=True)
    db = dout.sum(axis=(0, 2, 3))
    dx = np.einsum("fc,bfhw->bchw", w[:, :, 0, 0], dout, optimize=True)
    return dx, dw, db


def pad1(x):
    return np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))


def avgpool2(x):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def avgpool2_backward(dout):
    return np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) / 4.0


def upsample2(x):
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def upsample2_backward(dout):
    b, c, h, w = dout.shape
    return dout.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def softplus(x):
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


# --------------------------------------------------------------------------
# segmenter forward
# --------------------------------------------------------------------------

def stack_slices(v: Volume, context: int, dtype) -> np.ndarray:
    """(nz, 2*context+1, nx, ny) slice-context input, gathered channel by channel with clamped z indices."""
    nx, ny, nz = v.dims
    x = np.empty((nz, 2 * context + 1, nx, ny), dtype=dtype)
    for c, off in enumerate(range(-context, context + 1)):
        zidx = np.clip(np.arange(nz) + off, 0, nz - 1)
        x[:, c] = np.moveaxis(v.data[:, :, zidx], 2, 0)
    return x


def param_shapes(context_slices: int, n_blocks: int, base_filters: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape for an ``n_blocks``-level network whose filters double per level, in init order."""
    filters = [base_filters * 2**i for i in range(n_blocks)]
    shapes, c_in = {}, 2 * context_slices + 1
    for i in range(n_blocks - 1):
        shapes[f"enc{i}.W"], shapes[f"enc{i}.b"] = (filters[i], c_in, 3, 3), (filters[i],)
        c_in = filters[i]
    shapes["bot.W"], shapes["bot.b"] = (filters[-1], c_in, 3, 3), (filters[-1],)
    for i in reversed(range(n_blocks - 1)):
        shapes[f"dec{i}.W"], shapes[f"dec{i}.b"] = (filters[i], filters[i + 1] + filters[i], 3, 3), (filters[i],)
    shapes["head.W"], shapes["head.b"] = (1, filters[0], 1, 1), (1,)
    return shapes


def whole_stack_forward(model, x, params, rate, rng, want_cache):
    """``TinySegmenter._forward_slices`` with every layer over the whole slice stack.

    Each block draws its dropout mask right after its activation.
    """
    from uqcat import predictor

    n_blocks = model.config.n_blocks
    cache: list = []
    skips: list = []
    h = x

    def block(name, inp):
        pre = predictor._conv3(inp, params[f"{name}.W"], params[f"{name}.b"])
        act = predictor._softplus(pre)
        if want_cache:
            cache.append({"name": name, "x": inp, "pre": pre})
        if rate > 0.0:
            return act * predictor.channel_dropout_scale(act.shape[1], rate, rng, act.dtype)[None, :, None, None]
        return act

    for i in range(n_blocks - 1):
        h = block(f"enc{i}", h)
        skips.append(h)
        h = predictor._avgpool2(h)
    h = block("bot", h)
    for i in reversed(range(n_blocks - 1)):
        skip, deep = skips[i], h.shape[1]
        cat = np.empty((skip.shape[0], deep + skip.shape[1], *skip.shape[2:]), dtype=skip.dtype)
        predictor._upsample2(h, out=cat[:, :deep])
        cat[:, deep:] = skip
        h = block(f"dec{i}", cat)
    logits = predictor._conv1(h, params["head.W"], params["head.b"])
    if want_cache:
        cache.append({"name": "head", "x": h})
    return logits, cache
