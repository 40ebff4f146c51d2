"""LeNet-style glyph feature network with hand-written forward/backward.

Layout for a 28x28 binary input: conv(5x5, 6) -> maxpool 2x2 -> ReLU ->
conv(5x5, 16) -> maxpool 2x2 -> ReLU -> flatten(256) -> fc 120 -> ReLU ->
fc 84 -> ReLU -> fc d. Convolutions are valid (no padding), stride 1, and
unrolled into one GEMM each (im2col). Pooling is 2x2 stride 2 with the
gradient going to the first (row-major) position that holds the max.
ReLU comes after pooling: the two commute, and the pooled array is 4x
smaller.

A conv layer reads its input channels-first, (B, C, H, W): the bitmaps
as they are and layer 1's ReLU output, which the ReLU writes in that
order. There a column's rows of k taps are contiguous, so im2col copies
whole runs of k floats. The convs' outputs, the pooled maps and the
gradients are channels-last, (B, H, W, C), up to the flatten, which
reads the last pooled map in (C, H, W) order; that order fixes the row
order of fc1_w. Conv weights are (O, C, k, k).

A pass writes its activations and large intermediates (im2col columns,
conv outputs, pooled maps, unpool masks, the col2im gradients and the
two copies of each conv's output gradient that fix the sum order of its
weight and bias gradients) into a `CnnBuffers` set through `out=` and
in-place ops: the same operations in the same order as on fresh arrays,
so reuse does not change a bit. `DweModel` owns one set for its
training step, and `char_features` makes one per call; other callers
get a fresh set by default. A set grows, at least doubling, to the
largest batch it has seen, after which a training step maps no new
memory. A `CnnTape` is views of its set and lives until the next pass
on that set: the backward pass writes each gradient into the dead
activation of its shape (the columns' gradient into col2, dpre into
pre2 and pre1). Nothing a call returns aliases a set: features and
gradients are fresh arrays.

The forward pass runs its per-glyph stages (im2col, the conv GEMMs,
pooling and the ReLUs) in blocks of CNN_BLOCK glyphs, on CNN_WORKERS
threads when there is more than one block: `run_workers` runs them on
the calling thread and helpers started for the call. numpy releases the
GIL in those loops, so the blocks use a second core. The calling thread takes
every buffer first; a block then writes only its own rows of them, so
blocks write disjoint memory and allocate nothing. Each glyph's output
row is its own GEMM in numpy's stacked `matmul`, so the bits do not
depend on the blocks or the worker count. The fc layers, whose bits do
depend on the row count, run once over the whole batch in the calling
thread, as does the backward pass.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .morphology import GLYPH_SIDE
from .workers import run_workers

FLAT_SIZE = 256  # 16 * 4 * 4 after two conv/pool stages
CNN_BLOCK = 64  # glyphs per block of the forward pass's per-glyph stages
# threads that run the blocks: two, or one on a single-CPU machine
CNN_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)


@dataclass
class CnnParams:
    """The network's tensors; checkpoints and accumulators follow this order."""
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray
    fc3_w: np.ndarray
    fc3_b: np.ndarray

    @property
    def dim(self) -> int:
        return self.fc3_w.shape[1]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def zeros_like(self) -> "CnnParams":
        return CnnParams(*(np.zeros(t.shape, t.dtype) for _, t in self.tensors()))

    def astype(self, dtype) -> "CnnParams":
        return CnnParams(*(t.astype(dtype) for _, t in self.tensors()))


def cnn_shapes(d: int) -> list[tuple[int, ...]]:
    """The shapes of the `CnnParams` tensors in declared order, for output
    dimension d: conv weights (O, C, k, k), fc weights (in, out), biases."""
    return [(6, 1, 5, 5), (6,), (16, 6, 5, 5), (16,),
            (FLAT_SIZE, 120), (120,), (120, 84), (84,), (84, d), (d,)]


def cnn_init(seed: int, d: int, dtype=np.float32) -> CnnParams:
    """Every tensor of `cnn_shapes(d)`, drawn in declared order: each weight
    Glorot-uniform with fans shape[1]·k² and shape[0]·k² (k² = 1 for the fc
    layers), each bias zero."""
    if d < 1:
        raise ValueError(f"output dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)

    def init(shape):
        if len(shape) == 1:
            return np.zeros(shape, dtype=dtype)
        bound = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return CnnParams(*map(init, cnn_shapes(d)))


class CnnBuffers:
    """Named flat arrays that forward and backward passes write into.

    `take(name, shape, dtype)` is a view of the first prod(shape) elements
    of the array `name`; a too small array, or one of another dtype, is
    replaced first by one of prod(shape) elements, or of twice its size
    if that is more. So the first take of a name is exact, an array is
    replaced at most once per doubling of the batch, and a set grows to
    the largest batch it has seen and then allocates nothing. A set that
    never grows, like `char_features`'s, holds no slack: numpy backs
    large arrays with 2 MB huge pages, which make slack past the used
    part resident. `passes` counts the forward and backward passes run
    on the set, which tells a live tape from a stale one. One set serves
    one pass at a time, and only the pass's calling thread takes from it:
    the forward pass's glyph blocks each write their own rows of arrays
    taken for the whole batch, so two blocks never write the same bytes
    (a name is therefore never taken at two sizes per glyph in one pass).
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self.passes = 0

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        n = math.prod(shape)
        a = self._arrays.get(name)
        if a is None or a.size < n or a.dtype != dtype:
            a = self._arrays[name] = np.empty(n if a is None else max(n, 2 * a.size), dtype)
        return a[:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays.values())


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, col: np.ndarray, out: np.ndarray):
    """Valid stride-1 convolution of x (B, C, H, W), C-contiguous in the
    dtype of w, into out (B, Ho, Wo, O), through its columns, written into
    col (B, Ho, Wo, C*k*k). A column's C*k runs of k floats,
    x[b, c, y+i, x:x+k], are contiguous in x, so im2col is one copy of
    k-float items."""
    o, c, k, _ = w.shape
    run = np.dtype((np.void, k * x.itemsize))
    sb, sc, sh, sw = x.strides
    runs = np.ndarray(col.shape[:3] + (c, k), run, x, strides=(sb, sh, sw, sc, sh))
    np.copyto(col.view(run).reshape(runs.shape), runs)
    np.matmul(col, w.reshape(o, -1).T, out=out)
    out += b


def _conv_grads(dout: np.ndarray, col: np.ndarray, w: np.ndarray, buffers: CnnBuffers):
    """(dw, db) of _conv from its output gradient dout (B, Ho, Wo, O).
    Float sums depend on memory order; these keep the order that fixes the
    bits of trained checkpoints. db sums over an NCHW-ordered copy of
    dout, and dw is one product of an (O, B*Ho*Wo) copy with the columns,
    copied from the NCHW one in runs of Ho*Wo floats. That copy stays:
    handed the transposed view of dout instead, OpenBLAS 0.3.31 on an
    AVX-512 Xeon takes other kernels for products of up to 1e6
    multiply-adds, whose bits differ (conv2 at 1-6 float32 glyphs)."""
    o = w.shape[0]
    b, ho, wo = dout.shape[:3]
    nchw = buffers.take("nchw", (b, o, ho, wo), dout.dtype)
    np.copyto(nchw, dout.transpose(0, 3, 1, 2))
    onchw = buffers.take("onchw", (o, b, ho, wo), dout.dtype)
    np.copyto(onchw, nchw.transpose(1, 0, 2, 3))
    dw = np.dot(onchw.reshape(o, -1), col.reshape(-1, col.shape[-1])).reshape(w.shape)
    return dw, nchw.transpose(0, 2, 3, 1).sum(axis=(0, 1, 2))


def _conv_input_grad(dout: np.ndarray, w: np.ndarray, dcol: np.ndarray,
                     dx: np.ndarray) -> np.ndarray:
    """Gradient of _conv w.r.t. its input, written into dx (B, H, W, C):
    the columns' gradient goes into dcol (B, Ho, Wo, C*k*k), then col2im
    as k*k slice-adds."""
    o, c, k, _ = w.shape
    np.matmul(dout, w.reshape(o, -1), out=dcol)
    b, ho, wo = dcol.shape[:3]
    dcol = dcol.reshape(b, ho, wo, c, k, k)
    dx.fill(0)
    for i in range(k):
        for j in range(k):
            dx[:, i:i + ho, j:j + wo] += dcol[..., i, j]
    return dx


def _quadrants(a: np.ndarray) -> list[np.ndarray]:
    """The four positions of every 2x2 window of a (B, H, W, C), as
    strided views in row-major window order."""
    return [a[:, r::2, c::2] for r in (0, 1) for c in (0, 1)]


def _pool(a: np.ndarray, out: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """2x2 max pooling of a (B, H, W, C) into out (B, H/2, W/2, C); lower,
    of the same shape, takes the maximum of the lower two positions of
    each window."""
    q = _quadrants(a)
    np.maximum(q[0], q[1], out=out)
    np.maximum(q[2], q[3], out=lower)
    return np.maximum(out, lower, out=out)


def _unpool(dmax: np.ndarray, pre: np.ndarray, pooled: np.ndarray,
            out: np.ndarray, buffers: CnnBuffers) -> np.ndarray:
    """Route dmax to the first row-major position of each window of pre
    that equals its max `pooled`; every other position gets zero. The
    result goes into out, which may be pre itself: each quadrant is
    compared before it is written. The masks use `buffers`."""
    free = buffers.take("free", pooled.shape, bool)
    hit = buffers.take("hit", pooled.shape, bool)
    free.fill(True)
    for src, dst in zip(_quadrants(pre), _quadrants(out)):
        np.equal(src, pooled, out=hit)
        hit &= free
        np.multiply(dmax, hit, out=dst)
        free ^= hit  # hit is a subset of free
    return out


@dataclass
class CnnTape:
    """The 9 activations one forward pass leaves for the backward pass, as
    views of its buffer set. maxN is the pooled conv output before ReLU,
    hN fcN's output after its in-place ReLU, so hN > 0 is ReLU's mask. A
    tape is valid until the next pass on its set: it serves one backward
    pass, which overwrites col2, pre2 and pre1 with gradients, and a later
    forward pass overwrites all of it."""
    col1: np.ndarray  # (B, 24, 24, 25)
    pre1: np.ndarray  # (B, 24, 24, 6)
    max1: np.ndarray  # (B, 12, 12, 6)
    col2: np.ndarray  # (B, 8, 8, 150)
    pre2: np.ndarray  # (B, 8, 8, 16)
    max2: np.ndarray  # (B, 4, 4, 16)
    flat: np.ndarray  # (B, 256)
    h1: np.ndarray    # (B, 120)
    h2: np.ndarray    # (B, 84)
    buffers: CnnBuffers
    pass_id: int      # buffers.passes after the forward pass


def _run_blocks(stage, n: int) -> None:
    """stage(lo, hi) for each block [lo, hi) of CNN_BLOCK glyphs of n, on
    up to CNN_WORKERS workers (`run_workers`); one block runs on the
    calling thread alone. The block boundaries do not depend on the
    worker count."""
    blocks = [(lo, min(lo + CNN_BLOCK, n)) for lo in range(0, n, CNN_BLOCK)]
    run_workers(blocks, lambda block: stage(*block), min(CNN_WORKERS, len(blocks)), "dwe-cnn")


def cnn_forward_batch(params: CnnParams, bitmaps: np.ndarray,
                      buffers: CnnBuffers | None = None):
    """Feature vectors for a stack of bitmaps, shape (B, 28, 28), in the
    dtype of params, and the tape for `cnn_backward_batch`. Bitmaps of
    another dtype are cast to it unsafely, as `astype` casts; C-contiguous
    bitmaps in the dtype of params are read in place.

    The activations go into `buffers`, a fresh set by default; the tape
    is views of them. The features are a fresh array. The per-glyph
    stages run in blocks of CNN_BLOCK glyphs (see the module docstring).
    """
    bitmaps = np.asarray(bitmaps)
    if bitmaps.ndim != 3 or bitmaps.shape[1:] != (GLYPH_SIDE, GLYPH_SIDE):
        raise ValueError(f"expected (B, {GLYPH_SIDE}, {GLYPH_SIDE}) bitmaps, got {bitmaps.shape}")
    buffers = CnnBuffers() if buffers is None else buffers
    buffers.passes += 1
    dtype = params.conv1_w.dtype
    b = len(bitmaps)

    def take(name, *shape):
        return buffers.take(name, shape, dtype)

    x = np.ascontiguousarray(bitmaps, dtype)[:, None]
    (o1, c1, k, _), o2 = params.conv1_w.shape, params.conv2_w.shape[0]
    s1 = GLYPH_SIDE - k + 1   # conv1's output side, 24
    s2 = s1 // 2 - k + 1      # conv2's, 8
    col1, pre1 = take("col1", b, s1, s1, c1 * k * k), take("pre1", b, s1, s1, o1)
    max1 = take("max1", b, s1 // 2, s1 // 2, o1)
    relu1 = take("relu1", b, o1, s1 // 2, s1 // 2)  # channels-first: conv2 reads it
    col2, pre2 = take("col2", b, s2, s2, o1 * k * k), take("pre2", b, s2, s2, o2)
    max2 = take("max2", b, s2 // 2, s2 // 2, o2)
    flat = take("flat", b, FLAT_SIZE)
    # Until its ReLU writes it, each ReLU's output takes the lower halves of
    # its pooling windows: the same bytes per glyph, so blocks stay disjoint.
    lower1, lower2 = relu1.reshape(max1.shape), flat.reshape(max2.shape)
    relu1_hwc = relu1.transpose(0, 2, 3, 1)
    flat_hwc = flat.reshape(b, o2, s2 // 2, s2 // 2).transpose(0, 2, 3, 1)

    def stage(lo: int, hi: int) -> None:
        _conv(x[lo:hi], params.conv1_w, params.conv1_b, col1[lo:hi], pre1[lo:hi])
        _pool(pre1[lo:hi], max1[lo:hi], lower1[lo:hi])
        np.maximum(max1[lo:hi], 0, out=relu1_hwc[lo:hi])
        _conv(relu1[lo:hi], params.conv2_w, params.conv2_b, col2[lo:hi], pre2[lo:hi])
        _pool(pre2[lo:hi], max2[lo:hi], lower2[lo:hi])
        np.maximum(max2[lo:hi], 0, out=flat_hwc[lo:hi])

    _run_blocks(stage, b)
    h1 = np.matmul(flat, params.fc1_w, out=take("h1", b, params.fc1_w.shape[1]))
    h1 += params.fc1_b
    np.maximum(h1, 0, out=h1)
    h2 = np.matmul(h1, params.fc2_w, out=take("h2", b, params.fc2_w.shape[1]))
    h2 += params.fc2_b
    np.maximum(h2, 0, out=h2)
    feature = h2 @ params.fc3_w + params.fc3_b
    tape = CnnTape(col1, pre1, max1, col2, pre2, max2, flat, h1, h2, buffers, buffers.passes)
    return feature, tape


def cnn_backward_batch(params: CnnParams, tape: CnnTape, grad_output: np.ndarray) -> CnnParams:
    """Gradient of sum_b grad_output[b] . feature[b] w.r.t. every parameter,
    as fresh arrays. The intermediates go into the tape's buffer set. A
    stale tape, one whose set has run a pass since its forward pass, is
    refused."""
    if tape.pass_id != tape.buffers.passes:
        raise ValueError("stale CNN tape: its buffers have run a pass since its forward pass")
    grad_output = np.asarray(grad_output, dtype=tape.flat.dtype)
    if grad_output.shape != (len(tape.flat), params.dim):
        raise ValueError(f"grad_output shape {grad_output.shape} does not match "
                         f"tape batch {(len(tape.flat), params.dim)}")
    buffers = tape.buffers
    buffers.passes += 1

    def take_like(name, like):
        return buffers.take(name, like.shape, like.dtype)

    dfc3_w = tape.h2.T @ grad_output
    dfc3_b = grad_output.sum(axis=0)
    dh2 = np.matmul(grad_output, params.fc3_w.T, out=take_like("dh2", tape.h2))
    dh2 *= tape.h2 > 0
    dfc2_w = tape.h1.T @ dh2
    dfc2_b = dh2.sum(axis=0)
    dh1 = np.matmul(dh2, params.fc2_w.T, out=take_like("dh1", tape.h1))
    dh1 *= tape.h1 > 0
    dfc1_w = tape.flat.T @ dh1
    dfc1_b = dh1.sum(axis=0)
    dflat = np.matmul(dh1, params.fc1_w.T, out=take_like("dflat", tape.flat))

    # once dead, pre2, col2 and pre1 take the gradients of their shapes
    dmax2 = np.multiply(dflat.reshape(-1, 16, 4, 4).transpose(0, 2, 3, 1), tape.max2 > 0,
                        out=take_like("dmax2", tape.max2))
    dpre2 = _unpool(dmax2, tape.pre2, tape.max2, tape.pre2, buffers)
    dconv2_w, dconv2_b = _conv_grads(dpre2, tape.col2, params.conv2_w, buffers)
    dmax1 = _conv_input_grad(dpre2, params.conv2_w, tape.col2, take_like("dmax1", tape.max1))
    dmax1 *= tape.max1 > 0
    dpre1 = _unpool(dmax1, tape.pre1, tape.max1, tape.pre1, buffers)
    dconv1_w, dconv1_b = _conv_grads(dpre1, tape.col1, params.conv1_w, buffers)

    return CnnParams(dconv1_w, dconv1_b, dconv2_w, dconv2_b,
                     dfc1_w, dfc1_b, dfc2_w, dfc2_b, dfc3_w, dfc3_b)
