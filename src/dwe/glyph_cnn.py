"""LeNet-style glyph feature network with hand-written forward/backward.

Layout for a 28x28 binary input: conv(5x5, 6) -> maxpool 2x2 -> ReLU ->
conv(5x5, 16) -> maxpool 2x2 -> ReLU -> flatten(256) -> fc 120 -> ReLU ->
fc 84 -> ReLU -> fc d. Convolutions are valid (no padding), stride 1, and
unrolled into one GEMM each (im2col). Pooling is 2x2 stride 2 with the
gradient going to the first (row-major) position that holds the max.
ReLU comes after pooling: the two commute, and the pooled array is 4x
smaller.

Activations stay channels-last, (B, H, W, C), from the input to the
flatten, which reads the last pooled map in (C, H, W) order; that order
fixes the row order of fc1_w. Conv weights are (O, C, k, k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .morphology import GLYPH_SIDE

FLAT_SIZE = 256  # 16 * 4 * 4 after two conv/pool stages


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
        return CnnParams(*(np.zeros_like(t) for _, t in self.tensors()))

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


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Valid stride-1 convolution of x (B, H, W, C); returns the output
    (B, Ho, Wo, O) and the columns (B, Ho, Wo, C*k*k) it was computed from."""
    o, c, k, _ = w.shape
    win = sliding_window_view(x, (k, k), axis=(1, 2))  # (B, Ho, Wo, C, k, k)
    col = win.reshape(*win.shape[:3], c * k * k)
    return col @ w.reshape(o, -1).T + b, col


def _conv_grads(dout: np.ndarray, col: np.ndarray, w: np.ndarray):
    """(dw, db) of _conv from its output gradient dout (B, Ho, Wo, O).
    Float sums depend on memory order: both reductions run over an
    NCHW-ordered copy of dout, the order that fixes the bits of trained
    checkpoints."""
    d = np.ascontiguousarray(dout.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    dw = np.tensordot(d, col, axes=([0, 1, 2], [0, 1, 2])).reshape(w.shape)
    return dw, d.sum(axis=(0, 1, 2))


def _conv_input_grad(dout: np.ndarray, w: np.ndarray, x_shape) -> np.ndarray:
    """Gradient of _conv w.r.t. its input x (x_shape): col2im as k*k
    slice-adds."""
    o, c, k, _ = w.shape
    dcol = dout @ w.reshape(o, -1)                      # (B, Ho, Wo, C*k*k)
    b, ho, wo = dcol.shape[:3]
    dcol = dcol.reshape(b, ho, wo, c, k, k)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, i:i + ho, j:j + wo] += dcol[..., i, j]
    return dx


def _quadrants(a: np.ndarray) -> list[np.ndarray]:
    """The four positions of every 2x2 window of a (B, H, W, C), as
    strided views in row-major window order."""
    return [a[:, r::2, c::2] for r in (0, 1) for c in (0, 1)]


def _pool(a: np.ndarray) -> np.ndarray:
    q = _quadrants(a)
    return np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))


def _unpool(dmax: np.ndarray, pre: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """Route dmax to the first row-major position of each window of pre
    that equals its max `pooled`; every other position gets zero."""
    dpre = np.empty(pre.shape, dtype=dmax.dtype)
    free = np.ones(pooled.shape, dtype=bool)
    for src, dst in zip(_quadrants(pre), _quadrants(dpre)):
        hit = free & (src == pooled)
        np.multiply(dmax, hit, out=dst)
        free &= ~hit
    return dpre


@dataclass
class CnnTape:
    """Activations one forward pass leaves for the backward pass; maxN is
    the pooled conv output before ReLU."""
    col1: np.ndarray     # (B, 24, 24, 25)
    pre1: np.ndarray     # (B, 24, 24, 6)
    max1: np.ndarray     # (B, 12, 12, 6)
    col2: np.ndarray     # (B, 8, 8, 150)
    pre2: np.ndarray     # (B, 8, 8, 16)
    max2: np.ndarray     # (B, 4, 4, 16)
    flat: np.ndarray     # (B, 256)
    pre_fc1: np.ndarray  # (B, 120)
    pre_fc2: np.ndarray  # (B, 84)


def cnn_forward_batch(params: CnnParams, bitmaps: np.ndarray):
    """Feature vectors for a stack of bitmaps, shape (B, 28, 28), in the
    dtype of params."""
    bitmaps = np.asarray(bitmaps)
    if bitmaps.ndim != 3 or bitmaps.shape[1:] != (GLYPH_SIDE, GLYPH_SIDE):
        raise ValueError(f"expected (B, {GLYPH_SIDE}, {GLYPH_SIDE}) bitmaps, got {bitmaps.shape}")
    x = bitmaps.astype(params.conv1_w.dtype)[..., None]

    pre1, col1 = _conv(x, params.conv1_w, params.conv1_b)
    max1 = _pool(pre1)
    pre2, col2 = _conv(np.maximum(max1, 0), params.conv2_w, params.conv2_b)
    max2 = _pool(pre2)
    flat = np.maximum(max2, 0).transpose(0, 3, 1, 2).reshape(len(x), FLAT_SIZE)
    pre_fc1 = flat @ params.fc1_w + params.fc1_b
    pre_fc2 = np.maximum(pre_fc1, 0) @ params.fc2_w + params.fc2_b
    feature = np.maximum(pre_fc2, 0) @ params.fc3_w + params.fc3_b
    tape = CnnTape(col1, pre1, max1, col2, pre2, max2, flat, pre_fc1, pre_fc2)
    return feature, tape


def cnn_backward_batch(params: CnnParams, tape: CnnTape, grad_output: np.ndarray) -> CnnParams:
    """Gradient of sum_b grad_output[b] . feature[b] w.r.t. every parameter."""
    grad_output = np.asarray(grad_output, dtype=tape.flat.dtype)
    if grad_output.shape != (len(tape.flat), params.dim):
        raise ValueError(f"grad_output shape {grad_output.shape} does not match "
                         f"tape batch {(len(tape.flat), params.dim)}")
    h1 = np.maximum(tape.pre_fc1, 0)
    h2 = np.maximum(tape.pre_fc2, 0)

    dfc3_w = h2.T @ grad_output
    dfc3_b = grad_output.sum(axis=0)
    dh2 = (grad_output @ params.fc3_w.T) * (tape.pre_fc2 > 0)
    dfc2_w = h1.T @ dh2
    dfc2_b = dh2.sum(axis=0)
    dh1 = (dh2 @ params.fc2_w.T) * (tape.pre_fc1 > 0)
    dfc1_w = tape.flat.T @ dh1
    dfc1_b = dh1.sum(axis=0)
    dflat = dh1 @ params.fc1_w.T

    dmax2 = dflat.reshape(-1, 16, 4, 4).transpose(0, 2, 3, 1) * (tape.max2 > 0)
    dpre2 = _unpool(dmax2, tape.pre2, tape.max2)
    dconv2_w, dconv2_b = _conv_grads(dpre2, tape.col2, params.conv2_w)
    dmax1 = _conv_input_grad(dpre2, params.conv2_w, tape.max1.shape) * (tape.max1 > 0)
    dpre1 = _unpool(dmax1, tape.pre1, tape.max1)
    dconv1_w, dconv1_b = _conv_grads(dpre1, tape.col1, params.conv1_w)

    return CnnParams(dconv1_w, dconv1_b, dconv2_w, dconv2_b,
                     dfc1_w, dfc1_b, dfc2_w, dfc2_b, dfc3_w, dfc3_b)
