import os
import signal
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from dwe import glyph_cnn
from dwe.glyph_cnn import (CNN_BLOCK, CnnBuffers, CnnParams, CnnTape, _conv, _conv_grads, _pool,
                           _run_blocks, _unpool, cnn_backward_batch, cnn_forward_batch, cnn_init,
                           cnn_shapes)
from helpers import check_grad_tensor


def random_bitmap(seed):
    return np.random.default_rng(seed).integers(0, 2, (28, 28)).astype(np.uint8)


class TestForward:
    def test_zero_input_zero_bias_gives_fc3_bias(self):
        params = cnn_init(0, 8, np.float64)
        params.fc3_b[:] = np.arange(8, dtype=np.float64)
        feat, _ = cnn_forward_batch(params, np.zeros((1, 28, 28)))
        np.testing.assert_allclose(feat[0], params.fc3_b)

    def test_shape_trace(self):
        params = cnn_init(1, 5, np.float64)
        feat, tape = cnn_forward_batch(params, random_bitmap(0)[None])
        assert tape.col1.shape == (1, 24, 24, 25)
        assert tape.pre1.shape == (1, 24, 24, 6)
        assert tape.max1.shape == (1, 12, 12, 6)
        assert tape.col2.shape == (1, 8, 8, 150)
        assert tape.pre2.shape == (1, 8, 8, 16)
        assert tape.max2.shape == (1, 4, 4, 16)
        assert tape.flat.shape == (1, 256)
        assert tape.h1.shape == (1, 120)
        assert tape.h2.shape == (1, 84)
        assert feat[0].shape == (5,)
        # the flatten reads the channels-last map in (C, H, W) order
        np.testing.assert_array_equal(tape.flat[0].reshape(16, 4, 4),
                                      np.maximum(tape.max2[0], 0).transpose(2, 0, 1))

    def test_purity(self):
        params = cnn_init(2, 7, np.float64)
        bm = random_bitmap(3)
        f1, _ = cnn_forward_batch(params, bm[None])
        f2, _ = cnn_forward_batch(params, bm[None])
        np.testing.assert_array_equal(f1, f2)

    def test_batch_matches_single(self):
        params = cnn_init(3, 6, np.float64)
        bms = np.stack([random_bitmap(i) for i in range(4)])
        batch, _ = cnn_forward_batch(params, bms)
        for i in range(4):
            single, _ = cnn_forward_batch(params, bms[i][None])
            np.testing.assert_allclose(batch[i], single[0])

    def test_bad_shape(self):
        params = cnn_init(0, 4)
        with pytest.raises(ValueError):
            cnn_forward_batch(params, np.zeros((2, 27, 28)))

    @pytest.mark.parametrize("kind", ["uint8", "bool", "float64", "strided", "empty"])
    def test_any_bitmaps_match_their_contiguous_float32_copy(self, kind):
        params = cnn_init(8, 6)
        rng = np.random.default_rng(12)
        ints = rng.integers(0, 2, (6, 28, 28))
        bitmaps = {"uint8": ints.astype(np.uint8),
                   "bool": ints.astype(bool),
                   "float64": rng.normal(0, 1, (6, 28, 28)),  # rounds to float32
                   "strided": ints.astype(np.float32)[::2],
                   "empty": np.zeros((0, 28, 28), np.uint8)}[kind]
        feat, tape = cnn_forward_batch(params, bitmaps)
        want, want_tape = cnn_forward_batch(params, np.ascontiguousarray(bitmaps, np.float32))
        assert feat.shape == want.shape == (len(bitmaps), 6)
        assert feat.dtype == want.dtype and feat.tobytes() == want.tobytes()
        assert tape.col1.tobytes() == want_tape.col1.tobytes()


# (input channels, side, output channels) of conv1 and conv2
CONV_LAYERS = pytest.mark.parametrize("c, side, o", [(1, 28, 6), (6, 12, 16)])
CONV_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
CONV_BATCHES = pytest.mark.parametrize("b", [1, 2, 33, 257])


class TestConv:
    @CONV_LAYERS
    @CONV_DTYPES
    @CONV_BATCHES
    def test_columns_are_the_sliding_window_copy(self, c, side, o, dtype, b):
        rng = np.random.default_rng(b * c)
        x = rng.normal(0, 1, (b, c, side, side)).astype(dtype)
        w = rng.normal(0, 1, (o, c, 5, 5)).astype(dtype)
        col = np.empty((b, side - 4, side - 4, c * 25), dtype)
        _conv(x, w, np.zeros(o, dtype), col, np.empty((b, side - 4, side - 4, o), dtype))
        win = sliding_window_view(x.transpose(0, 2, 3, 1), (5, 5), axis=(1, 2))
        assert col.tobytes() == win.reshape(col.shape).tobytes()

    @CONV_LAYERS
    @CONV_DTYPES
    @CONV_BATCHES
    def test_weight_gradient_is_the_product_of_a_copy(self, c, side, o, dtype, b):
        # dw is bit-equal to the product of the (O, B*Ho*Wo) copy of dout; a
        # product of its transposed view is not at batches 1 and 2 (conv2 in
        # float32, conv1 in float64)
        rng = np.random.default_rng(b * c + 1)
        ho = side - 4
        dout = rng.normal(0, 1, (b, ho, ho, o)).astype(dtype)
        col = rng.normal(0, 1, (b, ho, ho, c * 25)).astype(dtype)
        w = np.zeros((o, c, 5, 5), dtype)
        dw, _ = _conv_grads(dout, col, w, CnnBuffers())
        onchw = np.ascontiguousarray(dout.transpose(3, 0, 1, 2)).reshape(o, -1)
        want = np.dot(onchw, col.reshape(-1, c * 25)).reshape(w.shape)
        assert dw.dtype == want.dtype and dw.tobytes() == want.tobytes()


class TestInit:
    def test_deterministic(self):
        a, b = cnn_init(7, 12), cnn_init(7, 12)
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(ta, tb)

    def test_shapes_follow_the_table(self):
        params = cnn_init(4, 9)
        assert [t.shape for _, t in params.tensors()] == cnn_shapes(9)
        assert params.dim == 9

    def test_biases_zero(self):
        params = cnn_init(4, 9)
        for name, t in params.tensors():
            if name.endswith("_b"):
                assert (t == 0).all()

    def test_weight_bounds(self):
        params = cnn_init(5, 10, np.float64)
        fans = {"conv1_w": (25, 150), "conv2_w": (150, 400),
                "fc1_w": (256, 120), "fc2_w": (120, 84), "fc3_w": (84, 10)}
        for name, t in params.tensors():
            if name in fans:
                fan_in, fan_out = fans[name]
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.abs(t).max() <= bound

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            cnn_init(0, 0)


class TestBackward:
    def test_zero_grad_output_zero_grads(self):
        params = cnn_init(0, 8, np.float64)
        _, tape = cnn_forward_batch(params, random_bitmap(1)[None])
        grads = cnn_backward_batch(params, tape, np.zeros((1, 8)))
        for _, t in grads.tensors():
            assert (t == 0).all()

    def test_fc3_bias_gradient_is_grad_output(self):
        params = cnn_init(1, 8, np.float64)
        _, tape = cnn_forward_batch(params, random_bitmap(2)[None])
        go = np.arange(8, dtype=np.float64)
        grads = cnn_backward_batch(params, tape, go[None])
        np.testing.assert_array_equal(grads.fc3_b, go)

    def test_mismatched_grad_output(self):
        params = cnn_init(1, 8, np.float64)
        _, tape = cnn_forward_batch(params, random_bitmap(2)[None])
        with pytest.raises(ValueError):
            cnn_backward_batch(params, tape, np.zeros((2, 8)))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bitmap_seed", [10, 11, 12])
    def test_finite_differences(self, seed, bitmap_seed):
        d = 8
        params = cnn_init(seed, d, np.float64)
        rng = np.random.default_rng(seed * 100 + bitmap_seed)
        bm = random_bitmap(bitmap_seed)
        go = rng.normal(0, 1, d)

        def loss():
            feat, _ = cnn_forward_batch(params, bm[None])
            return float(go @ feat[0])

        _, tape = cnn_forward_batch(params, bm[None])
        grads = cnn_backward_batch(params, tape, go[None])
        for (name, p), (_, g) in zip(params.tensors(), grads.tensors()):
            worst = check_grad_tensor(p, g, loss, rng, max_coords=15)
            assert worst < 1e-4, f"{name}: rel err {worst}"


class TestBuffers:
    def test_reused_set_matches_fresh_calls(self):
        # batches larger and smaller than the set has seen leave nothing
        # behind: features and all ten gradients are bit-equal to a fresh set's
        params = cnn_init(6, 7)
        rng = np.random.default_rng(9)
        buffers = CnnBuffers()
        for b in (5, 33, 7, 44, 1):
            bitmaps = rng.integers(0, 2, (b, 28, 28)).astype(np.float32)
            go = rng.normal(0, 1, (b, 7)).astype(np.float32)
            feat, tape = cnn_forward_batch(params, bitmaps, buffers)
            grads = cnn_backward_batch(params, tape, go)
            fresh_feat, fresh_tape = cnn_forward_batch(params, bitmaps)
            fresh = cnn_backward_batch(params, fresh_tape, go)
            assert feat.tobytes() == fresh_feat.tobytes()
            for (name, g), (_, f) in zip(grads.tensors(), fresh.tensors()):
                assert g.dtype == f.dtype and g.tobytes() == f.tobytes(), (b, name)
            if b == 44:
                grown = buffers.nbytes
        assert buffers.nbytes == grown  # the largest batch sized the set

    def test_take_at_least_doubles(self):
        buffers = CnnBuffers()
        first = buffers.take("a", (5,), np.float32)
        assert buffers._arrays["a"].size == 5  # a first take is exact
        grown = buffers.take("a", (6,), np.float32)
        base = buffers._arrays["a"]
        assert base.size == 10 and not np.shares_memory(grown, first)
        for n in range(6, 11):
            a = buffers.take("a", (n,), np.float32)
            assert buffers._arrays["a"] is base and np.shares_memory(a, grown)
        buffers.take("a", (3, 9), np.float32)
        assert buffers._arrays["a"].size == 27  # past twice the size: exact

    def test_bytes_a_step_takes(self):
        # at 44 glyphs and dim 32, as on train-glyph: the names and the most
        # bytes taken under each
        class Recording(CnnBuffers):
            def __init__(self):
                super().__init__()
                self.taken = {}

            def take(self, name, shape, dtype):
                a = super().take(name, shape, dtype)
                self.taken[name] = max(self.taken.get(name, 0), a.nbytes)
                return a

        params = cnn_init(1, 32)
        rng = np.random.default_rng(3)
        buffers = Recording()
        bitmaps = rng.integers(0, 2, (44, 28, 28)).astype(np.float32)
        _, tape = cnn_forward_batch(params, bitmaps, buffers)
        assert sorted(buffers.taken) == ["col1", "col2", "flat", "h1", "h2", "max1", "max2",
                                         "pre1", "pre2", "relu1"]
        assert sum(buffers.taken.values()) == 5_442_624
        cnn_backward_batch(params, tape, rng.normal(0, 1, (44, 32)).astype(np.float32))
        assert sorted(buffers.taken) == ["col1", "col2", "dflat", "dh1", "dh2", "dmax1",
                                         "dmax2", "flat", "free", "h1", "h2", "hit", "max1",
                                         "max2", "nchw", "onchw", "pre1", "pre2", "relu1"]
        assert sum(buffers.taken.values()) == 7_013_248

    def test_results_do_not_alias_the_set(self):
        params = cnn_init(2, 4)
        buffers = CnnBuffers()
        feat, tape = cnn_forward_batch(params, random_bitmap(4)[None], buffers)
        grads = cnn_backward_batch(params, tape, np.ones((1, 4), np.float32))
        arrays = list(buffers._arrays.values())
        for _, g in [("feature", feat)] + grads.tensors():
            assert not any(np.shares_memory(g, a) for a in arrays)

    def test_stale_tape_refused(self):
        params = cnn_init(3, 4)
        buffers = CnnBuffers()
        _, first = cnn_forward_batch(params, random_bitmap(5)[None], buffers)
        _, second = cnn_forward_batch(params, random_bitmap(6)[None], buffers)
        go = np.ones((1, 4), np.float32)
        with pytest.raises(ValueError, match="stale"):
            cnn_backward_batch(params, first, go)
        cnn_backward_batch(params, second, go)
        with pytest.raises(ValueError, match="stale"):  # it overwrote pre1, pre2 and col2
            cnn_backward_batch(params, second, go)


class TestBlocks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, CNN_BLOCK - 1, CNN_BLOCK, CNN_BLOCK + 1, 4 * CNN_BLOCK + 1])
    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, dtype, b):
        # features, every tape array and every gradient at 1, 2 and 3
        # workers; 3 is more threads than the blocks' two cores, and a short
        # switch interval interleaves them finely
        params = cnn_init(b, 9, dtype)
        rng = np.random.default_rng(b)
        bitmaps = rng.integers(0, 2, (b, 28, 28)).astype(np.uint8)
        go = rng.normal(0, 1, (b, 9)).astype(dtype)
        arrays = [f.name for f in fields(CnnTape)][:9]  # the activations

        def run(workers):
            monkeypatch.setattr(glyph_cnn, "CNN_WORKERS", workers)
            feat, tape = cnn_forward_batch(params, bitmaps)
            got = [feat] + [getattr(tape, name).copy() for name in arrays]
            return got + [g for _, g in cnn_backward_batch(params, tape, go).tensors()]

        want = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3):
                got = run(workers)
                for i, (g, w) in enumerate(zip(got, want, strict=True)):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (workers, i)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers, n", [
        (1, 3 * CNN_BLOCK), (2, CNN_BLOCK), (2, CNN_BLOCK + 1), (3, 5 * CNN_BLOCK - 2)])
    def test_blocks_run_once_each_on_their_workers(self, monkeypatch, workers, n):
        # the first `workers` blocks meet at a barrier, so they must run on
        # that many threads at once: the calling thread and its helpers
        monkeypatch.setattr(glyph_cnn, "CNN_WORKERS", workers)
        blocks = [(lo, min(lo + CNN_BLOCK, n)) for lo in range(0, n, CNN_BLOCK)]
        meet = threading.Barrier(min(workers, len(blocks)), timeout=10)
        ran, lock = [], threading.Lock()

        def stage(lo, hi):
            if lo < meet.parties * CNN_BLOCK:
                meet.wait()
            with lock:
                ran.append((lo, hi, threading.current_thread()))

        _run_blocks(stage, n)
        assert sorted((lo, hi) for lo, hi, _ in ran) == blocks
        threads = {thread for _, _, thread in ran}
        assert threading.current_thread() in threads and len(threads) == meet.parties
        assert {t.name for t in threads - {threading.current_thread()}} <= {"dwe-cnn"}

    def test_a_failing_block_raises(self, monkeypatch):
        # the workers stop taking blocks; no block runs twice
        monkeypatch.setattr(glyph_cnn, "CNN_WORKERS", 2)
        ran = []

        def stage(lo, hi):
            ran.append(lo)
            if lo == 0:
                raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            _run_blocks(stage, 40 * CNN_BLOCK)
        assert 0 in ran and len(set(ran)) == len(ran)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_runs_every_block(self, monkeypatch):
        # a child forked after a parallel pass inherits no helper thread; a
        # kept pool of helpers would leave the child waiting for them
        monkeypatch.setattr(glyph_cnn, "CNN_WORKERS", 2)
        _run_blocks(lambda lo, hi: None, 3 * CNN_BLOCK)
        pid = os.fork()
        if pid == 0:
            ran = []
            _run_blocks(lambda lo, hi: ran.append(lo), 3 * CNN_BLOCK)
            os._exit(0 if sorted(ran) == [0, CNN_BLOCK, 2 * CNN_BLOCK] else 1)
        for _ in range(1000):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_a_pass_takes_each_name_at_one_size(self):
        # blocks write their own rows of each array; a name taken at two
        # sizes per glyph in one pass would let one block's rows of one
        # view overlap another block's rows of the other
        class Recording(CnnBuffers):
            def __init__(self):
                super().__init__()
                self.shapes = {}

            def take(self, name, shape, dtype):
                self.shapes.setdefault(name, set()).add(shape)
                return super().take(name, shape, dtype)

        buffers = Recording()
        params = cnn_init(0, 5)
        bitmaps = np.random.default_rng(1).integers(0, 2, (2 * CNN_BLOCK + 3, 28, 28))
        cnn_forward_batch(params, bitmaps, buffers)
        assert all(len(shapes) == 1 for shapes in buffers.shapes.values()), buffers.shapes


def pool(x):
    """_pool of x (B, H, W, C) into fresh arrays."""
    b, h, w, c = x.shape
    return _pool(x, np.empty((b, h // 2, w // 2, c), x.dtype),
                 np.empty((b, h // 2, w // 2, c), x.dtype))


def test_unpool_in_place_matches_out_of_place():
    # small integers tie within windows, so the first-position rule is exercised
    rng = np.random.default_rng(4)
    pre = rng.integers(-2, 3, (3, 8, 8, 5)).astype(np.float32)
    pooled = pool(pre)
    dmax = rng.normal(0, 1, pooled.shape).astype(np.float32)
    want = _unpool(dmax, pre, pooled, np.empty_like(pre), CnnBuffers())
    got = _unpool(dmax, pre, pooled, pre, CnnBuffers())
    assert got is pre
    assert got.tobytes() == want.tobytes()


def relu_pool_grad(x):
    """Input gradient of sum(ReLU(maxpool(x))) for NHWC x, and of
    sum(maxpool(x)), as cnn_backward_batch routes them."""
    pooled = pool(x)
    ones = np.ones_like(pooled)
    return (_unpool(ones * (pooled > 0), x, pooled, np.empty_like(x), CnnBuffers()),
            _unpool(ones, x, pooled, np.empty_like(x), CnnBuffers()))


def windows(a):
    # (1, H, W, C) -> (H/2 * W/2 * C, 4), rows in the order of _pool's output
    _, h, w, c = a.shape
    return a.reshape(h // 2, 2, w // 2, 2, c).transpose(0, 2, 4, 1, 3).reshape(-1, 4)


def test_maxpool_gradient_sparsity():
    # exactly one input position per 2x2 window receives gradient; through
    # the ReLU after pooling, a window with no positive entry receives none
    x = np.random.default_rng(0).normal(0, 1, (1, 8, 8, 3))
    x[0, 2:4, 4:6, 1] = -1.0 - np.abs(x[0, 2:4, 4:6, 1])
    np.testing.assert_array_equal(pool(x).reshape(-1), windows(x).max(axis=1))
    with_relu, without_relu = relu_pool_grad(x)
    assert ((windows(without_relu) != 0).sum(axis=1) == 1).all()
    np.testing.assert_array_equal((windows(without_relu) != 0).argmax(axis=1),
                                  windows(x).argmax(axis=1))
    positive = windows(x).max(axis=1) > 0
    assert (~positive).any()
    np.testing.assert_array_equal(windows(with_relu)[positive], windows(without_relu)[positive])
    assert (windows(with_relu)[~positive] == 0).all()
    assert (with_relu[0, 2:4, 4:6, 1] == 0).all()


@pytest.mark.parametrize("window, first", [
    ([[2.0, 2.0], [2.0, 2.0]], (0, 0)),   # all four tied
    ([[2.0, 3.0], [3.0, 1.0]], (0, 1)),   # (0, 1) = (1, 0)
    ([[1.0, 2.0], [3.0, 3.0]], (1, 0)),   # (1, 0) = (1, 1)
], ids=["all-four", "01-eq-10", "10-eq-11"])
def test_maxpool_tie_break_row_major_first(window, first):
    x = np.array(window).reshape(1, 2, 2, 1)
    for dx in relu_pool_grad(x):
        assert dx[0, first[0], first[1], 0] == 1 and dx.sum() == 1
