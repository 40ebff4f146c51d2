import copy
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwe import glyph_cnn
from dwe import model as model_module
from dwe.corpus import Vocab
from dwe.glyph_cnn import CNN_BLOCK, FLAT_SIZE, CnnBuffers, CnnTape, cnn_forward_batch, cnn_init
from dwe.model import (ADAGRAD_BLOCK, CNN_CHUNK, INIT_CHUNK, SEGMENT_ROWS, DweModel,
                       adagrad_step, adagrad_step_rows, init_tables, log_sigmoid, sigmoid)
from dwe.morphology import build_ngram_dict
from helpers import (check_grad_tensor, group_sum_reference, make_micro_model,
                     segment_sum_reference, sgns_reference_adagrad, with_char_ngrams)


class TestLogSigmoid:
    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)

    def test_finite_for_extreme_inputs(self):
        assert np.isfinite(log_sigmoid(np.array([-1e4, -50, 50, 1e4]))).all()

    def test_sigmoid_open_interval(self):
        # openness holds wherever float64 can represent it; beyond ~36 the
        # value rounds to exactly 0 or 1 but log_sigmoid stays finite
        x = np.array([-36.0, -30.0, 0.0, 30.0, 36.0])
        s = sigmoid(x)
        assert (s > 0).all() and (s < 1).all()
        assert np.isfinite(sigmoid(np.array([-1e5, 1e5]))).all()


class TestCharFeature:
    def test_empty_ngram_set_gives_zero(self):
        # strip a character's n-grams
        ci = 0
        m = with_char_ngrams(make_micro_model(seed=0), {ci: []})
        assert (m.char_feature(m.chars[ci]) == 0).all()

    def test_is_a_row_of_char_features(self):
        m = make_micro_model(seed=1, d=5, dtype=np.float32)
        feats = m.char_features()
        for ci, ch in enumerate(m.chars):
            assert m.char_feature(ch).tobytes() == feats[ci].tobytes()

    def test_direct_instantiation(self):
        # one n-gram g = [2, 3], cnn output v = [0.5, 1] -> g * v = [1, 3]
        g = np.array([2.0, 3.0])
        v = np.array([0.5, 1.0])
        np.testing.assert_array_equal(g * v, [1.0, 3.0])

    def test_matches_unfactored_loop(self):
        m = make_micro_model(seed=1, d=5)
        for ci, ch in enumerate(m.chars):
            v = cnn_forward_batch(m.cnn, m.char_bitmaps[ci][None])[0][0]
            expected = np.zeros(5)
            for gid in m.ngram_dict.per_char.get(ch, []):
                expected += m.tables.ngram_vecs[gid] * v
            np.testing.assert_allclose(m.char_feature(ch), expected, atol=1e-9)

    def test_factoring_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k, d = int(rng.integers(1, 8)), int(rng.integers(2, 10))
            gs = rng.normal(0, 1, (k, d))
            v = rng.normal(0, 1, d)
            factored = gs.sum(axis=0) * v
            unfactored = sum(g * v for g in gs)
            np.testing.assert_allclose(factored, unfactored, atol=1e-9)


class TestComposeWord:
    def test_zero_ngram_vectors_shut_off_channel(self):
        m = make_micro_model(seed=3)
        m.tables.ngram_vecs[:] = 0
        for w in m.vocab.words:
            comp = m.compose_word(w)
            np.testing.assert_array_equal(comp.vector,
                                          m.tables.word_id_vecs[comp.word_id])

    def test_is_a_row_of_compose(self):
        m = make_micro_model(seed=3, d=5, dtype=np.float32)
        feats = m.char_features()
        for w in m.vocab.words:
            comp = m.compose_word(w)
            assert comp.vector.tobytes() == m.compose([comp.word_id], feats)[0].tobytes()

    def test_hand_arithmetic(self):
        w_id = np.array([1.0, 0.0])
        cf1, cf2 = np.array([1.0, 3.0]), np.array([2.0, 0.0])
        np.testing.assert_array_equal(w_id + 0.5 * (cf1 + cf2), [2.5, 1.5])

    def test_average_over_characters(self):
        m = make_micro_model(seed=4, d=6)
        for w in m.vocab.words:
            comp = m.compose_word(w)
            feats = [m.char_feature(c) for c in w]
            expected = m.tables.word_id_vecs[comp.word_id] + \
                np.mean(feats, axis=0)
            np.testing.assert_allclose(comp.vector, expected, atol=1e-9)

    def test_single_char_word(self):
        m = make_micro_model(seed=5)
        w = next(w for w in m.vocab.words if len(w) == 1)
        comp = m.compose_word(w)
        expected = m.tables.word_id_vecs[comp.word_id] + m.char_feature(w)
        np.testing.assert_allclose(comp.vector, expected, atol=1e-9)

    def test_oov_errors(self):
        m = make_micro_model(seed=6)
        with pytest.raises(KeyError):
            m.compose_word("not-a-word")

    def test_channels_off_pure_word_id(self):
        m = make_micro_model(seed=7, use_ngrams=False, use_glyphs=False)
        for w in m.vocab.words:
            comp = m.compose_word(w)
            np.testing.assert_array_equal(comp.vector,
                                          m.tables.word_id_vecs[comp.word_id])


class TestPairLoss:
    def test_zero_scores(self):
        # fresh context table is zero, so every score is 0
        m = make_micro_model(seed=8)
        m.tables.context_vecs[:] = 0
        loss, _ = m.batch_loss_and_grads([0], [1], [np.array([2, 3])])
        assert abs(loss - 3 * math.log(0.5)) < 1e-12

    def test_sigmoid_derivative_at_zero(self):
        assert abs((1 - sigmoid(0.0)) - 0.5) < 1e-15

    def test_batch_matches_sum_of_pairs(self):
        m = make_micro_model(seed=9, d=4)
        centers = np.array([0, 1, 0])
        contexts = np.array([1, 2, 3])
        negs = np.array([[2, 3], [0, 3], [1, 2]])
        batch_loss, _ = m.batch_loss_and_grads(centers, contexts, negs)
        pair_sum = sum(m.batch_loss_and_grads([c], [x], [n])[0]
                       for c, x, n in zip(centers, contexts, negs))
        assert abs(batch_loss - pair_sum) < 1e-9

    def test_summation_order_invariance(self):
        # composing a word's characters in reversed order changes nothing
        # beyond float round-off
        m = make_micro_model(seed=10, d=6)
        w = next(w for w in m.vocab.words if len(w) == 2)
        comp = m.compose_word(w)
        wid = comp.word_id
        feats = [m.char_feature(c) for c in w]
        fwd = m.tables.word_id_vecs[wid] + (feats[0] + feats[1]) / 2
        rev = m.tables.word_id_vecs[wid] + (feats[1] + feats[0]) / 2
        np.testing.assert_allclose(fwd, rev, atol=1e-9)
        np.testing.assert_allclose(comp.vector, fwd, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        m = make_micro_model(seed=seed, d=6)
        rng = np.random.default_rng(seed + 1000)
        center, ctx = 0, 1
        negs = np.array([2, 3])
        loss_fn = lambda: m.batch_loss_and_grads([center], [ctx], [negs])[0]
        _, grads = m.batch_loss_and_grads([center], [ctx], [negs])

        dense = {
            "word_id": np.zeros_like(m.tables.word_id_vecs),
            "context": np.zeros_like(m.tables.context_vecs),
            "ngram": np.zeros_like(m.tables.ngram_vecs),
        }
        dense["word_id"][grads.word_id_ids] = grads.word_id_rows
        dense["context"][grads.context_ids] = grads.context_rows
        dense["ngram"][grads.ngram_ids] = grads.ngram_rows
        params = [("word_id", m.tables.word_id_vecs, dense["word_id"]),
                  ("context", m.tables.context_vecs, dense["context"]),
                  ("ngram", m.tables.ngram_vecs, dense["ngram"])]
        params += [(f"cnn.{n}", p, g) for (n, p), (_, g)
                   in zip(m.cnn.tensors(), grads.cnn.tensors())]
        for name, p, g in params:
            worst = check_grad_tensor(p, g, loss_fn, rng, max_coords=12)
            assert worst < 1e-4, f"{name}: rel err {worst}"


@pytest.mark.parametrize("use_ngrams,use_glyphs",
                         [(True, True), (True, False), (False, True), (False, False)])
def test_batch_gradients_every_channel_setting(use_ngrams, use_glyphs):
    # six words over d=4: more unique centers than d, so S is built in two
    # blocks; character 1 has no n-grams and occurs in words 0 and 1
    m = with_char_ngrams(make_micro_model(seed=21, d=4, n_words=6, use_ngrams=use_ngrams,
                                          use_glyphs=use_glyphs), {1: []})
    centers = np.array([0, 1, 0, 4, 2, 5, 3, 1])
    contexts = np.array([1, 2, 3, 0, 5, 4, 2, 0])
    # pair 0's context 1 is also one of its negatives, and pair 6's
    negs = np.array([[1, 3], [4, 5], [2, 2], [1, 3], [0, 4], [2, 1], [2, 0], [3, 5]])
    loss_fn = lambda: m.batch_loss_and_grads(centers, contexts, negs)[0]
    loss, grads = m.batch_loss_and_grads(centers, contexts, negs)
    pair_sum = sum(m.batch_loss_and_grads([c], [x], [n])[0]
                   for c, x, n in zip(centers, contexts, negs))
    assert abs(loss - pair_sum) < 1e-12
    assert (grads.cnn is not None) == use_glyphs
    assert len(grads.ngram_ids) > 0 or not use_ngrams

    params = []
    for name, table, ids, rows in (
            ("word_id", m.tables.word_id_vecs, grads.word_id_ids, grads.word_id_rows),
            ("context", m.tables.context_vecs, grads.context_ids, grads.context_rows),
            ("ngram", m.tables.ngram_vecs, grads.ngram_ids, grads.ngram_rows)):
        dense = np.zeros_like(table)
        dense[ids] = rows
        params.append((name, table, dense))
    cnn_grads = grads.cnn if grads.cnn is not None else m.cnn.zeros_like()
    params += [(f"cnn.{n}", p, g) for (n, p), (_, g)
               in zip(m.cnn.tensors(), cnn_grads.tensors())]
    rng = np.random.default_rng(22)
    for name, p, g in params:
        worst = check_grad_tensor(p, g, loss_fn, rng, max_coords=12)
        assert worst < 1e-4, f"{name}: rel err {worst}"


class TestStepBuffers:
    """batch_loss_and_grads runs the CNN in the model's one buffer set."""

    @staticmethod
    def batch(centers, seed):
        centers = np.asarray(centers)
        rng = np.random.default_rng(seed)
        return centers, (centers + 1) % 8, rng.integers(0, 8, (len(centers), 3))

    @staticmethod
    def arrays(grads):
        return [getattr(grads, f.name) for f in dataclasses.fields(grads)
                if f.name != "cnn"] + [t for _, t in grads.cnn.tensors()]

    def test_results_survive_the_next_step(self):
        m = make_micro_model(seed=5, n_words=8, dtype=np.float32)
        _, grads = m.batch_loss_and_grads(*self.batch(np.arange(8), 0))
        kept = copy.deepcopy(grads)
        m.batch_loss_and_grads(*self.batch([1, 6, 6], 1))
        for got, want in zip(self.arrays(grads), self.arrays(kept), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_consecutive_steps_share_the_tape_memory(self, monkeypatch):
        tapes = []

        def recording(params, bitmaps, buffers=None):
            feat, tape = cnn_forward_batch(params, bitmaps, buffers)
            tapes.append(tape)
            return feat, tape

        monkeypatch.setattr(model_module, "cnn_forward_batch", recording)
        m = make_micro_model(seed=6, n_words=8, dtype=np.float32)
        m.batch_loss_and_grads(*self.batch(np.arange(8), 2))
        m.batch_loss_and_grads(*self.batch([2, 3], 3))
        first, second = tapes
        assert len(second.flat) < len(first.flat)
        arrays = [f.name for f in dataclasses.fields(CnnTape)
                  if isinstance(getattr(first, f.name), np.ndarray)]
        assert len(arrays) == 9
        for name in arrays:
            assert np.shares_memory(getattr(first, name), getattr(second, name)), name


class TestSkipGramDegeneracy:
    def test_matches_reference_sgns(self):
        from helpers import sgns_reference_adagrad, sgns_reference_batch
        m = make_micro_model(seed=11, d=6, use_ngrams=False, use_glyphs=False)
        ref_w = m.tables.word_id_vecs.copy()
        ref_c = m.tables.context_vecs.copy()
        ref_aw = np.zeros_like(ref_w)
        ref_ac = np.zeros_like(ref_c)
        acc_w = np.zeros_like(ref_w)
        acc_c = np.zeros_like(ref_c)
        rng = np.random.default_rng(12)
        lr, eps = 0.05, 1e-8
        for _ in range(10):
            centers = rng.integers(0, 4, 16)
            contexts = rng.integers(0, 4, 16)
            negs = rng.integers(0, 4, (16, 3))
            loss, grads = m.batch_loss_and_grads(centers, contexts, negs)
            assert grads.cnn is None and len(grads.ngram_ids) == 0
            adagrad_step_rows(m.tables.word_id_vecs, acc_w, grads.word_id_ids,
                              grads.word_id_rows, lr)
            adagrad_step_rows(m.tables.context_vecs, acc_c, grads.context_ids,
                              grads.context_rows, lr)

            ref_loss, gw, gc = sgns_reference_batch(ref_w, ref_c, centers,
                                                    contexts, negs)
            sgns_reference_adagrad(ref_w, gw, ref_aw, lr, eps)
            sgns_reference_adagrad(ref_c, gc, ref_ac, lr, eps)
            # reference adagrad updates every row; rows with zero gradient
            # stay put, so states remain comparable
            assert abs(loss - ref_loss) < 1e-12
            np.testing.assert_allclose(m.tables.word_id_vecs, ref_w, atol=1e-12)
            np.testing.assert_allclose(m.tables.context_vecs, ref_c, atol=1e-12)


GROUP_KEYS = st.one_of(
    st.just([]),                                                     # no keys
    st.integers(0, 10**6).map(lambda k: [k] * 50),                   # one key, 50 rows
    st.lists(st.integers(0, 10**6), unique=True, min_size=1, max_size=60),  # all distinct
    st.lists(st.integers(0, 15), min_size=1, max_size=120))          # random repeats


@settings(max_examples=80, deadline=None)
@given(keys=GROUP_KEYS, dtype=st.sampled_from([np.float32, np.float64]),
       d=st.sampled_from([1, 2, 300]), seed=st.integers(0, 2**32 - 1))
def test_group_sum_equals_the_add_at_reference_bit_for_bit(keys, dtype, d, seed):
    rng = np.random.default_rng(seed)
    keys = np.array(keys, dtype=np.int64)
    # values of mixed scale, so that another add order would round differently
    src = (rng.normal(size=(int(rng.integers(1, 40)), d))
           * 10.0 ** rng.integers(-3, 4, size=(1, d))).astype(dtype)
    pos = rng.integers(0, len(src), len(keys))
    ids, out = model_module._group_sum(keys, src, pos)
    ref_ids, ref_out = group_sum_reference(keys, src, pos)
    assert ids.dtype == ref_ids.dtype and np.array_equal(ids, ref_ids)
    assert (ids[1:] > ids[:-1]).all()
    assert out.dtype == ref_out.dtype and out.shape == ref_out.shape == (len(ids), d)
    assert out.tobytes() == ref_out.tobytes()
    assert not np.shares_memory(out, src)


@settings(max_examples=80, deadline=None)
@given(lens=st.lists(st.integers(0, 9), max_size=60), long=st.booleans(),
       rows=st.sampled_from([1, 2, 5, SEGMENT_ROWS]),
       dtype=st.sampled_from([np.float32, np.float64]),
       d=st.sampled_from([1, 2, 5, 32, 300]), seed=st.integers(0, 2**32 - 1))
def test_blocked_segment_sum_equals_one_whole_gather(lens, long, rows, dtype, d, seed):
    # segments of one length in groups of rows // length, empty ones among
    # them, and with `long` one segment longer than the block
    rng = np.random.default_rng(seed)
    if long:
        lens.insert(int(rng.integers(0, len(lens) + 1)), rows + 1 + int(rng.integers(0, 3)))
    ptr = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    # values of mixed scale, so that another add order would round differently
    table = (rng.normal(size=(int(rng.integers(1, 40)), d))
             * 10.0 ** rng.integers(-3, 4, size=(1, d))).astype(dtype)
    idx = rng.integers(0, len(table), ptr[-1])
    with mock.patch.object(model_module, "SEGMENT_ROWS", rows):
        got = model_module._segment_sum(table, idx, ptr)
    want = segment_sum_reference(table, idx, ptr)
    assert got.dtype == want.dtype and got.shape == want.shape == (len(lens), d)
    assert got.tobytes() == want.tobytes()


class TestReadPathMemory:
    """The read path's traced peak: the CNN keeps no tape, and composition
    gathers bounded blocks. A registry of 640 characters at dim 300 runs
    three CNN_CHUNK calls, and 3 000 words of 2 to 4 of them."""

    D = 300

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(7)
        chars = [chr(0x4E00 + i) for i in range(640)]
        words = list(dict.fromkeys("".join(rng.choice(chars, int(rng.integers(2, 5))))
                                   for _ in range(3100)))[:3000]
        vocab = Vocab(words, np.ones(len(words)), len(words))
        strokes = {c: rng.integers(1, 33, int(rng.integers(4, 9))).tolist() for c in chars}
        glyphs = {c: rng.integers(0, 2, (28, 28)).astype(np.uint8) for c in chars}
        ngram_dict = build_ngram_dict(strokes, set(chars), 3, 6)
        tables = init_tables(len(words), len(ngram_dict), self.D, 1, np.float32)
        return DweModel(vocab, ngram_dict, glyphs, tables, cnn_init(2, self.D))

    @staticmethod
    def traced(call):
        """(result, peak bytes traced above the memory at the call)."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_char_features_keep_no_tape(self, model):
        f4 = np.dtype(np.float32).itemsize
        feats, peak = self.traced(model.char_features)
        assert len(model.chars) > 2 * CNN_CHUNK
        # the tape a set holds for one chunk: every array it takes
        tape = CnnBuffers()
        cnn_forward_batch(model.cnn, np.zeros((CNN_CHUNK, 28, 28), np.float32), tape)
        assert peak - feats.nbytes < tape.nbytes
        # each worker's CNN_BLOCK-glyph scratch; one chunk's flat, fc outputs,
        # fc3 product, factors and their product; one block of n-gram rows
        scratch = CnnBuffers()
        cnn_forward_batch(model.cnn, np.zeros((CNN_BLOCK, 28, 28), np.float32), scratch)
        per_block = scratch.nbytes - CNN_BLOCK * (FLAT_SIZE + 120 + 84) * f4
        budget = (glyph_cnn.CNN_WORKERS * per_block
                  + CNN_CHUNK * (FLAT_SIZE + 120 + 84 + 4 * self.D) * f4
                  + SEGMENT_ROWS * self.D * f4)
        assert peak - feats.nbytes <= budget, (peak - feats.nbytes, budget)

    def test_compose_gathers_bounded_blocks(self, model):
        feats = model.char_features().astype(np.float64)
        ids = np.arange(len(model.vocab))
        out, peak = self.traced(lambda: model.compose(ids, feats))
        # one gather of SEGMENT_ROWS float64 rows and its sums, then one
        # block of word-ID rows and their float64 copy
        block = SEGMENT_ROWS * self.D * feats.itemsize
        assert out.nbytes > 2 * block  # so no whole-size temporary fits
        assert peak - out.nbytes <= 2 * block, (peak - out.nbytes, 2 * block)


class TestAdagrad:
    def test_zero_grad_no_change(self):
        p = np.ones(4)
        acc = np.zeros(4)
        adagrad_step(p, np.zeros(4), acc, lr=0.1)
        np.testing.assert_array_equal(p, np.ones(4))

    def test_scalar_formula(self):
        p = np.array([0.0])
        acc = np.array([0.0])
        adagrad_step(p, np.array([3.0]), acc, lr=0.05)
        assert abs(p[0] - 0.05 * 3.0 / (3.0 + 1e-8)) < 1e-12

    def test_steps_shrink(self):
        p = np.array([0.0])
        acc = np.array([0.0])
        adagrad_step(p, np.array([2.0]), acc, lr=0.05)
        first = p[0]
        adagrad_step(p, np.array([2.0]), acc, lr=0.05)
        second = p[0] - first
        assert 0 < second < first

    def test_ascent_direction(self):
        p = np.zeros(2)
        acc = np.zeros(2)
        adagrad_step(p, np.array([1.0, -1.0]), acc, lr=0.05)
        assert p[0] > 0 > p[1]

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            adagrad_step(np.zeros(1), np.zeros(1), np.zeros(1), lr=0.0)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0])
    def test_non_finite_lr_leaves_state(self, lr):
        p, acc = np.ones(3), np.full(3, 2.0)
        with pytest.raises(ValueError, match="lr"):
            adagrad_step(p, np.ones(3), acc, lr=lr)
        np.testing.assert_array_equal(p, np.ones(3))
        np.testing.assert_array_equal(acc, np.full(3, 2.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [300, 1000, ADAGRAD_BLOCK + 1])
    @pytest.mark.parametrize("count", ["0", "1", "B-1", "B", "B+1", "3B+5"])
    def test_rows_equal_one_pass(self, count, d, dtype):
        """The blocked update equals the one-pass formula on the gathered rows
        bit for bit, across block boundaries; other rows keep their bytes.
        B is the rows per block at width d: the widths give a block of many
        rows, one that is not a whole number of rows, and a block of one row."""
        b = max(1, ADAGRAD_BLOCK // d)
        n = {"0": 0, "1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "3B+5": 3 * b + 5}[count]
        rng = np.random.default_rng([n, d])
        rows, lr, eps = 4 * b + 7, 0.05, 1e-8
        ids = np.sort(rng.choice(rows, n, replace=False))
        param = rng.standard_normal((rows, d)).astype(dtype)
        acc = rng.uniform(0.0, 2.0, (rows, d)).astype(dtype)
        grad = rng.standard_normal((n, d)).astype(dtype)
        ref_p, ref_acc = param[ids], acc[ids]
        sgns_reference_adagrad(ref_p, grad, ref_acc, lr, eps)
        rest = np.setdiff1d(np.arange(rows), ids)
        rest_p, rest_acc = param[rest].tobytes(), acc[rest].tobytes()
        adagrad_step_rows(param, acc, ids, grad, lr)
        np.testing.assert_array_equal(param[ids], ref_p)
        np.testing.assert_array_equal(acc[ids], ref_acc)
        assert param[rest].tobytes() == rest_p and acc[rest].tobytes() == rest_acc

    @pytest.mark.parametrize("ids, grad_shape, acc_shape, lr", [
        ([1, 1], (2, 3), (4, 3), 0.05),           # duplicate ids
        ([2, 1], (2, 3), (4, 3), 0.05),           # unsorted ids
        ([1, 2], (1, 3), (4, 3), 0.05),           # one gradient row for two ids
        ([1, 2], (2, 3), (4, 2), 0.05),           # accumulator of another shape
        ([1, 2], (2, 3), (4, 3), math.nan),
        ([1, 2], (2, 3), (4, 3), math.inf),
        ([1, 2], (2, 3), (4, 3), 0.0),
    ], ids=["duplicate", "unsorted", "grad-shape", "acc-shape", "lr-nan", "lr-inf", "lr-0"])
    def test_rows_reject_bad_arguments(self, ids, grad_shape, acc_shape, lr):
        param, acc = np.ones((4, 3)), np.full(acc_shape, 2.0)
        with pytest.raises(ValueError):
            adagrad_step_rows(param, acc, np.array(ids), np.ones(grad_shape), lr)
        np.testing.assert_array_equal(param, np.ones((4, 3)))
        np.testing.assert_array_equal(acc, np.full(acc_shape, 2.0))


def test_init_tables_convention():
    t = init_tables(5, 9, 4, seed=0, dtype=np.float64)
    assert (t.context_vecs == 0).all()
    assert np.abs(t.word_id_vecs).max() <= 0.5 / 4
    assert np.abs(t.ngram_vecs).max() <= 0.5 / 4
    t2 = init_tables(5, 9, 4, seed=0, dtype=np.float64)
    np.testing.assert_array_equal(t.word_id_vecs, t2.word_id_vecs)


@pytest.mark.parametrize("vocab_size, n_ngrams, d", [
    (0, 0, 3), (1, INIT_CHUNK + 1, 2), (INIT_CHUNK - 1, 2 * INIT_CHUNK + 7, 5),
    (INIT_CHUNK, 3, 1)])
def test_init_tables_in_chunks_equals_one_draw(vocab_size, n_ngrams, d):
    # the rows are drawn INIT_CHUNK at a time; the tables equal one draw of
    # each whole table, cast after it
    t = init_tables(vocab_size, n_ngrams, d, seed=4)
    rng = np.random.default_rng(4)
    bound = 0.5 / d
    for got, rows in ((t.word_id_vecs, vocab_size), (t.ngram_vecs, n_ngrams)):
        want = rng.uniform(-bound, bound, size=(rows, d)).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert t.context_vecs.shape == (vocab_size, d) and not t.context_vecs.any()
