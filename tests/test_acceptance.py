"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with `pytest -s` or in the
captured output) once its assertions hold; a pytest failure is the FAIL
signal. Oracles are independent of the library code paths: central
finite differences, scalar-loop SGNS, scipy, and brute-force argmax.
"""
import itertools
import time

import numpy as np
import pytest
import scipy.stats

from dwe.evaluation import Evaluator, cosine, spearman_rho
from dwe.glyph_cnn import cnn_forward_batch
from dwe.model import adagrad_step_rows
from dwe.morphology import (extract_ngrams, is_cjk, pack_bitmap,
                            parse_glyph_pack, dump_glyph_pack, unpack_bitmap)
from dwe.synthetic import make_synthetic_dataset
from dwe.trainer import (TrainingConfig, dump_checkpoint, export_vectors,
                         load_checkpoint, save_checkpoint, train)
from helpers import (brute_3cosadd, brute_3cosmul, check_grad_tensor, load_vectors,
                     make_micro_model, sgns_reference_adagrad,
                     sgns_reference_batch)


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS — {detail}")


def test_criterion_1_gradient_oracle():
    """Analytic gradients of every parameter group match central finite
    differences (rel err <= 1e-4) on micro models, 5 seeds, < 30 s."""
    start = time.monotonic()
    tol = 1e-4
    worst_overall = 0.0
    for seed in range(5):
        d = 6 + seed % 3  # d in 6..8
        model = make_micro_model(seed=seed, d=d, n_words=4, dtype=np.float64)
        rng = np.random.default_rng(100 + seed)
        centers = rng.integers(0, 4, size=3)
        contexts = rng.integers(0, 4, size=3)
        negatives = rng.integers(0, 4, size=(3, 2))  # lambda = 2

        def loss_fn():
            return model.batch_loss_and_grads(centers, contexts, negatives)[0]

        _, grads = model.batch_loss_and_grads(centers, contexts, negatives)
        tbl = model.tables
        dense = {
            "word_id": (tbl.word_id_vecs, np.zeros_like(tbl.word_id_vecs)),
            "context": (tbl.context_vecs, np.zeros_like(tbl.context_vecs)),
            "ngram": (tbl.ngram_vecs, np.zeros_like(tbl.ngram_vecs)),
        }
        dense["word_id"][1][grads.word_id_ids] = grads.word_id_rows
        dense["context"][1][grads.context_ids] = grads.context_rows
        dense["ngram"][1][grads.ngram_ids] = grads.ngram_rows
        for name, (param, analytic) in dense.items():
            worst = check_grad_tensor(param, analytic, loss_fn, rng, max_coords=15)
            assert worst <= tol, f"seed {seed} {name}: rel err {worst:.2e}"
            worst_overall = max(worst_overall, worst)
        for (name, param), (_, analytic) in zip(model.cnn.tensors(),
                                                grads.cnn.tensors()):
            worst = check_grad_tensor(param, analytic, loss_fn, rng, max_coords=8)
            assert worst <= tol, f"seed {seed} cnn.{name}: rel err {worst:.2e}"
            worst_overall = max(worst_overall, worst)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    _report(1, f"13 parameter groups x 5 seeds, worst rel err "
               f"{worst_overall:.2e} <= 1e-4, {elapsed:.1f}s")


def test_criterion_2_skipgram_degeneracy():
    """With both channels disabled the batch loss and the adagrad-updated
    word-ID table match an independent scalar-loop SGNS to 1e-12."""
    lr, eps = 0.05, 1e-8
    model = make_micro_model(seed=3, d=8, n_words=6, use_ngrams=False,
                             use_glyphs=False, dtype=np.float64)
    ref_w = model.tables.word_id_vecs.copy()
    ref_c = model.tables.context_vecs.copy()
    acc_w = np.zeros_like(ref_w)
    acc_c = np.zeros_like(ref_c)
    ref_acc_w = np.zeros_like(ref_w)
    ref_acc_c = np.zeros_like(ref_c)
    rng = np.random.default_rng(7)
    worst_loss = worst_tbl = 0.0
    for _ in range(5):
        centers = rng.integers(0, 6, size=8)
        contexts = rng.integers(0, 6, size=8)
        negatives = rng.integers(0, 6, size=(8, 3))
        loss, grads = model.batch_loss_and_grads(centers, contexts, negatives)
        ref_loss, gw, gc = sgns_reference_batch(ref_w, ref_c, centers,
                                                contexts, negatives)
        worst_loss = max(worst_loss, abs(loss - ref_loss))
        adagrad_step_rows(model.tables.word_id_vecs, acc_w,
                          grads.word_id_ids, grads.word_id_rows, lr)
        adagrad_step_rows(model.tables.context_vecs, acc_c,
                          grads.context_ids, grads.context_rows, lr)
        for r in range(6):  # dense reference update, touched rows only
            if np.any(gw[r]):
                sgns_reference_adagrad(ref_w[r], gw[r], ref_acc_w[r], lr, eps)
            if np.any(gc[r]):
                sgns_reference_adagrad(ref_c[r], gc[r], ref_acc_c[r], lr, eps)
        worst_tbl = max(worst_tbl,
                        float(np.abs(model.tables.word_id_vecs - ref_w).max()),
                        float(np.abs(model.tables.context_vecs - ref_c).max()))
    assert worst_loss <= 1e-12, f"loss deviation {worst_loss:.2e}"
    assert worst_tbl <= 1e-12, f"table deviation {worst_tbl:.2e}"
    _report(2, f"5 batches: max |loss delta| {worst_loss:.2e}, "
               f"max |table delta| {worst_tbl:.2e} <= 1e-12")


def test_criterion_3_composition_factoring():
    """(sum g) * v equals sum (g * v) within 1e-9 in float64, 100 instances."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 30))
        d = int(rng.integers(2, 64))
        G = rng.normal(0, 2, size=(k, d))
        v = rng.normal(0, 2, size=d)
        lhs = G.sum(axis=0) * v
        rhs = np.zeros(d)
        for row in G:
            rhs += row * v
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-9
    # and the model uses the factored form: char features match the
    # explicit per-n-gram loop
    model = make_micro_model(seed=4, d=8, dtype=np.float64)
    for ch in model.chars:
        ci = model.char_index[ch]
        ids = model.ngram_dict.per_char.get(ch, [])
        v = cnn_forward_batch(model.cnn, model.char_bitmaps[ci][None])[0][0]
        expected = np.zeros(8)
        for gid in ids:
            expected += model.tables.ngram_vecs[gid] * v
        np.testing.assert_allclose(model.char_feature(ch), expected, atol=1e-9)
    _report(3, f"100 random instances + model path, max deviation {worst:.2e} <= 1e-9")


def test_criterion_4_ngram_count_law():
    """len(extract_ngrams(codes, 3, 6)) == sum_{n=3..6} max(0, k+3-n) for k <= 12."""
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        extract_ngrams([], 3, 6)  # k=0 is rejected, not counted
    for k in range(1, 13):
        codes = list(rng.integers(1, 33, size=k))
        expected = sum(max(0, k + 3 - n) for n in range(3, 7))
        got = len(extract_ngrams(codes, 3, 6))
        assert got == expected, f"k={k}: {got} != {expected}"
    assert len(extract_ngrams(list(range(1, 9)), 3, 6)) == 26  # k=8 -> 26
    _report(4, "count law holds for k=1..12; k=8 gives 26")


def test_criterion_5_oracle_equivalence(synth_data):
    """spearman_rho matches scipy within 1e-12; 3CosAdd/3CosMul match
    brute-force argmax on >= 100 random instances each."""
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 40))
        xs = rng.integers(0, 10, size=n).astype(float)  # integer ties common
        ys = rng.normal(0, 1, size=n)
        if len(set(xs)) < 2:
            continue
        expected = scipy.stats.spearmanr(xs, ys).statistic
        assert abs(spearman_rho(xs, ys) - expected) <= 1e-12
        checked += 1

    cfg = TrainingConfig(dim=16, batch_size=512, epochs=2, min_count=1,
                         negatives=3, window=3, seed=9, lr=0.05)
    ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                 synth_data.glyphs_path, cfg, log=None)
    ev = Evaluator(ckpt)
    words = ckpt.vocab.words
    for _ in range(100):
        a, b, h = (words[i] for i in rng.choice(len(words), 3, replace=False))
        assert ev.analogy_3cosadd(a, b, h) == brute_3cosadd(words, ev.matrix, a, b, h)
        assert ev.analogy_3cosmul(a, b, h) == brute_3cosmul(words, ev.matrix, a, b, h)
    _report(5, "100 rho instances within 1e-12 of scipy; "
               "100 3CosAdd + 100 3CosMul argmax matches")


def test_criterion_6_synthetic_morphology_experiment(tmp_path):
    """~200 sentences, vocab ~40, 20 epochs, < 60 s: (a) epoch loss
    non-decreasing after epoch 1 in >= 4/5 seeds; (b) character-sharing
    pairs beat non-sharing pairs in >= 4/5 seeds; (c) identical-stroke /
    different-glyph twins separate (cosine < 0.9) while the stroke-only
    ablation keeps them at exactly 1.0."""
    start = time.monotonic()
    data = make_synthetic_dataset(tmp_path, seed=0)
    assert len(data.words) in range(35, 46), "vocab should be ~40"
    twin_a, twin_b = data.twin_chars
    nondec_seeds = share_seeds = 0
    twin_cosines = []
    for seed in (1, 2, 3, 4, 5):
        cfg = TrainingConfig(dim=32, batch_size=512, epochs=20, min_count=1,
                             negatives=5, window=3, seed=seed, lr=0.05)
        ckpt = train(data.corpus_path, data.strokes_path, data.glyphs_path,
                     cfg, log=None)
        losses = ckpt.epoch_mean_losses
        assert len(losses) == 20
        nondec_seeds += all(losses[i + 1] >= losses[i]
                            for i in range(1, len(losses) - 1))
        ev = Evaluator(ckpt)
        two_char = [w for w in data.words if len(w) == 2]
        share, nonshare = [], []
        for a, b in itertools.combinations(two_char, 2):
            c = cosine(ev.vector(a), ev.vector(b))
            (share if set(a) & set(b) else nonshare).append(c)
        share_seeds += np.mean(share) > np.mean(nonshare)
        model = ckpt.model()
        twin_cosines.append(cosine(model.char_feature(twin_a),
                                   model.char_feature(twin_b)))
    assert nondec_seeds >= 4, f"(a) loss non-decreasing in {nondec_seeds}/5 seeds"
    assert share_seeds >= 4, f"(b) sharing > non-sharing in {share_seeds}/5 seeds"
    # (c) on the canonical run (seed 1) — and in fact every seed here
    assert twin_cosines[0] < 0.9, f"(c) twin cosine {twin_cosines[0]:.3f}"
    abl_cfg = TrainingConfig(dim=32, batch_size=512, epochs=20, min_count=1,
                             negatives=5, window=3, seed=1, lr=0.05,
                             use_glyphs=False)
    abl = train(data.corpus_path, data.strokes_path, data.glyphs_path,
                abl_cfg, log=None).model()
    abl_cos = cosine(abl.char_feature(twin_a), abl.char_feature(twin_b))
    assert abl_cos == 1.0, f"(c) stroke-only ablation cosine {abl_cos!r} != 1.0"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"experiment took {elapsed:.1f}s"
    _report(6, f"(a) {nondec_seeds}/5 non-decreasing; (b) {share_seeds}/5 "
               f"sharing>non-sharing; (c) twins {twin_cosines[0]:.3f} < 0.9, "
               f"ablation exactly 1.0; {elapsed:.1f}s")


def test_criterion_7_determinism_and_persistence(synth_data, tmp_path):
    """Deterministic runs are bit-identical; checkpoint save->load->save is
    byte-identical; exported vectors reproduce cosines within 1e-5."""
    cfg = TrainingConfig(dim=16, batch_size=512, epochs=3, min_count=1,
                         negatives=3, window=3, seed=21, lr=0.05)
    run1 = train(synth_data.corpus_path, synth_data.strokes_path,
                 synth_data.glyphs_path, cfg, log=None)
    run2 = train(synth_data.corpus_path, synth_data.strokes_path,
                 synth_data.glyphs_path, cfg, log=None)
    assert dump_checkpoint(run1) == dump_checkpoint(run2)

    p1, p2 = tmp_path / "a.dwe", tmp_path / "b.dwe"
    save_checkpoint(run1, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    vec_path = tmp_path / "vectors.txt"
    export_vectors(run1, vec_path, which="composed")
    tokens, M = load_vectors(vec_path)
    ev = Evaluator(run1, which="composed")
    assert tokens == run1.vocab.words
    worst = 0.0
    rng = np.random.default_rng(23)
    for _ in range(50):
        i, j = rng.choice(len(tokens), 2, replace=False)
        worst = max(worst, abs(cosine(M[i], M[j])
                               - cosine(ev.matrix[i], ev.matrix[j])))
    assert worst <= 1e-5, f"reimported cosine deviation {worst:.2e}"
    _report(7, f"bit-identical runs; byte-identical round trip; "
               f"max reimport cosine deviation {worst:.2e} <= 1e-5")


def test_criterion_8_data_rule_conformance(synth_data):
    """is_cjk boundary behaviour, glyph codec round trip, OOV fallback equals
    the hand-computed character-feature average."""
    # CJK range boundaries (inclusive 0x4E00..0x9FA5)
    assert not is_cjk(chr(0x4DFF))
    assert is_cjk(chr(0x4E00))
    assert is_cjk(chr(0x9FA5))
    assert not is_cjk(chr(0x9FA6))
    for ch in "aZ9 ,あ０":  # latin, digit, space, kana, fullwidth
        assert not is_cjk(ch)
    assert is_cjk(0x4E2D) and not is_cjk(0x10000)

    # glyph pack codec round trip is bit exact
    rng = np.random.default_rng(29)
    glyphs = {chr(0x4E00 + i): rng.integers(0, 2, size=(28, 28)).astype(np.uint8)
              for i in range(16)}
    back = parse_glyph_pack(dump_glyph_pack(glyphs))
    assert set(back) == set(glyphs)
    for ch in glyphs:
        np.testing.assert_array_equal(back[ch], glyphs[ch])
        assert unpack_bitmap(pack_bitmap(glyphs[ch])).tobytes() == \
            glyphs[ch].astype(np.uint8).tobytes()

    # OOV fallback on a frozen model: average of per-character features,
    # where each feature is recomputed here from first principles
    cfg = TrainingConfig(dim=16, batch_size=512, epochs=1, min_count=1,
                         negatives=3, window=3, seed=31, lr=0.05)
    ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                 synth_data.glyphs_path, cfg, log=None)
    ev = Evaluator(ckpt)
    model = ckpt.model()
    in_vocab = set(ckpt.vocab.words)
    ca, cb = next((a, b) for a in model.chars for b in model.chars
                  if a != b and a + b not in in_vocab)
    expected = np.zeros(16)
    for ch in (ca, cb):
        ci = model.char_index[ch]
        v = cnn_forward_batch(model.cnn, model.char_bitmaps[ci][None])[0][0]
        feat = model.tables.ngram_vecs[model.ngram_dict.per_char.get(ch, [])].sum(axis=0) * v
        expected += feat / 2.0
    np.testing.assert_allclose(ev.vector(ca + cb), expected, rtol=1e-5, atol=1e-5)
    _report(8, "is_cjk boundaries exact; glyph codec bit-exact; "
               "OOV average matches hand computation")
