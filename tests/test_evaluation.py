import dataclasses
import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from dwe import evaluation
from dwe.evaluation import (Evaluator, SimilarityRecord,
                            UnrepresentableTokenError, _top_k, cosine,
                            load_analogy_dataset, load_similarity_dataset,
                            spearman_rho)
from dwe.trainer import TrainingConfig, train
from helpers import (brute_3cosadd, brute_3cosmul, evaluator_over, make_micro_model,
                     scan_3cosadd, scan_3cosmul, scan_nearest, with_char_ngrams)


@pytest.fixture(scope="module")
def ckpt(synth_data):
    cfg = TrainingConfig(dim=12, batch_size=256, epochs=3, min_count=1,
                         negatives=3, window=3, seed=5)
    return train(synth_data.corpus_path, synth_data.strokes_path,
                 synth_data.glyphs_path, cfg, log=None)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == 1.0

    def test_perfect_inverse(self):
        assert spearman_rho([1, 2, 3], [30, 20, 10]) == -1.0

    def test_tie_matches_oracle(self):
        xs, ys = [1, 2, 3, 4], [1, 2, 2, 4]
        expected = scipy.stats.spearmanr(xs, ys).statistic
        assert abs(spearman_rho(xs, ys) - expected) < 1e-12

    def test_random_instances_match_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            xs = rng.integers(0, 8, n).astype(float)  # integer ties are common
            ys = rng.normal(0, 1, n)
            if len(set(xs)) < 2:
                continue
            expected = scipy.stats.spearmanr(xs, ys).statistic
            assert abs(spearman_rho(xs, ys) - expected) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_rho([1, 2], [1, 2, 3])

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            spearman_rho([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_non_finite_rejected(self, bad, side):
        clean, dirty = [0.1, 0.2, 0.3, 0.4], [bad, 1.0, 2.0, 3.0]
        xs, ys = (dirty, clean) if side == "xs" else (clean, dirty)
        with pytest.raises(ValueError, match="finite"):
            spearman_rho(xs, ys)

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=20, unique=True),
           st.floats(0.5, 5), st.floats(-10, 10))
    def test_invariant_under_increasing_transform(self, xs, scale, shift):
        # well-spaced inputs so the affine map cannot collapse distinct values
        ys = list(np.linspace(0, 1, len(xs)))
        base = spearman_rho(xs, ys)
        transformed = spearman_rho([scale * x + shift for x in xs], ys)
        assert abs(base - transformed) < 1e-12
        cubed = spearman_rho([x ** 3 for x in xs], ys)
        assert abs(base - cubed) < 1e-12


class TestVector:
    def test_in_vocab_equals_compose(self, ckpt):
        ev = Evaluator(ckpt)
        model = ckpt.model()
        for w in ckpt.vocab.words[:5]:
            # evaluator caches char features in float64; the model path
            # stays in the table dtype (float32 here)
            np.testing.assert_allclose(ev.vector(w),
                                       model.compose_word(w).vector,
                                       rtol=1e-5, atol=1e-5)

    def test_oov_two_known_chars_average(self, ckpt):
        ev = Evaluator(ckpt)
        model = ckpt.model()
        chars = next((a, b) for a in model.chars for b in model.chars
                     if a + b not in ckpt.vocab)
        token = chars[0] + chars[1]
        expected = (model.char_feature(chars[0]) + model.char_feature(chars[1])) / 2
        # evaluator caches features in float64, model path runs in float32
        np.testing.assert_allclose(ev.vector(token), expected, rtol=1e-5, atol=1e-5)

    def test_oov_latin_errors(self, ckpt):
        with pytest.raises(UnrepresentableTokenError):
            Evaluator(ckpt).vector("latin")

    def test_empty_token(self, ckpt):
        with pytest.raises(UnrepresentableTokenError):
            Evaluator(ckpt).vector("")

    def test_cosine_zero_vector_errors(self):
        with pytest.raises(UnrepresentableTokenError):
            cosine(np.zeros(3), np.ones(3))


class TestSimilarity:
    def test_perfect_agreement(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        records = []
        for i in range(5):
            a, b = words[i], words[i + 1]
            records.append(SimilarityRecord(a, b, ev.similarity(a, b)))
        rho, coverage = ev.eval_similarity(records)
        assert abs(rho - 1.0) < 1e-12
        assert coverage == 1.0

    def test_all_unrepresentable_errors(self, ckpt):
        records = [SimilarityRecord("aa", "bb", 1.0),
                   SimilarityRecord("cc", "dd", 2.0)]
        with pytest.raises(UnrepresentableTokenError):
            Evaluator(ckpt).eval_similarity(records)

    def test_coverage_counts_skipped(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        records = [SimilarityRecord(words[0], words[1], 1.0),
                   SimilarityRecord(words[1], words[2], 2.0),
                   SimilarityRecord(words[2], words[3], 3.0),
                   SimilarityRecord("zz", words[0], 4.0)]
        _, coverage = ev.eval_similarity(records)
        assert coverage == 0.75

    def test_matches_oracle_rho(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        rng = np.random.default_rng(1)
        records = [SimilarityRecord(words[i], words[j], float(rng.normal()))
                   for i, j in rng.integers(0, len(words), (5, 2)) if i != j]
        rho, _ = ev.eval_similarity(records)
        model_scores = [ev.similarity(r.word_a, r.word_b) for r in records]
        human = [r.human_score for r in records]
        expected = scipy.stats.spearmanr(model_scores, human).statistic
        assert abs(rho - expected) < 1e-12


class TestAnalogy:
    def test_constructed_target_wins(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        a, b, h = words[0], words[1], words[2]
        target = (ev._unit_vector(b) - ev._unit_vector(a) + ev._unit_vector(h))
        # plant the exact target direction in a copied matrix
        matrix = ev.matrix.copy()
        matrix[5] = target * 3.0
        ev._set_matrix(matrix)
        assert ev.analogy_3cosadd(a, b, h) == words[5]

    def test_exclusion_rule(self, ckpt):
        # even if b is the true argmax it must never be returned
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        for a, b, h in [(words[0], words[1], words[2]),
                        (words[3], words[4], words[5])]:
            assert ev.analogy_3cosadd(a, b, h) not in (a, b, h)
            assert ev.analogy_3cosmul(a, b, h) not in (a, b, h)

    def test_3cosadd_matches_brute_force(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, h = (words[i] for i in rng.choice(len(words), 3, replace=False))
            assert ev.analogy_3cosadd(a, b, h) == \
                brute_3cosadd(words, ev.matrix, a, b, h)

    def test_3cosmul_matches_brute_force(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, h = (words[i] for i in rng.choice(len(words), 3, replace=False))
            assert ev.analogy_3cosmul(a, b, h) == \
                brute_3cosmul(words, ev.matrix, a, b, h)

    def test_degenerate_h_equals_a(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        a, b = words[0], words[1]
        assert ev.analogy_3cosadd(a, b, a) == brute_3cosadd(words, ev.matrix, a, b, a)

    def test_eval_analogy_counts(self, ckpt):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        a, b, h = words[0], words[1], words[2]
        right = ev.analogy_3cosadd(a, b, h)
        groups = {"g1": [(a, b, h, right)],
                  "g2": [(a, b, h, b)]}  # b is excluded, always wrong
        per_group, total = ev.eval_analogy(groups, "3cosadd")
        assert per_group == {"g1": 1.0, "g2": 0.0}
        assert total == 0.5

    def test_unanswerable_counts_as_wrong(self, ckpt):
        ev = Evaluator(ckpt)
        groups = {"g": [("xx", "yy", "zz", ckpt.vocab.words[0])]}
        per_group, total = ev.eval_analogy(groups, "3cosadd")
        assert per_group["g"] == 0.0 and total == 0.0

    def test_scale_invariance(self, ckpt):
        ev1 = Evaluator(ckpt)
        ev2 = Evaluator(ckpt)
        ev2._set_matrix(ev2.matrix * 7.5)
        words = ckpt.vocab.words
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, h = (words[i] for i in rng.choice(len(words), 3, replace=False))
            assert ev1.analogy_3cosadd(a, b, h) == ev2.analogy_3cosadd(a, b, h)
            assert ev1.analogy_3cosmul(a, b, h) == ev2.analogy_3cosmul(a, b, h)
        q = words[0]
        assert [t for t, _ in ev1.nearest_neighbors(q, 5)] == \
            [t for t, _ in ev2.nearest_neighbors(q, 5)]


class TestNearestNeighbors:
    def test_query_excluded(self, ckpt):
        ev = Evaluator(ckpt)
        q = ckpt.vocab.words[0]
        assert q not in [t for t, _ in ev.nearest_neighbors(q, len(ckpt.vocab))]

    def test_top_k_matches_exhaustive_sort(self, ckpt):
        ev = Evaluator(ckpt)
        q = ckpt.vocab.words[3]
        got = ev.nearest_neighbors(q, 3)
        qv = ev.vector(q)
        scored = []
        for i, w in enumerate(ckpt.vocab.words):
            if w == q:
                continue
            scored.append((w, cosine(ev.matrix[i], qv)))
        scored.sort(key=lambda wc: -wc[1])
        assert [w for w, _ in got] == [w for w, _ in scored[:3]]
        for (_, c1), (_, c2) in zip(got, scored[:3]):
            assert abs(c1 - c2) < 1e-12

    def test_two_word_vocab_semantics(self, ckpt):
        ev = Evaluator(ckpt)
        got = ev.nearest_neighbors(ckpt.vocab.words[0], 1)
        assert len(got) == 1

    def test_invalid_k(self, ckpt):
        with pytest.raises(ValueError):
            Evaluator(ckpt).nearest_neighbors(ckpt.vocab.words[0], 0)

    def test_ties_at_the_cut_come_in_id_order(self, ckpt):
        # duplicated word-ID rows score exactly alike; k cuts through them
        w = ckpt.tables.word_id_vecs.copy()
        tied = [2, 4, 5, 8]
        w[tied] = w[tied[0]]
        dup = dataclasses.replace(ckpt, tables=dataclasses.replace(ckpt.tables,
                                                                   word_id_vecs=w))
        ev = Evaluator(dup, which="word_id")
        q = ckpt.vocab.words[0]
        scores = ev._unit @ ev._unit_vector(q)
        assert len(set(scores[tied])) == 1
        ahead = int((scores[1:] > scores[tied[0]]).sum())
        k = ahead + 2
        got = ev.nearest_neighbors(q, k)
        ids = np.arange(1, len(ckpt.vocab))
        want = ids[np.lexsort((ids, -scores[ids]))][:k]
        assert got == [(ckpt.vocab.words[i], float(scores[i])) for i in want]
        assert [ckpt.vocab.id_of[t] for t, _ in got[ahead:]] == tied[:2]

    def test_k_beyond_candidates_returns_all(self, ckpt):
        ev = Evaluator(ckpt)
        q = ckpt.vocab.words[0]
        got = ev.nearest_neighbors(q, len(ckpt.vocab) + 5)
        assert got == ev.nearest_neighbors(q, len(ckpt.vocab) - 1)
        assert len(got) == int(ev._candidates(q).sum())


@given(st.data())
def test_top_k_equals_full_sort(data):
    n = data.draw(st.integers(1, 40))
    # small integers make ties common; nan scores sort last
    values = st.one_of(st.integers(-3, 3).map(float), st.just(float("nan")))
    scores = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    ids = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    k = data.draw(st.integers(1, len(ids) + 3))
    want = ids[np.lexsort((ids, -scores[ids]))][:k]
    np.testing.assert_array_equal(_top_k(scores, ids, k), want)


class TestSweep:
    """The exact refine (`_exact`) and the blocked float32 screen of 3CosMul."""

    def test_rows_equal_full_products(self, ckpt):
        # the block rule was measured with 16-row blocks on this BLAS
        assert evaluation.REFINE_ROWS == 16
        ev = Evaluator(ckpt)
        n = len(ev._unit)
        assert n % 16 not in (0, 1)  # several blocks, a ragged last one
        queries = [ev._unit_vector(t) for t in ckpt.vocab.words[:3]]
        for ids in (np.arange(n), np.arange(3, n, 5), np.array([17]), np.array([n - 1])):
            got = ev._exact(ids, *queries)
            for row, q in zip(got, queries):
                np.testing.assert_array_equal(row, (ev._unit @ q)[ids])

    @pytest.mark.parametrize("n", [1, 2, 17, 33, 34])
    def test_one_row_remainder_rides_with_last_block(self, ckpt, n):
        ev = Evaluator(ckpt)
        queries = [ev._unit_vector(t) for t in ckpt.vocab.words[:3]]
        ev._set_matrix(ev.matrix[:n].copy())
        for q in queries:
            full = ev._unit @ q
            for i in range(n):
                np.testing.assert_array_equal(ev._exact(np.array([i]), q)[0], full[[i]])
            np.testing.assert_array_equal(ev._exact(np.arange(n), q)[0], full)

    def test_3cosmul_matches_brute_force_at_both_block_sizes(self, ckpt, monkeypatch):
        ev = Evaluator(ckpt)
        words = ckpt.vocab.words
        triples = list(itertools.permutations(words[:8], 3))
        want = [brute_3cosmul(words, ev.matrix, a, b, h) for a, b, h in triples]
        for rows in (evaluation.SCREEN_ROWS, 16):
            monkeypatch.setattr(evaluation, "SCREEN_ROWS", rows)
            assert [ev.analogy_3cosmul(*t) for t in triples] == want


def _outcome(query, *args):
    """What a query returns, its cosines as exact bits, or the type of
    error it raises."""
    try:
        got = query(*args)
    except UnrepresentableTokenError as exc:
        return type(exc)
    return [(w, c.hex()) for w, c in got] if isinstance(got, list) else got


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_queries_equal_the_full_float64_scan(data):
    n = data.draw(st.sampled_from([1, 2, 15, 16, 17, 33]), label="n")
    d = data.draw(st.sampled_from([1, 2, 5, 300]), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if data.draw(st.booleans(), label="small integers"):
        matrix = rng.integers(-2, 3, (n, d)).astype(np.float64)  # ties in every form
    else:
        matrix = rng.normal(size=(n, d))
    plant = st.tuples(st.sampled_from(["tie", "near tie", "float32 near tie", "zero"]),
                      st.integers(0, n - 1), st.integers(0, n - 1))
    for kind, i, j in data.draw(st.lists(plant, max_size=n), label="plants"):
        if kind == "tie":  # a power-of-two multiple has the same unit row
            matrix[i] = 2.0 * matrix[j]
        elif kind == "near tie":  # a few float64 ulps apart
            matrix[i] = matrix[j]
            matrix[i, 0] = np.nextafter(matrix[i, 0], np.inf) + 4 * np.spacing(matrix[i, 0])
        elif kind == "float32 near tie":  # apart by about the screen's rounding
            matrix[i] = matrix[j] * (1 + rng.uniform(-1, 1, d) * 2.0 ** -22)
        else:
            matrix[i] = 0.0
    ev = evaluator_over(matrix)
    words = ev.vocab.words
    token = data.draw(st.sampled_from(words), label="token")
    k = data.draw(st.integers(1, n + 2), label="k")
    assert _outcome(ev.nearest_neighbors, token, k) == _outcome(scan_nearest, ev, token, k)
    a, b, h = (data.draw(st.sampled_from(words), label=x) for x in "abh")
    assert _outcome(ev.analogy_3cosadd, a, b, h) == _outcome(scan_3cosadd, ev, a, b, h)
    assert _outcome(ev.analogy_3cosmul, a, b, h) == _outcome(scan_3cosmul, ev, a, b, h)


@pytest.mark.parametrize("d", [5, 300])
@pytest.mark.parametrize("n", [17, 33])
def test_only_the_last_row_qualifies(n, d):
    # n = 1 mod 16: the one row the screen keeps is a one-row last block
    matrix = np.random.default_rng(n + d).normal(size=(n, d))
    matrix[1] = -matrix[0]
    matrix[n - 1] = 2.0 * matrix[0]  # cosine 1 to w0, -1 to w1
    ev = evaluator_over(matrix)
    w, last = ev.vocab.words, ev.vocab.words[n - 1]
    q = ev._unit_vector(w[0])
    np.testing.assert_array_equal(ev._screen(q, ev._candidates(w[0]), 1), [n - 1])
    assert _outcome(ev.nearest_neighbors, w[0], 1) == _outcome(scan_nearest, ev, w[0], 1)
    assert ev.nearest_neighbors(w[0], 1)[0][0] == last
    assert ev.analogy_3cosmul(w[1], w[0], w[0]) == scan_3cosmul(ev, w[1], w[0], w[0]) == last
    target = ev._unit_vector(w[3]) - ev._unit_vector(w[2]) + q
    matrix[n - 1] = 3.0 * target
    ev = evaluator_over(matrix)
    np.testing.assert_array_equal(ev._screen(target, ev._candidates(w[2], w[3], w[0]), 1),
                                  [n - 1])
    assert ev.analogy_3cosadd(w[2], w[3], w[0]) == scan_3cosadd(ev, w[2], w[3], w[0]) == last


class TestDatasetLoaders:
    def test_similarity_loader(self, tmp_path):
        p = tmp_path / "ws.tsv"
        p.write_text("你好\t再见\t3.5\n早\t晚\t1.0\n", encoding="utf-8")
        recs = load_similarity_dataset(p)
        assert len(recs) == 2
        assert recs[0].word_a == "你好" and recs[0].human_score == 3.5

    def test_similarity_loader_bad_line(self, tmp_path):
        p = tmp_path / "ws.tsv"
        p.write_text("no tabs here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_similarity_dataset(p)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
    def test_similarity_loader_non_finite_score(self, tmp_path, score):
        p = tmp_path / "ws.tsv"
        p.write_text(f"你好\t再见\t3.5\n# note\n早\t晚\t{score}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"ws.tsv:3: score '{score}' is not finite"):
            load_similarity_dataset(p)

    @pytest.mark.parametrize("score", ["abc", "1.0.0", "0x1"])
    def test_similarity_loader_score_not_a_number(self, tmp_path, score):
        p = tmp_path / "ws.tsv"
        p.write_text(f"你好\t再见\t3.5\n早\t晚\t{score}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"ws.tsv:2: score '{score}' is not a number"):
            load_similarity_dataset(p)

    def test_analogy_loader(self, tmp_path):
        p = tmp_path / "an.txt"
        p.write_text(": capital\na b h t\n: family\nx y z w\nq r s t\n",
                     encoding="utf-8")
        groups = load_analogy_dataset(p)
        assert list(groups) == ["capital", "family"]
        assert groups["family"][1] == ("q", "r", "s", "t")

    def test_analogy_loader_headerless(self, tmp_path):
        p = tmp_path / "an.txt"
        p.write_text("a b h t\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_analogy_dataset(p)

    @pytest.mark.parametrize("load, good", [
        (load_similarity_dataset, "你好\t再见\t3.5\n早\t晚\t1.0\n"),
        (load_analogy_dataset, ": capital\na b h t\n")], ids=["similarity", "analogy"])
    def test_loader_names_a_line_that_is_not_utf8(self, tmp_path, load, good):
        p = tmp_path / "data.txt"
        p.write_bytes(good.encode() + b"x\xff y\n")
        with pytest.raises(ValueError, match="data.txt:3: not UTF-8"):
            load(p)


def test_stroke_only_ablation_pins_identical_stroke_chars():
    base = make_micro_model(seed=20, use_glyphs=False)
    # force two characters onto one stroke sequence
    m = with_char_ngrams(base, {1: base.ngram_dict.per_char.get(base.chars[0], [])})
    f0, f1 = m.char_feature(m.chars[0]), m.char_feature(m.chars[1])
    assert cosine(f0, f1) == 1.0
