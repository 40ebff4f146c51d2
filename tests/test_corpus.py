import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwe.corpus import NegativeSampler, build_vocab, context_pairs


class TestBuildVocab:
    def test_direct_counting(self):
        v = build_vocab(["a", "a", "b"], min_count=1)
        assert len(v) == 2
        assert v.counts[v.id_of["a"]] == 2
        assert v.counts[v.id_of["b"]] == 1
        assert v.id_of["a"] == 0
        assert v.total_tokens == 3

    def test_threshold_filter(self):
        v = build_vocab(["a", "a", "b"], min_count=2)
        assert v.words == ["a"]

    def test_frequency_descending_order(self):
        v = build_vocab(["a", "b", "b", "c", "c", "c"], min_count=1)
        assert v.words == ["c", "b", "a"]

    def test_tie_break_first_occurrence(self):
        v = build_vocab(["x", "y", "x", "y"], min_count=1)
        assert v.words == ["x", "y"]

    def test_empty_after_filter_errors(self):
        with pytest.raises(ValueError):
            build_vocab(["a", "b"], min_count=3)

    def test_idempotent(self):
        stream = ["a", "b", "b", "c", "a", "a"]
        v1 = build_vocab(stream, min_count=1)
        v2 = build_vocab(stream, min_count=1)
        assert v1.words == v2.words
        assert (v1.counts == v2.counts).all()


class TestContextPairs:
    def test_single_token_empty(self):
        assert list(context_pairs([7], window=5)) == []

    def test_two_tokens_symmetric(self):
        pairs = context_pairs([1, 2], window=1)
        assert pairs.dtype == np.int64 and pairs.shape == (2, 2)
        assert pairs.tolist() == [[1, 2], [2, 1]]

    def test_three_tokens(self):
        assert context_pairs([1, 2, 3], window=1).tolist() == \
            [[1, 2], [2, 1], [2, 3], [3, 2]]

    def test_empty_sentence(self):
        assert list(context_pairs([], window=3)) == []

    @given(st.integers(0, 8), st.integers(1, 3))
    def test_pair_count_law(self, length, window):
        sentence = list(range(length))
        pairs = [tuple(p) for p in context_pairs(sentence, window).tolist()]
        expected = sum(min(i + window, length - 1) - max(i - window, 0)
                       for i in range(length))
        assert len(pairs) == expected
        # brute-force enumeration agrees pair by pair
        brute = [(sentence[i], sentence[j])
                 for i in range(length)
                 for j in range(length)
                 if j != i and abs(i - j) <= window]
        assert pairs == brute  # same pairs, in the same left-to-right order


class TestNegativeSampler:
    def test_unigram_normalization(self):
        s = NegativeSampler(np.array([3, 1]), alpha=1.0, seed=0)
        np.testing.assert_allclose(s.probs, [0.75, 0.25])
        assert abs(s.probs.sum() - 1.0) < 1e-9

    def test_power_law_weights(self):
        s = NegativeSampler(np.array([3, 1]), alpha=0.75, seed=0)
        expected = 3 ** 0.75 / (3 ** 0.75 + 1)
        assert abs(s.probs[0] - expected) < 1e-9
        assert abs(s.probs[0] - 0.6951) < 1e-4

    def test_deterministic_under_seed(self):
        a = NegativeSampler(np.array([5, 3, 2]), seed=42).draw(50, exclude=0)
        b = NegativeSampler(np.array([5, 3, 2]), seed=42).draw(50, exclude=0)
        assert (a == b).all()

    def test_exclusion(self):
        s = NegativeSampler(np.array([100, 1]), seed=0)
        ids = s.draw(500, exclude=0)
        assert (ids != 0).all()

    def test_single_word_vocab_errors(self):
        s = NegativeSampler(np.array([5]), seed=0)
        with pytest.raises(ValueError):
            s.draw(3, exclude=0)

    def test_batch_exclusion_per_row(self):
        s = NegativeSampler(np.array([10, 10, 1]), seed=1)
        excludes = np.array([0, 1] * 20)
        ids = s.draw_batch(8, excludes)
        assert (ids != excludes[:, None]).all()

    @pytest.mark.parametrize("alpha", [1.0, 0.75])
    def test_empirical_frequency_within_3_sigma(self, alpha):
        counts = np.array([50, 30, 12, 5, 3])
        s = NegativeSampler(counts, alpha=alpha, seed=9)
        n = 1_000_000
        draws = s._sample(n)  # no exclusion: test the raw distribution
        observed = np.bincount(draws, minlength=len(counts))
        for i, p in enumerate(s.probs):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(observed[i] - n * p) < 3 * sigma

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            NegativeSampler(np.array([1, 2]), alpha=1.5)
