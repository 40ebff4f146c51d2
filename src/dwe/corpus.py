"""Corpus ingestion: vocabulary, skip-gram pair streaming, negative sampling.

Corpus files are UTF-8 plain text, one pre-segmented sentence per line,
tokens separated by single spaces. Sentences never share context across
lines.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np


@dataclass
class Vocab:
    words: list[str]
    counts: np.ndarray  # int64, indexed by id
    total_tokens: int
    id_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.id_of = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of


def build_vocab(tokens: Iterable[str], min_count: int = 5) -> Vocab:
    """Count tokens and keep those with frequency >= min_count, ids in
    descending frequency (ties broken by first occurrence)."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counter: Counter[str] = Counter()
    total = 0
    for tok in tokens:
        counter[tok] += 1
        total += 1
    # Counter preserves first-occurrence order, giving the tie-break index.
    kept = [(w, c, i) for i, (w, c) in enumerate(counter.items()) if c >= min_count]
    if not kept:
        raise ValueError(f"vocabulary empty after min_count={min_count} filter")
    kept.sort(key=lambda wci: (-wci[1], wci[2]))
    words = [w for w, _, _ in kept]
    counts = np.array([c for _, c, _ in kept], dtype=np.int64)
    return Vocab(words, counts, total)


def read_sentences(path) -> Iterator[list[str]]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks:
                yield toks


def context_pairs(sentence: list[int] | np.ndarray, window: int) -> np.ndarray:
    """(P, 2) int64 array of (center, context) pairs for every position,
    clipped at sentence boundaries; deterministic left-to-right order."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    sentence = np.asarray(sentence, dtype=np.int64)
    offsets = np.arange(-window, window)
    offsets[window:] += 1  # -window..-1, 1..window
    contexts = np.arange(len(sentence))[:, None] + offsets
    keep = (contexts >= 0) & (contexts < len(sentence))
    centers = np.broadcast_to(sentence[:, None], contexts.shape)[keep]
    return np.stack([centers, sentence[contexts[keep]]], axis=1)


class NegativeSampler:
    """Draws negative ids from P(id) proportional to count^alpha.

    Holds per-worker RNG state; never share one instance across workers.
    """

    def __init__(self, counts: np.ndarray, alpha: float = 1.0, seed: int = 0):
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0:
            raise ValueError("empty vocabulary")
        weights = counts ** alpha
        self.probs = weights / weights.sum()
        self.cumulative = np.cumsum(self.probs)
        self.alpha = alpha
        self.rng = np.random.default_rng(seed)

    def reseed(self, seed) -> None:
        """Reset the RNG; draws after identical reseeds are identical."""
        self.rng = np.random.default_rng(seed)

    def _sample(self, k: int) -> np.ndarray:
        u = self.rng.random(k)
        return np.searchsorted(self.cumulative, u, side="right").astype(np.int64)

    def draw(self, k: int, exclude: int) -> np.ndarray:
        """k i.i.d. draws from P, resampling any draw equal to `exclude`."""
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        if len(self.probs) < 2:
            raise ValueError("cannot draw negatives from a single-word vocabulary")
        ids = self._sample(k)
        bad = ids == exclude
        while bad.any():
            ids[bad] = self._sample(int(bad.sum()))
            bad = ids == exclude
        return ids

    def draw_batch(self, k: int, excludes: np.ndarray) -> np.ndarray:
        """(len(excludes), k) draws, row i excluding excludes[i]."""
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        if len(self.probs) < 2:
            raise ValueError("cannot draw negatives from a single-word vocabulary")
        excludes = np.asarray(excludes)
        ids = self._sample(k * len(excludes)).reshape(len(excludes), k)
        bad = ids == excludes[:, None]
        while bad.any():
            ids[bad] = self._sample(int(bad.sum()))
            bad = ids == excludes[:, None]
        return ids
