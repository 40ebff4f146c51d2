"""Intrinsic evaluation: word similarity, analogies, nearest neighbors.

All queries run against a frozen checkpoint; CNN features per character
are computed once and cached. Out-of-vocabulary tokens are represented
by the average of their known CJK character features; tokens with no
usable characters (and zero vectors) are unrepresentable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trainer import VECTOR_SOURCES, Checkpoint, CheckpointError

EPS_3COSMUL = 0.001
# rows of `Evaluator._unit` per block of one sweep: 256 x 300 float64 is
# 600 KB, so a block stays in L2 while every query vector passes over it
SWEEP_ROWS = 256


class UnrepresentableTokenError(ValueError):
    pass


@dataclass
class SimilarityRecord:
    word_a: str
    word_b: str
    human_score: float


def load_similarity_dataset(path) -> list[SimilarityRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected word_a<TAB>word_b<TAB>score")
            try:
                score = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: score {parts[2]!r} is not a number") from None
            if not np.isfinite(score):
                raise ValueError(f"{path}:{lineno}: score {parts[2]!r} is not finite")
            records.append(SimilarityRecord(parts[0], parts[1], score))
    if len(records) < 2:
        raise ValueError(f"{path}: need >= 2 records for rank correlation")
    return records


def load_analogy_dataset(path) -> dict[str, list[tuple[str, str, str, str]]]:
    groups: dict[str, list[tuple[str, str, str, str]]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(":"):
                current = line[1:].strip()
                if not current or current in groups:
                    raise ValueError(f"{path}:{lineno}: bad or duplicate group name")
                groups[current] = []
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 words")
            if current is None:
                raise ValueError(f"{path}:{lineno}: quadruple before any group header")
            groups[current].append(tuple(parts))
    if not groups or not any(groups.values()):
        raise ValueError(f"{path}: empty analogy dataset")
    return groups


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties get the mean of their rank range."""
    _, inv, counts = np.unique(np.asarray(x, dtype=np.float64), return_inverse=True,
                               return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inv]


def spearman_rho(xs, ys) -> float:
    """Pearson correlation of fractional ranks; a nan or inf raises ValueError."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("spearman_rho needs two equal-length 1-D sequences")
    if len(xs) < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("spearman_rho needs finite values")
    rx, ry = _fractional_ranks(xs), _fractional_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0:
        raise ValueError("rank variance is zero; rho undefined")
    return float((rx * ry).sum() / denom)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two vectors; exactly 1.0 for identical ones."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise UnrepresentableTokenError("cosine with a zero vector is undefined")
    if np.array_equal(u, v):
        return 1.0  # exact for identical vectors; avoids sqrt round-off
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _top_k(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """The first k of `ids` by descending score, ties by ascending id.

    Only the candidates at least as good as the k-th best are sorted, so
    every tie at the cut is there and the result equals the full sort's.
    """
    neg = -scores[ids]
    if k < len(ids):
        # `not >` keeps nan scores too; the sort puts them last, as before
        keep = ~(neg > np.partition(neg, k - 1)[k - 1])
        ids, neg = ids[keep], neg[keep]
    return ids[np.lexsort((ids, neg))][:k]


class Evaluator:
    """Read-only query interface over a frozen checkpoint: the vectors of
    `which`, built as `export_vectors` builds them, and every registry
    character's feature in float64, for OOV tokens. A non-finite vector or
    feature is a CheckpointError naming the first such word or character."""

    def __init__(self, ckpt: Checkpoint, which: str = "composed"):
        if which not in VECTOR_SOURCES:
            raise ValueError(f"which must be one of {VECTOR_SOURCES}, got {which!r}")
        self.vocab = ckpt.vocab
        m = ckpt.model()
        self.char_index = m.char_index
        self._char_feats = m.char_features().astype(np.float64)
        if which == "composed":
            self.matrix = m.compose(np.arange(len(self.vocab)), self._char_feats)
        else:
            self.matrix = m.tables.word_id_vecs.astype(np.float64)
        for what, names, rows in (("word", self.vocab.words, self.matrix),
                                  ("character", m.chars, self._char_feats)):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if len(bad):
                raise CheckpointError(f"{what} {names[bad[0]]!r} has a non-finite vector")
        norms = np.linalg.norm(self.matrix, axis=1)
        self._usable = norms > 0
        self._unit = self.matrix / np.where(self._usable, norms, 1)[:, None]

    def vector(self, token: str) -> np.ndarray:
        """Composed vector; OOV tokens fall back to averaged char features."""
        if not token:
            raise UnrepresentableTokenError("empty token")
        wid = self.vocab.id_of.get(token)
        if wid is not None:
            return self.matrix[wid]
        cids = [self.char_index[c] for c in token if c in self.char_index]
        if not cids:
            raise UnrepresentableTokenError(f"no known CJK characters in {token!r}")
        return self._char_feats[cids].mean(axis=0)

    def _unit_vector(self, token: str) -> np.ndarray:
        v = self.vector(token)
        n = np.linalg.norm(v)
        if n == 0:
            raise UnrepresentableTokenError(f"zero vector for {token!r}")
        return v / n

    def _cosines(self, *tokens: str) -> np.ndarray:
        """Row j is `_unit @ _unit_vector(tokens[j])`, bit for bit, from one
        pass over `_unit` in blocks of SWEEP_ROWS rows."""
        queries = [self._unit_vector(t) for t in tokens]
        n = len(self._unit)
        out = np.empty((len(queries), n))
        lo = 0
        # a one-row block would take BLAS's dot kernel, whose sum order is
        # not the matrix-vector product's, so the last block takes it along
        for hi in (*range(SWEEP_ROWS, n - 1, SWEEP_ROWS), n):
            block = self._unit[lo:hi]
            for q, row in zip(queries, out):
                np.dot(block, q, out=row[lo:hi])
            lo = hi
        return out

    # -- similarity -----------------------------------------------------

    def similarity(self, a: str, b: str) -> float:
        return cosine(self.vector(a), self.vector(b))

    def eval_similarity(self, records: list[SimilarityRecord]) -> tuple[float, float]:
        """(rho, coverage); pairs with unrepresentable sides are skipped."""
        model_scores, human_scores = [], []
        for rec in records:
            try:
                model_scores.append(self.similarity(rec.word_a, rec.word_b))
            except UnrepresentableTokenError:
                continue
            human_scores.append(rec.human_score)
        if len(model_scores) < 2:
            raise UnrepresentableTokenError("fewer than 2 scorable pairs")
        rho = spearman_rho(model_scores, human_scores)
        return rho, len(model_scores) / len(records)

    # -- analogy ---------------------------------------------------------

    def _candidates(self, *exclude: str) -> np.ndarray:
        """Mask of usable vocabulary rows, without the given tokens."""
        mask = self._usable.copy()
        for tok in exclude:
            wid = self.vocab.id_of.get(tok)
            if wid is not None:
                mask[wid] = False
        return mask

    def analogy_3cosadd(self, a: str, b: str, h: str) -> str:
        """argmax_t cos(t, b - a + h) over the vocabulary, excluding a, b, h."""
        target = self._unit_vector(b) - self._unit_vector(a) + self._unit_vector(h)
        scores = self._unit @ target
        scores[~self._candidates(a, b, h)] = -np.inf
        return self.vocab.words[int(np.argmax(scores))]

    def analogy_3cosmul(self, a: str, b: str, h: str) -> str:
        """argmax_t cos01(t,b) * cos01(t,h) / (cos01(t,a) + eps), cosines
        shifted to [0, 1] via (1 + cos) / 2, eps = EPS_3COSMUL = 0.001."""
        ca, cb, ch = (1.0 + self._cosines(a, b, h)) / 2.0
        scores = cb * ch / (ca + EPS_3COSMUL)
        scores[~self._candidates(a, b, h)] = -np.inf
        return self.vocab.words[int(np.argmax(scores))]

    def eval_analogy(self, groups: dict[str, list[tuple[str, str, str, str]]],
                     method: str = "3cosadd") -> tuple[dict[str, float], float]:
        """Per-group exact-match accuracy plus the overall accuracy.
        Unanswerable queries count as wrong."""
        solve = {"3cosadd": self.analogy_3cosadd,
                 "3cosmul": self.analogy_3cosmul}.get(method)
        if solve is None:
            raise ValueError(f"unknown analogy method {method!r}")
        per_group: dict[str, float] = {}
        correct_all = total_all = 0
        for name, quads in groups.items():
            if not quads:
                continue
            correct = 0
            for a, b, h, t in quads:
                try:
                    if solve(a, b, h) == t:
                        correct += 1
                except UnrepresentableTokenError:
                    pass
            per_group[name] = correct / len(quads)
            correct_all += correct
            total_all += len(quads)
        if total_all == 0:
            raise ValueError("empty analogy dataset")
        return per_group, correct_all / total_all

    # -- neighbors ---------------------------------------------------------

    def nearest_neighbors(self, token: str, k: int = 10) -> list[tuple[str, float]]:
        """The k usable vocabulary words closest to `token`, with their cosines.

        Descending cosine, ties broken by ascending vocabulary id. The token
        itself is excluded; a k beyond the candidate count returns every
        candidate.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        scores = self._unit @ self._unit_vector(token)
        ids = _top_k(scores, np.nonzero(self._candidates(token))[0], k)
        return [(self.vocab.words[i], float(scores[i])) for i in ids]
