"""Intrinsic evaluation: word similarity, analogies, nearest neighbors.

All queries run against a frozen checkpoint; CNN features per character
are computed once and cached. Out-of-vocabulary tokens are represented
by the average of their known CJK character features; tokens with no
usable characters (and zero vectors) are unrepresentable.

Every answer and every reported cosine comes from the float64 unit rows
`_unit`, bit for bit as the full product `_unit @ q` gives it, yet a
query reads the float64 rows only near its answer. It runs in two passes:

- Screen: the float32 product `_unit32 @ q32` of the rows' and the
  query's float32 roundings. For any row x (unit or zero) and any
  summation order, with or without FMA, |s32 - x.q| <= g * |x| * |q|,
  g = (d + 2)u / (1 - (d + 2)u), u = 2**-24 (Higham, "Accuracy and
  Stability of Numerical Algorithms", sec. 3.1): about 1.8e-5 at d = 300.
  `_screen_error` widens g by a relative 2**-10, which covers |x| > 1 by
  rounding, the float64 rounding of x.q and the float64 comparisons, and
  adds d * 2**-146 for conversions and products that underflow. A row
  is kept if its exact score could reach the answer under that bound.
- Refine: the kept rows' exact scores, from one gather of the aligned
  REFINE_ROWS-row blocks of `_unit` that hold them. The matrix-vector
  kernel rounds a row by its place in a group of rows; an aligned block
  keeps every row's place, only the last block is short, and a one-row
  product, which BLAS sends to its dot kernel, is never issued. The
  answer is then picked from the exact scores with the full scan's tie
  rules.

The bits match the full product with one BLAS thread, as the benchmark
runs. With more, BLAS may split a large product at a row that is not a
block boundary, and the bits of the rows next to the split depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .trainer import VECTOR_SOURCES, Checkpoint, CheckpointError

EPS_3COSMUL = 0.001
# rows of `_unit` per aligned block of an exact product; a group of BLAS's
# matrix-vector kernel never straddles a block
REFINE_ROWS = 16
# rows of `_unit32` per block of the 3CosMul screen: 512 x 300 float32 is
# 600 KB, so a block stays in L2 while the three queries pass over it
SCREEN_ROWS = 512


def _screen_error(d: int, norm: float) -> float:
    """A bound on |s32 - fl64(x @ q)| for a row x of `Evaluator._unit` and a
    float64 query q of 2-norm `norm`, where s32 is the float32 product of
    their float32 roundings (see the module docstring)."""
    g = (d + 2) * 2.0 ** -24
    return g / (1 - g) * (1 + 2.0 ** -10) * norm + d * 2.0 ** -146


class UnrepresentableTokenError(ValueError):
    pass


@dataclass
class SimilarityRecord:
    word_a: str
    word_b: str
    human_score: float


def _dataset_lines(path):
    """(line number, stripped line) for each line of the file at path that
    is not blank; a line that is not UTF-8 raises ValueError naming it."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{lineno}: not UTF-8") from None
        if line:
            yield lineno, line


def load_similarity_dataset(path) -> list[SimilarityRecord]:
    records = []
    for lineno, line in _dataset_lines(path):
        if line.startswith("#"):
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
    for lineno, line in _dataset_lines(path):
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


def _interval_product(lo1, hi1, lo2, hi2) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest x * y over x in [lo1, hi1], y in [lo2, hi2],
    elementwise, for bounds of any sign."""
    corners = (lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2)
    return np.minimum.reduce(corners), np.maximum.reduce(corners)


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
            matrix = m.compose(np.arange(len(self.vocab)), self._char_feats)
        else:
            matrix = m.tables.word_id_vecs.astype(np.float64)
        for what, names, rows in (("word", self.vocab.words, matrix),
                                  ("character", m.chars, self._char_feats)):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if len(bad):
                raise CheckpointError(f"{what} {names[bad[0]]!r} has a non-finite vector")
        self._set_matrix(matrix)

    def _set_matrix(self, matrix: np.ndarray) -> None:
        """Set `matrix` and every array the queries derive from it: the
        usable (non-zero) rows `_usable`, the unit rows `_unit` (a zero row
        stays zero) and their float32 copy `_unit32`, which the screen reads."""
        self.matrix = matrix
        norms = np.linalg.norm(matrix, axis=1)
        self._usable = norms > 0
        self._unit = matrix / np.where(self._usable, norms, 1)[:, None]
        self._unit32 = self._unit.astype(np.float32)

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

    def _screen(self, q: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
        """The ascending ids of the rows of `mask` whose exact score
        `_unit @ q` may be among the k best: every one of them when there
        are at most k, else those whose float32 score is at least the k-th
        best float32 score less twice the screen error."""
        ids = np.flatnonzero(mask)
        if k < len(ids):
            s = (self._unit32 @ q.astype(np.float32))[ids].astype(np.float64)
            cut = np.partition(s, -k)[-k] - 2 * _screen_error(len(q), np.linalg.norm(q))
            ids = ids[s >= cut]
        return ids

    def _exact(self, ids: np.ndarray, *queries: np.ndarray) -> np.ndarray:
        """Row j holds `_unit @ queries[j]` at the ascending, non-empty `ids`,
        bit for bit: one gather of the aligned REFINE_ROWS-row blocks that
        hold them, and one matrix-vector product per query."""
        n = len(self._unit)
        blocks = np.unique(ids // REFINE_ROWS)
        if n > 1 and blocks[0] * REFINE_ROWS == n - 1:
            # the one-row last block alone would take BLAS's dot kernel,
            # whose sum order is not the matrix-vector product's
            blocks = np.array([blocks[0] - 1, blocks[0]])
        rows = (blocks[:, None] * REFINE_ROWS + np.arange(REFINE_ROWS)).ravel()
        rows = rows[:np.searchsorted(rows, n)]
        gathered = self._unit[rows]
        at = np.searchsorted(rows, ids)
        return np.stack([(gathered @ q)[at] for q in queries])

    def _screen_cosines(self, queries: list[np.ndarray]) -> np.ndarray:
        """Row j holds the float32 screen scores `_unit32 @ queries[j]`, from
        one pass over `_unit32` in blocks of SCREEN_ROWS rows."""
        q32 = [q.astype(np.float32) for q in queries]
        n = len(self._unit32)
        out = np.empty((len(q32), n), np.float32)
        for lo in range(0, n, SCREEN_ROWS):
            block = self._unit32[lo:lo + SCREEN_ROWS]
            for q, row in zip(q32, out):
                np.dot(block, q, out=row[lo:lo + SCREEN_ROWS])
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
        ids = self._screen(target, self._candidates(a, b, h), 1)
        if not len(ids):
            return self.vocab.words[0]  # the full scan's argmax over -inf alone
        (scores,) = self._exact(ids, target)
        return self.vocab.words[ids[np.argmax(scores)]]

    def analogy_3cosmul(self, a: str, b: str, h: str) -> str:
        """argmax_t cos01(t,b) * cos01(t,h) / (cos01(t,a) + eps), cosines
        shifted to [0, 1] via (1 + cos) / 2, eps = EPS_3COSMUL = 0.001.

        The screen turns each float32 cosine into an interval that holds
        the exact one, and bounds the score over the intervals with signed
        interval products, so a cosine rounded below -1 stays inside. It
        keeps the rows whose upper bound reaches the largest lower bound;
        the relative 2**-40 covers the bounds' own float64 rounding."""
        queries = [self._unit_vector(t) for t in (a, b, h)]
        ids = np.flatnonzero(self._candidates(a, b, h))
        if not len(ids):
            return self.vocab.words[0]  # the full scan's argmax over -inf alone
        err = _screen_error(len(queries[0]), max(np.linalg.norm(q) for q in queries))
        if err < EPS_3COSMUL:  # so that every denominator's interval is positive
            mid = (1.0 + self._screen_cosines(queries)[:, ids].astype(np.float64)) / 2.0
            lo, hi = mid - err / 2.0, mid + err / 2.0
            num_lo, num_hi = _interval_product(lo[1], hi[1], lo[2], hi[2])
            den_lo, den_hi = lo[0] + EPS_3COSMUL, hi[0] + EPS_3COSMUL
            upper = np.where(num_hi >= 0, num_hi / den_lo, num_hi / den_hi)
            lower = np.where(num_lo >= 0, num_lo / den_hi, num_lo / den_lo)
            best = (lower - 2.0 ** -40 * np.abs(lower)).max()
            ids = ids[upper + 2.0 ** -40 * np.abs(upper) >= best]
        ca, cb, ch = (1.0 + self._exact(ids, *queries)) / 2.0
        scores = cb * ch / (ca + EPS_3COSMUL)
        return self.vocab.words[ids[np.argmax(scores)]]

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
        q = self._unit_vector(token)
        ids = self._screen(q, self._candidates(token), k)
        if not len(ids):
            return []
        (scores,) = self._exact(ids, q)
        return [(self.vocab.words[ids[i]], float(scores[i]))
                for i in _top_k(scores, np.arange(len(ids)), k)]
