"""Independent reference computations and the checks built on them.

Nothing here calls into the program's composition, CNN or loss code. The
references work in float64 straight from the paper's formulas:

    vec(w) = w_ID + (1/N) * sum_c (sum_{g in G(c)} g) * CNN(I_c)
    J      = sum_pairs log s(w . e) + sum_negatives log s(-w . e')

The glyph CNN is a direct convolution (a loop over kernel taps, no
im2col), so it shares no code path with the program's im2col version.
Each `check_*` function returns a list of error strings; empty means the
program's output agrees with the reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CJK_LO, CJK_HI = 0x4E00, 0x9FA5
EPS_3COSMUL = 0.001


def is_cjk_char(c: str) -> bool:
    return CJK_LO <= ord(c) <= CJK_HI


# -- glyph CNN (LeNet layout: conv5x5x6, pool, conv5x5x16, pool, fc 120, 84, d)

def conv2d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid, stride-1 convolution by summing shifted inputs per kernel tap.

    x: (B, C, H, W); w: (O, C, k, k); returns (B, O, H-k+1, W-k+1).
    """
    o, c, k, _ = w.shape
    ho, wo = x.shape[2] - k + 1, x.shape[3] - k + 1
    out = np.zeros((x.shape[0], o, ho, wo), dtype=np.float64)
    for p in range(k):
        for q in range(k):
            out += np.einsum("bchw,oc->bohw", x[:, :, p:p + ho, q:q + wo], w[:, :, p, q])
    return out + b[None, :, None, None]


def maxpool2(x: np.ndarray) -> np.ndarray:
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def cnn_forward_ref(p: dict[str, np.ndarray], bitmaps: np.ndarray) -> np.ndarray:
    """(B, 28, 28) bitmaps -> (B, d) features, all in float64."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in p.items()}
    x = np.asarray(bitmaps, dtype=np.float64)[:, None]
    h = maxpool2(np.maximum(conv2d_direct(x, p["conv1_w"], p["conv1_b"]), 0))
    h = maxpool2(np.maximum(conv2d_direct(h, p["conv2_w"], p["conv2_b"]), 0))
    h = h.reshape(len(x), -1)
    h = np.maximum(h @ p["fc1_w"] + p["fc1_b"], 0)
    h = np.maximum(h @ p["fc2_w"] + p["fc2_b"], 0)
    return h @ p["fc3_w"] + p["fc3_b"]


# -- composition ------------------------------------------------------------

@dataclass
class RefModel:
    """Plain arrays and dicts describing one trained model."""
    words: list[str]
    word_id: np.ndarray                 # (V, d)
    context: np.ndarray                 # (V, d)
    ngram: np.ndarray                   # (G, d)
    cnn: dict[str, np.ndarray]          # LeNet tensors by name
    per_char_ngrams: dict[str, list[int]]
    glyphs: dict[str, np.ndarray]       # char -> (28, 28) bitmap
    use_ngrams: bool
    use_glyphs: bool

    @classmethod
    def from_checkpoint(cls, ckpt) -> "RefModel":
        """Copies every array of a loaded checkpoint to float64."""
        f64 = lambda a: np.array(a, dtype=np.float64)  # noqa: E731
        t = ckpt.tables
        return cls(list(ckpt.vocab.words), f64(t.word_id_vecs), f64(t.context_vecs),
                   f64(t.ngram_vecs), {n: f64(a) for n, a in ckpt.cnn.tensors()},
                   dict(ckpt.ngram_dict.per_char), dict(ckpt.glyphs),
                   ckpt.config.use_ngrams, ckpt.config.use_glyphs)

    def char_features(self, chars: list[str]) -> np.ndarray:
        """(len(chars), d) rows of (sum of n-gram rows) * CNN(glyph).

        A disabled channel contributes a factor of one; with both off a
        character contributes nothing. Missing glyphs are blank bitmaps
        and characters without stroke data have an empty n-gram sum.
        """
        d = self.word_id.shape[1]
        if not (self.use_ngrams or self.use_glyphs) or not chars:
            return np.zeros((len(chars), d))
        feats = np.ones((len(chars), d))
        if self.use_ngrams:
            for k, c in enumerate(chars):
                feats[k] = self.ngram[self.per_char_ngrams.get(c, [])].sum(axis=0)
        if self.use_glyphs:
            blank = np.zeros((28, 28))
            bitmaps = np.stack([self.glyphs.get(c, blank) for c in chars])
            feats *= cnn_forward_ref(self.cnn, bitmaps)
        return feats

    def compose(self, word_ids) -> np.ndarray:
        """Composed float64 vectors for vocabulary ids."""
        word_ids = [int(i) for i in word_ids]
        chars = sorted({c for i in word_ids for c in self.words[i] if is_cjk_char(c)})
        row = {c: k for k, c in enumerate(chars)}
        feats = self.char_features(chars)
        out = self.word_id[word_ids].copy()
        for n, i in enumerate(word_ids):
            cs = [row[c] for c in self.words[i] if is_cjk_char(c)]
            if cs and (self.use_ngrams or self.use_glyphs):
                out[n] += feats[cs].sum(axis=0) / len(cs)
        return out

    def oov_vector(self, token: str, known: set[str]) -> np.ndarray:
        """Out-of-vocabulary fallback: mean feature of the known characters."""
        cs = [c for c in token if is_cjk_char(c) and c in known]
        return self.char_features(cs).mean(axis=0)


# -- skip-gram objective ------------------------------------------------------

def log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def sgns_objective(ref: RefModel, centers, contexts, negatives) -> float:
    """Summed SGNS objective of a batch, composed from scratch in float64."""
    centers = np.asarray(centers)
    uniq, inv = np.unique(centers, return_inverse=True)
    w = ref.compose(uniq)[inv]
    pos = np.einsum("bd,bd->b", w, ref.context[np.asarray(contexts)])
    neg = np.einsum("bd,bld->bl", w, ref.context[np.asarray(negatives)])
    return float(log_sigmoid(pos).sum() + log_sigmoid(-neg).sum())


def pairs_in_sentence(n: int, window: int) -> int:
    """Closed-form count of (center, context) pairs in an n-token sentence:
    each offset k = 1..window joins n - k position pairs, in both orders."""
    return 2 * sum(n - k for k in range(1, min(window, n - 1) + 1))


# -- gradient check -----------------------------------------------------------

def central_difference(arr: np.ndarray, index, loss_fn, h: float) -> float:
    old = arr[index]
    arr[index] = old + h
    up = loss_fn()
    arr[index] = old - h
    down = loss_fn()
    arr[index] = old
    return (up - down) / (2.0 * h)


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_gradient(name: str, arr: np.ndarray, analytic: np.ndarray, loss_fn,
                   coords, h: float = 1e-5, tol: float = 1e-4) -> tuple[list[str], int]:
    """Compare analytic[ix] with central differences of loss_fn at each ix.

    A coordinate whose difference quotients at h and h/2 disagree sits on
    a ReLU or max-pool kink, where no derivative exists; it is skipped.
    Returns (errors, number of coordinates checked).
    """
    errors, checked = [], 0
    for ix in coords:
        fd = central_difference(arr, ix, loss_fn, h)
        fd_half = central_difference(arr, ix, loss_fn, h / 2)
        if rel_err(fd, fd_half) > tol:
            continue
        checked += 1
        err = rel_err(float(analytic[ix]), fd)
        if err > tol:
            errors.append(f"{name}{tuple(int(i) for i in ix)}: analytic "
                          f"{float(analytic[ix]):.6g} vs central difference {fd:.6g} "
                          f"(rel err {err:.2e})")
    return errors, checked


# -- queries ------------------------------------------------------------------

def unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(m, axis=1)
    usable = norms > 0
    unit = np.zeros_like(m)
    unit[usable] = m[usable] / norms[usable, None]
    return unit, usable


class QueryReference:
    """Brute-force view of a model for checking queries.

    Holds the reference composition of every vocabulary word and its
    unit rows. `unit_vec` gives the unit vector of any token, composing
    an out-of-vocabulary one from its known characters. `allowed` marks
    the rows a query may answer: every usable row except the query's own
    tokens.
    """

    def __init__(self, r: RefModel):
        self.r = r
        self.matrix = r.compose(range(len(r.words)))
        self.unit, self.usable = unit_rows(self.matrix)
        self.index = {w: i for i, w in enumerate(r.words)}
        self.known = {c for w in r.words for c in w if is_cjk_char(c)}

    def unit_vec(self, tok: str) -> np.ndarray:
        i = self.index.get(tok)
        v = self.matrix[i] if i is not None else self.r.oov_vector(tok, self.known)
        return v / np.linalg.norm(v)

    def allowed(self, *toks: str) -> np.ndarray:
        a = self.usable.copy()
        a[[self.index[t] for t in toks if t in self.index]] = False
        return a


def check_neighbors(query: str, got: list[tuple[str, float]], scores: np.ndarray,
                    allowed: np.ndarray, words: list[str], k: int,
                    tol: float = 1e-6) -> list[str]:
    """`got` must be a brute-force top-k of `scores` over `allowed` rows.

    Two answers count as the same rank when their reference scores are
    within `tol`, so float rounding between the program and the
    reference cannot flip a near-tie into a failure.
    """
    ids = np.nonzero(allowed)[0]
    order = ids[np.lexsort((ids, -scores[ids]))][:k]
    index = {w: i for i, w in enumerate(words)}
    if len(got) != len(order):
        return [f"nn {query!r}: {len(got)} answers, expected {len(order)}"]
    errors = []
    for rank, ((word, score), want) in enumerate(zip(got, order)):
        i = index.get(word)
        if i is None or not allowed[i]:
            errors.append(f"nn {query!r}: rank {rank} answer {word!r} is not eligible")
        elif abs(scores[i] - scores[want]) > tol:
            errors.append(f"nn {query!r}: rank {rank} is {word!r} ({scores[i]:.6f}), "
                          f"brute force has {words[want]!r} ({scores[want]:.6f})")
        elif abs(score - scores[i]) > tol:
            errors.append(f"nn {query!r}: {word!r} reported cosine {score:.6f}, "
                          f"reference {scores[i]:.6f}")
    return errors


def analogy_scores(unit: np.ndarray, va: np.ndarray, vb: np.ndarray, vh: np.ndarray,
                   method: str) -> np.ndarray:
    """3CosAdd or 3CosMul score of every row, from unit query vectors."""
    if method == "3cosadd":
        return unit @ (vb - va + vh)
    ca, cb, ch = ((1.0 + unit @ v) / 2.0 for v in (va, vb, vh))
    return cb * ch / (ca + EPS_3COSMUL)


def check_argmax(label: str, got: str, scores: np.ndarray, allowed: np.ndarray,
                 words: list[str], tol: float = 1e-6) -> list[str]:
    """`got` must reach the brute-force maximum of `scores` within `tol`."""
    masked = np.where(allowed, scores, -np.inf)
    best = int(np.argmax(masked))
    index = {w: i for i, w in enumerate(words)}
    i = index.get(got)
    if i is None or not allowed[i]:
        return [f"{label}: answer {got!r} is not eligible"]
    if masked[i] < masked[best] - tol:
        return [f"{label}: answer {got!r} scores {masked[i]:.6f}, brute force "
                f"{words[best]!r} scores {masked[best]:.6f}"]
    return []


def check_spearman(got_rho: float, model_scores, human_scores, tol: float = 1e-9) -> list[str]:
    from scipy.stats import spearmanr
    want = float(spearmanr(model_scores, human_scores).statistic)
    if not math.isfinite(got_rho) or abs(got_rho - want) > tol:
        return [f"spearman rho {got_rho!r} differs from scipy's {want!r}"]
    return []


def check_matrix(label: str, got: np.ndarray, want: np.ndarray, rtol: float,
                 atol: float = 0.0) -> list[str]:
    """Entry-wise agreement within atol + rtol * (largest entry of the row)."""
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, reference {want.shape}"]
    allowed = atol + rtol * np.abs(want).max(axis=1, keepdims=True)
    excess = np.abs(got - want) - allowed
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
    if excess[worst] > 0:
        return [f"{label}: entry {tuple(map(int, worst))} is {got[worst]:.8g}, "
                f"reference {want[worst]:.8g} (allowed difference {allowed[worst[0], 0]:.2g})"]
    return []


def read_word2vec_text(path) -> tuple[list[str], np.ndarray]:
    """Parse a word2vec text file: 'V d' header, then token and d numbers."""
    with open(path, encoding="utf-8") as fh:
        v, d = (int(x) for x in fh.readline().split())
        tokens, rows = [], []
        for line in fh:
            tok, _, rest = line.rstrip("\n").partition(" ")
            tokens.append(tok)
            rows.append(np.array(rest.split(" "), dtype=np.float64))
    if len(tokens) != v or any(len(r) != d for r in rows):
        raise ValueError(f"{path}: header says {v}x{d}, body disagrees")
    return tokens, np.stack(rows) if rows else np.zeros((0, d))
