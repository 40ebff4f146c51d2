"""Dual-channel word composition, SGNS objective, exact gradients.

A word vector is the word-ID row plus the per-character average of
(sum of the character's stroke n-gram vectors) item-wise multiplied by
the CNN feature of the character's glyph. The training objective per
(center, context) pair with negatives e' is

    log sigma(w . e) + sum_{e'} log sigma(-(w . e'))

which the optimizer ascends. A disabled channel's factor is 1, so with
only the stroke channel the character feature is the plain n-gram sum;
with both off it is 0 and the model is plain skip-gram on word-ID rows.

Two CSR pairs index the characters: word w's registry characters are
word_char_idx[word_char_ptr[w]:word_char_ptr[w + 1]] and character c's
n-grams char_ngram_idx[char_ngram_ptr[c]:char_ngram_ptr[c + 1]], so
composition is a flat gather plus a segment sum. For a batch with
composed unique centers W and unique context rows C (positives and
negatives), S[k, u] sums dJ/ds over the scores of center u against
context k: 1 - sigma(s) for a positive, -sigma(s) for a negative. Then
dJ/dC = S @ W and dJ/dW = S.T @ C, taken in blocks of d centers so that
no block of S is larger than C.

The gradient w.r.t. the character features is the transpose of the mean:
each center's dW row over its character count, summed per character; the
n-gram rows then sum those over the characters that hold each n-gram.
Both sums go through _group_sum, which adds each key's rows in the order
they occur, one round of distinct keys at a time, so neither needs an
unbuffered `add.at` scatter and the bits do not depend on how it adds.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .corpus import Vocab
from .glyph_cnn import CnnBuffers, CnnParams, cnn_backward_batch, cnn_forward_batch
from .morphology import GLYPH_SIDE, StrokeNgramDict, cjk_chars


def sigmoid(x):
    """Numerically stable sigmoid (branch on sign, no overflow)."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def log_sigmoid(x):
    """log sigma(x) = -softplus(-x), branch on sign to avoid overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


CNN_CHUNK = 256  # glyphs per forward-only CNN call; bounds char_features' one buffer set
ADAGRAD_BLOCK = 128 * 300  # floats per pass of adagrad_step_rows: 128 rows at dim 300
INIT_CHUNK = 4096  # rows per draw of init_tables
ADAGRAD_EPS = 1e-8  # Adagrad's smoothing term; every checkpoint's config records it


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of a list of index lists."""
    ptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
    return ptr, np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=ptr[-1])


def _csr_rows(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray):
    """Sub-CSR (indptr, entries) of the given rows, in their order."""
    lens = ptr[rows + 1] - ptr[rows]
    sub = np.concatenate(([0], np.cumsum(lens)))
    return sub, idx[np.arange(sub[-1]) + np.repeat(ptr[rows] - sub[:-1], lens)]


def _segment_sum(table: np.ndarray, idx: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Row i is the sum of table[idx[ptr[i]:ptr[i + 1]]] (0 if empty); segments
    of one length are summed together, so the loop runs over distinct lengths."""
    lens = np.diff(ptr)
    out = np.zeros((len(lens), table.shape[1]), dtype=table.dtype)
    for n in np.unique(lens[lens > 0]):
        sel = np.flatnonzero(lens == n)
        out[sel] = table[idx[ptr[sel, None] + np.arange(n)]].sum(axis=1)
    return out


def _group_sum(keys: np.ndarray, src: np.ndarray, pos: np.ndarray):
    """(distinct keys in increasing order, sum of src[pos[i]] over keys[i] ==
    key). Each sum is its key's first row, then its later rows added one at a
    time in the order they occur in keys: the order, and so the bits, of an
    unbuffered `add.at` scatter.

    A stable argsort of keys puts each key's rows together, in that order.
    The first rows are one gather; round r then adds every key's (r + 1)-th
    row with one fancy-indexed +=. A plain += would keep only one of two
    writes to the same row, but the rows of one round belong to distinct
    keys, so no round needs `add.at`. There are as many rounds as the most
    rows of any one key, less one."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    new = np.ones(len(sk), dtype=bool)
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    ids, out = sk[starts], src[pos[order[starts]]]
    # the later rows by rank, their place in their key (>= 1); round r adds
    # rows[cuts[r - 1]:cuts[r]] to out[dst[cuts[r - 1]:cuts[r]]]
    rest = np.flatnonzero(~new)
    dst = np.searchsorted(starts, rest, side="right") - 1
    rank = rest - starts[dst]
    by_rank = np.argsort(rank, kind="stable")
    dst, rows, cuts = dst[by_rank], pos[order[rest[by_rank]]], np.cumsum(np.bincount(rank))
    del order, sk, new, starts  # one key-length array each; free them before the rounds
    for a, b in zip(cuts[:-1], cuts[1:]):
        out[dst[a:b]] += src[rows[a:b]]
    return ids, out


@dataclass
class EmbeddingTables:
    word_id_vecs: np.ndarray  # (V, d)
    context_vecs: np.ndarray  # (V, d)
    ngram_vecs: np.ndarray    # (|G|, d)

    @property
    def dim(self) -> int:
        return self.word_id_vecs.shape[1]

    def zeros_like(self) -> "EmbeddingTables":
        """Zero tables of these shapes and dtype, from `np.zeros`: the kernel's
        lazily zeroed pages, so nothing is written or resident until used."""
        tables = (getattr(self, f.name) for f in fields(self))
        return EmbeddingTables(*(np.zeros(t.shape, t.dtype) for t in tables))

    def astype(self, dtype) -> "EmbeddingTables":
        return EmbeddingTables(*(getattr(self, f.name).astype(dtype) for f in fields(self)))


def init_tables(vocab_size: int, n_ngrams: int, d: int, seed: int, dtype=np.float32) -> EmbeddingTables:
    """word-ID and n-gram rows uniform in +-0.5/d, context rows zero. The
    rows are drawn INIT_CHUNK at a time, in float64, straight into the
    table, so no float64 copy of a whole table exists; the generator's
    stream does not depend on the chunking, so neither do the values."""
    rng = np.random.default_rng(seed)
    bound = 0.5 / d

    def uniform(rows: int) -> np.ndarray:
        out = np.empty((rows, d), dtype=dtype)
        for lo in range(0, rows, INIT_CHUNK):
            chunk = out[lo:lo + INIT_CHUNK]
            chunk[...] = rng.uniform(-bound, bound, size=chunk.shape)
        return out

    return EmbeddingTables(
        word_id_vecs=uniform(vocab_size),
        context_vecs=np.zeros((vocab_size, d), dtype=dtype),
        ngram_vecs=uniform(n_ngrams),
    )


@dataclass
class WordComposition:
    token: str
    word_id: int
    vector: np.ndarray


@dataclass
class Grads:
    """Sparse gradient rows per table plus dense CNN gradients."""
    word_id_ids: np.ndarray
    word_id_rows: np.ndarray
    context_ids: np.ndarray
    context_rows: np.ndarray
    ngram_ids: np.ndarray
    ngram_rows: np.ndarray
    cnn: CnnParams | None


class DweModel:
    """Bundles vocabulary, character data, and all trainable parameters."""

    def __init__(self, vocab: Vocab, ngram_dict: StrokeNgramDict,
                 glyphs: dict[str, np.ndarray], tables: EmbeddingTables,
                 cnn: CnnParams, use_ngrams: bool = True, use_glyphs: bool = True):
        self.vocab = vocab
        self.ngram_dict = ngram_dict
        self.tables = tables
        self.cnn = cnn
        self.use_ngrams = use_ngrams
        self.use_glyphs = use_glyphs
        self.dtype = tables.word_id_vecs.dtype
        # a disabled channel's factor: 1, or 0 when both channels are off
        self._identity = self.dtype.type(use_ngrams or use_glyphs)

        self.chars = chars = cjk_chars(vocab.words)
        self.char_index = {c: i for i, c in enumerate(chars)}
        self.char_ngram_ptr, self.char_ngram_idx = _csr(
            [ngram_dict.per_char.get(c, []) for c in chars])
        self.word_char_ptr, self.word_char_idx = _csr(
            [[self.char_index[c] for c in w if c in self.char_index] for w in vocab.words])
        blank = np.zeros((GLYPH_SIDE, GLYPH_SIDE))
        self.char_bitmaps = np.array([glyphs.get(c, blank) for c in chars],
                                     dtype=self.dtype).reshape(-1, GLYPH_SIDE, GLYPH_SIDE)
        # batch_loss_and_grads's CNN buffers, grown to its largest batch
        self._cnn_buffers = CnnBuffers()

    # -- composition ----------------------------------------------------

    def _char_factors(self, char_ids: np.ndarray, buffers: CnnBuffers):
        """(s, v, CNN tape, n-gram sub-CSR) of registry characters, whose
        features are s * v: n-gram sums times CNN outputs, or the identity.
        The CNN runs in `buffers`."""
        s = v = self._identity
        tape = None
        ngrams = _csr_rows(self.char_ngram_ptr, self.char_ngram_idx, char_ids)
        if self.use_ngrams:
            s = _segment_sum(self.tables.ngram_vecs, ngrams[1], ngrams[0])
        if self.use_glyphs and len(char_ids):
            v, tape = cnn_forward_batch(self.cnn, self.char_bitmaps[char_ids], buffers)
        return s, v, tape, ngrams

    def char_features(self) -> np.ndarray:
        """Features of every registry character, in registry order; forward
        only, CNN_CHUNK glyphs per CNN call, all in one buffer set of this
        call. Every read of composed vectors starts here."""
        ids = np.arange(len(self.chars))
        out = np.empty((len(ids), self.tables.dim), dtype=self.dtype)
        buffers = CnnBuffers()
        for lo in range(0, len(ids), CNN_CHUNK):
            s, v, _, _ = self._char_factors(ids[lo:lo + CNN_CHUNK], buffers)
            out[lo:lo + CNN_CHUNK] = s * v
        return out

    def char_feature(self, char: str) -> np.ndarray:
        """Row of `char_features()`; a character outside the registry is a KeyError."""
        return self.char_features()[self.char_index[char]]

    def _compose(self, word_ids: np.ndarray, ptr: np.ndarray, feats: np.ndarray,
                 pos: np.ndarray) -> np.ndarray:
        """Word-ID rows plus the mean of feats[pos] over each word's segment."""
        counts = np.maximum(np.diff(ptr), 1).astype(feats.dtype)[:, None]
        return self.tables.word_id_vecs[word_ids].astype(feats.dtype) + \
            _segment_sum(feats, pos, ptr) / counts

    def compose(self, word_ids, char_feats: np.ndarray) -> np.ndarray:
        """Composed vectors of vocabulary ids, one row each: word-ID rows
        plus the mean of each word's rows of char_feats, the features of
        every registry character (as from char_features). The result takes
        their dtype."""
        word_ids = np.asarray(word_ids, dtype=np.int64)
        ptr, cids = _csr_rows(self.word_char_ptr, self.word_char_idx, word_ids)
        return self._compose(word_ids, ptr, char_feats, cids)

    def compose_word(self, token: str) -> WordComposition:
        """Row of `compose` for one vocabulary token; an unknown one is a KeyError."""
        wid = self.vocab.id_of[token]
        return WordComposition(token, wid, self.compose([wid], self.char_features())[0])

    # -- loss and gradients ----------------------------------------------

    def batch_loss_and_grads(self, centers: np.ndarray, contexts: np.ndarray,
                             negatives: np.ndarray) -> tuple[float, Grads]:
        """Summed objective and its exact gradient over a batch of pairs.

        centers, contexts: (B,) ids; negatives: (B, lambda) ids. The CNN
        runs in the model's one buffer set, so calls must not overlap
        (hogwild mode refuses the glyph channel); nothing returned aliases
        the buffers.
        """
        centers, contexts, negatives = (np.asarray(a, dtype=np.int64)
                                        for a in (centers, contexts, negatives))
        if negatives.ndim != 2 or len(negatives) != len(centers) or len(contexts) != len(centers):
            raise ValueError("batch arrays have inconsistent shapes")
        d = self.tables.dim

        # compose the unique centers
        uc, inv = np.unique(centers, return_inverse=True)
        wptr, cids = _csr_rows(self.word_char_ptr, self.word_char_idx, uc)
        uchars, cpos = np.unique(cids, return_inverse=True)
        s, v, tape, (gptr, gids) = self._char_factors(uchars, self._cnn_buffers)
        W = self._compose(uc, wptr, np.broadcast_to(s * v, (len(uchars), d)), cpos)

        # column 0 scores the positive, the rest the negatives
        ctx_all = np.concatenate([contexts[:, None], negatives], axis=1)
        u_ctx, ctx_inv = np.unique(ctx_all.reshape(-1), return_inverse=True)
        ctx_inv = ctx_inv.reshape(ctx_all.shape)
        C = self.tables.context_vecs[u_ctx]
        sign = np.r_[1.0, np.full(negatives.shape[1], -1.0)]

        # S in blocks of d unique centers; pairs sorted by center
        order = np.argsort(inv, kind="stable")
        edges = np.append(np.arange(0, len(uc), d), len(uc))
        cuts = np.searchsorted(inv[order], edges)
        loss = 0.0
        ctx_rows = np.zeros_like(C)
        dW = np.empty_like(W)
        for lo, hi, a, b in zip(edges[:-1], edges[1:], cuts[:-1], cuts[1:]):
            rows, n = order[a:b], hi - lo
            u, k = inv[rows, None] - lo, ctx_inv[rows]
            ss = sign * (W[lo:hi] @ C.T)[u, k]               # signed scores
            loss += float(log_sigmoid(ss).sum())
            # S[k, u] sums dJ/ds = sign * sigma(-ss) over repeats of (u, k)
            S = np.bincount((k * n + u).reshape(-1), weights=(sign * sigmoid(-ss)).reshape(-1),
                            minlength=len(u_ctx) * n).reshape(len(u_ctx), n).astype(W.dtype)
            ctx_rows += S @ W[lo:hi]
            dW[lo:hi] = S.T @ C

        # transpose of the mean: the gradient w.r.t. each character feature
        counts = np.diff(wptr)
        per_char = dW / np.maximum(counts, 1).astype(W.dtype)[:, None]
        _, dF = _group_sum(cpos, per_char, np.repeat(np.arange(len(uc)), counts))
        ng_ids, ng_rows = np.zeros(0, dtype=np.int64), np.zeros((0, d), dtype=W.dtype)
        if self.use_ngrams:
            gpos = np.repeat(np.arange(len(uchars)), np.diff(gptr))
            ng_ids, ng_rows = _group_sum(gids, dF * v, gpos)
        cnn_grads = None if tape is None else cnn_backward_batch(self.cnn, tape, dF * s)
        return loss, Grads(uc, dW, u_ctx, ctx_rows, ng_ids, ng_rows, cnn_grads)


# -- adagrad -------------------------------------------------------------

def adagrad_step(param: np.ndarray, grad: np.ndarray, accumulator: np.ndarray,
                 lr: float) -> None:
    """In-place ascent step: acc += grad^2; param += lr*grad/(sqrt(acc)+ADAGRAD_EPS)."""
    if param.shape != grad.shape or param.shape != accumulator.shape:
        raise ValueError("shape mismatch in adagrad_step")
    if not 0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    accumulator += grad * grad
    param += lr * grad / (np.sqrt(accumulator) + ADAGRAD_EPS)


def adagrad_step_rows(param: np.ndarray, accumulator: np.ndarray, ids: np.ndarray,
                      grad_rows: np.ndarray, lr: float) -> None:
    """adagrad_step on rows ids of param and accumulator, grad_rows[k] being
    the gradient of row ids[k]. ids must be strictly increasing, as np.unique
    returns them: with a repeated id the row assignment would keep only one of
    its updates.

    The update runs on blocks of consecutive ids, ADAGRAD_BLOCK floats each,
    so that its temporaries stay in cache; over all of a step's rows at once
    (about 13 000 x 300 at dim 300) every elementwise pass would go to memory.
    A block counts floats, not rows, so that narrow tables do not pay for many
    small blocks. Every op is elementwise per row, so the result does not
    depend on the block size.
    """
    if accumulator.shape != param.shape:
        raise ValueError("shape mismatch in adagrad_step_rows")
    if grad_rows.shape != (len(ids), param.shape[1]):
        raise ValueError(f"grad_rows has shape {grad_rows.shape}, "
                         f"expected {(len(ids), param.shape[1])}")
    if (ids[1:] <= ids[:-1]).any():
        raise ValueError("ids must be strictly increasing")
    if not 0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    rows = max(1, ADAGRAD_BLOCK // param.shape[1])
    for lo in range(0, len(ids), rows):
        i, g = ids[lo:lo + rows], grad_rows[lo:lo + rows]
        # the accumulator rows are read once; acc and step are updated in place
        acc = accumulator[i]
        step = np.multiply(g, g)
        acc += step
        accumulator[i] = acc
        np.sqrt(acc, out=acc)
        acc += ADAGRAD_EPS
        np.multiply(lr, g, out=step)
        step /= acc
        param[i] += step                  # lr * g / (sqrt(acc) + ADAGRAD_EPS)
