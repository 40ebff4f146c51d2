"""Shared builders and independent oracles for the test suite."""
from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np

from dwe.corpus import Vocab
from dwe.evaluation import Evaluator
from dwe.glyph_cnn import CnnParams, cnn_init, cnn_shapes
from dwe.model import DweModel, EmbeddingTables, init_tables
from dwe.morphology import GLYPH_BYTES, GLYPH_SIDE, StrokeNgramDict, build_ngram_dict
from dwe.trainer import Checkpoint, TrainingConfig

CJK_BASE = 0x4E00


def make_micro_model(seed=0, d=6, n_words=4, use_ngrams=True, use_glyphs=True,
                     dtype=np.float64, n_min=2, n_max=3, stroke_len=3):
    """Tiny model over a handful of CJK characters, context rows randomized
    so scores are non-degenerate."""
    rng = np.random.default_rng(seed)
    n_chars = n_words + 1
    chars = [chr(CJK_BASE + i) for i in range(n_chars)]
    words = [chars[i] + chars[(i + 1) % n_chars] if i % 2 == 0 else chars[i]
             for i in range(n_words)]
    counts = np.arange(n_words, 0, -1) * 2
    vocab = Vocab(words, counts, int(counts.sum()))
    strokes = {c: list(rng.integers(1, 33, size=stroke_len)) for c in chars}
    glyphs = {c: rng.integers(0, 2, size=(28, 28)).astype(np.uint8) for c in chars}
    ngram_dict = build_ngram_dict(strokes, set(chars), n_min, n_max)
    tables = init_tables(n_words, len(ngram_dict), d, seed + 1, dtype)
    tables.context_vecs[:] = rng.normal(0, 0.3, tables.context_vecs.shape).astype(dtype)
    cnn = cnn_init(seed + 2, d, dtype)
    model = DweModel(vocab, ngram_dict, glyphs, tables, cnn,
                     use_ngrams=use_ngrams, use_glyphs=use_glyphs)
    return model


def with_char_ngrams(model, edits):
    """`model` rebuilt through its constructor, with the n-gram ids of some
    characters replaced; `edits` maps a registry index to its new ids."""
    per_char = dict(model.ngram_dict.per_char)
    for ci, ids in edits.items():
        per_char[model.chars[ci]] = [int(g) for g in ids]
    glyphs = {c: model.char_bitmaps[i] for i, c in enumerate(model.chars)}
    return DweModel(model.vocab, replace(model.ngram_dict, per_char=per_char), glyphs,
                    model.tables, model.cnn, model.use_ngrams, model.use_glyphs)


def ngram_label_pattern(n_min: int, n_max: int) -> re.Pattern:
    """The labels `extract_ngrams` can yield for these lengths: `n_min` to
    `n_max` codes in BOS..EOS, in canonical decimal, joined by commas. The
    reference for `morphology.check_ngram_labels`."""
    code = "(?:[12]?[0-9]|3[0-3])"  # 0..33
    return re.compile(rf"{code}(?:,{code}){{{n_min - 1},{n_max - 1}}}")


def ngram_ids_reference(ids: str, n_ngrams: int) -> list[int]:
    """The ids of a `CHAR<TAB>ids` line of the n-gram dictionary, read one
    at a time with `int`: the reference for `trainer._ngram_ids`. Raises
    ValueError unless they are distinct and in [0, n_ngrams)."""
    got = [int(s) for s in ids.split(",")] if ids else []
    if len(set(got)) != len(got) or not all(0 <= i < n_ngrams for i in got):
        raise ValueError(f"n-gram ids not distinct or not in [0, {n_ngrams})")
    return got


def unpack_bitmap(payload: bytes) -> np.ndarray:
    """One packed glyph bitmap unpacked on its own, the reference for the
    records `morphology.parse_glyph_records` unpacks in blocks."""
    if len(payload) != GLYPH_BYTES:
        raise ValueError(f"expected {GLYPH_BYTES} bytes, got {len(payload)}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    return bits.reshape(GLYPH_SIDE, GLYPH_SIDE)


def central_difference(arr, index, loss_fn, h=1e-5):
    old = arr[index]
    arr[index] = old + h
    lp = loss_fn()
    arr[index] = old - h
    lm = loss_fn()
    arr[index] = old
    return (lp - lm) / (2.0 * h)


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_grad_tensor(arr, analytic, loss_fn, rng, max_coords=25, h=1e-5):
    """Sampled coordinate-wise finite-difference check; returns worst rel err."""
    n = min(max_coords, arr.size)
    flat = rng.choice(arr.size, size=n, replace=False)
    worst = 0.0
    for f in flat:
        ix = np.unravel_index(f, arr.shape)
        fd = central_difference(arr, ix, loss_fn, h)
        worst = max(worst, rel_err(float(analytic[ix]), fd))
    return worst


# -- independent SGNS reference (plain loops, no shared code paths) --------

def sgns_reference_batch(word_vecs, ctx_vecs, centers, contexts, negatives):
    """Loss and dense gradients of the plain skip-gram objective, written
    with scalar loops as an independent oracle."""
    gw = np.zeros_like(word_vecs)
    gc = np.zeros_like(ctx_vecs)
    loss = 0.0
    for b in range(len(centers)):
        w = word_vecs[centers[b]]
        e = ctx_vecs[contexts[b]]
        s = float(np.dot(w, e))
        loss += math.log(1.0 / (1.0 + math.exp(-s)))
        gpos = 1.0 - 1.0 / (1.0 + math.exp(-s))
        gw[centers[b]] += gpos * e
        gc[contexts[b]] += gpos * w
        for nid in negatives[b]:
            en = ctx_vecs[nid]
            sn = float(np.dot(w, en))
            loss += math.log(1.0 / (1.0 + math.exp(sn)))
            gneg = -1.0 / (1.0 + math.exp(-sn))
            gw[centers[b]] += gneg * en
            gc[nid] += gneg * w
    return loss, gw, gc


def sgns_reference_adagrad(param, grad, acc, lr, eps):
    acc += grad ** 2
    param += lr * grad / (np.sqrt(acc) + eps)


def group_sum_reference(keys, src, pos):
    """`model._group_sum` through np.add.at, the reference for its add order:
    each key's first row is a gather, and np.add.at adds its later rows in
    the order they occur."""
    ids, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    out = src[pos[first]]
    rest = np.ones(len(keys), dtype=bool)
    rest[first] = False
    np.add.at(out, inv[rest], src[pos[rest]])
    return ids, out


# -- brute-force analogy oracles -------------------------------------------

def _cos(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def brute_3cosadd(words, matrix, a, b, h):
    ids = {w: i for i, w in enumerate(words)}
    va = matrix[ids[a]] / np.linalg.norm(matrix[ids[a]])
    vb = matrix[ids[b]] / np.linalg.norm(matrix[ids[b]])
    vh = matrix[ids[h]] / np.linalg.norm(matrix[ids[h]])
    target = vb - va + vh
    best, best_score = None, -np.inf
    for i, w in enumerate(words):
        if w in (a, b, h) or np.linalg.norm(matrix[i]) == 0:
            continue
        s = _cos(matrix[i], target)
        if s > best_score:
            best, best_score = w, s
    return best


def brute_3cosmul(words, matrix, a, b, h, eps=0.001):
    ids = {w: i for i, w in enumerate(words)}
    best, best_score = None, -np.inf
    for i, w in enumerate(words):
        if w in (a, b, h) or np.linalg.norm(matrix[i]) == 0:
            continue
        ca = (1.0 + _cos(matrix[i], matrix[ids[a]])) / 2.0
        cb = (1.0 + _cos(matrix[i], matrix[ids[b]])) / 2.0
        ch = (1.0 + _cos(matrix[i], matrix[ids[h]])) / 2.0
        s = cb * ch / (ca + eps)
        if s > best_score:
            best, best_score = w, s
    return best


def evaluator_over(matrix):
    """An Evaluator whose vocabulary is the words w0, w1, ... with the rows
    of `matrix` as their vectors, and no characters."""
    ev = object.__new__(Evaluator)
    ev.vocab = Vocab([f"w{i}" for i in range(len(matrix))], np.ones(len(matrix)), len(matrix))
    ev.char_index = {}
    ev._set_matrix(matrix)
    return ev


# The evaluator's queries as one full float64 scan of `_unit`: the
# reference that the screen and exact refine must equal bit for bit.

def scan_nearest(ev, token, k):
    scores = ev._unit @ ev._unit_vector(token)
    ids = np.flatnonzero(ev._candidates(token))
    return [(ev.vocab.words[i], float(scores[i]))
            for i in ids[np.lexsort((ids, -scores[ids]))][:k]]


def scan_3cosadd(ev, a, b, h):
    scores = ev._unit @ (ev._unit_vector(b) - ev._unit_vector(a) + ev._unit_vector(h))
    scores[~ev._candidates(a, b, h)] = -np.inf
    return ev.vocab.words[int(np.argmax(scores))]


def scan_3cosmul(ev, a, b, h, eps=0.001):
    ca, cb, ch = (1.0 + np.stack([ev._unit @ ev._unit_vector(t) for t in (a, b, h)])) / 2.0
    scores = cb * ch / (ca + eps)
    scores[~ev._candidates(a, b, h)] = -np.inf
    return ev.vocab.words[int(np.argmax(scores))]


def handmade_checkpoint():
    """A checkpoint built without randomness: arange-filled float32 arrays,
    two glyphs, a character with no n-grams and two without stroke data."""
    cfg = TrainingConfig(dim=5, n_min=3, n_max=4, min_count=1, seed=3)
    vocab = Vocab(["中国", "人", "日本"], np.array([7, 4, 2]), 13)
    ngram_dict = StrokeNgramDict(["0,2,5", "2,5,33", "0,2,5,33"],
                                 {"中": [0, 1, 2], "国": [2], "人": []})
    glyphs = {ch: (np.arange(784).reshape(28, 28) % k == 0).astype(np.uint8)
              for ch, k in (("中", 3), ("国", 5))}
    start = [0]

    def filled(shape):
        n = int(np.prod(shape))
        arr = (np.arange(start[0], start[0] + n) / 8).reshape(shape).astype(np.float32)
        start[0] += n
        return arr

    def cnn():
        return CnnParams(*map(filled, cnn_shapes(cfg.dim)))

    V, G, d = len(vocab), len(ngram_dict), cfg.dim
    tables = EmbeddingTables(filled((V, d)), filled((V, d)), filled((G, d)))
    params = cnn()
    accum = EmbeddingTables(filled((V, d)), filled((V, d)), filled((G, d)))
    return Checkpoint(cfg, vocab, ngram_dict, glyphs, tables, params, accum, cnn(),
                      epoch=2, step=17)


def load_vectors(path) -> tuple[list[str], np.ndarray]:
    """Read the word2vec text format back; returns (tokens, matrix)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: bad vector-file header")
        v, d = int(header[0]), int(header[1])
        tokens, rows = [], []
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d + 1:
                raise ValueError(f"{path}: row has {len(parts) - 1} values, expected {d}")
            tokens.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    if len(tokens) != v:
        raise ValueError(f"{path}: header says {v} rows, found {len(tokens)}")
    return tokens, np.array(rows, dtype=np.float64)
