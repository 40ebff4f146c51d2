"""Seeded input generation for the benchmark workloads.

Everything the program reads is written here as plain files in its
documented formats (corpus text, stroke table, glyph pack) plus query
lists. The same seed always gives the same files, and the sizes that set
the cost of a run (sentence count and lengths, character pool, word
pool) do not depend on the seed, so runs with different seeds do the
same amount of work.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CJK_BASE = 0x4E00
GLYPH_SIDE = 28
N_STROKE_CODES = 32

# Word lengths in characters, roughly as in segmented Chinese text.
WORD_LENGTHS = (1, 2, 3, 4)
WORD_LENGTH_P = (0.15, 0.6, 0.15, 0.1)
# Zipf exponent of the word distribution
WORD_ZIPF_S = 1.0


@dataclass
class CorpusSpec:
    """Shape of a generated Chinese-like corpus."""
    n_chars: int          # shared character pool
    n_word_types: int     # word pool the corpus draws from
    n_sentences: int
    min_len: int          # sentence lengths cycle min_len..max_len
    max_len: int


@dataclass
class CorpusFiles:
    corpus_path: Path
    strokes_path: Path
    glyphs_path: Path
    sentences: list[list[str]]
    strokes: dict[str, list[int]]
    twin_chars: tuple[str, str]   # planted pair with identical strokes


def sentence_lengths(spec: CorpusSpec) -> list[int]:
    """Seed-independent sentence lengths, so pairs per epoch are fixed."""
    span = spec.max_len - spec.min_len + 1
    return [spec.min_len + (i * 7) % span for i in range(spec.n_sentences)]


def _zipf_probs(n: int, s: float, rng: np.random.Generator | None = None) -> np.ndarray:
    """Zipf-Mandelbrot weights over n ranks (rank order optionally shuffled)."""
    p = 1.0 / (np.arange(n) + 2.7) ** s
    p /= p.sum()
    if rng is not None:
        p = p[rng.permutation(n)]
    return p


def _stroke_sequences(rng: np.random.Generator, n: int) -> list[list[int]]:
    # A few stroke codes dominate, as the five basic stroke classes do in
    # real tables; lengths 1..24 around a mean of about ten.
    code_p = _zipf_probs(N_STROKE_CODES, 1.2)
    lengths = np.clip(rng.poisson(9.0, size=n) + 1, 1, 24)
    return [list(map(int, rng.choice(N_STROKE_CODES, size=int(k), p=code_p) + 1))
            for k in lengths]


def _glyph(rng: np.random.Generator, n_strokes: int) -> np.ndarray:
    """A 28x28 bitmap with one horizontal or vertical bar per stroke."""
    img = np.zeros((GLYPH_SIDE, GLYPH_SIDE), dtype=np.uint8)
    for _ in range(max(n_strokes, 1)):
        a, b = sorted(rng.integers(2, GLYPH_SIDE - 2, size=2))
        pos = int(rng.integers(2, GLYPH_SIDE - 2))
        if rng.random() < 0.5:
            img[pos, a:b + 1] = 1
        else:
            img[a:b + 1, pos] = 1
    return img


def write_stroke_table(path: Path, strokes: dict[str, list[int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ch in sorted(strokes):
            fh.write(f"{ch}\t{','.join(map(str, strokes[ch]))}\n")


def write_glyph_pack(path: Path, glyphs: dict[str, np.ndarray]) -> None:
    """The `DWEG` v1 format: magic, version, u32 count, (u32 cp, 98 bytes)*."""
    blob = bytearray(b"DWEG\x01")
    blob += struct.pack("<I", len(glyphs))
    for ch in sorted(glyphs):
        blob += struct.pack("<I", ord(ch))
        blob += np.packbits(glyphs[ch].reshape(-1)).tobytes()
    Path(path).write_bytes(bytes(blob))


def make_corpus(out_dir, seed: int, spec: CorpusSpec) -> CorpusFiles:
    """Write corpus.txt, strokes.tsv and glyphs.bin for `spec` under out_dir.

    Words are 1-4 characters drawn from a shared pool with Zipfian
    character reuse; tokens follow a Zipfian word distribution. Two
    extra characters share one stroke sequence but have different
    glyphs, and each appears as a one-character word in the corpus.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    chars = [chr(CJK_BASE + i) for i in range(spec.n_chars)]
    seqs = _stroke_sequences(rng, spec.n_chars)
    strokes = dict(zip(chars, seqs))
    twin_a, twin_b = chr(CJK_BASE + spec.n_chars), chr(CJK_BASE + spec.n_chars + 1)
    twin_codes = _stroke_sequences(rng, 1)[0]
    strokes[twin_a] = list(twin_codes)
    strokes[twin_b] = list(twin_codes)
    glyphs = {ch: _glyph(rng, len(codes)) for ch, codes in strokes.items()}
    # different glyphs for the twins, whatever the draw above gave
    glyphs[twin_b] = np.ascontiguousarray(glyphs[twin_a][::-1, ::-1] ^ 1)

    char_p = _zipf_probs(spec.n_chars, 0.8, rng)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < spec.n_word_types - 2:
        k = int(rng.choice(WORD_LENGTHS, p=WORD_LENGTH_P))
        w = "".join(chars[i] for i in rng.choice(spec.n_chars, size=k, p=char_p))
        if w not in seen:
            seen.add(w)
            words.append(w)
    words += [twin_a, twin_b]
    word_p = _zipf_probs(len(words), WORD_ZIPF_S, rng)

    lengths = sentence_lengths(spec)
    ids = rng.choice(len(words), size=sum(lengths), p=word_p)
    # the twins occur at fixed positions, so every seed trains them
    ids[0], ids[lengths[0]] = len(words) - 2, len(words) - 1
    sentences, off = [], 0
    for n in lengths:
        sentences.append([words[i] for i in ids[off:off + n]])
        off += n

    corpus_path = out_dir / "corpus.txt"
    corpus_path.write_text("".join(" ".join(s) + "\n" for s in sentences),
                           encoding="utf-8")
    strokes_path = out_dir / "strokes.tsv"
    write_stroke_table(strokes_path, strokes)
    glyphs_path = out_dir / "glyphs.bin"
    write_glyph_pack(glyphs_path, glyphs)
    return CorpusFiles(corpus_path, strokes_path, glyphs_path, sentences,
                       strokes, (twin_a, twin_b))


@dataclass
class QuerySet:
    nn: list[str]                              # query tokens, some OOV
    analogies: list[tuple[str, str, str]]      # (a, b, h), some OOV
    similarity: list[tuple[str, str, float]]   # (a, b, human score)


def oov_token(rng: np.random.Generator, known_chars: list[str], vocab: set[str]) -> str:
    """A token made of known characters that is not itself a vocabulary word."""
    while True:
        k = int(rng.integers(2, 5))
        tok = "".join(known_chars[i] for i in rng.integers(0, len(known_chars), size=k))
        if tok not in vocab:
            return tok


def make_queries(seed: int, vocab_words: list[str], n_nn: int, n_analogy: int,
                 n_similarity: int, oov_share: float = 0.1) -> QuerySet:
    """Query lists over `vocab_words`; about `oov_share` of the tokens are
    out-of-vocabulary words built from characters the model knows."""
    rng = np.random.default_rng([seed, 7])
    vocab = set(vocab_words)
    known_chars = sorted({c for w in vocab_words for c in w})

    def token():
        if rng.random() < oov_share:
            return oov_token(rng, known_chars, vocab)
        return vocab_words[int(rng.integers(len(vocab_words)))]

    nn = [token() for _ in range(n_nn)]
    analogies = []
    while len(analogies) < n_analogy:
        quad = (token(), token(), token())
        if len(set(quad)) == 3:
            analogies.append(quad)
    similarity = [(token(), token(), round(float(rng.uniform(0, 10)), 2))
                  for _ in range(n_similarity)]
    return QuerySet(nn, analogies, similarity)


def write_similarity(path: Path, records: list[tuple[str, str, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, s in records:
            fh.write(f"{a}\t{b}\t{s}\n")
