"""Synthetic toy corpora with matching stroke tables and glyph packs.

Used by the morphology experiments and the test suite: word families
share a head character, so character-sharing word pairs co-occur, and a
pair of twin characters shares an identical stroke sequence but has
complementary glyphs. Each twin occurs as a standalone word inside a
different family, so the two are trained in disjoint contexts and only
the glyph channel can tell them apart.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .morphology import GLYPH_SIDE, write_glyph_pack, write_stroke_table

_BASE_CP = 0x4E00  # synthetic characters reuse real CJK codepoints


@dataclass
class SyntheticData:
    corpus_path: Path
    strokes_path: Path
    glyphs_path: Path
    families: list[list[str]]        # sampling pools; words in a family share a char
    twin_chars: tuple[str, str]      # identical strokes, complementary glyphs
    words: list[str] = field(default_factory=list)


def _random_glyph(rng: np.random.Generator) -> np.ndarray:
    # blocky random pattern: distinct per character, non-trivial ink share
    coarse = rng.integers(0, 2, size=(7, 7), dtype=np.uint8)
    return np.kron(coarse, np.ones((4, 4), dtype=np.uint8))[:GLYPH_SIDE, :GLYPH_SIDE]


def make_synthetic_dataset(out_dir, seed: int = 0, n_families: int = 6,
                           words_per_family: int = 6, n_sentences: int = 200,
                           sentence_len: int = 12,
                           twin_copies: int = 3) -> SyntheticData:
    """Write corpus.txt, strokes.tsv and glyphs.bin under `out_dir`.

    `twin_copies` controls how many slots each twin occupies in its
    family's sampling pool, i.e. how often it appears in the corpus.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    next_cp = [_BASE_CP]

    def new_char() -> str:
        ch = chr(next_cp[0])
        next_cp[0] += 1
        return ch

    strokes: dict[str, list[int]] = {}
    glyphs: dict[str, np.ndarray] = {}

    def add_char(ch: str, codes: list[int] | None = None,
                 bitmap: np.ndarray | None = None) -> str:
        strokes[ch] = codes if codes is not None else \
            list(rng.integers(1, 33, size=int(rng.integers(4, 9))))
        glyphs[ch] = bitmap if bitmap is not None else _random_glyph(rng)
        return ch

    families: list[list[str]] = []
    for _ in range(n_families):
        head = add_char(new_char())
        words = [head + add_char(new_char()) for _ in range(words_per_family)]
        families.append(words)

    # twin characters: same strokes, complementary glyphs, disjoint contexts
    twin_codes = list(rng.integers(1, 33, size=6))
    bitmap_a = _random_glyph(rng)
    twin_a = add_char(new_char(), list(twin_codes), bitmap_a)
    twin_b = add_char(new_char(), list(twin_codes), 1 - bitmap_a)
    families[0].extend([twin_a] * twin_copies)
    families[1].extend([twin_b] * twin_copies)

    sentences = []
    for _ in range(n_sentences):
        fam = families[int(rng.integers(len(families)))]
        picks = rng.integers(0, len(fam), size=sentence_len)
        sentences.append(" ".join(fam[i] for i in picks))

    corpus_path = out_dir / "corpus.txt"
    corpus_path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    strokes_path = out_dir / "strokes.tsv"
    write_stroke_table(strokes, strokes_path)
    glyphs_path = out_dir / "glyphs.bin"
    write_glyph_pack(glyphs, glyphs_path)

    vocab = list(dict.fromkeys(w for fam in families for w in fam))
    return SyntheticData(
        corpus_path=corpus_path,
        strokes_path=strokes_path,
        glyphs_path=glyphs_path,
        families=families,
        twin_chars=(twin_a, twin_b),
        words=vocab,
    )
