"""Character-level data: stroke sequences, stroke n-grams, glyph bitmaps.

Stroke codes are opaque small integers in 1..32 supplied by the stroke
table file; the engine never interprets individual codes. Boundary
markers are represented internally as codes 0 (begin) and 33 (end).
"""
from __future__ import annotations

import re
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

STROKE_MIN = 1
STROKE_MAX = 32
BOS = 0   # rendered as "<"
EOS = 33  # rendered as ">"

CJK_LO = 0x4E00
CJK_HI = 0x9FA5

GLYPH_SIDE = 28
GLYPH_BYTES = GLYPH_SIDE * GLYPH_SIDE // 8  # 98

GLYPH_MAGIC = b"DWEG"
GLYPH_VERSION = 0x01


class StrokeTableError(ValueError):
    pass


class GlyphPackError(ValueError):
    pass


def is_cjk(codepoint: int | str) -> bool:
    """True iff the codepoint is a CJK character (0x4E00..0x9FA5)."""
    if isinstance(codepoint, str):
        codepoint = ord(codepoint)
    return CJK_LO <= codepoint <= CJK_HI


def cjk_chars(words: Iterable[str]) -> list[str]:
    """The character registry: the sorted, distinct CJK characters of the
    words. Both channels, the n-gram dictionary and the glyphs index it."""
    return sorted({c for w in words for c in w if is_cjk(c)})


def ngram_str(label: str) -> str:
    """Human-readable rendering of an n-gram label, e.g. '0,4,12,33' -> '<4-12>'."""
    marks = {str(BOS): "<", str(EOS): ">"}
    parts = [marks.get(code, code) for code in label.split(",")]
    return "-".join(parts).replace("<-", "<").replace("->", ">")


def extract_ngrams(codes: list[int] | tuple[int, ...], n_min: int, n_max: int) -> list[str]:
    """All contiguous n-grams (n_min <= n <= n_max) of the boundary-marked
    stroke sequence, ordered by n ascending then position ascending. Each
    is its label, the decimal codes joined by commas (e.g. '0,4,12'), as
    a checkpoint writes it. Duplicates are preserved; dictionary
    construction deduplicates."""
    if not (1 <= n_min <= n_max):
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    if not codes:
        raise ValueError("empty stroke sequence")
    marked = [str(BOS), *map(str, codes), str(EOS)]
    out = []
    for n in range(n_min, n_max + 1):
        for i in range(len(marked) - n + 1):
            out.append(",".join(marked[i:i + n]))
    return out


def ngram_label_pattern(n_min: int, n_max: int) -> re.Pattern:
    """The labels `extract_ngrams` can yield for these lengths: `n_min` to
    `n_max` codes in BOS..EOS, in canonical decimal, joined by commas."""
    code = "(?:[12]?[0-9]|3[0-3])"  # 0..33
    return re.compile(rf"{code}(?:,{code}){{{n_min - 1},{n_max - 1}}}")


@dataclass
class StrokeNgramDict:
    """The n-gram dictionary. `ngrams[i]` is the label (see `extract_ngrams`)
    of the boundary-marked n-gram with id i, `per_char[c]` the distinct ids
    of character c's n-grams; registry characters without stroke data have
    no entry. The n-gram lengths are the training config's `n_min`/`n_max`."""
    ngrams: list[str]
    per_char: dict[str, list[int]]

    def __len__(self) -> int:
        return len(self.ngrams)


def build_ngram_dict(
    stroke_table: dict[str, list[int]],
    observed_chars: Iterable[str],
    n_min: int,
    n_max: int,
) -> StrokeNgramDict:
    """Scan observed characters with stroke data (sorted, for deterministic
    id assignment) and collect their deduplicated boundary-marked n-grams."""
    ngram_ids: dict[str, int] = {}
    per_char = {ch: [ngram_ids.setdefault(ng, len(ngram_ids))
                     for ng in dict.fromkeys(extract_ngrams(stroke_table[ch], n_min, n_max))]
                for ch in sorted(observed_chars) if ch in stroke_table}
    return StrokeNgramDict(list(ngram_ids), per_char)


def load_stroke_table(path) -> dict[str, list[int]]:
    """Parse a stroke table file: `CHAR<TAB>c1,c2,...` per line, `#` comments."""
    table: dict[str, list[int]] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise StrokeTableError(f"{path}:{lineno}: not UTF-8") from None
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or len(parts[0]) != 1:
                raise StrokeTableError(f"{path}:{lineno}: expected CHAR<TAB>codes, got {line!r}")
            ch, code_str = parts
            if ch in table:
                raise StrokeTableError(f"{path}:{lineno}: duplicate character {ch!r}")
            try:
                codes = [int(tok) for tok in code_str.split(",")]
            except ValueError:
                raise StrokeTableError(f"{path}:{lineno}: non-integer stroke code in {code_str!r}") from None
            if not codes:
                raise StrokeTableError(f"{path}:{lineno}: empty stroke sequence")
            for c in codes:
                if not (STROKE_MIN <= c <= STROKE_MAX):
                    raise StrokeTableError(f"{path}:{lineno}: stroke code {c} outside {STROKE_MIN}..{STROKE_MAX}")
            table[ch] = codes
    return table


def write_stroke_table(table: dict[str, list[int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ch in sorted(table):
            fh.write(f"{ch}\t{','.join(map(str, table[ch]))}\n")


def validate_bitmap(pixels: np.ndarray) -> np.ndarray:
    pixels = np.asarray(pixels)
    if pixels.shape != (GLYPH_SIDE, GLYPH_SIDE):
        raise ValueError(f"glyph bitmap must be {GLYPH_SIDE}x{GLYPH_SIDE}, got {pixels.shape}")
    if not np.isin(pixels, (0, 1)).all():
        raise ValueError("glyph bitmap must be binary")
    return pixels.astype(np.uint8)


def pack_bitmap(pixels: np.ndarray) -> bytes:
    """784 bits row-major, MSB-first, packed to 98 bytes."""
    return np.packbits(validate_bitmap(pixels).reshape(-1)).tobytes()


def unpack_bitmap(payload: bytes) -> np.ndarray:
    if len(payload) != GLYPH_BYTES:
        raise ValueError(f"expected {GLYPH_BYTES} bytes, got {len(payload)}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    return bits.reshape(GLYPH_SIDE, GLYPH_SIDE)


def load_glyph_pack(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_glyph_pack(data, name=str(path))


def parse_glyph_pack(data: bytes, name: str = "<glyph pack>") -> dict[str, np.ndarray]:
    if len(data) < len(GLYPH_MAGIC) + 1 or data[:4] != GLYPH_MAGIC:
        raise GlyphPackError(f"{name}: bad magic")
    if data[4] != GLYPH_VERSION:
        raise GlyphPackError(f"{name}: unsupported version {data[4]}")
    return parse_glyph_records(memoryview(data)[5:], name)


def parse_glyph_records(data: bytes | memoryview, name: str) -> dict[str, np.ndarray]:
    """Decode a u32 record count and then each record, a u32 codepoint and
    a packed bitmap: a glyph pack without its magic and version."""
    rec_size = 4 + GLYPH_BYTES
    count = struct.unpack_from("<I", data)[0] if len(data) >= 4 else 0
    if len(data) != 4 + count * rec_size:
        raise GlyphPackError(f"{name}: truncated (header says {count} records)")
    glyphs: dict[str, np.ndarray] = {}
    for off in range(4, len(data), rec_size):
        (cp,) = struct.unpack_from("<I", data, off)
        if cp > 0x10FFFF:
            raise GlyphPackError(f"{name}: codepoint U+{cp:04X} out of range")
        ch = chr(cp)
        if ch in glyphs:
            raise GlyphPackError(f"{name}: duplicate codepoint U+{cp:04X}")
        glyphs[ch] = unpack_bitmap(data[off + 4:off + rec_size])
    return glyphs


def dump_glyph_pack(glyphs: dict[str, np.ndarray]) -> bytes:
    return GLYPH_MAGIC + bytes([GLYPH_VERSION]) + dump_glyph_records(glyphs)


def dump_glyph_records(glyphs: dict[str, np.ndarray]) -> bytes:
    """The record count and the records of `glyphs`, sorted by codepoint."""
    return struct.pack("<I", len(glyphs)) + b"".join(
        struct.pack("<I", ord(ch)) + pack_bitmap(glyphs[ch]) for ch in sorted(glyphs))


def write_glyph_pack(glyphs: dict[str, np.ndarray], path) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_glyph_pack(glyphs))


def bitmap_ascii(pixels: np.ndarray) -> str:
    pixels = validate_bitmap(pixels)
    return "\n".join("".join("#" if v else "." for v in row) for row in pixels)
