"""Character-level data: stroke sequences, stroke n-grams, glyph bitmaps.

Stroke codes are opaque small integers in 1..32 supplied by the stroke
table file; the engine never interprets individual codes. Boundary
markers are represented internally as codes 0 (begin) and 33 (end).
"""
from __future__ import annotations

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
GLYPH_RECORD = np.dtype([("cp", "<u4"), ("bits", np.uint8, GLYPH_BYTES)])

# Records per np.unpackbits call, and labels per block of check_ngram_labels.
# A block's arrays stay at tens of KB. Larger ones did not fit the free heap
# that a checkpoint's text sections leave, and raised the peak memory of
# `query` and `export` by up to 1.5 MB (ROADMAP "Measured and settled").
GLYPH_BLOCK = 64
LABEL_BLOCK = 2048


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


def decimal_fields(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split the lines (which hold no newline), each taken as ended by a
    newline, into fields at commas and newlines, classifying their UTF-8
    bytes once: a line of k commas has k + 1 fields, an empty line one
    empty field. Returns the bytes and, per field, the offset of the comma
    or newline that ends it, its length and whether a newline ends it. A
    byte other than an ASCII digit, a comma or a newline (a sign, a space,
    a full-width digit) is a ValueError naming its line."""
    data = np.frombuffer(("\n".join(lines) + "\n" if lines else "").encode(), np.uint8)
    newline = data == ord("\n")
    sep = newline | (data == ord(","))
    other = ~sep & ((data < ord("0")) | (data > ord("9")))
    if other.any():
        raise ValueError(f"{lines[np.count_nonzero(newline[:other.argmax()])]!r} holds a "
                         "character that is not a digit or comma")
    ends = np.flatnonzero(sep)
    return data, ends, np.diff(ends, prepend=-1) - 1, newline[ends]


def check_ngram_labels(labels: list[str], n_min: int, n_max: int) -> None:
    """Raise ValueError unless every label is one `extract_ngrams` can
    yield for these lengths: `n_min` to `n_max` codes in BOS..EOS, in
    canonical decimal, joined by commas. Works on the bytes of
    LABEL_BLOCK labels at once (`decimal_fields`): a code is one digit, or
    two digits of which the first is 1 or 2, or 3 before a digit up to 3."""
    for lo in range(0, len(labels), LABEL_BLOCK):
        data, ends, lengths, line_end = decimal_fields(labels[lo:lo + LABEL_BLOCK])
        first, last = data[ends - lengths], data[ends - 1]
        two = (first == ord("1")) | (first == ord("2")) | ((first == ord("3")) & (last <= ord("3")))
        codes = np.diff(np.flatnonzero(line_end), prepend=-1)  # per label
        if (not ((lengths == 1) | ((lengths == 2) & two)).all()
                or not ((n_min <= codes) & (codes <= n_max)).all()):
            raise ValueError(f"an n-gram is not {n_min} to {n_max} codes in 0..33")


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
    a packed bitmap: a glyph pack without its magic and version. The
    records are read as one structured array and unpacked GLYPH_BLOCK at
    a time by `np.unpackbits`; each bitmap is a 28x28 view of its block.
    The first record, in record order, whose codepoint is out of range or
    repeats an earlier one is named in the GlyphPackError."""
    count = struct.unpack_from("<I", data)[0] if len(data) >= 4 else 0
    if len(data) != 4 + count * GLYPH_RECORD.itemsize:
        raise GlyphPackError(f"{name}: truncated (header says {count} records)")
    records = np.frombuffer(data, GLYPH_RECORD, count, 4)
    cps = records["cp"]
    order = np.argsort(cps, kind="stable")
    repeats = order[1:][cps[order[1:]] == cps[order[:-1]]]
    bad = np.concatenate([np.flatnonzero(cps > 0x10FFFF)[:1], repeats])
    if bad.size:
        cp = int(cps[bad.min()])
        raise GlyphPackError(f"{name}: codepoint U+{cp:04X} out of range" if cp > 0x10FFFF
                             else f"{name}: duplicate codepoint U+{cp:04X}")
    bits = records["bits"]
    bitmaps = [bitmap for lo in range(0, count, GLYPH_BLOCK)
               for bitmap in np.unpackbits(bits[lo:lo + GLYPH_BLOCK], axis=1)
               .reshape(-1, GLYPH_SIDE, GLYPH_SIDE)]
    return dict(zip(map(chr, cps.tolist()), bitmaps))


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
