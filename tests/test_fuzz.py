"""The file decoders on damaged input: a checkpoint, a glyph pack or a stroke
table that is cut short or has one byte changed either loads or raises the
decoder's own error, never a raw exception from deeper down. A damaged
checkpoint that loads saves back to its own bytes."""
import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwe.cli import run
from dwe.morphology import (GlyphPackError, StrokeTableError, dump_glyph_pack,
                            load_glyph_pack, load_stroke_table)
from dwe.trainer import CheckpointError, dump_checkpoint, load_checkpoint
from helpers import handmade_checkpoint

CHECKPOINT = dump_checkpoint(handmade_checkpoint())
GLYPH_PACK = dump_glyph_pack(handmade_checkpoint().glyphs)
STROKE_TABLE = "# strokes\n\n中\t2,5,1,2\n国\t2,5,1,1,1,2,1,4\n人\t3,4\n".encode()


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """`blob` cut short, or with one byte XORed with a non-zero mask."""
    at = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        return blob[:at]
    out = bytearray(blob)
    out[at] ^= draw(st.integers(1, 255))
    return bytes(out)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=600, deadline=None)
@given(blob=damaged(CHECKPOINT))
def test_damaged_checkpoint(work, blob):
    p = work / "m.dwe"
    p.write_bytes(blob)
    try:
        ckpt = load_checkpoint(p)
    except CheckpointError:
        assert run(["nn", "--model", str(p), "--word", "人"]) == 2
    else:
        assert dump_checkpoint(ckpt) == blob


@settings(max_examples=300, deadline=None)
@given(blob=damaged(GLYPH_PACK))
def test_damaged_glyph_pack(work, blob):
    p = work / "g.bin"
    p.write_bytes(blob)
    with contextlib.suppress(GlyphPackError):
        load_glyph_pack(p)


@settings(max_examples=300, deadline=None)
@given(blob=damaged(STROKE_TABLE))
def test_damaged_stroke_table(work, blob):
    p = work / "s.tsv"
    p.write_bytes(blob)
    with contextlib.suppress(StrokeTableError):
        load_stroke_table(p)
