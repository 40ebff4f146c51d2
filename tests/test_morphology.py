import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwe import morphology
from dwe.morphology import (BOS, EOS, GlyphPackError, StrokeTableError,
                            build_ngram_dict, check_ngram_labels, cjk_chars, dump_glyph_pack,
                            extract_ngrams, is_cjk, load_glyph_pack, load_stroke_table,
                            ngram_str, pack_bitmap, parse_glyph_pack, write_glyph_pack,
                            write_stroke_table)
from helpers import ngram_label_pattern, unpack_bitmap


def labels_accepted(labels, n_min, n_max):
    try:
        check_ngram_labels(labels, n_min, n_max)
    except ValueError:
        return False
    return True


class TestIsCjk:
    def test_cjk_char(self):
        assert is_cjk(0x9A7E)  # 驾
        assert is_cjk("驾")

    def test_latin(self):
        assert not is_cjk(0x0041)

    def test_below_range(self):
        assert not is_cjk(0x3007)  # 〇

    @pytest.mark.parametrize("cp,expected", [
        (0x4DFF, False), (0x4E00, True), (0x4E01, True),
        (0x9FA4, True), (0x9FA5, True), (0x9FA6, False),
        (0x0000, False), (0x10FFFF, False),
    ])
    def test_boundaries(self, cp, expected):
        assert is_cjk(cp) is expected

    def test_registry_is_sorted_distinct_cjk_characters(self):
        assert cjk_chars(["国中", "A中", "〇x", "", "国"]) == ["中", "国"]

    @given(st.lists(st.text(st.one_of(st.sampled_from("\u4dff\u4e00\u9fa5\u9fa6\U00020000"),
                                      st.characters(min_codepoint=0x4DF0, max_codepoint=0x4E10),
                                      st.characters(min_codepoint=0x9FA0, max_codepoint=0x9FB0),
                                      st.characters()))))
    def test_registry_equals_the_set_definition(self, words):
        assert cjk_chars(words) == sorted({c for w in words for c in w if is_cjk(c)})


class TestExtractNgrams:
    def test_three_stroke_sequence(self):
        # marked length 5 -> 3 + 2 + 1 + 0 windows for n = 3..6
        out = extract_ngrams([4, 7, 9], 3, 6)
        assert len(out) == 6

    def test_eight_stroke_sequence(self):
        out = extract_ngrams(list(range(1, 9)), 3, 6)
        assert len(out) == 8 + 7 + 6 + 5

    def test_single_stroke(self):
        out = extract_ngrams([5], 3, 6)
        assert out == [f"{BOS},5,{EOS}"]

    def test_boundary_markers_and_order(self):
        out = extract_ngrams([1, 2], 2, 3)
        assert out == [f"{BOS},1", "1,2", f"2,{EOS}",
                       f"{BOS},1,2", f"1,2,{EOS}"]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            extract_ngrams([1], 0, 3)
        with pytest.raises(ValueError):
            extract_ngrams([1], 4, 3)

    @given(st.integers(1, 12))
    def test_count_law(self, k):
        # size == sum over n of max(0, (k+2) - n + 1)
        out = extract_ngrams(list(np.random.default_rng(k).integers(1, 33, k)), 3, 6)
        expected = sum(max(0, k + 3 - n) for n in range(3, 7))
        assert len(out) == expected

    @pytest.mark.parametrize("n_min, n_max", [(1, 1), (1, 3), (3, 6)])
    def test_label_pattern_matches_every_extracted_label(self, n_min, n_max):
        pattern = ngram_label_pattern(n_min, n_max)
        rng = np.random.default_rng(n_max)
        for k in range(1, 10):
            codes = [int(c) for c in rng.integers(1, 33, k)]
            labels = extract_ngrams(codes, n_min, n_max)
            for label in labels:
                assert pattern.fullmatch(label), label
            check_ngram_labels(labels, n_min, n_max)
        every_code = [",".join([str(c)] * n_min) for c in range(BOS, EOS + 1)]
        assert all(map(pattern.fullmatch, every_code))
        check_ngram_labels(every_code, n_min, n_max)

    @pytest.mark.parametrize("label", ["34", "02", "0,34,33", "0,02,33", "0,2", "0,1,2,3,4,5,33",
                                       "1,2,", ",1,2", "1,,2", "1 ,2,3", "-1,2,3"])
    def test_label_pattern_rejects(self, label):
        assert ngram_label_pattern(3, 6).fullmatch(label) is None
        assert not labels_accepted(["0,1,2", label, "3,4,5"], 3, 6)
        if "," not in label:
            assert ngram_label_pattern(1, 1).fullmatch(label) is None
            assert not labels_accepted([label], 1, 1)

    def test_label_check_covers_every_block(self, monkeypatch):
        monkeypatch.setattr(morphology, "LABEL_BLOCK", 2)
        labels = extract_ngrams([4, 7, 9, 2], 3, 6)
        check_ngram_labels(labels, 3, 6)
        for at in range(len(labels)):
            assert not labels_accepted(labels[:at] + ["0,34,33"] + labels[at + 1:], 3, 6)

    @settings(max_examples=400)
    @given(labels=st.lists(st.one_of(
               st.text("0123456789,٣３ aZ", max_size=12),
               st.lists(st.integers(0, 40), max_size=7).map(lambda c: ",".join(map(str, c)))),
               max_size=4),
           lengths=st.sampled_from([(1, 1), (1, 3), (3, 6), (2, 2)]))
    def test_label_check_accepts_what_the_pattern_accepts(self, labels, lengths):
        pattern = ngram_label_pattern(*lengths)
        for label in labels:
            assert labels_accepted([label], *lengths) == bool(pattern.fullmatch(label)), label
        # every label at once, as a checkpoint's n-gram section is checked
        assert labels_accepted(labels, *lengths) == all(map(pattern.fullmatch, labels))


class TestNgramDict:
    def test_identical_sequences_share_ids(self):
        strokes = {"一": [1, 2, 3], "丁": [1, 2, 3]}
        d = build_ngram_dict(strokes, {"一", "丁"}, 2, 3)
        assert d.per_char["一"] == d.per_char["丁"]

    def test_disjoint_alphabets_disjoint_ids(self):
        strokes = {"一": [1, 2], "丁": [3, 4]}
        d = build_ngram_dict(strokes, {"一", "丁"}, 2, 2)
        # boundary markers are shared symbols but full windows differ
        assert not set(d.per_char["一"]) & set(d.per_char["丁"])
        assert len(d) == len(d.per_char["一"]) + len(d.per_char["丁"])

    def test_empty_observed(self):
        d = build_ngram_dict({"一": [1]}, set(), 3, 6)
        assert len(d) == 0 and not d.per_char

    def test_missing_char_goes_to_skip_list(self):
        d = build_ngram_dict({"一": [1]}, {"一", "丁"}, 3, 6)
        assert "丁" not in d.per_char

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        strokes = {chr(0x4E00 + i): list(rng.integers(1, 33, 5)) for i in range(30)}
        d1 = build_ngram_dict(strokes, set(strokes), 3, 6)
        d2 = build_ngram_dict(strokes, set(strokes), 3, 6)
        assert d1.ngrams == d2.ngrams
        assert d1.per_char == d2.per_char

    def test_ids_dense(self):
        strokes = {"一": [1, 1, 1], "丁": [2, 1]}
        d = build_ngram_dict(strokes, {"一", "丁"}, 1, 3)
        assert sorted(set().union(*d.per_char.values())) == list(range(len(d)))

    def test_duplicates_within_char_collapse(self):
        # 1,1,1 yields the window (1,) three times but one id
        d = build_ngram_dict({"一": [1, 1, 1]}, {"一"}, 1, 1)
        ids = d.per_char["一"]
        assert len(ids) == len(set(ids))


class TestStrokeTable:
    def test_minimal_entry(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("一\t1\n", encoding="utf-8")
        assert load_stroke_table(p) == {"一": [1]}

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("# comment\n\n一\t1,2\n", encoding="utf-8")
        assert load_stroke_table(p) == {"一": [1, 2]}

    def test_duplicate_char_errors_with_line(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("一\t1\n一\t2\n", encoding="utf-8")
        with pytest.raises(StrokeTableError, match=":2"):
            load_stroke_table(p)

    def test_not_utf8_errors_with_line(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_bytes("一\t1\n".encode() + b"\xc2\t2\n")
        with pytest.raises(StrokeTableError, match=":2: not UTF-8"):
            load_stroke_table(p)

    def test_code_out_of_range(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("一\t33\n", encoding="utf-8")
        with pytest.raises(StrokeTableError):
            load_stroke_table(p)

    def test_write_read_round_trip(self, tmp_path):
        table = {"一": [1, 2, 3], "丁": [4]}
        p = tmp_path / "s.tsv"
        write_stroke_table(table, p)
        assert load_stroke_table(p) == table


class TestGlyphPack:
    def test_all_zero_record(self, tmp_path):
        p = tmp_path / "g.bin"
        write_glyph_pack({"一": np.zeros((28, 28), dtype=np.uint8)}, p)
        glyphs = load_glyph_pack(p)
        assert (glyphs["一"] == 0).all()

    def test_round_trip_bit_identical(self, tmp_path):
        # more records than two unpacking blocks hold
        rng = np.random.default_rng(5)
        glyphs = {chr(0x4E00 + i): rng.integers(0, 2, (28, 28)).astype(np.uint8)
                  for i in range(2 * morphology.GLYPH_BLOCK + 3)}
        p = tmp_path / "g.bin"
        write_glyph_pack(glyphs, p)
        back = load_glyph_pack(p)
        assert list(back) == sorted(glyphs)
        for ch in glyphs:
            assert back[ch].dtype == np.uint8 and back[ch].shape == (28, 28)
            assert (back[ch] == glyphs[ch]).all()
            assert (back[ch] == unpack_bitmap(pack_bitmap(glyphs[ch]))).all()

    def test_truncation_detected(self):
        blob = dump_glyph_pack({"一": np.ones((28, 28), dtype=np.uint8)})
        # bump the count without appending a record
        bad = blob[:5] + (2).to_bytes(4, "little") + blob[9:]
        with pytest.raises(GlyphPackError, match="truncated"):
            parse_glyph_pack(bad)

    def test_bad_magic(self):
        with pytest.raises(GlyphPackError, match="magic"):
            parse_glyph_pack(b"NOPE" + bytes(10))

    def test_duplicate_codepoint(self):
        rec = (0x4E00).to_bytes(4, "little") + bytes(98)
        blob = b"DWEG\x01" + (2).to_bytes(4, "little") + rec + rec
        with pytest.raises(GlyphPackError, match="duplicate"):
            parse_glyph_pack(blob)

    def test_codepoint_out_of_range(self):
        rec = (0x110000).to_bytes(4, "little") + bytes(98)
        blob = b"DWEG\x01" + (1).to_bytes(4, "little") + rec
        with pytest.raises(GlyphPackError, match="out of range"):
            parse_glyph_pack(blob)

    def test_bitmap_packing_msb_first(self):
        bm = np.zeros((28, 28), dtype=np.uint8)
        bm[0, 0] = 1  # first bit -> MSB of first byte
        payload = pack_bitmap(bm)
        assert payload[0] == 0x80
        assert (unpack_bitmap(payload) == bm).all()


def test_dual_channel_premise():
    # identical strokes, different glyphs: same G(c), different bitmaps
    strokes = {"入": [3, 4], "八": [3, 4], "人": [3, 4]}
    d = build_ngram_dict(strokes, set(strokes), 2, 3)
    assert d.per_char["入"] == d.per_char["八"] == d.per_char["人"]
    rng = np.random.default_rng(1)
    glyphs = {c: rng.integers(0, 2, (28, 28)).astype(np.uint8) for c in strokes}
    assert (glyphs["入"] != glyphs["八"]).any()


def test_ngram_str_rendering():
    assert ngram_str(f"{BOS},4,12,{EOS}") == "<4-12>"
    assert ngram_str("4,12") == "4-12"
