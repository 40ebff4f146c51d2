import hashlib
import io
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwe import morphology as morphology_module
from dwe import trainer as trainer_module
from dwe.cli import run
from dwe.corpus import NegativeSampler, Vocab, context_pairs
from dwe.evaluation import Evaluator
from dwe.glyph_cnn import CnnParams
from dwe.model import ADAGRAD_EPS, EmbeddingTables, Grads
from dwe.morphology import StrokeNgramDict, build_ngram_dict, dump_glyph_records
from dwe.trainer import (FORMAT_BLOCK, FORMAT_LIMIT, CheckpointError, ConfigMismatchError,
                         TrainingConfig, TrainingDivergedError, _epoch_batches, _write_rows,
                         apply_grads, dump_checkpoint,
                         export_vectors, init_checkpoint, load_checkpoint,
                         save_checkpoint, train, train_checkpoint)
from helpers import handmade_checkpoint, load_vectors, ngram_ids_reference


def small_config(**kw):
    base = dict(dim=12, batch_size=256, epochs=2, min_count=1, negatives=3,
                window=3, seed=5)
    base.update(kw)
    return TrainingConfig(**base)


def train_logged(data, cfg, resume=None):
    """`train` on `data`; returns the checkpoint and each epoch's pair count."""
    log = io.StringIO()
    ckpt = train(data.corpus_path, data.strokes_path, data.glyphs_path, cfg,
                 resume=resume, log=log)
    pairs = [int(dict(kv.split("=") for kv in line.split())["pairs"])
             for line in log.getvalue().splitlines() if line.startswith("epoch=")]
    return ckpt, pairs


def trained_arrays(ckpt):
    """The tables, CNN tensors and accumulators of `ckpt`."""
    t, acc = ckpt.tables, ckpt.accum
    return [t.word_id_vecs, t.context_vecs, t.ngram_vecs, *(a for _, a in ckpt.cnn.tensors()),
            acc.word_id_vecs, acc.context_vecs, acc.ngram_vecs,
            *(a for _, a in ckpt.cnn_accum.tensors())]


def assert_accumulators_fit(ckpt):
    """`ckpt.accum` and `ckpt.cnn_accum` hold one writable `<f4` array of
    the shape of each array of `tables` and `cnn`."""
    for params, accum in ((ckpt.tables, ckpt.accum), (ckpt.cnn, ckpt.cnn_accum)):
        assert type(accum) is type(params)
        for f in fields(params):
            p, a = getattr(params, f.name), getattr(accum, f.name)
            assert a.shape == p.shape and a.dtype == p.dtype == np.dtype("<f4")
            assert a.flags.writeable and not np.shares_memory(a, p)


def split_sections(blob):
    """The eight section payloads of a checkpoint."""
    off, payloads = 6, []
    while off < len(blob):
        size = int.from_bytes(blob[off:off + 8], "little")
        payloads.append(blob[off + 8:off + 8 + size])
        off += 8 + size
    return payloads


def float_payload_offset(blob):
    """Where the first float section's payload starts in a checkpoint."""
    return 6 + sum(8 + len(p) for p in split_sections(blob)[:4]) + 8


def join_sections(blob, payloads):
    """`blob`'s magic and version followed by `payloads`, each with its
    length prefix."""
    return blob[:6] + b"".join(len(p).to_bytes(8, "little") + p for p in payloads)


@pytest.fixture(scope="module")
def trained(synth_data, tmp_path_factory):
    ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                 synth_data.glyphs_path, small_config(), log=None)
    return ckpt


class TestTrain:
    def test_zero_epochs_equals_initialization(self, synth_data):
        cfg = small_config(epochs=0)
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                     synth_data.glyphs_path, cfg, log=None)
        assert ckpt.epoch == 0 and ckpt.step == 0
        assert (ckpt.accum.word_id_vecs == 0).all()
        assert (ckpt.tables.context_vecs == 0).all()

    def test_deterministic_same_seed_identical(self, synth_data):
        a = train(synth_data.corpus_path, synth_data.strokes_path,
                  synth_data.glyphs_path, small_config(), log=None)
        b = train(synth_data.corpus_path, synth_data.strokes_path,
                  synth_data.glyphs_path, small_config(), log=None)
        assert dump_checkpoint(a) == dump_checkpoint(b)

    def test_different_seed_differs(self, synth_data, trained):
        other = train(synth_data.corpus_path, synth_data.strokes_path,
                      synth_data.glyphs_path, small_config(seed=6), log=None)
        assert dump_checkpoint(other) != dump_checkpoint(trained)

    def test_loss_ascends(self, synth_data, capsys):
        import io
        log = io.StringIO()
        train(synth_data.corpus_path, synth_data.strokes_path,
              synth_data.glyphs_path, small_config(epochs=2), log=log)
        losses = [float(line.split()[1].split("=")[1])
                  for line in log.getvalue().splitlines() if line.startswith("epoch=")]
        assert len(losses) == 2
        assert losses[1] > losses[0]

    def test_progress_line_format(self, synth_data):
        import io
        log = io.StringIO()
        train(synth_data.corpus_path, synth_data.strokes_path,
              synth_data.glyphs_path, small_config(epochs=1), log=log)
        lines = [l for l in log.getvalue().splitlines() if l.startswith("epoch=")]
        assert len(lines) == 1
        fields = dict(kv.split("=") for kv in lines[0].split())
        assert set(fields) == {"epoch", "loss", "pairs", "elapsed"}

    def test_accumulators_monotone(self, synth_data):
        cfg = small_config(epochs=1)
        ck1 = train(synth_data.corpus_path, synth_data.strokes_path,
                    synth_data.glyphs_path, cfg, log=None)
        ck2 = train(synth_data.corpus_path, synth_data.strokes_path,
                    synth_data.glyphs_path, small_config(epochs=2), log=None)
        assert (ck2.accum.word_id_vecs >= ck1.accum.word_id_vecs - 1e-7).all()
        assert (ck2.accum.context_vecs >= ck1.accum.context_vecs - 1e-7).all()
        assert (ck2.accum.ngram_vecs >= ck1.accum.ngram_vecs - 1e-7).all()

    def test_hogwild_runs(self, synth_data):
        # more workers than cores and a short switch interval: a lost update
        # to the step or pair count would show
        det, det_pairs = train_logged(synth_data, small_config(epochs=1, use_glyphs=False))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ckpt, pairs = train_logged(synth_data, small_config(
                mode="hogwild", threads=3, epochs=1, use_glyphs=False))
        finally:
            sys.setswitchinterval(interval)
        assert np.isfinite(ckpt.tables.word_id_vecs).all()
        assert ckpt.step == det.step > 0
        assert pairs == det_pairs

    def test_hogwild_epochs_match_deterministic(self, synth_data, tmp_path):
        def epochs(**kw):
            """(pairs, steps) of three epochs trained one call at a time,
            each resuming from the file the call before saved, and their
            mean losses."""
            p, resume, before, counts, losses = tmp_path / "e.dwe", None, 0, [], []
            for _ in range(3):
                ckpt, (pairs,) = train_logged(
                    synth_data, small_config(epochs=1, use_glyphs=False, **kw), resume)
                counts.append((pairs, ckpt.step - before))
                losses += ckpt.epoch_mean_losses
                save_checkpoint(ckpt, p)
                resume, before = p, ckpt.step
            return counts, losses

        det, _ = epochs()
        hog, losses = epochs(mode="hogwild", threads=2)
        assert hog == det
        assert losses[0] < losses[1] < losses[2]

    @pytest.mark.parametrize("mode, threads", [("deterministic", 1), ("hogwild", 2)])
    def test_divergence_raised(self, synth_data, mode, threads, tmp_path):
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path, synth_data.glyphs_path,
                     small_config(epochs=0, use_glyphs=False), log=None)
        ckpt.tables.context_vecs[:] = np.nan
        p = tmp_path / "nan.dwe"
        save_checkpoint(ckpt, p)
        with pytest.raises(TrainingDivergedError, match="non-finite loss at epoch=0 step=0"):
            train(synth_data.corpus_path, synth_data.strokes_path, synth_data.glyphs_path,
                  small_config(epochs=1, mode=mode, threads=threads, use_glyphs=False),
                  resume=p, log=None)

    def test_hogwild_refuses_glyphs(self, synth_data, tmp_path):
        # refused before any input is read: the input paths do not exist
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                     synth_data.glyphs_path, small_config(epochs=0), log=None)
        p = tmp_path / "m.dwe"
        save_checkpoint(ckpt, p)
        before = p.read_bytes()
        cfg = small_config(mode="hogwild", threads=2)
        missing = tmp_path / "missing"
        for resume in (p, missing, None):
            with pytest.raises(ValueError, match="--no-glyphs"):
                train(missing, missing, missing, cfg, resume=resume, log=None)
        assert p.read_bytes() == before

    def test_train_checkpoint_refuses_hogwild_glyphs(self, synth_data, tmp_path):
        # refused before the corpus is read, with train's error
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                     synth_data.glyphs_path, small_config(epochs=0), log=None)
        cfg = small_config(mode="hogwild", threads=2)
        with pytest.raises(ValueError, match="--no-glyphs") as from_train:
            train(synth_data.corpus_path, synth_data.strokes_path, synth_data.glyphs_path,
                  cfg, log=None)
        ckpt.config = cfg
        with pytest.raises(ValueError, match="--no-glyphs") as refused:
            train_checkpoint(ckpt, tmp_path / "missing", log=None)
        assert str(refused.value) == str(from_train.value)
        assert (ckpt.epoch, ckpt.step) == (0, 0)
        ckpt.config = replace(cfg, use_glyphs=False)
        train_checkpoint(ckpt, synth_data.corpus_path, log=None)
        assert ckpt.step > 0

    def test_subsample_one_keeps_every_pair(self, synth_data):
        off, _ = train_logged(synth_data, small_config())
        one, _ = train_logged(synth_data, small_config(subsample=1.0))
        assert dump_checkpoint(replace(one, config=off.config)) == dump_checkpoint(off)

    def test_subsample_drops_pairs_deterministically(self, synth_data):
        with open(synth_data.corpus_path, encoding="utf-8") as fh:
            lengths = [n for n in (len(line.split()) for line in fh) if n >= 2]
        w = small_config().window
        closed_form = sum(min(i + w, n - 1) - max(i - w, 0)
                          for n in lengths for i in range(n))
        _, full = train_logged(synth_data, small_config())
        a, pairs = train_logged(synth_data, small_config(subsample=0.01))
        b, _ = train_logged(synth_data, small_config(subsample=0.01))
        assert full == [closed_form] * 2
        assert all(0 < p < closed_form for p in pairs)
        assert dump_checkpoint(a) == dump_checkpoint(b)

    def test_epoch_negatives_keyed_to_seed_and_sentence(self):
        rng = np.random.default_rng(0)
        sentences = [rng.integers(0, 20, size=n) for n in (5, 9, 4, 7)]
        cfg = small_config(batch_size=1000)
        sampler = NegativeSampler(rng.integers(1, 50, size=20))
        centers, contexts, negatives = next(_epoch_batches(sentences, cfg, sampler, None))
        si = int(np.random.default_rng(cfg.seed).permutation(len(sentences))[0])
        pairs = context_pairs(sentences[si], cfg.window)
        n = len(pairs)
        assert (centers[:n] == pairs[:, 0]).all() and (contexts[:n] == pairs[:, 1]).all()
        expected = sampler.draw_batch(cfg.negatives, pairs[:, 0], (cfg.seed, si))
        assert (negatives[:n] == expected).all()

    def test_apply_grads_updates_cnn_tensors_in_place(self):
        ckpt = handmade_checkpoint()
        lr, g = 0.1, 0.5
        no_rows = (np.zeros(0, np.int64), np.zeros((0, ckpt.config.dim)))
        grads = Grads(*no_rows, *no_rows, *no_rows,
                      CnnParams(*(np.full_like(t, g) for _, t in ckpt.cnn.tensors())))
        held = dict(ckpt.cnn.tensors())
        values = {name: t.copy() for name, t in held.items()}
        acc = {name: t + g * g for name, t in ckpt.cnn_accum.tensors()}
        apply_grads(ckpt, grads, lr)
        for name, new in ckpt.cnn.tensors():
            assert new is held[name]
            np.testing.assert_array_equal(getattr(ckpt.cnn_accum, name), acc[name])
            step = lr * g / (np.sqrt(acc[name]) + ADAGRAD_EPS)
            np.testing.assert_allclose(new, values[name] + step, rtol=1e-12)

    def test_resume_config_mismatch(self, synth_data, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        with pytest.raises(ConfigMismatchError):
            train(synth_data.corpus_path, synth_data.strokes_path,
                  synth_data.glyphs_path, small_config(dim=300), resume=p, log=None)

    def test_resume_continues(self, synth_data, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        cfg = small_config(epochs=1)
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                     synth_data.glyphs_path, cfg, resume=p, log=None)
        assert ckpt.epoch == trained.epoch + 1

    @pytest.mark.parametrize("kw", [{}, {"subsample": 0.01}])
    def test_resume_from_file_equals_uninterrupted(self, synth_data, tmp_path, kw):
        paths = (synth_data.corpus_path, synth_data.strokes_path, synth_data.glyphs_path)
        whole = train(*paths, small_config(epochs=2, **kw), log=None)
        p = tmp_path / "half.dwe"
        save_checkpoint(train(*paths, small_config(epochs=1, **kw), log=None), p)
        before = p.read_bytes()
        resumed = train(*paths, small_config(epochs=1, **kw), resume=p, log=None)
        assert p.read_bytes() == before
        assert (resumed.epoch, resumed.step) == (whole.epoch, whole.step)
        assert len(resumed.epoch_mean_losses) == 1
        for a, b in zip(trained_arrays(resumed), trained_arrays(whole), strict=True):
            np.testing.assert_array_equal(a, b)

    # v1 float payloads start wherever the text sections end, so a loaded
    # table may be an unaligned view of the file; the vocab's total_tokens,
    # which training does not read, lengthens the vocab section a byte at
    # a time.
    @pytest.mark.parametrize("offset_mod_4", [0, 1, 2, 3])
    def test_resume_equals_uninterrupted_at_any_float_offset(self, synth_data, trained,
                                                              tmp_path, offset_mod_4):
        paths = (synth_data.corpus_path, synth_data.strokes_path, synth_data.glyphs_path)
        half = train(*paths, small_config(epochs=1), log=None)
        while float_payload_offset(dump_checkpoint(half)) % 4 != offset_mod_4:
            half.vocab.total_tokens *= 10
        p = tmp_path / "half.dwe"
        save_checkpoint(half, p)
        resumed = train(*paths, small_config(epochs=1), resume=p, log=None)
        assert (resumed.epoch, resumed.step) == (trained.epoch, trained.step)
        for a, b in zip(trained_arrays(resumed), trained_arrays(trained), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_resume_reads_corpus_only(self, synth_data, trained, tmp_path):
        # the n-gram dictionary and glyphs come from the checkpoint, so a
        # resume never opens the stroke table or the glyph pack
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        missing = tmp_path / "missing"
        cfg = small_config(epochs=1)
        got = train(synth_data.corpus_path, missing, missing, cfg, resume=p, log=None)
        want = train(synth_data.corpus_path, synth_data.strokes_path, synth_data.glyphs_path,
                     cfg, resume=p, log=None)
        assert got.epoch == trained.epoch + 1
        assert dump_checkpoint(got) == dump_checkpoint(want)


class TestCheckpointIO:
    def test_round_trip_byte_identical(self, trained, tmp_path):
        p1, p2 = tmp_path / "a.dwe", tmp_path / "b.dwe"
        save_checkpoint(trained, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_state(self, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        back = load_checkpoint(p)
        assert back.vocab.words == trained.vocab.words
        assert back.ngram_dict.ngrams == trained.ngram_dict.ngrams
        assert back.epoch == trained.epoch and back.step == trained.step
        np.testing.assert_array_equal(
            back.tables.word_id_vecs, trained.tables.word_id_vecs)
        np.testing.assert_array_equal(back.accum.context_vecs, trained.accum.context_vecs)
        for (_, a), (_, b) in zip(back.cnn.tensors(), trained.cnn.tensors()):
            np.testing.assert_array_equal(a, b)
        for ch in trained.glyphs:
            np.testing.assert_array_equal(back.glyphs[ch], trained.glyphs[ch])
        h = handmade_checkpoint()
        for ckpt in (init_checkpoint(h.vocab, h.ngram_dict, h.glyphs, h.config), back):
            assert_accumulators_fit(ckpt)

    def test_loaded_arrays_are_writable_and_leave_the_file_alone(self, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        before = p.read_bytes()
        back = load_checkpoint(p)
        for arr in trained_arrays(back):
            assert arr.flags.writeable
            arr += 1
        assert p.read_bytes() == before
        for a, b in zip(trained_arrays(back), trained_arrays(trained), strict=True):
            np.testing.assert_array_equal(a, b + 1)

    def test_save_onto_the_file_it_was_loaded_from(self, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        before = p.read_bytes()
        back = load_checkpoint(p)
        save_checkpoint(back, p)
        assert p.read_bytes() == before
        assert dump_checkpoint(back) == before
        assert dump_checkpoint(load_checkpoint(p)) == before

    def test_loaded_cnn_arrays_own_aligned_data(self, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        back = load_checkpoint(p)
        for params in (back.cnn, back.cnn_accum):
            for _, arr in params.tensors():
                assert arr.flags.owndata and arr.flags.aligned and arr.flags.c_contiguous

    def test_tables_zeros_like_is_fresh(self):
        tables = handmade_checkpoint().tables
        zeros = tables.zeros_like()
        held = [getattr(tables, f.name) for f in fields(EmbeddingTables)]
        for f, t in zip(fields(EmbeddingTables), held):
            z = getattr(zeros, f.name)
            assert z.shape == t.shape and z.dtype == t.dtype and not z.any()
            assert not any(np.shares_memory(z, a) for a in held)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.dwe"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_bad_version(self, trained, tmp_path):
        blob = bytearray(dump_checkpoint(trained))
        blob[4:6] = (999).to_bytes(2, "little")
        p = tmp_path / "v.dwe"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_truncation(self, trained, tmp_path):
        blob = dump_checkpoint(trained)
        p = tmp_path / "t.dwe"
        p.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_inflated_glyph_count(self, trained, tmp_path):
        blob = bytearray(dump_checkpoint(trained))
        off = 6  # magic and version; config, vocab and n-gram sections follow
        for _ in range(3):
            off += 8 + int.from_bytes(blob[off:off + 8], "little")
        count = int.from_bytes(blob[off + 8:off + 12], "little")
        blob[off + 8:off + 12] = (count + 1).to_bytes(4, "little")
        p = tmp_path / "g.dwe"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="glyph section"):
            load_checkpoint(p)
        assert run(["nn", "--model", str(p), "--word", trained.vocab.words[0]]) == 2

    # Every vocab word is a token of `read_sentences`, so none is empty or
    # holds whitespace, and total_tokens counts every token read.
    @pytest.mark.parametrize("edit", [
        lambda payload: payload.replace("中国\t".encode(), "中 国\t".encode()),
        lambda payload: payload.replace("中国\t".encode(), "中\u3000国\t".encode()),
        lambda payload: payload.replace("人\t".encode(), b"\t"),
        lambda payload: payload.replace(b"total_tokens=13", b"total_tokens=-5"),
        lambda payload: payload.replace(b"total_tokens=13", b"total_tokens=12"),
    ], ids=["space-in-word", "ideographic-space-in-word", "empty-word",
            "negative-total-tokens", "total-tokens-below-counts"])
    def test_vocab_training_cannot_produce(self, edit, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint())
        payloads = split_sections(blob)
        edited = edit(payloads[1])
        assert edited != payloads[1]
        payloads[1] = edited
        p, out = tmp_path / "v.dwe", tmp_path / "v.txt"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="bad vocab section"):
            load_checkpoint(p)
        assert run(["export", "--model", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    # The v1 byte layout, pinned as the SHA-256 of the handmade checkpoint.
    # A v1 file from a float64 run differs only in its config's dtype line;
    # its tables are `<f4` too, so it loads as float32 with no loss.
    @pytest.mark.parametrize("dtype, digest", [
        ("float32", "f3ddfbc1a8d691488d914f180b25cd73e5d03d41dd440b3f2b5ab7ed1c39bc35"),
        ("float64", "12d879c97fb3267d0dea3090a8ebda240cbfde6a6952804edb1d01d9355a36ca"),
    ])
    def test_format_pinned(self, dtype, digest, tmp_path):
        ckpt = handmade_checkpoint()
        current = dump_checkpoint(ckpt)
        blob = current.replace(b"\ndtype=float32\n", f"\ndtype={dtype}\n".encode())
        assert hashlib.sha256(blob).hexdigest() == digest
        p = tmp_path / "m.dwe"
        p.write_bytes(blob)
        back = load_checkpoint(p)
        assert back.config == ckpt.config
        for a, b in zip(trained_arrays(back), trained_arrays(ckpt), strict=True):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a, b)
        assert dump_checkpoint(back) == current

    @pytest.mark.parametrize("delta", [4, -4])
    @pytest.mark.parametrize("section", [4, 5, 6])  # tables, CNN, accumulators
    def test_float_section_size_checked(self, trained, tmp_path, section, delta):
        blob = dump_checkpoint(trained)
        payloads = split_sections(blob)
        payloads[section] = (payloads[section] + bytes(delta) if delta > 0
                             else payloads[section][:delta])
        p = tmp_path / "s.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="float section"):
            load_checkpoint(p)
        if (section, delta) == (4, 4):
            assert run(["nn", "--model", str(p), "--word", trained.vocab.words[0]]) == 2

    def test_duplicate_glyph_rejected(self, trained, tmp_path):
        blob = dump_checkpoint(trained)
        payloads = split_sections(blob)
        count = int.from_bytes(payloads[3][:4], "little")
        first = payloads[3][4:4 + 4 + 98]
        payloads[3] = (count + 1).to_bytes(4, "little") + payloads[3][4:] + first
        p = tmp_path / "d.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="glyph section.*duplicate"):
            load_checkpoint(p)

    @pytest.mark.parametrize("zhong, guo", [("0,0,2", "9"), ("0,1,9", "2,2")],
                             ids=["repeat-before-range", "range-before-repeat"])
    def test_first_bad_ngram_id_list_named(self, zhong, guo, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint())
        payloads = split_sections(blob)
        payloads[2] = payloads[2].replace("中\t0,1,2".encode(), f"中\t{zhong}".encode()) \
                                 .replace("国\t2".encode(), f"国\t{guo}".encode())
        p = tmp_path / "b.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="character '中': n-gram ids not distinct"):
            load_checkpoint(p)

    def test_ngram_section_read_in_blocks_of_one(self, monkeypatch, tmp_path):
        # a block per label and per character: the same dictionary, and a
        # bad id list in a later block names its own character
        monkeypatch.setattr(trainer_module, "ID_BLOCK", 1)
        monkeypatch.setattr(morphology_module, "LABEL_BLOCK", 1)
        ckpt = handmade_checkpoint()
        blob = dump_checkpoint(ckpt)
        p = tmp_path / "m.dwe"
        p.write_bytes(blob)
        assert load_checkpoint(p).ngram_dict == ckpt.ngram_dict
        payloads = split_sections(blob)
        payloads[2] = payloads[2].replace("国\t2".encode(), "国\t2,2".encode())
        p = tmp_path / "r.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="character '国': n-gram ids not distinct"):
            load_checkpoint(p)

    def test_duplicate_glyph_rejected_names_the_first_repeat(self, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint())
        payloads = split_sections(blob)
        zhong, guo = payloads[3][4:106], payloads[3][106:]  # U+4E2D, U+56FD
        payloads[3] = (4).to_bytes(4, "little") + zhong + guo + guo + zhong
        p = tmp_path / "d.dwe"
        p.write_bytes(join_sections(blob, payloads))
        # the third record repeats first; the fourth repeats a lower codepoint
        with pytest.raises(CheckpointError, match="glyph section: duplicate codepoint U\\+56FD"):
            load_checkpoint(p)

    def test_glyphs_out_of_order_rejected(self, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint())
        payloads = split_sections(blob)
        count, records = payloads[3][:4], payloads[3][4:]
        payloads[3] = count + records[102:] + records[:102]  # two 102-byte records, swapped
        p = tmp_path / "o.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="glyph section.*ascending"):
            load_checkpoint(p)
        assert run(["nn", "--model", str(p), "--word", "人"]) == 2

    @pytest.mark.parametrize("ch", ["字", "A"])
    def test_glyph_outside_the_registry_rejected(self, ch, tmp_path):
        ckpt = handmade_checkpoint()
        blob = dump_checkpoint(ckpt)
        payloads = split_sections(blob)
        payloads[3] = dump_glyph_records({**ckpt.glyphs, ch: np.ones((28, 28), np.uint8)})
        p = tmp_path / "g.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="glyph section.*not a CJK character of the vocab"):
            load_checkpoint(p)
        assert run(["nn", "--model", str(p), "--word", "人"]) == 2

    @pytest.mark.parametrize("dim", [50_000, 100_000, 2**40, 10**19])
    def test_dim_the_file_cannot_hold_rejected_before_allocating(self, dim, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint())
        payloads = split_sections(blob)
        config = payloads[0]
        payloads[0] = config.replace(b"\ndim=5\n", f"\ndim={dim}\n".encode())
        assert payloads[0] != config
        p = tmp_path / "d.dwe"
        p.write_bytes(join_sections(blob, payloads))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            with pytest.raises(CheckpointError):
                load_checkpoint(p)
            extra = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert extra < 2e6
        assert run(["nn", "--model", str(p), "--word", "人"]) == 2

    def test_out_of_range_glyph_codepoint(self, trained, tmp_path):
        blob = dump_checkpoint(trained)
        payloads = split_sections(blob)
        payloads[3] = payloads[3][:4] + (0x110000).to_bytes(4, "little") + payloads[3][8:]
        p = tmp_path / "c.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match="glyph section.*out of range"):
            load_checkpoint(p)
        assert run(["nn", "--model", str(p), "--word", trained.vocab.words[0]]) == 2

    def test_hogwild_glyph_config_still_loads(self, tmp_path, capsys):
        # checkpoints written by glyph-channel hogwild runs stay readable
        ckpt = handmade_checkpoint()
        ckpt.config = replace(ckpt.config, mode="hogwild", threads=2)
        blob = dump_checkpoint(ckpt)
        config = split_sections(blob)[0].decode().splitlines()
        assert {"mode=hogwild", "threads=2", "use_glyphs=True"} <= set(config)
        p = tmp_path / "h.dwe"
        p.write_bytes(blob)
        assert load_checkpoint(p).config == ckpt.config
        assert run(["nn", "--model", str(p), "--word", "人"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("section, edit", [
        (1, lambda payload: b""),
        (2, lambda payload: b""),
        (0, lambda payload: payload.replace(b"dim=5", b"dim=five")),
        (1, lambda payload: b"\xff" + payload),
        (7, lambda payload: b"epoch=2\n"),
        (2, lambda payload: payload.replace("中\t0,1,2".encode(), "中\t0,1,999".encode())),
        (2, lambda payload: payload.replace("中\t0,1,2".encode(), "中\t0,1,-1".encode())),
        (2, lambda payload: payload.replace("中\t0,1,2".encode(), "中\t0,0,0".encode())),
        (2, lambda payload: payload.replace("国\t2".encode(), "中\t2".encode())),
        (1, lambda payload: payload.replace("日本\t".encode(), "人\t".encode())),
        (1, lambda payload: payload.replace("人\t4".encode(), "人\t0".encode())),
        (1, lambda payload: payload.replace("日本\t2".encode(), "日本\t-3".encode())),
        (2, lambda payload: payload.replace(b"\n2,5,33\n", b"\n0,2,5\n")),
        (7, lambda payload: b"epoch=-1\nstep=17\n"),
        (0, lambda payload: payload.replace(b"dtype=float32", b"dtype=float16")),
        # each key=value line once, in its written order, and nothing else
        (0, lambda payload: payload.replace(b"seed=3\n", b"")),
        (0, lambda payload: payload + b"seed=9\n"),
        (0, lambda payload: payload.replace(b"seed=3\n", b"seed=3\n\n")),
        (0, lambda payload: payload.replace(b"eps=1e-08", b"eps=1e-06")),
        (1, lambda payload: payload.replace(b"total_tokens=13", b"bogus=13")),
        (2, lambda payload: payload.replace(b"ngrams=3", b"bogus=3")),
        (2, lambda payload: payload.replace(b"n_min=3 n_max=4", b"n_min=3 n_max=4 x=1")),
        (2, lambda payload: payload.replace(b"n_min=3 n_max=4", b"n_min=2 n_max=4")),
        (2, lambda payload: payload.removesuffix("本\n".encode())),
        (2, lambda payload: payload + b"junk\n"),
        (2, lambda payload: payload.replace(b"chars=3", b"chars=-9")),
        (7, lambda payload: payload + b"epoch=3\n"),
        (7, lambda payload: payload + b"bogus=1\n"),
        # forms the writer never gives
        (0, lambda payload: payload.replace(b"seed=3", b"seed=+3")),
        (0, lambda payload: payload.replace(b"batch_size=4096", b"batch_size=4_096")),
        (0, lambda payload: payload.replace(b"\n", b"\r\n")),
        (7, lambda payload: payload.removesuffix(b"\n")),
        (2, lambda payload: payload.replace(b"\n2,5,33\n", b"\n02,5,33\n")),
        (2, lambda payload: payload.replace("日\n本\n".encode(), "本\n日\n".encode())),
        (2, lambda payload: payload.replace("人\t\n国\t2\n".encode(), "国\t2\n人\t\n".encode())),
        (2, lambda payload: payload.replace(b"\n2,5,33\n", b"\n2,5,99\n")),
        (2, lambda payload: payload.replace("人\t\n".encode(), "人人\t\n".encode())),
        # the dictionary holds or skips each CJK character of the vocab once
        (2, lambda payload: payload.replace("skipped=2\n日\n".encode(),
                                            "skipped=3\n日\n日\n".encode())),
        (2, lambda payload: payload.replace("skipped=2\n日\n".encode(),
                                            "skipped=3\n中\n日\n".encode())),
        (1, lambda payload: payload.replace("日本\t2".encode(),
                                            "日本\t99999999999999999999".encode())),
        # n-gram ids and labels in forms the writer never gives
        (2, lambda payload: payload.replace("国\t2".encode(), "国\t+2".encode())),
        (2, lambda payload: payload.replace("国\t2".encode(), "国\t 2".encode())),
        (2, lambda payload: payload.replace("国\t2".encode(), "国\t02".encode())),
        (2, lambda payload: payload.replace("国\t2".encode(), "国\t２".encode())),
        (2, lambda payload: payload.replace("中\t0,1,2".encode(), "中\t0,,1".encode())),
        (2, lambda payload: payload.replace("国\t2".encode(), "国\t2,".encode())),
        (2, lambda payload: payload.replace("国\t2".encode(), "国\t12345678901234567890".encode())),
        (2, lambda payload: payload.replace("国\t2".encode(), "国\t00000000000000000002".encode())),
        (2, lambda payload: payload.replace(b"\n2,5,33\n", b"\n5,33\n")),
        (2, lambda payload: payload.replace(b"\n0,2,5,33\n", b"\n0,2,5,33,33\n")),
        (2, lambda payload: payload.replace(b"\n2,5,33\n", b"\n\n")),
        (2, lambda payload: payload.replace(b"\n2,5,33\n", "\n2,５,33\n".encode())),
    ], ids=["empty-vocab", "empty-ngram-dict", "non-integer-config", "non-utf8-vocab",
            "counters-without-step", "ngram-id-out-of-range", "negative-ngram-id",
            "repeated-ngram-id", "duplicate-character", "duplicate-word", "zero-count",
            "negative-count", "duplicate-ngram", "negative-epoch", "float16-dtype",
            "config-missing-key", "config-repeated-key", "config-blank-line", "eps-not-1e-08",
            "vocab-unknown-key", "ngram-count-unknown-key", "ngram-header-extra-key",
            "ngram-header-differs-from-config", "skipped-count-above-lines",
            "line-after-skipped", "negative-char-count", "counters-repeated-key",
            "counters-unknown-key", "config-plus-sign", "config-digit-separator",
            "config-crlf", "counters-no-final-newline", "ngram-leading-zero",
            "skipped-unsorted", "chars-unsorted", "ngram-code-above-33",
            "char-key-two-characters", "skipped-repeated", "char-also-skipped",
            "vocab-count-beyond-int64", "ngram-id-plus-sign", "ngram-id-space",
            "ngram-id-leading-zero", "ngram-id-full-width", "ngram-id-empty",
            "ngram-ids-trailing-comma", "ngram-id-20-digits", "ngram-id-20-digits-zero-padded",
            "ngram-too-few-codes", "ngram-too-many-codes", "ngram-empty-label",
            "ngram-full-width-digit"])
    def test_text_section_errors(self, section, edit, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint())
        payloads = split_sections(blob)
        edited = edit(payloads[section])
        assert edited != payloads[section]
        payloads[section] = edited
        p = tmp_path / "x.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match=r"bad .* section"):
            load_checkpoint(p)
        assert run(["nn", "--model", str(p), "--word", "人"]) == 2

    @settings(max_examples=300, deadline=None)
    @given(ids=st.one_of(st.text("0123456789,+- ２\t_", max_size=8),
                         st.lists(st.integers(0, 4), max_size=4).map(lambda i: ",".join(map(str, i)))))
    def test_ngram_ids_load_as_int_reads_them(self, tmp_path_factory, ids):
        # a character's ids load iff `int` reads them as distinct ids in
        # [0, 3) and the writer gives them back as they were written
        blob = dump_checkpoint(handmade_checkpoint())
        payloads = split_sections(blob)
        payloads[2] = payloads[2].replace("国\t2\n".encode(), f"国\t{ids}\n".encode())
        p = tmp_path_factory.mktemp("ids") / "m.dwe"
        p.write_bytes(join_sections(blob, payloads))
        try:
            expected = ngram_ids_reference(ids, 3)
        except ValueError:
            expected = None
        if expected is None or ",".join(map(str, expected)) != ids:
            with pytest.raises(CheckpointError, match="bad n-gram dictionary section"):
                load_checkpoint(p)
        else:
            assert load_checkpoint(p).ngram_dict.per_char["国"] == expected

    @settings(max_examples=40, deadline=None)
    @given(strokes=st.lists(st.lists(st.integers(1, 32), min_size=1, max_size=7), max_size=6),
           one_stroke=st.integers(1, 32), lacking=st.integers(0, 2),
           lengths=st.sampled_from([(1, 1), (1, 3), (3, 6), (6, 6), (6, 8)]))
    def test_ngram_dict_round_trip(self, tmp_path_factory, strokes, one_stroke, lacking, lengths):
        # "字" has one stroke, so n_min=6 leaves it no n-gram: a `字\t` line
        table = {chr(0x4E00 + 3 * i): codes for i, codes in enumerate(strokes)}
        table["字"] = [one_stroke]
        chars = sorted([*table, *(chr(0x9F00 + i) for i in range(lacking))])
        vocab = Vocab(chars, np.ones(len(chars), np.int64), len(chars))
        cfg = TrainingConfig(dim=2, n_min=lengths[0], n_max=lengths[1], min_count=1)
        nd = build_ngram_dict(table, chars, *lengths)
        blob = dump_checkpoint(init_checkpoint(vocab, nd, {}, cfg))
        assert ("\n字\t\n".encode() in split_sections(blob)[2]) == (lengths[0] == 6)
        p = tmp_path_factory.mktemp("round") / "m.dwe"
        p.write_bytes(blob)
        back = load_checkpoint(p)
        assert back.ngram_dict == nd
        assert all(type(i) is int for ids in back.ngram_dict.per_char.values() for i in ids)
        assert dump_checkpoint(back) == blob

    def test_failed_save_leaves_old_file(self, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        old = p.read_bytes()
        # A CNN tensor that cannot be written as floats fails the save after
        # the tables section has been written.
        bad_cnn = replace(trained.cnn, fc1_b=np.array(["x"] * 120))
        with pytest.raises(ValueError):
            save_checkpoint(replace(trained, cnn=bad_cnn), p)
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.dwe"]

    @pytest.mark.parametrize("holder", ["glyphs", "per_char"])
    def test_save_refuses_characters_outside_the_registry(self, tmp_path, holder):
        # `load_checkpoint` would refuse the file, so no byte of it is written
        ckpt = handmade_checkpoint()
        p = tmp_path / "m.dwe"
        save_checkpoint(ckpt, p)
        old = p.read_bytes()
        if holder == "glyphs":
            ckpt.glyphs = {**ckpt.glyphs, "字": ckpt.glyphs["中"]}
        else:
            per_char = {**ckpt.ngram_dict.per_char, "字": [0]}
            ckpt.ngram_dict = replace(ckpt.ngram_dict, per_char=per_char)
        with pytest.raises(ValueError, match="outside the vocab's registry, such as '字'"):
            save_checkpoint(ckpt, p)
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.dwe"]
        fh = io.BytesIO()
        with pytest.raises(ValueError, match="outside the vocab's registry"):
            trainer_module._write_checkpoint(ckpt, fh)
        assert fh.getvalue() == b""

    def test_save_and_load_memory(self, tmp_path):
        V, G = 1500, 3000
        vocab = Vocab([f"w{i}" for i in range(V)], np.ones(V), V)
        labels = [f"{i // 100},{i // 10 % 10},{i % 10}" for i in range(G)]  # 3 codes in 0..29
        ngram_dict = StrokeNgramDict(labels, {})
        ckpt = init_checkpoint(vocab, ngram_dict, {}, TrainingConfig(dim=300))
        p = tmp_path / "m.dwe"
        tracemalloc.start()
        try:
            save_checkpoint(ckpt, p)
            save_extra = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            back = load_checkpoint(p)
            load_extra = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        size = os.path.getsize(p)
        assert 14e6 < size < 16e6
        assert save_extra <= 0.5 * size
        assert load_extra <= 1.5 * size
        assert back.step == ckpt.step

    # tracemalloc does not see mapped pages, so this test reads the kernel's
    # counts of a fresh process: anonymous memory after the load, and the
    # peak resident size (file pages included) after an Evaluator build.
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads Linux's /proc/self/status")
    def test_load_leaves_unread_sections_on_disk(self, tmp_path):
        chars = [chr(0x4E00 + i) for i in range(30)]
        words = [a + b for a in chars for b in chars]
        G, d = 20_000, 300
        labels = [f"{i // 1156},{i // 34 % 34},{i % 34}" for i in range(G)]
        rng = np.random.default_rng(0)
        per_char = {c: sorted(rng.choice(G, 8, replace=False).tolist()) for c in chars}
        ckpt = init_checkpoint(Vocab(words, np.ones(len(words)), len(words)),
                               StrokeNgramDict(labels, per_char), {},
                               TrainingConfig(dim=d, n_min=3, n_max=3))
        p = tmp_path / "m.dwe"
        save_checkpoint(ckpt, p)
        size = os.path.getsize(p)
        read = 4 * (ckpt.tables.word_id_vecs.size + ckpt.tables.ngram_vecs.size
                    + sum(a.size for _, a in ckpt.cnn.tensors()))
        del ckpt
        code = textwrap.dedent("""
            import sys
            from dwe.evaluation import Evaluator
            from dwe.trainer import load_checkpoint

            def status():
                with open("/proc/self/status") as fh:
                    return {k: int(v.split()[0]) * 1024
                            for k, v in (line.split(":", 1) for line in fh)
                            if k in ("RssAnon", "VmRSS", "VmHWM")}

            before = status()
            ckpt = load_checkpoint(sys.argv[1])
            loaded = status()
            Evaluator(ckpt)
            built = status()
            print(loaded["RssAnon"] - before["RssAnon"], built["VmHWM"] - before["VmRSS"])
        """)
        src = os.path.dirname(os.path.dirname(trainer_module.__file__))
        out = subprocess.run([sys.executable, "-c", code, str(p)], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        anon_growth, peak_growth = map(int, out.stdout.split())
        # The context table and the accumulators are half the file (27.5 MB).
        assert anon_growth < 0.1 * size
        # 24 MB covers the load's own allocations (about 2.4 MB), the
        # Evaluator's arrays and CNN buffers (a 12 MB peak under tracemalloc)
        # and pages the kernel maps around a read.
        assert peak_growth < read + 24e6


class TestExport:
    def test_line_count(self, trained, tmp_path):
        p = tmp_path / "v.txt"
        export_vectors(trained, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"{len(trained.vocab)} {trained.config.dim}"
        assert len(lines) == len(trained.vocab) + 1

    def test_reimport_cosines_close(self, trained, tmp_path):
        p = tmp_path / "v.txt"
        export_vectors(trained, p, which="composed")
        tokens, M = load_vectors(p)
        ev = Evaluator(trained, which="composed")
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j = rng.integers(0, len(tokens), 2)
            exact = ev.matrix[i] @ ev.matrix[j] / (
                np.linalg.norm(ev.matrix[i]) * np.linalg.norm(ev.matrix[j]))
            approx = M[i] @ M[j] / (np.linalg.norm(M[i]) * np.linalg.norm(M[j]))
            assert abs(exact - approx) < 1e-5

    def test_word_id_export_equals_composed_when_channels_off(self, synth_data, tmp_path):
        cfg = small_config(use_ngrams=False, use_glyphs=False, epochs=1)
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                     synth_data.glyphs_path, cfg, log=None)
        p1, p2 = tmp_path / "c.txt", tmp_path / "w.txt"
        export_vectors(ckpt, p1, which="composed")
        export_vectors(ckpt, p2, which="word_id")
        assert p1.read_text(encoding="utf-8") == p2.read_text(encoding="utf-8")

    def test_components_written_as_six_decimals(self, tmp_path):
        ckpt = handmade_checkpoint()
        ckpt.tables.word_id_vecs[:] = np.array(
            [0.0, -0.0, 1e-45, -1e-45, 1e30, -3.4e38, 5e-7, -5e-7, 1.5e-6, 1.2345675,
             np.nan, np.inf, -np.inf, 123456.7890625, 2.5e-7], dtype=np.float32).reshape(3, 5)
        p = tmp_path / "v.txt"
        export_vectors(ckpt, p, which="word_id")
        assert p.read_text(encoding="utf-8").splitlines() == [
            "3 5",
            "中国 0.000000 -0.000000 0.000000 -0.000000 1000000015047466219876688855040.000000",
            "人 -339999995214436424907732413799364296704.000000 0.000000 -0.000000 0.000002 "
            "1.234568",
            "日本 nan inf -inf 123456.789062 0.000000"]

    def test_invalid_which(self, trained, tmp_path):
        with pytest.raises(ValueError):
            export_vectors(trained, tmp_path / "x.txt", which="bogus")

    def test_failed_export_leaves_old_file(self, trained, tmp_path, monkeypatch):
        p = tmp_path / "v.txt"
        export_vectors(trained, p)
        old = p.read_bytes()
        write_rows = trainer_module._write_rows

        def full_disk(fh, tokens, rows):  # fails after some rows are written
            write_rows(fh, tokens[:3], rows[:3])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(trainer_module, "_write_rows", full_disk)
        for path in (p, tmp_path / "new.txt"):
            with pytest.raises(OSError, match="No space left"):
                export_vectors(trained, path, which="word_id")
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["v.txt"]


def formatted(tokens: list[str], rows: np.ndarray) -> bytes:
    """The rows as the format string writes them: the reference of _write_rows."""
    fmt = "%s" + " %.6f" * rows.shape[1] + "\n"
    return "".join(fmt % (t, *r.tolist()) for t, r in zip(tokens, rows)).encode()


def written(rows: np.ndarray) -> tuple[bytes, bytes]:
    """(_write_rows' bytes, the format string's) of rows with tokens 词0, 词1, ..."""
    tokens = [f"词{i}" for i in range(len(rows))]
    fh = io.BytesIO()
    _write_rows(fh, tokens, rows)
    return fh.getvalue(), formatted(tokens, rows)


def float32_bits(*values) -> list[int]:
    return np.array(values, np.float32).view(np.uint32).tolist()


# ±0, the extreme subnormals, the smallest normal, the float32 maximum,
# the values around FORMAT_LIMIT, quiet and signalling nans and ±inf
SPECIAL_BITS = [b | sign for sign in (0, 1 << 31) for b in (
    0, 1, 0x007FFFFF, 0x00800000, 0x7F7FFFFF, *float32_bits(FORMAT_LIMIT),
    float32_bits(FORMAT_LIMIT)[0] - 1, 0x7FC00000, 0x7F800001, 0x7F800000)]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rows_are_the_format_strings_bytes(data):
    # any float32 bit pattern, the special values, and ties at m/128, where
    # '%.6f' rounds half to even
    r, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    element = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(SPECIAL_BITS),
                        st.integers(-2**24, 2**24).map(lambda m: float32_bits(m / 128)[0]))
    bits = data.draw(st.lists(element, min_size=r * d, max_size=r * d))
    got, want = written(np.array(bits, np.uint32).view(np.float32).reshape(r, d))
    assert got == want


def test_rows_across_blocks_are_the_format_strings_bytes():
    # 2.5 blocks of rows: every magnitude that numpy formats, exact ties at
    # m/2**20, and a few rows with a non-finite or too large component
    rng = np.random.default_rng(8)
    n, d = FORMAT_BLOCK * 5 // 2, 12
    rows = (rng.normal(0, 1, (n, d)) * 10.0 ** rng.integers(-8, 12, (n, d))).astype(np.float32)
    rows[::7] = (rng.integers(-2**23, 2**23, (len(rows[::7]), d)) / 2**20).astype(np.float32)
    rows[5, 3], rows[FORMAT_BLOCK + 1, 0], rows[-1, -1] = np.nan, -np.inf, 2 * FORMAT_LIMIT
    got, want = written(rows)
    assert got == want
    got, want = written(rows.astype(np.float64))  # not float32: the format string
    assert got == want


class TestConfig:
    def test_round_trip_lines(self):
        cfg = small_config(alpha=0.75, use_glyphs=False, mode="hogwild", threads=4)
        assert TrainingConfig.from_lines(cfg.to_lines()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(dim=0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(n_min=4, n_max=3).validate()
        with pytest.raises(ValueError):
            TrainingConfig(mode="warp").validate()
        with pytest.raises(ValueError):
            TrainingConfig(alpha=2.0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(mode="deterministic", threads=2).validate()

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("subsample", -0.5),
        ("subsample", float("nan")), ("subsample", float("inf")), ("threads", 0),
        ("threads", -3), ("seed", -1)])
    def test_rejects_values_that_cannot_train(self, field, value, tmp_path):
        cfg = replace(small_config(), **{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()
        ckpt = handmade_checkpoint()
        ckpt.config = replace(ckpt.config, **{field: value})
        p = tmp_path / "x.dwe"
        save_checkpoint(ckpt, p)
        with pytest.raises(CheckpointError, match="bad config section"):
            load_checkpoint(p)

    def test_default_hyperparameters(self):
        cfg = TrainingConfig()
        assert (cfg.dim, cfg.lr, cfg.batch_size) == (300, 0.05, 4096)
        assert (cfg.n_min, cfg.n_max) == (3, 6)
        assert cfg.alpha == 1.0 and cfg.window == 5 and cfg.negatives == 5
