import hashlib
import io
import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dwe.cli import run
from dwe.corpus import NegativeSampler, Vocab, context_pairs
from dwe.evaluation import Evaluator
from dwe.glyph_cnn import CnnParams, cnn_init
from dwe.model import EmbeddingTables, Grads
from dwe.morphology import StrokeNgramDict
from dwe.trainer import (Accumulators, Checkpoint, CheckpointError, ConfigMismatchError,
                         TrainingConfig, TrainingDivergedError, _epoch_batches, apply_grads,
                         dump_checkpoint, export_vectors, init_checkpoint, load_checkpoint,
                         load_vectors, save_checkpoint, train)


def small_config(**kw):
    base = dict(dim=12, batch_size=256, epochs=2, min_count=1, negatives=3,
                window=3, seed=5)
    base.update(kw)
    return TrainingConfig(**base)


def handmade_checkpoint(dtype):
    """A checkpoint built without randomness: arange-filled arrays, two
    glyphs, a character with no n-grams and two skipped characters."""
    cfg = TrainingConfig(dim=5, n_min=3, n_max=4, min_count=1, seed=3, dtype=dtype)
    vocab = Vocab(["中国", "人", "日本"], np.array([7, 4, 2]), 13)
    ngram_dict = StrokeNgramDict({(0, 2, 5): 0, (2, 5, 33): 1, (0, 2, 5, 33): 2},
                                 {"中": [0, 1, 2], "国": [2], "人": []}, 3, 4, ["日", "本"])
    glyphs = {ch: (np.arange(784).reshape(28, 28) % k == 0).astype(np.uint8)
              for ch, k in (("中", 3), ("国", 5))}
    start = [0]

    def filled(shape):
        n = int(np.prod(shape))
        arr = (np.arange(start[0], start[0] + n) / 8).reshape(shape).astype(dtype)
        start[0] += n
        return arr

    def cnn():
        return CnnParams(*(filled(t.shape) for _, t in cnn_init(0, cfg.dim).tensors()))

    V, G, d = len(vocab), len(ngram_dict), cfg.dim
    tables = EmbeddingTables(filled((V, d)), filled((V, d)), filled((G, d)))
    params = cnn()
    accum = Accumulators(filled((V, d)), filled((V, d)), filled((G, d)), cnn())
    return Checkpoint(cfg, vocab, ngram_dict, glyphs, tables, params, accum,
                      epoch=2, step=17)


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
            acc.word_id, acc.context, acc.ngram, *(a for _, a in acc.cnn.tensors())]


def split_sections(blob):
    """The eight section payloads of a checkpoint."""
    off, payloads = 6, []
    while off < len(blob):
        size = int.from_bytes(blob[off:off + 8], "little")
        payloads.append(blob[off + 8:off + 8 + size])
        off += 8 + size
    return payloads


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
        assert (ckpt.accum.word_id == 0).all()
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
        assert (ck2.accum.word_id >= ck1.accum.word_id - 1e-7).all()
        assert (ck2.accum.context >= ck1.accum.context - 1e-7).all()
        assert (ck2.accum.ngram >= ck1.accum.ngram - 1e-7).all()

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
        ckpt = handmade_checkpoint("float64")
        lr, eps, g = 0.1, 1e-8, 0.5
        no_rows = (np.zeros(0, np.int64), np.zeros((0, ckpt.config.dim)))
        grads = Grads(*no_rows, *no_rows, *no_rows,
                      CnnParams(*(np.full_like(t, g) for _, t in ckpt.cnn.tensors())))
        held = dict(ckpt.cnn.tensors())
        values = {name: t.copy() for name, t in held.items()}
        acc = {name: t + g * g for name, t in ckpt.accum.cnn.tensors()}
        apply_grads(ckpt, grads, lr, eps)
        for name, new in ckpt.cnn.tensors():
            assert new is held[name]
            np.testing.assert_array_equal(getattr(ckpt.accum.cnn, name), acc[name])
            np.testing.assert_allclose(new, values[name] + lr * g / (np.sqrt(acc[name]) + eps),
                                       rtol=1e-12)

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
        assert back.ngram_dict.ngram_ids == trained.ngram_dict.ngram_ids
        assert back.epoch == trained.epoch and back.step == trained.step
        np.testing.assert_array_equal(
            back.tables.word_id_vecs, trained.tables.word_id_vecs)
        np.testing.assert_array_equal(back.accum.context, trained.accum.context)
        for (_, a), (_, b) in zip(back.cnn.tensors(), trained.cnn.tensors()):
            np.testing.assert_array_equal(a, b)
        for ch in trained.glyphs:
            np.testing.assert_array_equal(back.glyphs[ch], trained.glyphs[ch])

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


    # The v1 byte layout, pinned as the SHA-256 of each handmade checkpoint.
    @pytest.mark.parametrize("dtype, digest", [
        ("float32", "f3ddfbc1a8d691488d914f180b25cd73e5d03d41dd440b3f2b5ab7ed1c39bc35"),
        ("float64", "12d879c97fb3267d0dea3090a8ebda240cbfde6a6952804edb1d01d9355a36ca"),
    ])
    def test_format_pinned(self, dtype, digest, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint(dtype))
        assert hashlib.sha256(blob).hexdigest() == digest
        p = tmp_path / "m.dwe"
        p.write_bytes(blob)
        back = load_checkpoint(p)
        assert back.tables.ngram_vecs.dtype == np.dtype(dtype)
        assert dump_checkpoint(back) == blob

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
        ckpt = handmade_checkpoint("float32")
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
    ], ids=["empty-vocab", "empty-ngram-dict", "non-integer-config", "non-utf8-vocab",
            "counters-without-step", "ngram-id-out-of-range", "negative-ngram-id",
            "repeated-ngram-id", "duplicate-character", "duplicate-word", "zero-count",
            "negative-count", "duplicate-ngram", "negative-epoch"])
    def test_text_section_errors(self, section, edit, tmp_path):
        blob = dump_checkpoint(handmade_checkpoint("float32"))
        payloads = split_sections(blob)
        payloads[section] = edit(payloads[section])
        p = tmp_path / "x.dwe"
        p.write_bytes(join_sections(blob, payloads))
        with pytest.raises(CheckpointError, match=r"bad .* section"):
            load_checkpoint(p)
        assert run(["nn", "--model", str(p), "--word", "人"]) == 2

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

    def test_save_and_load_memory(self, tmp_path):
        V, G = 1500, 3000
        vocab = Vocab([f"w{i}" for i in range(V)], np.ones(V), V)
        ngram_dict = StrokeNgramDict({(i,): i for i in range(G)}, {}, 1, 1)
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

    def test_invalid_which(self, trained, tmp_path):
        with pytest.raises(ValueError):
            export_vectors(trained, tmp_path / "x.txt", which="bogus")


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
        ("lr", float("nan")), ("lr", float("inf")), ("eps", -1.0), ("eps", 0.0),
        ("eps", float("nan")), ("subsample", -0.5), ("subsample", float("nan")),
        ("subsample", float("inf")), ("threads", 0), ("threads", -3)])
    def test_rejects_values_that_cannot_train(self, field, value, tmp_path):
        cfg = replace(small_config(), **{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()
        ckpt = handmade_checkpoint("float32")
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
