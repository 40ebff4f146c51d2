import numpy as np
import pytest

from dwe.evaluation import Evaluator
from dwe.trainer import (Checkpoint, CheckpointError, ConfigMismatchError,
                         TrainingConfig, dump_checkpoint, export_vectors,
                         load_checkpoint, load_vectors, save_checkpoint, train)


def small_config(**kw):
    base = dict(dim=12, batch_size=256, epochs=2, min_count=1, negatives=3,
                window=3, seed=5)
    base.update(kw)
    return TrainingConfig(**base)


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
        cfg = small_config(mode="hogwild", threads=3, epochs=1)
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                     synth_data.glyphs_path, cfg, log=None)
        assert np.isfinite(ckpt.tables.word_id_vecs).all()
        assert ckpt.step > 0

    def test_resume_config_mismatch(self, synth_data, trained, tmp_path):
        p = tmp_path / "m.dwe"
        save_checkpoint(trained, p)
        with pytest.raises(ConfigMismatchError):
            train(synth_data.corpus_path, synth_data.strokes_path,
                  synth_data.glyphs_path, small_config(dim=300),
                  resume=load_checkpoint(p), log=None)

    def test_resume_continues(self, synth_data, trained, tmp_path):
        cfg = small_config(epochs=1)
        ckpt = train(synth_data.corpus_path, synth_data.strokes_path,
                     synth_data.glyphs_path, cfg, resume=trained, log=None)
        assert ckpt.epoch == trained.epoch + 1


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
        from dwe.cli import run
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

    def test_default_hyperparameters(self):
        cfg = TrainingConfig()
        assert (cfg.dim, cfg.lr, cfg.batch_size) == (300, 0.05, 4096)
        assert (cfg.n_min, cfg.n_max) == (3, 6)
        assert cfg.alpha == 1.0 and cfg.window == 5 and cfg.negatives == 5
