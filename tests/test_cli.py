import numpy as np
import pytest

from dwe.cli import run
from dwe.trainer import TrainingConfig, load_checkpoint, save_checkpoint
from helpers import handmade_checkpoint, load_vectors


@pytest.fixture(scope="module")
def model_path(synth_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "model.dwe"
    code = run([
        "train",
        "--corpus", str(synth_data.corpus_path),
        "--strokes", str(synth_data.strokes_path),
        "--glyphs", str(synth_data.glyphs_path),
        "--out", str(out),
        "--dim", "12", "--batch", "256", "--epochs", "2",
        "--min-count", "1", "--negatives", "3", "--window", "3", "--seed", "5",
    ])
    assert code == 0
    return out


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(["train", "--bogus-flag"]) == 1
        assert "dwe:" in capsys.readouterr().err

    def test_unknown_subcommand_is_1(self):
        assert run(["frobnicate"]) == 1

    def test_data_error_is_2(self, capsys, tmp_path):
        assert run(["nn", "--model", str(tmp_path / "missing.dwe"),
                    "--word", "x"]) == 2
        assert "dwe:" in capsys.readouterr().err

    def test_bad_corpus_is_2(self, synth_data, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        assert run(["train", "--corpus", str(empty),
                    "--strokes", str(synth_data.strokes_path),
                    "--glyphs", str(synth_data.glyphs_path),
                    "--out", str(tmp_path / "m.dwe")]) == 2

    def test_untrainable_config_is_2(self, tmp_path, capsys):
        # refused before any input is read or the output is written
        missing = str(tmp_path / "missing")
        args = ["train", "--corpus", missing, "--strokes", missing, "--glyphs", missing,
                "--out", str(tmp_path / "m.dwe"), "--lr", "nan"]
        for extra in ([], ["--resume", missing]):
            assert run(args + extra) == 2
            assert "lr must be finite" in capsys.readouterr().err
            assert not (tmp_path / "m.dwe").exists()

    def test_negative_seed_is_2_before_any_input_is_read(self, tmp_path, capsys):
        # numpy would refuse the seed only after the inputs were read, without naming it
        missing = str(tmp_path / "missing")
        args = ["train", "--corpus", missing, "--strokes", missing, "--glyphs", missing,
                "--out", str(tmp_path / "m.dwe"), "--seed", "-1"]
        for extra in ([], ["--resume", missing]):
            assert run(args + extra) == 2
            err = capsys.readouterr().err
            assert "seed must be >= 0" in err and "missing" not in err
            assert not (tmp_path / "m.dwe").exists()

    @pytest.mark.parametrize("table, row, value, which, named", [
        ("word_id_vecs", 1, np.inf, "composed", "word '人'"),
        ("word_id_vecs", 1, np.inf, "word_id", "word '人'"),
        ("ngram_vecs", 2, np.nan, "composed", "word '中国'"),
        ("ngram_vecs", 2, np.nan, "word_id", "character '中'")])
    def test_non_finite_vectors_are_2(self, tmp_path, capsys, table, row, value, which, named):
        ckpt = handmade_checkpoint()
        getattr(ckpt.tables, table)[row, 0] = value
        path = tmp_path / "m.dwe"
        save_checkpoint(ckpt, path)
        assert run(["nn", "--model", str(path), "--word", "人", "--which", which]) == 2
        assert f"{named} has a non-finite vector" in capsys.readouterr().err

    def test_help_is_0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()
        assert run(["train", "--help"]) == 0

    def test_threads_need_no_glyphs(self, synth_data, tmp_path, capsys):
        args = ["train", "--corpus", str(synth_data.corpus_path),
                "--strokes", str(synth_data.strokes_path),
                "--glyphs", str(synth_data.glyphs_path), "--out", str(tmp_path / "m.dwe"),
                "--dim", "12", "--batch", "256", "--epochs", "1", "--min-count", "1",
                "--threads", "2"]
        assert run(args) == 2
        assert "--no-glyphs" in capsys.readouterr().err
        assert not (tmp_path / "m.dwe").exists()
        # the flag conflict is reported before the corpus is opened
        assert run(["train", "--corpus", str(tmp_path / "missing.txt")] + args[3:]) == 2
        assert "--no-glyphs" in capsys.readouterr().err
        # and before the checkpoint to resume from is opened
        assert run(args + ["--resume", str(tmp_path / "missing.dwe")]) == 2
        assert "--no-glyphs" in capsys.readouterr().err
        assert not (tmp_path / "m.dwe").exists()
        assert run(args + ["--no-glyphs"]) == 0
        assert load_checkpoint(tmp_path / "m.dwe").config.threads == 2

    def test_resume_refuses_a_channel_switch(self, synth_data, model_path, tmp_path, capsys):
        # the saved file would compose without the channel it was trained with
        resume = tmp_path / "m.dwe"
        resume.write_bytes(model_path.read_bytes())
        args = ["train", "--corpus", str(synth_data.corpus_path),
                "--strokes", str(synth_data.strokes_path),
                "--glyphs", str(synth_data.glyphs_path), "--out", str(resume),
                "--resume", str(resume), "--dim", "12", "--batch", "256", "--epochs", "1",
                "--min-count", "1", "--negatives", "3", "--window", "3", "--seed", "5"]
        for switch, key in (("--no-glyphs", "use_glyphs"), ("--no-strokes", "use_ngrams")):
            assert run(args + [switch]) == 2
            assert f"checkpoint has {key}=True, requested False" in capsys.readouterr().err
            assert resume.read_bytes() == model_path.read_bytes()


class TestHelpDefaults:
    @pytest.mark.parametrize("sub", ["train", "eval-sim", "eval-analogy",
                                     "nn", "export", "inspect"])
    def test_every_subcommand_has_help(self, sub, capsys):
        assert run([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_train_defaults_match_config(self, capsys):
        run(["train", "--help"])
        out = capsys.readouterr().out
        cfg = TrainingConfig()
        for flag, value in [("--dim", cfg.dim), ("--lr", cfg.lr),
                            ("--batch", cfg.batch_size), ("--window", cfg.window),
                            ("--negatives", cfg.negatives), ("--alpha", cfg.alpha),
                            ("--epochs", cfg.epochs), ("--min-count", cfg.min_count),
                            ("--n-min", cfg.n_min), ("--n-max", cfg.n_max)]:
            assert flag in out
            assert f"default: {value}" in out

    def test_threads_and_deterministic_exclusive(self):
        assert run(["train", "--corpus", "c", "--strokes", "s", "--glyphs", "g",
                    "--out", "o", "--threads", "2", "--deterministic"]) == 1


class TestPipeline:
    def test_train_writes_checkpoint(self, model_path):
        ckpt = load_checkpoint(model_path)
        assert ckpt.epoch == 2

    def test_eval_sim_tsv(self, model_path, synth_data, tmp_path, capsys):
        ckpt = load_checkpoint(model_path)
        words = ckpt.vocab.words
        data = tmp_path / "ws.tsv"
        data.write_text("".join(f"{words[i]}\t{words[i+1]}\t{i}.0\n"
                                for i in range(4)), encoding="utf-8")
        assert run(["eval-sim", "--model", str(model_path),
                    "--data", str(data)]) == 0
        out = capsys.readouterr().out
        fields = out.strip().split("\t")
        assert fields[0] == "spearman_rho"
        assert -1.0 <= float(fields[2]) <= 1.0
        assert float(fields[3]) == 1.0

    def test_eval_sim_non_finite_score_is_error(self, model_path, tmp_path, capsys):
        words = load_checkpoint(model_path).vocab.words
        data = tmp_path / "ws.tsv"
        data.write_text(f"{words[0]}\t{words[1]}\t1.0\n{words[2]}\t{words[3]}\tinf\n",
                        encoding="utf-8")
        assert run(["eval-sim", "--model", str(model_path), "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert f"{data}:2: score 'inf' is not finite" in captured.err
        assert captured.out == ""

    def test_eval_sim_score_not_a_number_is_error(self, model_path, tmp_path, capsys):
        words = load_checkpoint(model_path).vocab.words
        data = tmp_path / "ws.tsv"
        data.write_text(f"{words[0]}\t{words[1]}\t1.0\n{words[2]}\t{words[3]}\tabc\n",
                        encoding="utf-8")
        assert run(["eval-sim", "--model", str(model_path), "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert f"{data}:2: score 'abc' is not a number" in captured.err
        assert captured.out == ""

    def test_eval_analogy_json(self, model_path, tmp_path, capsys):
        import json
        ckpt = load_checkpoint(model_path)
        w = ckpt.vocab.words
        data = tmp_path / "an.txt"
        data.write_text(f": family\n{w[0]} {w[1]} {w[2]} {w[3]}\n", encoding="utf-8")
        assert run(["eval-analogy", "--model", str(model_path),
                    "--data", str(data), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        metrics = {r["metric"] for r in rows}
        assert metrics == {"3cosadd", "3cosmul"}
        assert {r["group"] for r in rows} == {"family", "total"}

    def test_nn_deterministic(self, model_path, synth_data, capsys):
        word = synth_data.words[0]
        assert run(["nn", "--model", str(model_path), "--word", word,
                    "--k", "5"]) == 0
        first = capsys.readouterr().out
        assert run(["nn", "--model", str(model_path), "--word", word,
                    "--k", "5"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 5

    def test_export(self, model_path, tmp_path):
        out = tmp_path / "vec.txt"
        assert run(["export", "--model", str(model_path),
                    "--out", str(out), "--which", "word_id"]) == 0
        tokens, M = load_vectors(out)
        ckpt = load_checkpoint(model_path)
        assert tokens == ckpt.vocab.words
        np.testing.assert_allclose(M, ckpt.tables.word_id_vecs, atol=1e-6)

    def test_inspect(self, synth_data, capsys):
        char = synth_data.twin_chars[0]
        assert run(["inspect", "--strokes", str(synth_data.strokes_path),
                    "--glyphs", str(synth_data.glyphs_path),
                    "--char", char]) == 0
        out = capsys.readouterr().out
        assert "strokes\t" in out and "ngrams\t" in out
        # 28 rows of ascii art at the end
        art = [l for l in out.splitlines() if set(l) <= {"#", "."} and l]
        assert len(art) == 28

    def test_inspect_multi_char_is_error(self, synth_data):
        assert run(["inspect", "--strokes", str(synth_data.strokes_path),
                    "--char", "ab"]) == 2
