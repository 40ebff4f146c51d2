"""Each reference agrees with the program on small inputs and flags a
perturbed output.

    python3 -m pytest perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import workloads
from inputs import CorpusSpec, make_corpus, make_queries
from spans import PER_LAYER, Tracer, install_tracing, layer_metrics
from dwe import evaluation, model, trainer
from dwe.corpus import context_pairs
from dwe.glyph_cnn import cnn_forward_batch, cnn_init
from dwe.model import DweModel


def test_direct_convolution_matches_program_cnn():
    rng = np.random.default_rng(0)
    params = cnn_init(1, 12, np.float64)
    bitmaps = rng.integers(0, 2, size=(5, 28, 28))
    got, _ = cnn_forward_batch(params, bitmaps)
    want = ref.cnn_forward_ref(dict(params.tensors()), bitmaps)
    assert ref.check_matrix("cnn", got, want, rtol=1e-12) == []
    got[2, 3] += 1e-3 * np.abs(want[2]).max()
    assert ref.check_matrix("cnn", got, want, rtol=1e-5)


def test_composition_matches_compose_word(tiny_ckpt):
    m = tiny_ckpt.model()
    got = np.stack([m.compose_word(w).vector for w in tiny_ckpt.vocab.words])
    want = ref.RefModel.from_checkpoint(tiny_ckpt).compose(range(len(tiny_ckpt.vocab)))
    assert ref.check_matrix("compose", got, want, rtol=1e-5) == []
    got[4] *= 1.001
    assert ref.check_matrix("compose", got, want, rtol=1e-5)


@pytest.mark.parametrize("window", [1, 2, 3, 5])
def test_pair_count_closed_form(window):
    for n in range(1, 15):
        count = len(list(context_pairs(list(range(n)), window)))
        assert ref.pairs_in_sentence(n, window) == count
    assert ref.pairs_in_sentence(9, window) != count + 1


def test_objective_and_gradients_agree_and_flag_perturbation(tiny_ckpt, monkeypatch):
    cfg = tiny_ckpt.config
    rng = np.random.default_rng(1)
    V = len(tiny_ckpt.vocab)
    c, x = rng.integers(0, V, 16), rng.integers(0, V, 16)
    n = rng.integers(0, V, (16, cfg.negatives))
    init = trainer.init_checkpoint(tiny_ckpt.vocab, tiny_ckpt.ngram_dict, tiny_ckpt.glyphs, cfg)
    assert workloads.check_objective(init, tiny_ckpt, c, x, n, seed=0) == []

    original = DweModel.batch_loss_and_grads

    def off_loss(self, *a):
        loss, grads = original(self, *a)
        return loss + 1e-3, grads

    monkeypatch.setattr(DweModel, "batch_loss_and_grads", off_loss)
    errors = workloads.check_objective(init, tiny_ckpt, c, x, n, seed=0)
    assert any("program loss" in e for e in errors)

    def off_grad(self, *a):
        loss, grads = original(self, *a)
        grads.ngram_rows *= 1.01
        grads.cnn.fc1_w += 1e-3
        return loss, grads

    monkeypatch.setattr(DweModel, "batch_loss_and_grads", off_grad)
    errors = workloads.check_objective(init, tiny_ckpt, c, x, n, seed=0)
    assert any(e.startswith("ngram") for e in errors)
    assert any(e.startswith("cnn.fc1_w") for e in errors)


@pytest.fixture(scope="module")
def tiny_queries(tiny_ckpt):
    ev = evaluation.Evaluator(tiny_ckpt)
    qr = ref.QueryReference(ref.RefModel.from_checkpoint(tiny_ckpt))
    q = make_queries(2, tiny_ckpt.vocab.words, 20, 20, 30, oov_share=0.3)
    return ev, qr, q


def test_neighbors_match_brute_force(tiny_queries):
    ev, qr, q = tiny_queries
    words = qr.r.words
    assert any(t not in ev.vocab.id_of for t in q.nn), "some queries are OOV"
    for tok in q.nn:
        got = ev.nearest_neighbors(tok, 5)
        assert ref.check_neighbors(tok, got, qr.unit @ qr.unit_vec(tok), qr.allowed(tok),
                                   words, 5) == []
    tok = q.nn[0]
    got = ev.nearest_neighbors(tok, 5)
    last = ev.nearest_neighbors(tok, len(words))[-1]
    assert ref.check_neighbors(tok, [last] + got[1:], qr.unit @ qr.unit_vec(tok),
                               qr.allowed(tok), words, 5)


@pytest.mark.parametrize("method", ["3cosadd", "3cosmul"])
def test_analogies_match_brute_force(tiny_queries, method):
    ev, qr, q = tiny_queries
    solve = ev.analogy_3cosadd if method == "3cosadd" else ev.analogy_3cosmul
    for a, b, h in q.analogies:
        scores = ref.analogy_scores(qr.unit, qr.unit_vec(a), qr.unit_vec(b), qr.unit_vec(h),
                                    method)
        got = solve(a, b, h)
        assert ref.check_argmax("x", got, scores, qr.allowed(a, b, h), qr.r.words) == []
    worst = qr.r.words[int(np.argmin(np.where(qr.allowed(a, b, h), scores, np.inf)))]
    assert ref.check_argmax("x", worst, scores, qr.allowed(a, b, h), qr.r.words)


def test_spearman_matches_scipy(tiny_queries):
    ev, _, q = tiny_queries
    records = [evaluation.SimilarityRecord(a, b, s) for a, b, s in q.similarity]
    rho, _ = ev.eval_similarity(records)
    sims = [ev.similarity(x.word_a, x.word_b) for x in records]
    human = [x.human_score for x in records]
    assert ref.check_spearman(rho, sims, human) == []
    assert ref.check_spearman(rho + 1e-6, sims, human)


def test_export_reload_matches_reference(tiny_ckpt, tmp_path):
    path = tmp_path / "v.txt"
    trainer.export_vectors(tiny_ckpt, path)
    tokens, M = ref.read_word2vec_text(path)
    R = ref.RefModel.from_checkpoint(tiny_ckpt).compose(range(len(tokens)))
    assert tokens == tiny_ckpt.vocab.words
    assert ref.check_matrix("export", M, R, rtol=1e-5, atol=5.1e-7) == []
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[3].split(" ")
    parts[2] = f"{float(parts[2]) + 1e-3:.6f}"
    lines[3] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, M = ref.read_word2vec_text(path)
    assert ref.check_matrix("export", M, R, rtol=1e-5, atol=5.1e-7)


def test_twin_characters_have_identical_strokes_and_different_glyphs(tmp_path):
    files = make_corpus(tmp_path, seed=9, spec=CorpusSpec(20, 40, 10, 4, 8))
    a, b = files.twin_chars
    assert files.strokes[a] == files.strokes[b]
    assert any(a in s for s in files.sentences) and any(b in s for s in files.sentences)


def test_training_workload_checks_pass_and_flag_wrong_pair_counts(tmp_path):
    w = workloads.StrokeTrain("t", dict(dim=8, batch_size=256, min_count=1, negatives=3,
                                        window=2, use_glyphs=False), epochs=2, setup_reps=1)
    w.spec = CorpusSpec(n_chars=40, n_word_types=120, n_sentences=60, min_len=4, max_len=12)
    plan = json.loads(json.dumps(w.prepare(tmp_path, seed=4)))
    m = workloads.measure(w, plan, 1e-9, None)
    assert w.check(plan, m) == []
    m["rounds"][0]["epochs"][1]["pairs"] += 1
    m["losses"][3] = 0.5
    errors = w.check(plan, m)
    assert any("closed form" in e for e in errors)
    assert any("finite and <= 0" in e for e in errors)


def test_tracing_restores_names_and_epoch_time_adds_up(tmp_path):
    w = workloads.GlyphTrain("g", dict(dim=8, batch_size=256, min_count=1, negatives=2,
                                       window=2), epochs=1, setup_reps=1)
    plan = json.loads(json.dumps(w.prepare(tmp_path, seed=2)))
    before = (model.cnn_forward_batch, trainer.train_checkpoint, trainer._epoch_batches,
              DweModel.__dict__["batch_loss_and_grads"], evaluation.Evaluator.__init__)
    tracer = Tracer()
    m = workloads.measure(w, plan, 1e-9, tracer)
    after = (model.cnn_forward_batch, trainer.train_checkpoint, trainer._epoch_batches,
             DweModel.__dict__["batch_loss_and_grads"], evaluation.Evaluator.__init__)
    assert before == after
    layers = m["layers"]
    assert set(layers) == set(PER_LAYER)
    parts = (layers["model.loss_grads_self_s"] + layers["glyph_cnn.forward_s"]
             + layers["glyph_cnn.backward_s"] + layers["model.adagrad_s"]
             + layers["trainer.batching_s"] + layers["trace.unattributed_s"])
    assert parts == pytest.approx(layers["trainer.epochs_s"], rel=1e-9)
    assert layers["corpus.pairs"] == plan["pairs_per_epoch"]
    assert layers["glyph_cnn.glyphs_forwarded"] > 0
    assert 0 < layers["trainer.batching_s"] < layers["trainer.epochs_s"]


def test_tracer_refuses_unknown_names():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.wrap(trainer, "no_such_function", "x")
    install_tracing(tracer)
    tracer.restore()
    assert not hasattr(trainer.train_checkpoint, "__wrapped__")
    empty = layer_metrics(tracer, [], [], n_chars=0, overhead_pct=0.0)
    assert set(empty) == set(PER_LAYER) and not any(empty.values())


def test_normalisation_scales_to_the_reference_speed():
    from calibrate import REFERENCE_S, calibrate
    # on a machine running at half the reference speed the kernel takes
    # twice as long: rates measured there double, times halve
    assert workloads.scaled(1.0, 2 * REFERENCE_S) == pytest.approx(0.5)
    samples = [(100, 1.0, 2 * REFERENCE_S), (300, 1.0, REFERENCE_S)]
    assert workloads.total_rate(samples) == pytest.approx(400 / 1.5)
    assert workloads.total_rate(samples, scale=False) == pytest.approx(200.0)
    assert workloads.median_rate(samples) == pytest.approx(250.0)
    assert calibrate() > 0


@pytest.mark.parametrize("n, pct", [(39, 0.0), (40, 75.0), (99, 75.0), (100, 90.0),
                                    (480, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    from spans import tail_percentile
    assert tail_percentile(n) == pct



def test_peak_rss_is_the_measuring_process_own():
    # the measuring process is started by a parent that may hold hundreds
    # of MB; its peak must not include the parent's
    bench = Path(workloads.__file__).resolve().parent
    held = np.ones(40_000_000)  # 320 MB in this process
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import workloads; "
            "print(workloads.peak_rss_mb())")
    out = subprocess.run([sys.executable, "-c", code, str(bench.parent / "src"), str(bench)],
                         capture_output=True, text=True, check=True)
    assert held[-1] == 1.0
    assert float(out.stdout) < 200.0
