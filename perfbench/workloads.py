"""The benchmark workloads.

A workload has three parts, which run in different processes:

* `prepare` (parent, untimed) writes the inputs made from the seed and
  returns a JSON-able plan.
* `setup` and `round` (child) are timed by `measure`: `setup_reps`
  set-ups, then whole rounds of the same operations until `seconds` of
  round time have passed.
* `check` (parent, untimed) compares what the child left behind with
  the independent references in `reference.py`.

The program is driven only through `train`, `save_checkpoint`,
`load_checkpoint`, `Evaluator` and `export_vectors`, always looked up on
their modules at call time, so that the tracer can wrap them.
"""
from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import reference as ref
from inputs import CorpusSpec, make_corpus, make_queries, write_similarity
from calibrate import REFERENCE_S, calibrate
from spans import Tracer, install_tracing, layer_metrics
from dwe import evaluation, trainer
from dwe.model import DweModel
from dwe.synthetic import make_synthetic_dataset

now = time.perf_counter


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MB.

    On Linux it is VmHWM, the peak of the process's own address space.
    `ru_maxrss` is not used there: across fork and exec it keeps the
    parent's peak, and the parent has prepared inputs of hundreds of MB.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def top_spans(tracer: Tracer, first: int, name: str) -> list[int]:
    return [i for i in range(first, len(tracer.spans))
            if tracer.spans[i][3] == -1 and tracer.names[tracer.spans[i][0]] == name]


def scaled(seconds: float, cal: float) -> float:
    """A time measured with calibration `cal`, scaled to the reference speed."""
    return seconds * REFERENCE_S / cal


def total_rate(samples, scale: bool = True) -> float:
    """Operations per second over all (operations, seconds, calibration)
    samples pooled: total operations over total time."""
    total = sum(scaled(t, c) if scale else t for _, t, c in samples)
    return sum(n for n, _, _ in samples) / total if total else 0.0


def median_rate(samples, scale: bool = True) -> float:
    """Median over (operations, seconds, calibration) samples of their rate."""
    if not samples:
        return 0.0
    return statistics.median(n / (scaled(t, c) if scale else t) for n, t, c in samples)


def measure(w, plan: dict, seconds: float, tracer: Tracer | None) -> dict:
    """Time set-ups and rounds of workload `w`; trace them if `tracer` is set.

    Untraced, each set-up and round is paired with the calibrations
    taken just before and just after it (training recalibrates between
    steps instead), and the figures are reported both as measured and
    normalised. Peak memory is read at the end of the first round. A
    traced run skips calibration: it first runs one untraced round, the
    baseline for the tracing overhead, then a traced set-up and traced
    rounds.
    """
    calibrated = tracer is None
    pre = w.load_inputs(plan)
    setups, cals, state = [], [], None
    for _ in range(plan["setup_reps"]):
        state = None  # release the previous state before building the next
        cals.append(calibrate() if calibrated else REFERENCE_S)
        t0 = now()
        state = w.setup(plan, pre)
        setups.append(now() - t0)
    cals.append(calibrate() if calibrated else REFERENCE_S)
    # each set-up is scaled by the mean of the calibrations that bracket it
    out = {"setup_s": statistics.median(scaled(t, (c + a) / 2)
                                        for t, c, a in zip(setups, cals, cals[1:])),
           "setup_raw_s": statistics.median(setups)}

    def rounds_for(limit: float, traced: bool) -> list[dict]:
        rounds, spent = [], 0.0
        while not rounds or spent < limit:
            cal = calibrate() if calibrated else REFERENCE_S
            t0 = now()
            with tracer.span("bench.round") if traced else nullcontext():
                rounds.append(dict(w.round(state, plan, pre), cal=cal))
            rounds[-1]["peak_rss_mb"] = peak_rss_mb()
            spent += now() - t0
        return rounds

    if tracer is None:
        with w.recording(calibrated):
            rounds = rounds_for(seconds, traced=False)
        samples = w.samples(rounds)
        out.update(rounds=rounds, throughput=w.rate(samples),
                   throughput_raw=w.rate(samples, scale=False),
                   peak_rss_mb=rounds[0]["peak_rss_mb"])
    else:
        with w.recording(calibrated):
            base = rounds_for(0.0, traced=False)
            install_tracing(tracer)
            try:
                first = len(tracer.spans)
                if w.trace_setup:
                    with tracer.span("bench.setup"):
                        state = w.setup(plan, pre)
                traced = rounds_for(seconds, traced=True)
            finally:
                tracer.restore()
            untraced_tp = w.rate(w.samples(base), scale=False)
            traced_tp = w.rate(w.samples(traced), scale=False)
            rounds = base + traced
            out.update(rounds=rounds, layers=layer_metrics(
                tracer, top_spans(tracer, first, "bench.setup"),
                top_spans(tracer, first, "bench.round"), w.n_chars(state, plan),
                overhead_pct=100.0 * (untraced_tp / traced_tp - 1.0)))
    out.update(w.outputs(state, plan, pre, rounds))
    return out


# -- training --------------------------------------------------------------------

class EpochLog:
    """A `log` stream for `train` that keeps its `epoch=` progress lines."""

    def __init__(self):
        self.epochs: list[dict] = []

    def write(self, text: str) -> None:
        for line in text.splitlines():
            if line.startswith("epoch="):
                fields = dict(part.split("=", 1) for part in line.split())
                self.epochs.append({"loss": float(fields["loss"]),
                                    "pairs": int(fields["pairs"])})

    def flush(self) -> None:
        pass


RECALIBRATE_EVERY_S = 1.0


@contextmanager
def recording_steps(out: list, calibrated: bool):
    """Record each return of batch_loss_and_grads.

    Appends (time of return, time training resumes, objective, pairs,
    calibration of the next step). The objectives let every step's loss
    be checked; the times split a round into steps. When `calibrated`,
    the hook recalibrates at most once a second, outside the timed step
    intervals, and once more when recording ends. A step's calibration
    is the mean of the two that bracket it in time. Otherwise the hook
    adds one Python call per step, under a microsecond against steps of
    tens of milliseconds.
    """
    original = DweModel.__dict__["batch_loss_and_grads"]
    state = {"cal": calibrate() if calibrated else REFERENCE_S,
             "next": now() + RECALIBRATE_EVERY_S, "since": len(out)}

    def recalibrate():
        cal = calibrate()
        mean = (state["cal"] + cal) / 2
        out[state["since"]:] = [step[:4] + (mean,) for step in out[state["since"]:]]
        state.update(cal=cal, next=now() + RECALIBRATE_EVERY_S, since=len(out))

    def recorded(self, centers, *args, **kwargs):
        result = original(self, centers, *args, **kwargs)
        t = now()
        if calibrated and t >= state["next"]:
            recalibrate()
        out.append((t, now(), float(result[0]), len(centers), state["cal"]))
        return result

    DweModel.batch_loss_and_grads = recorded
    try:
        yield
    finally:
        DweModel.batch_loss_and_grads = original
        if calibrated:
            recalibrate()


def corpus_sentences(path, min_count: int) -> list[list[str]]:
    """Sentences as the trainer sees them: tokens below min_count dropped,
    sentences left with fewer than two tokens skipped."""
    with open(path, encoding="utf-8") as fh:
        sents = [line.split() for line in fh if line.split()]
    counts: dict[str, int] = {}
    for s in sents:
        for t in s:
            counts[t] = counts.get(t, 0) + 1
    kept = [[t for t in s if counts[t] >= min_count] for s in sents]
    return [s for s in kept if len(s) >= 2]


class TrainWorkload:
    """Train `epochs` epochs from scratch, then save the checkpoint.

    Set-up is `train` with zero epochs: corpus and vocabulary, stroke
    table, glyph pack, n-gram dictionary, initial tables and model.
    Throughput is all pairs trained over the summed wall time of the
    timed steps. An operation is one training step.
    """

    trace_setup = False  # every round's `train` call already sets up

    def __init__(self, name: str, config: dict, epochs: int, setup_reps: int):
        self.name, self.config, self.epochs, self.setup_reps = name, config, epochs, setup_reps
        self.steps: list[tuple[float, float, float, int, float]] = []

    def inputs(self, work: Path, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, work: Path, seed: int) -> dict:
        plan = self.inputs(work, seed)
        cfg = dict(self.config, seed=seed)
        sents = corpus_sentences(plan["corpus"], cfg["min_count"])
        pairs = sum(ref.pairs_in_sentence(len(s), cfg["window"]) for s in sents)
        plan.update(config=cfg, epochs=self.epochs, setup_reps=self.setup_reps,
                    pairs_per_epoch=pairs,
                    steps_per_round=self.epochs * math.ceil(pairs / cfg["batch_size"]),
                    checkpoint=str(work / "model.dwe"))
        return plan

    def _train(self, plan: dict, epochs: int, log=None):
        cfg = trainer.TrainingConfig(**dict(plan["config"], epochs=epochs))
        return trainer.train(plan["corpus"], plan["strokes"], plan["glyphs"], cfg, log=log)

    def load_inputs(self, plan):
        return None

    def recording(self, calibrated: bool):
        return recording_steps(self.steps, calibrated)

    def setup(self, plan, pre):
        return self._train(plan, 0)

    def round(self, state, plan, pre) -> dict:
        log, first = EpochLog(), len(self.steps)
        try:
            ckpt = self._train(plan, plan["epochs"], log)
            trainer.save_checkpoint(ckpt, plan["checkpoint"])
        except Exception:  # the round's steps all count as failed
            traceback.print_exc()
            return {"ok": False, "ops": plan["steps_per_round"],
                    "failed": plan["steps_per_round"]}
        return {"ok": True, "ops": plan["steps_per_round"], "failed": 0,
                "steps": ckpt.step, "epochs": log.epochs, "first_step": first}

    rate = staticmethod(total_rate)

    def samples(self, rounds) -> list[tuple[int, float, float]]:
        """(pairs, seconds, calibration) for every timed step.

        A step's time runs from the moment training resumes after one
        loss and gradient call to the return of the next. It covers
        Adagrad on the previous gradients, batching, the end of an epoch
        when one falls there, and the loss and gradients. The steps tile
        the epochs, short last batches included, apart from the first
        step of each round, which follows set-up and is not timed.
        """
        samples = []
        for r in rounds:
            if r["ok"]:
                steps = self.steps[r["first_step"]:r["first_step"] + r["steps"]]
                samples += [(n, t - resumed, cal) for (_, resumed, _, _, cal), (t, _, _, n, _)
                            in zip(steps, steps[1:])]
        return samples

    @staticmethod
    def n_chars(state, plan) -> int:
        return len({c for w in state.vocab.words for c in w if ref.is_cjk_char(c)})

    def outputs(self, state, plan, pre, rounds) -> dict:
        return {"losses": [step[2] for step in self.steps]}

    def check(self, plan: dict, m: dict) -> list[str]:
        errors = []
        rounds = [r for r in m["rounds"] if r["ok"]]
        if not rounds:
            return ["no round finished"]
        for r in rounds:
            if len(r["epochs"]) != plan["epochs"]:
                errors.append(f"{len(r['epochs'])} epoch lines, expected {plan['epochs']}")
            for e in r["epochs"]:
                if e["pairs"] != plan["pairs_per_epoch"]:
                    errors.append(f"an epoch trained {e['pairs']} pairs, the closed form "
                                  f"gives {plan['pairs_per_epoch']}")
            if r["steps"] != plan["steps_per_round"]:
                errors.append(f"a round took {r['steps']} steps, expected "
                              f"{plan['steps_per_round']}")
        losses = np.array(m["losses"], dtype=np.float64)
        if len(losses) != plan["steps_per_round"] * len(m["rounds"]):
            errors.append(f"{len(losses)} step losses for {len(m['rounds'])} rounds of "
                          f"{plan['steps_per_round']} steps")
        elif not np.all(np.isfinite(losses)) or np.any(losses > 0):
            errors.append(f"step losses must be finite and <= 0, got range "
                          f"[{losses.min():.4g}, {losses.max():.4g}]")

        ckpt = trainer.load_checkpoint(plan["checkpoint"])
        init = self._train(plan, 0)
        batch = fixed_batch(plan, ckpt.vocab)
        errors += check_objective(init, ckpt, *batch, seed=plan["config"]["seed"])
        return errors + self.extra_checks(plan, ckpt)

    def extra_checks(self, plan, ckpt) -> list[str]:
        return []


class GlyphTrain(TrainWorkload):
    """Acceptance criterion 6's data set, for one training seed."""

    def inputs(self, work, seed):
        data = make_synthetic_dataset(work / "synth", seed=0)
        return {"corpus": str(data.corpus_path), "strokes": str(data.strokes_path),
                "glyphs": str(data.glyphs_path)}


class StrokeTrain(TrainWorkload):
    """A Chinese-like corpus trained with the stroke channel alone."""

    spec = CorpusSpec(n_chars=1500, n_word_types=8000, n_sentences=240,
                      min_len=8, max_len=24)

    def inputs(self, work, seed):
        files = make_corpus(work / "corpus", seed, self.spec)
        return {"corpus": str(files.corpus_path), "strokes": str(files.strokes_path),
                "glyphs": str(files.glyphs_path), "twins": list(files.twin_chars)}

    def extra_checks(self, plan, ckpt):
        model = ckpt.model()
        a, b = (model.char_feature(c) for c in plan["twins"])
        if a.tobytes() != b.tobytes():
            return [f"identical-stroke characters {plan['twins']} have different "
                    f"features (max diff {np.abs(a - b).max():.3g})"]
        if not np.any(a):
            return ["identical-stroke characters have all-zero features"]
        return []


def fixed_batch(plan: dict, vocab, size: int = 64):
    """A seeded batch of real corpus pairs with unigram-drawn negatives."""
    cfg = plan["config"]
    rng = np.random.default_rng([cfg["seed"], 11])
    sents = corpus_sentences(plan["corpus"], cfg["min_count"])
    centers, contexts = [], []
    while len(centers) < size:
        s = sents[int(rng.integers(len(sents)))]
        i = int(rng.integers(len(s)))
        lo, hi = max(0, i - cfg["window"]), min(len(s) - 1, i + cfg["window"])
        j = int(rng.choice([k for k in range(lo, hi + 1) if k != i]))
        centers.append(vocab.id_of[s[i]])
        contexts.append(vocab.id_of[s[j]])
    p = vocab.counts / vocab.counts.sum()
    negatives = rng.choice(len(p), size=(size, cfg["negatives"]), p=p)
    return np.array(centers), np.array(contexts), negatives


class SparseGrad:
    """Reads one coordinate of a sparse (ids, rows) gradient; absent rows are 0."""

    def __init__(self, ids, rows):
        self.rows = dict(zip(map(int, ids), rows))

    def __getitem__(self, ix):
        row = self.rows.get(int(ix[0]))
        return 0.0 if row is None else row[ix[1]]


def check_objective(init_ckpt, ckpt, centers, contexts, negatives, seed: int) -> list[str]:
    """Objective rise, loss agreement and gradient checks on one fixed batch,
    all against the float64 reference."""
    errors = []
    r0, r1 = ref.RefModel.from_checkpoint(init_ckpt), ref.RefModel.from_checkpoint(ckpt)
    j0 = ref.sgns_objective(r0, centers, contexts, negatives)
    j1 = ref.sgns_objective(r1, centers, contexts, negatives)
    if not j1 > j0:
        errors.append(f"objective on the fixed batch did not rise: {j0:.6f} -> {j1:.6f}")

    f64 = np.float64
    m64 = DweModel(ckpt.vocab, ckpt.ngram_dict, ckpt.glyphs, ckpt.tables.astype(f64),
                   ckpt.cnn.astype(f64), ckpt.config.use_ngrams, ckpt.config.use_glyphs)
    loss, grads = m64.batch_loss_and_grads(centers, contexts, negatives)
    if abs(loss - j1) > 1e-9 * max(1.0, abs(j1)):
        errors.append(f"program loss {loss!r} differs from the float64 reference {j1!r}")

    def loss_fn():
        return ref.sgns_objective(r1, centers, contexts, negatives)

    rng = np.random.default_rng([seed, 13])
    groups = []
    for name, arr, ids, rows in (("word_id", r1.word_id, grads.word_id_ids, grads.word_id_rows),
                                 ("context", r1.context, grads.context_ids, grads.context_rows),
                                 ("ngram", r1.ngram, grads.ngram_ids, grads.ngram_rows)):
        if not len(arr) or not len(ids):
            continue
        picked = [int(i) for i in rng.choice(ids, size=min(3, len(ids)), replace=False)]
        untouched = np.setdiff1d(np.arange(len(arr)), ids)
        if len(untouched):  # a row the batch never reaches must have zero gradient
            picked.append(int(rng.choice(untouched)))
        coords = [(i, int(rng.integers(arr.shape[1]))) for i in picked]
        groups.append((name, arr, SparseGrad(ids, rows), coords))
    if grads.cnn is not None:
        for name, g in grads.cnn.tensors():
            arr = r1.cnn[name]
            coords = [np.unravel_index(int(f), arr.shape)
                      for f in rng.choice(arr.size, size=min(4, arr.size), replace=False)]
            groups.append((f"cnn.{name}", arr, g, coords))
    for name, arr, analytic, coords in groups:
        errs, checked = ref.check_gradient(name, arr, analytic, loss_fn, coords)
        errors += errs
        if checked == 0:
            errors.append(f"{name}: every sampled coordinate sat on a kink")
    return errors


# -- reading a frozen checkpoint ------------------------------------------------

def prepare_checkpoint(work: Path, seed: int, spec: CorpusSpec) -> dict:
    """Untimed: a dim-300 checkpoint with both channels, as `train`
    initialises it (no epochs are run)."""
    files = make_corpus(work / "corpus", seed, spec)
    cfg = trainer.TrainingConfig(dim=300, epochs=0, min_count=1, seed=seed)
    ckpt = trainer.train(files.corpus_path, files.strokes_path, files.glyphs_path, cfg,
                         log=None)
    path = work / "model.dwe"
    trainer.save_checkpoint(ckpt, path)
    return {"checkpoint": str(path), "words": list(ckpt.vocab.words)}


def reference_model(path: str) -> ref.RefModel:
    return ref.RefModel.from_checkpoint(trainer.load_checkpoint(path))


class FrozenWorkload:
    trace_setup = True

    def recording(self, calibrated: bool):
        return nullcontext()

    rate = staticmethod(median_rate)

    @staticmethod
    def samples(rounds) -> list[tuple[int, float, float]]:
        """(operations completed, seconds, calibration) for every round.

        A round's calibration is the mean of the one taken before it and
        the one taken before the next round, which bracket it in time.
        """
        cals = [r["cal"] for r in rounds]
        after = cals[1:] + cals[-1:]
        return [(r["ops"] - r["failed"], r["wall_s"], (c + a) / 2)
                for r, c, a in zip(rounds, cals, after) if r["ok"]]

    @staticmethod
    def n_chars(state, plan) -> int:
        return plan["n_chars"]


class QueryWorkload(FrozenWorkload):
    """Nearest-neighbour, 3CosAdd/3CosMul analogy and similarity queries.

    Closed loop with one client: each query is sent when the previous
    one has returned. Set-up is `load_checkpoint` plus `Evaluator`
    construction. An operation is one query; one `eval_similarity` call
    over the similarity list counts one query per pair.
    """

    # a round takes about a third of a second, so a run holds dozens and
    # their median stays out of the machine's short bursts of speed
    n_nn, n_analogy, n_similarity, k = 100, 100, 500, 10
    # about 3 800 words over 2 400 characters
    spec = CorpusSpec(n_chars=3000, n_word_types=16000, n_sentences=700,
                      min_len=8, max_len=24)

    def prepare(self, work: Path, seed: int) -> dict:
        plan = prepare_checkpoint(work, seed, self.spec)
        words = plan.pop("words")
        q = make_queries(seed, words, self.n_nn, self.n_analogy, self.n_similarity)
        sim_path = work / "similarity.tsv"
        write_similarity(sim_path, q.similarity)
        plan.update(nn=q.nn, analogies=q.analogies, similarity=str(sim_path),
                    setup_reps=9, matrix=str(work / "matrix.npy"),
                    n_chars=len({c for w in words for c in w if ref.is_cjk_char(c)}))
        return plan

    def load_inputs(self, plan):
        return evaluation.load_similarity_dataset(plan["similarity"])

    def setup(self, plan, records):
        return evaluation.Evaluator(trainer.load_checkpoint(plan["checkpoint"]))

    def round(self, ev, plan, records) -> dict:
        t0 = now()
        answers, failed = {"nn": [], "analogy": []}, 0
        half = len(plan["analogies"]) // 2
        for tok in plan["nn"]:
            try:
                answers["nn"].append(ev.nearest_neighbors(tok, self.k))
            except Exception:
                failed += 1
                answers["nn"].append(None)
        for i, (a, b, h) in enumerate(plan["analogies"]):
            solve = ev.analogy_3cosadd if i < half else ev.analogy_3cosmul
            try:
                answers["analogy"].append(solve(a, b, h))
            except Exception:
                failed += 1
                answers["analogy"].append(None)
        try:
            answers["rho"] = ev.eval_similarity(records)[0]
        except Exception:
            failed += len(records)
            answers["rho"] = None
        ops = len(plan["nn"]) + len(plan["analogies"]) + len(records)
        return {"ok": True, "ops": ops, "failed": failed, "wall_s": now() - t0,
                "answers": answers}

    def outputs(self, ev, plan, records, rounds) -> dict:
        first = rounds[0]["answers"]
        for r in rounds:
            r["same_as_first"] = r.pop("answers") == first
        np.save(plan["matrix"], ev.matrix)
        return {"answers": first,
                "similarities": [ev.similarity(r.word_a, r.word_b) for r in records],
                "human": [r.human_score for r in records]}

    def check(self, plan: dict, m: dict) -> list[str]:
        errors = []
        if not all(r["same_as_first"] for r in m["rounds"]):
            errors.append("query answers changed between rounds")
        q = ref.QueryReference(reference_model(plan["checkpoint"]))
        errors += ref.check_matrix("Evaluator.matrix", np.load(plan["matrix"]), q.matrix,
                                   rtol=1e-5)
        words = q.r.words

        answers = m["answers"]
        for tok, got in zip(plan["nn"], answers["nn"]):
            if got is not None:
                errors += ref.check_neighbors(tok, [tuple(x) for x in got],
                                              q.unit @ q.unit_vec(tok), q.allowed(tok), words,
                                              self.k)
        half = len(plan["analogies"]) // 2
        for i, ((a, b, h), got) in enumerate(zip(plan["analogies"], answers["analogy"])):
            if got is not None:
                method = "3cosadd" if i < half else "3cosmul"
                scores = ref.analogy_scores(q.unit, q.unit_vec(a), q.unit_vec(b),
                                            q.unit_vec(h), method)
                errors += ref.check_argmax(f"{method} {a}:{b}::{h}", got, scores,
                                           q.allowed(a, b, h), words)
        with open(plan["similarity"], encoding="utf-8") as fh:
            pairs = [line.split("\t")[:2] for line in fh]
        for (a, b), got in zip(pairs, m["similarities"]):
            want = float(q.unit_vec(a) @ q.unit_vec(b))
            if abs(got - want) > 1e-6:
                errors.append(f"similarity {a} {b}: {got:.6f}, reference {want:.6f}")
        if answers["rho"] is not None:
            errors += ref.check_spearman(answers["rho"], m["similarities"], m["human"])
        return errors


class ExportWorkload(FrozenWorkload):
    """Export composed vectors of the whole vocabulary as word2vec text.

    Set-up is `load_checkpoint`. An operation is one exported word.
    """

    # about 1 250 words over 1 300 characters: an export takes about a
    # second, so a run holds a dozen and their median is steady
    spec = CorpusSpec(n_chars=3000, n_word_types=16000, n_sentences=160,
                      min_len=8, max_len=24)

    def prepare(self, work: Path, seed: int) -> dict:
        plan = prepare_checkpoint(work, seed, self.spec)
        words = plan.pop("words")
        plan.update(setup_reps=7, vectors=str(work / "vectors.txt"), n_words=len(words),
                    n_chars=len({c for w in words for c in w if ref.is_cjk_char(c)}))
        return plan

    def load_inputs(self, plan):
        return None

    def setup(self, plan, pre):
        return trainer.load_checkpoint(plan["checkpoint"])

    def round(self, ckpt, plan, pre) -> dict:
        t0 = now()
        try:
            trainer.export_vectors(ckpt, plan["vectors"])
        except Exception:
            traceback.print_exc()
            return {"ok": False, "ops": plan["n_words"], "failed": plan["n_words"]}
        return {"ok": True, "ops": plan["n_words"], "failed": 0, "wall_s": now() - t0}

    def outputs(self, state, plan, pre, rounds) -> dict:
        return {}

    def check(self, plan: dict, m: dict) -> list[str]:
        r = reference_model(plan["checkpoint"])
        tokens, M = ref.read_word2vec_text(plan["vectors"])
        if tokens != r.words:
            return ["exported tokens differ from the vocabulary order"]
        # six printed decimals: half a unit in the last place, plus float32 round-off
        return ref.check_matrix("exported vectors", M, r.compose(range(len(r.words))),
                                rtol=1e-5, atol=5.1e-7)


WORKLOADS = {
    "train-glyph": GlyphTrain(
        "train-glyph", dict(dim=32, batch_size=512, min_count=1, negatives=5, window=3,
                            lr=0.05), epochs=20, setup_reps=41),
    "train-stroke": StrokeTrain(
        "train-stroke", dict(dim=300, batch_size=4096, min_count=1, negatives=5, window=5,
                             use_glyphs=False), epochs=3, setup_reps=9),
    "query": QueryWorkload(),
    "export": ExportWorkload(),
}
