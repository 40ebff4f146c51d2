"""Span tracing from outside the program.

The tracer replaces a module global or class attribute with a wrapper
that records one span per call: name, start, end and the span that was
open when the call began. It only sees calls that look the name up at
call time, which is how every wrapped name in `dwe` is reached (module
globals and methods). Spans stay in memory and are written out once, at
the end of the run. `restore` puts every original object back.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one row per span: name id, start, end, parent index (-1 at top)
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def add(self, key: str, value: float) -> None:
        """Add to a counter of the current top-level span (the phase)."""
        phase = self.names[self.spans[self._stack[0]][0]] if self._stack else ""
        key = f"{phase}/{key}"
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping -------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        # a class attribute is restored from the class's own __dict__, so an
        # inherited or descriptor-wrapped original comes back unchanged
        old = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr, _MISSING)
        if old is _MISSING:
            raise AttributeError(f"cannot trace {owner.__name__}.{attr}: no such name")
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around every call of owner.attr.

        `after(result, args, kwargs)` runs inside the span once the call
        returns; it feeds counters.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                tracer._close(idx)

        traced.__wrapped__ = original
        self._replace(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Record one span per item a generator function produces.

        A plain wrapper would time only the generator's creation. Here each
        `next()` on the underlying generator runs inside its own span, and
        the span is closed before the item is handed to the caller.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)

            def items():
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return items()

        traced.__wrapped__ = original
        self._replace(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- analysis ---------------------------------------------------------------

    def arrays(self):
        """(name ids, starts, ends, parents, self times) as numpy arrays."""
        if not self.spans:
            z = np.zeros(0)
            return z.astype(int), z, z, z.astype(int), z
        a = np.array(self.spans, dtype=np.float64)
        nid, start, end, parent = a[:, 0].astype(int), a[:, 1], a[:, 2], a[:, 3].astype(int)
        dur = end - start
        child = np.zeros(len(a))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, start, end, parent, dur - child

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "counts": self.counts}) + "\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"[{nid},{start:.9f},{end:.9f},{parent}]\n")


class SpanTable:
    """Per-name figures over the spans below a given set of top-level spans."""

    def __init__(self, tracer: Tracer, roots: list[int]):
        nid, start, end, parent, self_t = tracer.arrays()
        n = len(nid)
        # every span's top-level ancestor
        top = np.arange(n)
        for _ in range(64):
            up = parent[top]
            moving = up >= 0
            if not moving.any():
                break
            top[moving] = up[moving]
        keep = np.isin(top, roots) if n else np.zeros(0, dtype=bool)
        self._names = tracer.names
        self._nid, self._start, self._end = nid[keep], start[keep], end[keep]
        self._self = self_t[keep]
        self.spans = int(keep.sum())

    def _mask(self, name: str) -> np.ndarray:
        if name not in self._names:
            return np.zeros(len(self._nid), dtype=bool)
        return self._nid == self._names.index(name)

    def total(self, name: str) -> float:
        m = self._mask(name)
        return float((self._end[m] - self._start[m]).sum())

    def self_time(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        m = self._mask(name)
        return self._end[m] - self._start[m]

    def intervals(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        m = self._mask(name)
        order = np.argsort(self._start[m])
        return self._start[m][order], self._end[m][order]


def install_tracing(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries; `tracer.restore()` undoes it.

    Every name is wrapped where its caller looks it up at call time:
    module globals for functions the trainer and model call, class
    attributes for methods.
    """
    import os

    from dwe import evaluation, model, trainer
    from dwe.corpus import NegativeSampler
    from dwe.model import DweModel

    def forward(result, args, kwargs):
        tracer.add("glyphs_forwarded", len(args[1]))

    def step(result, args, kwargs):
        _, grads = result
        tracer.add("pairs", len(args[1]))
        tracer.add("unique_centers", len(grads.word_id_ids))
        tracer.add("ngram_rows", len(grads.ngram_ids))
        tracer.add("context_rows", len(grads.context_ids))

    def ngram_dict(result, args, kwargs):
        tracer.add("ngrams", len(result))

    def saved(result, args, kwargs):
        tracer.add("checkpoint_bytes", os.path.getsize(args[1]))

    Ev = evaluation.Evaluator
    for owner, attr, name, after in (
            (model, "cnn_forward_batch", "glyph_cnn.forward", forward),
            (model, "cnn_backward_batch", "glyph_cnn.backward", None),
            (DweModel, "batch_loss_and_grads", "model.loss_grads", step),
            (DweModel, "compose_word", "model.compose_word", None),
            (trainer, "adagrad_step_rows", "model.adagrad", None),
            (trainer, "adagrad_step", "model.adagrad", None),
            (NegativeSampler, "draw_batch", "corpus.draw_batch", None),
            (trainer, "build_vocab", "corpus.build_vocab", None),
            (trainer, "load_stroke_table", "morphology.load", None),
            (trainer, "load_glyph_pack", "morphology.load", None),
            (trainer, "build_ngram_dict", "morphology.ngram_dict", ngram_dict),
            (trainer, "train_checkpoint", "trainer.epochs", None),
            (trainer, "save_checkpoint", "trainer.save", saved),
            (trainer, "load_checkpoint", "trainer.load", None),
            (trainer, "export_vectors", "trainer.export", None),
            (Ev, "__init__", "evaluation.build", None),
            (Ev, "nearest_neighbors", "evaluation.nn", None),
            (Ev, "analogy_3cosadd", "evaluation.analogy", None),
            (Ev, "analogy_3cosmul", "evaluation.analogy", None),
            (Ev, "eval_similarity", "evaluation.eval_similarity", None),
            (Ev, "similarity", "evaluation.similarity", None)):
        tracer.wrap(owner, attr, name, after)
    # `context_pairs` is consumed inside this generator, so its time is
    # part of each batch's span rather than a span of its own
    tracer.wrap_generator(trainer, "_epoch_batches", "trainer.batching")


# name -> unit, in report order
PER_LAYER = {
    "corpus.build_vocab_s": "s", "corpus.draw_batch_s": "s", "corpus.pairs": "count",
    "morphology.load_s": "s", "morphology.ngram_dict_s": "s", "morphology.ngrams": "count",
    "glyph_cnn.forward_s": "s", "glyph_cnn.backward_s": "s",
    "glyph_cnn.forward_calls": "count", "glyph_cnn.glyphs_forwarded": "count",
    "glyph_cnn.glyphs_per_char": "ratio",
    "model.loss_grads_self_s": "s", "model.step_ms": "ms", "model.step_tail_ms": "ms",
    "model.step_tail_pct": "%", "model.steps": "count", "model.adagrad_s": "s",
    "model.unique_centers_per_step": "count", "model.ngram_rows_per_step": "count",
    "model.context_rows_per_step": "count", "model.compose_word_s": "s",
    "trainer.epochs_s": "s", "trainer.batching_s": "s", "trainer.load_s": "s",
    "trainer.export_self_s": "s", "trainer.save_s": "s", "trainer.checkpoint_bytes": "bytes",
    "evaluation.build_self_s": "s", "evaluation.nn_ms": "ms", "evaluation.analogy_ms": "ms",
    "evaluation.similarity_ms": "ms",
    "trace.unattributed_s": "s", "trace.overhead_pct": "%", "trace.spans": "count",
}


def tail_percentile(n: int) -> float:
    """The highest of p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it; 0 below forty samples, where no tail is reported."""
    if n < 40:
        return 0.0
    # n * (100 - p) / 100 samples lie beyond p; compare in tenths of a
    # per cent so that 100 samples do reach p90
    return max(p / 10 for p in (750, 900, 950, 990, 999) if n * (1000 - p) >= 10000)


def step_durations(t: SpanTable) -> np.ndarray:
    """A step runs from the start of its loss-and-gradient call to the end
    of the last Adagrad update before the next step begins."""
    ls, le = t.intervals("model.loss_grads")
    as_, ae = t.intervals("model.adagrad")
    out = np.empty(len(ls))
    for k in range(len(ls)):
        nxt = ls[k + 1] if k + 1 < len(ls) else np.inf
        m = (as_ >= le[k]) & (as_ < nxt)
        out[k] = (ae[m].max() if m.any() else le[k]) - ls[k]
    return out


def layer_metrics(tracer: Tracer, setup_roots: list[int], round_roots: list[int],
                  n_chars: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer figures for one set-up plus one average round."""
    s, r = SpanTable(tracer, setup_roots), SpanTable(tracer, round_roots)
    n = max(len(round_roots), 1)

    def per_unit(fn, name):
        return getattr(s, fn)(name) + getattr(r, fn)(name) / n

    def count(key):
        return (tracer.counts.get(f"bench.setup/{key}", 0)
                + tracer.counts.get(f"bench.round/{key}", 0) / n)

    def median_ms(*names):
        d = np.concatenate([t.durations(x) for t in (s, r) for x in names])
        return float(np.median(d)) * 1e3 if len(d) else 0.0

    steps = step_durations(r)
    n_steps = len(steps) / n
    pct = tail_percentile(len(steps))
    epochs = per_unit("total", "trainer.epochs")
    loss_total = per_unit("total", "model.loss_grads")
    adagrad = per_unit("total", "model.adagrad")
    batching = per_unit("total", "trainer.batching")
    glyphs = count("glyphs_forwarded")
    m = {
        "corpus.build_vocab_s": per_unit("total", "corpus.build_vocab"),
        "corpus.draw_batch_s": per_unit("total", "corpus.draw_batch"),
        "corpus.pairs": count("pairs"),
        "morphology.load_s": per_unit("total", "morphology.load"),
        "morphology.ngram_dict_s": per_unit("total", "morphology.ngram_dict"),
        "morphology.ngrams": count("ngrams") / max(per_unit("calls", "morphology.ngram_dict"), 1),
        "glyph_cnn.forward_s": per_unit("total", "glyph_cnn.forward"),
        "glyph_cnn.backward_s": per_unit("total", "glyph_cnn.backward"),
        "glyph_cnn.forward_calls": per_unit("calls", "glyph_cnn.forward"),
        "glyph_cnn.glyphs_forwarded": glyphs,
        "glyph_cnn.glyphs_per_char": glyphs / n_chars if n_chars else 0.0,
        "model.loss_grads_self_s": per_unit("self_time", "model.loss_grads"),
        "model.step_ms": float(np.median(steps)) * 1e3 if len(steps) else 0.0,
        "model.step_tail_ms": float(np.percentile(steps, pct)) * 1e3 if pct else 0.0,
        "model.step_tail_pct": pct,
        "model.steps": n_steps,
        "model.adagrad_s": adagrad,
        "model.unique_centers_per_step": count("unique_centers") / n_steps if n_steps else 0.0,
        "model.ngram_rows_per_step": count("ngram_rows") / n_steps if n_steps else 0.0,
        "model.context_rows_per_step": count("context_rows") / n_steps if n_steps else 0.0,
        "model.compose_word_s": per_unit("self_time", "model.compose_word"),
        "trainer.epochs_s": epochs,
        "trainer.batching_s": batching,
        "trainer.load_s": per_unit("total", "trainer.load"),
        "trainer.export_self_s": per_unit("self_time", "trainer.export"),
        "trainer.save_s": per_unit("total", "trainer.save"),
        "trainer.checkpoint_bytes": count("checkpoint_bytes")
        / max(per_unit("calls", "trainer.save"), 1),
        "evaluation.build_self_s": per_unit("self_time", "evaluation.build"),
        "evaluation.nn_ms": median_ms("evaluation.nn"),
        "evaluation.analogy_ms": median_ms("evaluation.analogy"),
        "evaluation.similarity_ms": median_ms("evaluation.similarity"),
        # what the epochs spent outside the named layers: the training
        # loop's own code and the per-run model construction
        "trace.unattributed_s": epochs - loss_total - adagrad - batching if epochs else 0.0,
        "trace.overhead_pct": overhead_pct,
        "trace.spans": (s.spans + r.spans / n),
    }
    return m
