import gc
import sys
import threading
import time
import weakref

import pytest

from dwe import glyph_cnn, trainer
from dwe.glyph_cnn import CNN_BLOCK, _run_blocks
from dwe.model import DweModel
from dwe.trainer import TrainingConfig, train
from dwe.workers import run_workers


@pytest.fixture
def second_start_fails(monkeypatch):
    """`threading.Thread.start` raises for the second thread started; the
    list holds every thread whose start was asked for."""
    real, asked = threading.Thread.start, []

    def start(thread):
        asked.append(thread)
        if len(asked) == 2:
            raise RuntimeError("can't start new thread")
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return asked


def assert_stopped(asked, ran):
    """The first helper was started; no helper is alive, no item ran twice,
    and none runs after the call has returned."""
    assert asked[0].ident is not None
    assert not any(t.is_alive() for t in asked)
    done = list(ran)
    time.sleep(0.05)
    assert ran == done and len(set(ran)) == len(ran)


def test_a_failed_start_stops_the_blocks(monkeypatch, second_start_fails):
    monkeypatch.setattr(glyph_cnn, "CNN_WORKERS", 3)
    ran = []

    def stage(lo, hi):
        time.sleep(0.01)  # the started helper outlives a raise that skips its join
        ran.append(lo)

    with pytest.raises(RuntimeError, match="can't start new thread"):
        _run_blocks(stage, 10 * CNN_BLOCK)
    assert_stopped(second_start_fails, ran)


def test_a_failed_start_stops_the_hogwild_epoch(synth_data, monkeypatch, second_start_fails):
    yielded, ran = [], []
    batches, step = trainer._epoch_batches, DweModel.batch_loss_and_grads

    def numbered_batches(*args):
        for batch in batches(*args):
            yielded.append(batch)
            yield batch

    def slow_step(self, centers, *rest):
        time.sleep(0.01)
        ran.append(next(i for i, batch in enumerate(yielded) if batch[0] is centers))
        return step(self, centers, *rest)

    monkeypatch.setattr(trainer, "_epoch_batches", numbered_batches)
    monkeypatch.setattr(DweModel, "batch_loss_and_grads", slow_step)
    cfg = TrainingConfig(dim=12, batch_size=256, epochs=1, min_count=1, negatives=3, window=3,
                         seed=5, mode="hogwild", threads=3, use_glyphs=False)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        train(synth_data.corpus_path, synth_data.strokes_path, synth_data.glyphs_path, cfg,
              log=None)
    assert_stopped(second_start_fails, ran)


def test_a_failing_item_stream_stops_the_workers():
    # as `_epoch_batches` raises when `draw_batch` does: every item taken
    # before the failure runs once, and the error is raised once
    ran = []

    def items():
        yield from range(100)
        raise ValueError("draw failed")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(ValueError, match="draw failed"):
            run_workers(items(), ran.append, 3, "test")
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(100))


@pytest.mark.parametrize("workers", [1, 2])
def test_the_call_keeps_nothing_it_was_given(workers):
    # a reference cycle through the workers would keep `work`, and the
    # buffers a CNN stage holds, alive until the garbage collector runs
    class Held:
        pass

    held = Held()
    alive = weakref.ref(held)
    gc.disable()
    try:
        run_workers(range(3), lambda item, held=held: None, workers, "test")
        del held
        assert alive() is None
    finally:
        gc.enable()
