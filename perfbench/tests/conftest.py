import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from inputs import CorpusSpec, make_corpus  # noqa: E402
from dwe import trainer  # noqa: E402

TINY = CorpusSpec(n_chars=30, n_word_types=60, n_sentences=40, min_len=4, max_len=10)


@pytest.fixture(scope="session")
def tiny_files(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("tiny"), seed=5, spec=TINY)


@pytest.fixture(scope="session")
def tiny_ckpt(tiny_files):
    """A small model with both channels after one epoch of training."""
    cfg = trainer.TrainingConfig(dim=8, batch_size=128, epochs=1, min_count=1, seed=3)
    return trainer.train(tiny_files.corpus_path, tiny_files.strokes_path,
                         tiny_files.glyphs_path, cfg, log=None)
