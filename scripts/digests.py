#!/usr/bin/env python3
"""SHA-256 of trained checkpoints, for checking that a change keeps training
byte-identical.

Trains on the synthetic dataset (`make_synthetic_dataset(seed=0)`) with dim
12, batch 256, 2 epochs, min_count 1, 3 negatives, window 3 and seed 5, once
with the defaults and once with each of three single-field changes, and
prints one line per run: its name and the digest of `dump_checkpoint`.

Usage:
    python3 scripts/digests.py
"""
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dwe.synthetic import make_synthetic_dataset
from dwe.trainer import TrainingConfig, dump_checkpoint, train

BASE = dict(dim=12, batch_size=256, epochs=2, min_count=1, negatives=3, window=3, seed=5)
RUNS = [("default", {}), ("use_glyphs=False", {"use_glyphs": False}),
        ("use_ngrams=False", {"use_ngrams": False}), ("subsample=0.01", {"subsample": 0.01})]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dwe-digests-") as out_dir:
        data = make_synthetic_dataset(out_dir, seed=0)
        for name, change in RUNS:
            ckpt = train(data.corpus_path, data.strokes_path, data.glyphs_path,
                         TrainingConfig(**BASE, **change), log=None)
            print(f"{name} {hashlib.sha256(dump_checkpoint(ckpt)).hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
