#!/usr/bin/env python3
"""SHA-256 of trained checkpoints and of their exported vectors, for checking
that a change keeps training and export byte-identical.

Trains on the synthetic dataset (`make_synthetic_dataset(seed=0)`) with dim
12, batch 256, 2 epochs, min_count 1, 3 negatives, window 3 and seed 5, once
with the defaults and once with each of three single-field changes, and
prints one line per run: its name, the digest of `dump_checkpoint`, and
`ok` if that digest is the one recorded below or `CHANGED` if not. The
default run is also exported with each `which` of `export_vectors`, and
each file's digest gets a line of its own. Exits 1 if any digest changed.

Usage:
    python3 scripts/digests.py
"""
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dwe.synthetic import make_synthetic_dataset
from dwe.trainer import TrainingConfig, dump_checkpoint, export_vectors, train

BASE = dict(dim=12, batch_size=256, epochs=2, min_count=1, negatives=3, window=3, seed=5)
# (name, config change, recorded digest)
RUNS = [("default", {},
         "a38eda830d3ca63091cd931f08de351d15d34c1771a7c207099f5c67149ed644"),
        ("use_glyphs=False", {"use_glyphs": False},
         "514373b561f659f24a06bc5751b93e9c77308f6bfa3ae4d40ad0b9273e634097"),
        ("use_ngrams=False", {"use_ngrams": False},
         "e79e7669b0561838c205b017adab1a593f0971eddd79eb2bea129c449c33e04a"),
        ("subsample=0.01", {"subsample": 0.01},
         "0f6b10f5cb282b0d3426daa78e06831ca65b9fff05ccc8157614fd0637f12996")]
# which -> recorded digest of the default run's `export_vectors` file
EXPORTS = {"composed": "d254e12417d7d6c36d7c4c9c5b3d99eab00016c8b984e5425a2bc3d20adcbe86",
           "word_id": "d52e1ef8b6a42a5e4121b943ae69accdae291ce66a0d1991bf00b24f5bc867aa"}


def check(name: str, digest: str, recorded: str) -> bool:
    print(f"{name} {digest} {'ok' if digest == recorded else 'CHANGED'}")
    return digest == recorded


def main() -> int:
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="dwe-digests-") as out_dir:
        data = make_synthetic_dataset(out_dir, seed=0)
        for name, change, recorded in RUNS:
            ckpt = train(data.corpus_path, data.strokes_path, data.glyphs_path,
                         TrainingConfig(**BASE, **change), log=None)
            all_ok &= check(name, hashlib.sha256(dump_checkpoint(ckpt)).hexdigest(), recorded)
            # only the default run is exported
            for which, recorded_export in ({} if change else EXPORTS).items():
                path = Path(out_dir) / f"{which}.txt"
                export_vectors(ckpt, path, which)
                all_ok &= check(f"{name} export {which}",
                                hashlib.sha256(path.read_bytes()).hexdigest(), recorded_export)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
