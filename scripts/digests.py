#!/usr/bin/env python3
"""SHA-256 of trained checkpoints and of their exported vectors, for checking
that a change keeps training and export byte-identical.

Trains on the synthetic dataset (`make_synthetic_dataset(seed=0)`) with dim
12, batch 256, 2 epochs, min_count 1, 3 negatives, window 3 and seed 5, once
with the defaults and once with each of three single-field changes, and
prints one line per run: its name, the digest of `dump_checkpoint`, and
`ok` if that digest is the one recorded below or `CHANGED` if not. The
default run is also exported with each `which` of `export_vectors`, and
each file's digest gets a line of its own. The seventh line is the composed
export of an untrained (epochs=0) dim-12 model over 640 characters with
random glyphs: more than two of `char_features`' CNN calls and ten glyph
blocks of the CNN forward, where the synthetic set's 44 characters fill
one block. The eighth trains one stroke-only epoch (dim 12 as above) on
a registry built the same way but with stroke codes drawn from 1..3, so
that many characters share each n-gram: a step holds 9 to 14 rows of its
most shared n-gram, where the synthetic set's steps hold at most 2, so
the n-gram gradient sums run that many rounds. Exits 1 if any digest changed.

Usage:
    python3 scripts/digests.py
"""
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dwe.morphology import GLYPH_SIDE, write_glyph_pack, write_stroke_table
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
WIDE_CHARS = 640
WIDE_EXPORT = "07b38de5018b0d3ddedb20382742648a5a81ae14c656fe4497ba3da5c4057c80"
SHARED_CODES = 3  # stroke codes of the shared-n-gram registry: 1..SHARED_CODES
SHARED_TRAIN = "19d1b5db46602f3b2ef16776d15ec2b89d6e2bca6c3af5e07a16519f60a95220"


def write_wide_registry(out_dir: Path, codes: int = 32) -> tuple[Path, Path, Path]:
    """Corpus, stroke table and glyph pack of WIDE_CHARS characters: word i
    is characters i and i + 1 (mod WIDE_CHARS), each character has 4 to 8
    random stroke codes in 1..codes and a random bitmap."""
    rng = np.random.default_rng(3)
    chars = [chr(0x4E00 + i) for i in range(WIDE_CHARS)]
    words = [a + b for a, b in zip(chars, chars[1:] + chars[:1])]
    paths = (out_dir / f"wide{codes}-corpus.txt", out_dir / f"wide{codes}-strokes.tsv",
             out_dir / f"wide{codes}-glyphs.bin")
    paths[0].write_text(" ".join(words) + "\n", encoding="utf-8")
    write_stroke_table({c: rng.integers(1, codes + 1, int(rng.integers(4, 9))).tolist()
                        for c in chars}, paths[1])
    write_glyph_pack({c: rng.integers(0, 2, (GLYPH_SIDE, GLYPH_SIDE)) for c in chars},
                     paths[2])
    return paths


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
        ckpt = train(*write_wide_registry(Path(out_dir)),
                     TrainingConfig(**{**BASE, "epochs": 0}), log=None)
        path = Path(out_dir) / "wide-vectors.txt"
        export_vectors(ckpt, path, "composed")
        all_ok &= check("wide-registry export composed",
                        hashlib.sha256(path.read_bytes()).hexdigest(), WIDE_EXPORT)
        ckpt = train(*write_wide_registry(Path(out_dir), SHARED_CODES),
                     TrainingConfig(**{**BASE, "epochs": 1, "use_glyphs": False}), log=None)
        all_ok &= check("shared-ngram registry use_glyphs=False",
                        hashlib.sha256(dump_checkpoint(ckpt)).hexdigest(), SHARED_TRAIN)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
