"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data or runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .evaluation import (Evaluator, load_analogy_dataset, load_similarity_dataset)
from .morphology import (bitmap_ascii, extract_ngrams, is_cjk, load_glyph_pack,
                         load_stroke_table, ngram_str)
from .trainer import (TrainingConfig, export_vectors, load_checkpoint,
                      save_checkpoint, train)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_DEFAULTS = TrainingConfig()
_SUB_KWARGS = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dwe", description="Dual-channel Chinese word embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model", **_SUB_KWARGS)
    p.add_argument("--corpus", required=True, help="pre-segmented corpus, one sentence per line")
    p.add_argument("--strokes", required=True, help="stroke table file")
    p.add_argument("--glyphs", required=True, help="glyph pack file")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--dim", type=int, default=_DEFAULTS.dim, help="embedding dimension")
    p.add_argument("--lr", type=float, default=_DEFAULTS.lr, help="adagrad learning rate")
    p.add_argument("--batch", type=int, default=_DEFAULTS.batch_size, help="pairs per batch")
    p.add_argument("--window", type=int, default=_DEFAULTS.window, help="context window size")
    p.add_argument("--negatives", type=int, default=_DEFAULTS.negatives,
                   help="negative samples per pair")
    p.add_argument("--alpha", type=float, default=_DEFAULTS.alpha,
                   help="negative-distribution exponent")
    p.add_argument("--epochs", type=int, default=_DEFAULTS.epochs, help="training epochs")
    p.add_argument("--min-count", type=int, default=_DEFAULTS.min_count,
                   help="minimum token frequency")
    p.add_argument("--n-min", type=int, default=_DEFAULTS.n_min, help="shortest stroke n-gram")
    p.add_argument("--n-max", type=int, default=_DEFAULTS.n_max, help="longest stroke n-gram")
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed, help="run seed")
    p.add_argument("--subsample", type=float, default=_DEFAULTS.subsample,
                   help="frequent-word subsampling threshold (0 disables)")
    p.add_argument("--no-strokes", action="store_true", help="disable the stroke n-gram channel")
    p.add_argument("--no-glyphs", action="store_true", help="disable the glyph CNN channel")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--threads", type=int, default=None,
                      help="hogwild mode with N worker threads; needs --no-glyphs")
    mode.add_argument("--deterministic", action="store_true",
                      help="single-worker bit-reproducible mode (default)")

    p = sub.add_parser("eval-sim", help="word-similarity evaluation", **_SUB_KWARGS)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="similarity dataset (word_a TAB word_b TAB score)")
    p.add_argument("--which", choices=("composed", "word_id"), default="composed",
                   help="vector source")
    p.add_argument("--json", action="store_true", help="JSON output instead of TSV")

    p = sub.add_parser("eval-analogy", help="word-analogy evaluation", **_SUB_KWARGS)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="analogy dataset with ': group' headers")
    p.add_argument("--method", choices=("3cosadd", "3cosmul", "both"), default="both",
                   help="answer-selection method")
    p.add_argument("--which", choices=("composed", "word_id"), default="composed",
                   help="vector source")
    p.add_argument("--json", action="store_true", help="JSON output instead of TSV")

    p = sub.add_parser("nn", help="nearest neighbors of a word", **_SUB_KWARGS)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--word", required=True, help="query token (OOV allowed)")
    p.add_argument("--k", type=int, default=10, help="number of neighbors")
    p.add_argument("--which", choices=("composed", "word_id"), default="composed",
                   help="vector source")

    p = sub.add_parser("export", help="export vectors in word2vec text format", **_SUB_KWARGS)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--out", required=True, help="output text file")
    p.add_argument("--which", choices=("composed", "word_id"), default="composed",
                   help="vector source")

    p = sub.add_parser("inspect", help="show a character's strokes, n-grams, glyph",
                       **_SUB_KWARGS)
    p.add_argument("--strokes", required=True, help="stroke table file")
    p.add_argument("--glyphs", help="glyph pack file")
    p.add_argument("--char", required=True, help="single character to inspect")
    p.add_argument("--n-min", type=int, default=_DEFAULTS.n_min, help="shortest stroke n-gram")
    p.add_argument("--n-max", type=int, default=_DEFAULTS.n_max, help="longest stroke n-gram")
    return parser


def _cmd_train(args) -> int:
    config = TrainingConfig(
        dim=args.dim, lr=args.lr, batch_size=args.batch, n_min=args.n_min,
        n_max=args.n_max, window=args.window, negatives=args.negatives,
        alpha=args.alpha, epochs=args.epochs, min_count=args.min_count,
        seed=args.seed, subsample=args.subsample,
        use_ngrams=not args.no_strokes, use_glyphs=not args.no_glyphs,
    )
    if args.threads is not None:
        config.mode = "hogwild"
        config.threads = args.threads
    ckpt = train(args.corpus, args.strokes, args.glyphs, config, resume=args.resume)
    save_checkpoint(ckpt, args.out)
    return 0


def _cmd_eval_sim(args) -> int:
    ckpt = load_checkpoint(args.model)
    records = load_similarity_dataset(args.data)
    rho, coverage = Evaluator(ckpt, which=args.which).eval_similarity(records)
    if args.json:
        print(json.dumps({"metric": "spearman_rho", "value": rho, "coverage": coverage}))
    else:
        print(f"spearman_rho\tall\t{rho:.6f}\t{coverage:.4f}")
    return 0


def _cmd_eval_analogy(args) -> int:
    ckpt = load_checkpoint(args.model)
    groups = load_analogy_dataset(args.data)
    evaluator = Evaluator(ckpt, which=args.which)
    methods = ("3cosadd", "3cosmul") if args.method == "both" else (args.method,)
    results = []
    for method in methods:
        per_group, total = evaluator.eval_analogy(groups, method)
        for name, acc in per_group.items():
            results.append({"metric": method, "group": name, "value": acc})
        results.append({"metric": method, "group": "total", "value": total})
    if args.json:
        print(json.dumps(results))
    else:
        for row in results:
            print(f"{row['metric']}\t{row['group']}\t{row['value']:.6f}\t1.0000")
    return 0


def _cmd_nn(args) -> int:
    ckpt = load_checkpoint(args.model)
    for token, cos in Evaluator(ckpt, which=args.which).nearest_neighbors(args.word, args.k):
        print(f"{token}\t{cos:.6f}")
    return 0


def _cmd_export(args) -> int:
    export_vectors(load_checkpoint(args.model), args.out, which=args.which)
    return 0


def _cmd_inspect(args) -> int:
    if len(args.char) != 1:
        raise ValueError(f"--char expects a single character, got {args.char!r}")
    ch = args.char
    table = load_stroke_table(args.strokes)
    codes = table.get(ch)
    print(f"char\t{ch}\tU+{ord(ch):04X}\tcjk={'yes' if is_cjk(ch) else 'no'}")
    if codes is None:
        print("strokes\t(no stroke data)")
    else:
        print(f"strokes\t{','.join(map(str, codes))}")
        ngrams = extract_ngrams(codes, args.n_min, args.n_max)
        print(f"ngrams\t{' '.join(ngram_str(ng) for ng in ngrams)}")
    if args.glyphs:
        glyphs = load_glyph_pack(args.glyphs)
        bitmap = glyphs.get(ch)
        print(bitmap_ascii(bitmap) if bitmap is not None else "glyph\t(no glyph)")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval-sim": _cmd_eval_sim,
    "eval-analogy": _cmd_eval_analogy,
    "nn": _cmd_nn,
    "export": _cmd_export,
    "inspect": _cmd_inspect,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"dwe: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"dwe: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
