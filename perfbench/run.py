#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) against the dwe sources.

    python3 perfbench/run.py --workload train-glyph --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the repository root or anywhere else: the program is
imported from the `src/` directory next to `perfbench/`. The parent
process makes the inputs from the seed and checks the outputs; the timed
part runs in a child process of its own, so that its peak memory is the
workload's alone. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Everything a run
leaves behind goes under `perfbench/out/`.
"""
from __future__ import annotations

import os

# One BLAS thread: the figures then do not depend on what else the
# machine's cores are doing, and runs stay comparable across commits.
# Set before numpy is imported, here and in the child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
NAMES = ("train-glyph", "train-stroke", "query", "export")

END_TO_END = {"setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}
THROUGHPUT_OF = {"train-glyph": "pairs trained", "train-stroke": "pairs trained",
                 "query": "queries answered", "export": "words exported"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="round time to measure; rounds are never cut short")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer figures from a traced run")
    p.add_argument("--child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine_info() -> dict:
    import numpy as np

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def child(args) -> int:
    """Timed part: set-ups and rounds, written to WORKDIR/measure.json."""
    from spans import Tracer
    from workloads import WORKLOADS, measure

    work = Path(args.child)
    plan = json.loads((work / "plan.json").read_text())
    tracer = Tracer() if args.trace else None
    m = measure(WORKLOADS[args.workload], plan, args.seconds, tracer)
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    (work / "measure.json").write_text(json.dumps(m))
    return 0


def run_one(args, name: str) -> dict | None:
    """Prepare, measure and check workload `name`; print its figures and
    return its result, or None when the measurement process failed."""
    from workloads import WORKLOADS
    from spans import PER_LAYER

    w = WORKLOADS[name]
    work = OUT / f"work-{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = w.prepare(work, args.seed)
        (work / "plan.json").write_text(json.dumps(plan))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(work),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        # the child's output goes to stderr: stdout ends with the result line
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not (work / "measure.json").exists():
            print(f"error: measurement process exited with {proc.returncode}", file=sys.stderr)
            return None
        m = json.loads((work / "measure.json").read_text())
        errors = w.check(plan, m)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["ops"] for r in m["rounds"])
    failed = sum(r["failed"] for r in m["rounds"])
    if args.trace:
        metrics = {k: {"value": float(m["layers"][k]), "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": m["setup_s"], "throughput": m["throughput"],
                  "peak_rss_mb": m["peak_rss_mb"]}
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}
    meta = machine_info()
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, workload=name, seed=args.seed,
                        seconds=args.seconds, rounds=len(m["rounds"]), errors=errors,
                        measured={k: m[k] for k in ("setup_raw_s", "throughput_raw") if k in m},
                        meta=meta), indent=1))

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  rounds {len(m['rounds'])}")
    print("  " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    if not args.trace:
        print(f"  throughput counts {THROUGHPUT_OF[name]}; normalised to the "
              f"reference machine speed (as measured: setup_s {m['setup_raw_s']:.6g} s, "
              f"throughput {m['throughput_raw']:.6g} 1/s)")
    for k, v in metrics.items():
        print(f"  {k:32s} {v['value']:>16.6g} {v['unit']}")
    print(f"  operations attempted {attempted}  failed {failed}")
    print(f"  checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    for e in errors[:20]:
        print(f"    {e}")
    return result


def run_all(args) -> int:
    """Every workload in turn, then one summary."""
    results = {}
    for name in NAMES:
        results[name] = run_one(args, name)
        if results[name] is None:
            return 1
        print()
    print("summary")
    for name, r in results.items():
        print(f"  {name:13s} correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}  " + "  ".join(
                  f"{k}={v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dwe" / "__init__.py").is_file():
        print(f"error: no dwe sources at {ROOT / 'src'}; run from a dwe checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)
    if args.child:
        return child(args)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args, args.workload)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
