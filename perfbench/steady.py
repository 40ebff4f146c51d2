#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, judged by BENCHMARK.json.

    python3 perfbench/steady.py                    # every workload, 2 sets x 10 runs
    python3 perfbench/steady.py --workloads query --runs 5 --sets 1

Each run uses its own seed. For every end-to-end metric and workload it
reports each set's median and its spread, the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median, against the metric's bound, and how far the second
set's median moved from the first's, in either direction. It also
compares the share of failed operations between the sets. Every spread
and every shift is judged against the metric's bound, `setup_s`
included. Exit status 1 when one is outside its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int) -> dict:
    """One run's result line, plus the figures as measured before calibration."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    saved = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    result["measured"] = saved["measured"]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--first-seed", type=int, default=100)
    args = p.parse_args(argv)

    ok = True
    report = {}
    for wl in args.workloads:
        sets = []
        for s in range(args.sets):
            seeds = [args.first_seed + 1000 * s + i for i in range(args.runs)]
            results = [run(wl, seed, bench["run_seconds"]) for seed in seeds]
            for seed, r in zip(seeds, results):
                print(f"{wl} set {s + 1} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                      + " measured " + " ".join(f"{k}={v:.6g}" for k, v in r["measured"].items()),
                      flush=True)
            sets.append(results)
        report[wl] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            spreads = [spread(v) for v in per_set]
            medians = [statistics.median(v) for v in per_set]
            line = (f"{wl:13s} {name:12s} bound {bound:.2f}  "
                    + "  ".join(f"set{i + 1} median {m:.6g} spread {sp:.3f}"
                                for i, (m, sp) in enumerate(zip(medians, spreads))))
            bad = any(sp > bound for sp in spreads)
            if len(medians) == 2:
                moved = worse_by(medians[0], medians[1], metric["better"])
                line += f"  second worse by {moved:+.3f}"
                bad |= abs(moved) > bound
            ok &= not bad
            if bad:
                line += "  OUT OF BOUND"
            elif any(sp > bound / 3 for sp in spreads):
                line += "  (a spread above a third of the bound)"
            print(line, flush=True)
            report[wl][name] = {"medians": medians, "spreads": spreads, "bound": bound}
        for key in ("setup_raw_s", "throughput_raw"):
            per_set = [[r["measured"][key] for r in rs] for rs in sets]
            print(f"{wl:13s} {key} as measured (not judged): " + "  ".join(
                f"set{i + 1} median {statistics.median(v):.6g} spread {spread(v):.3f}"
                for i, v in enumerate(per_set)), flush=True)
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        ok &= correct and len(set(shares)) == 1
        print(f"{wl:13s} failed share per set {shares}  all correct {correct}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
