#!/usr/bin/env python3
"""Reference figures quoted in perfbench/README.md (not benchmark workloads).

    python3 perfbench/figures.py hogwild
    python3 perfbench/figures.py criterion6

`hogwild` trains the train-stroke inputs of seed 1 in deterministic
mode and in hogwild mode with two threads, three times each,
alternating, and prints each run's pairs per second: pairs over the
`train` call's wall time minus the median set-up time. Hogwild steps run in two threads at once, so the
benchmark's step-to-step timing does not apply. ROADMAP item 4 decides
on this ratio. BLAS runs one thread, as in the benchmark.

`criterion6` runs acceptance criterion 6 on its own through pytest and
prints its wall time against the test's 60 s bound. It uses the test
suite's environment, so BLAS threads are left at their default.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOGWILD_SEED = 1
HOGWILD_PAIRS = 3  # alternating pairs of runs


def hogwild() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tempfile

    import workloads

    w = workloads.WORKLOADS["train-stroke"]
    rates = {"deterministic": [], "hogwild": []}
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        plan = w.prepare(Path(tmp), HOGWILD_SEED)
        setups = []
        for _ in range(5):
            t0 = time.perf_counter()
            w._train(plan, 0)
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        for _ in range(HOGWILD_PAIRS):
            for mode, threads in (("deterministic", 1), ("hogwild", 2)):
                log = workloads.EpochLog()
                cfg = dict(plan["config"], mode=mode, threads=threads)
                t0 = time.perf_counter()
                w._train(dict(plan, config=cfg), plan["epochs"], log)
                epochs_s = time.perf_counter() - t0 - setup_s
                rate = sum(e["pairs"] for e in log.epochs) / epochs_s
                rates[mode].append(rate)
                print(f"{mode:13s} threads={threads}  {rate:10.1f} pairs/s", flush=True)
    det, hog = (statistics.median(rates[m]) for m in ("deterministic", "hogwild"))
    print(f"median deterministic {det:.1f} pairs/s, hogwild x2 {hog:.1f} pairs/s, "
          f"ratio {hog / det:.3f}")


def criterion6() -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "tests/test_acceptance.py::test_criterion_6_synthetic_morphology_experiment"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    print(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)")
    print(f"criterion 6 standalone: {wall:.1f} s wall (pytest included) against its 60 s "
          f"bound; exit {proc.returncode}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in (["hogwild"], ["criterion6"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    if argv == ["hogwild"]:
        hogwild()
        return 0
    return criterion6()


if __name__ == "__main__":
    sys.exit(main())
