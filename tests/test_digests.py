import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digests.py"


def test_training_and_export_digests_are_the_recorded_ones():
    # five trainings, three exports and the wide registry's float64
    # evaluator, byte for byte; the fifth training's steps add up to 14 rows
    # of one n-gram, the synthetic set's at most 2
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=600)
    lines = run.stdout.splitlines()
    assert run.returncode == 0, run.stdout + run.stderr
    assert len(lines) == 9 and all(line.endswith(" ok") for line in lines), run.stdout
