import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digests.py"


def test_training_and_export_digests_are_the_recorded_ones():
    # four trainings and three exports, byte for byte
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=600)
    lines = run.stdout.splitlines()
    assert run.returncode == 0, run.stdout + run.stderr
    assert len(lines) == 7 and all(line.endswith(" ok") for line in lines), run.stdout
