"""The narrative demos run end to end and print their key lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import agenet

_DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo, line", [
    ("coupling_sweep.py", " 0.00   0.666667   0.500000   -1.0005  yes"),
    ("delay_comparison.py",
     "fast kernel vs no delay: relative rate difference 0.000"),
    ("relaxation_rate.py", "spectral gap of the linearization: -1.0006"),
])
def test_demo_runs_in_a_fresh_interpreter(demo, line):
    src = str(Path(agenet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(_DEMOS / demo)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
