"""The experiment scripts run end to end at tiny sizes, so they cannot break
unseen while they remain (ROADMAP item 5 moves them into the benchmark
harness)."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("phantom_benchmark.py", ["--n", "1"]),
    ("runtime_scaling.py", ["--sizes", "96,192", "--repeats", "1"]),
])
def test_script_runs_at_a_tiny_size(script, args):
    out = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
