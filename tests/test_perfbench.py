"""The benchmark runs end to end at smoke size and checks its own outputs.

`perfbench/run.py` exits 0 even when a check fails; the last line of its
standard output is a JSON object whose "correct" field says whether every
output checked. Each workload runs in a fresh interpreter from the
checkout root, as the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["eval-fresh", "ablation-sweeps", "remote-eval"])
def test_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
