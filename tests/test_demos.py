"""The narrated demo scripts print byte-identical stdout.

Each script runs in a fresh interpreter on this checkout's sources under
`python -W error`, so any warning, numpy's included, ends it with a
traceback; its temporary directory is the test's own, and that path is
replaced by a fixed placeholder before hashing. A change that moves a demo's output on
purpose re-pins its hash here and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_prompt_round_trip.py": "bce86995b114f9d96a4877618f0c3ff0e5324f844ba18ee78d6e57cb3d34a8aa",
    "02_keyframes_vs_uniform.py": "d6b9b3d50e1b59ba68aa82f1abd9d410f2a28cace94fd819816e87be649d1c3e",
    "03_simulator_tour.py": "06990467962ef9b3268e89f0db0a53f87c45ce9722e9d8685a69e80da247acf4",
    "04_eval_pipeline.py": "5d58ac5f1d7d8e98d69ca48d8a078d217282a333b1cb8404dca71da219c64ff0",
    "05_ablations.py": "54685419d6a3e3af17447a296586d53c274947c6f1be9ebabd5ed89663857e0d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    stdout = done.stdout.replace(str(tmp_path).encode(), b"<TMPDIR>")
    assert hashlib.sha256(stdout).hexdigest() == DEMO_STDOUT_SHA256[script]
