"""The benchmark's self-check as a tier-1 test.

``perfbench/tracer.py`` wraps wavekam functions by name and reports a name it
cannot find as a missing metric; its self-check fails on any missing name, so
a rename in ``src/`` that would blank a per-layer metric fails here.
"""

import subprocess
import sys
from pathlib import Path


def test_perfbench_selfcheck_passes():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
