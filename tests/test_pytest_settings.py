"""The repository's pytest settings let a failing test fail on its own.

``filterwarnings`` turns every DeprecationWarning into an error.  When a
hypothesis test fails, hypothesis imports its patch writer, and the
libraries under it may warn on import; if that warning became an error, the
run would stop with INTERNALERROR before the next test and without the
falsifying example.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_tiny.py").write_text(TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out
