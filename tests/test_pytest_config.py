"""The suite's pytest configuration reports a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # warnings are errors under this config; printing a falsifying example
    # must not raise one inside the Hypothesis plugin and abort the session
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
