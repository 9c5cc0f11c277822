"""The test runner's own settings: a failing test is reported as such."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    assert x < 0


def test_planted_pass():
    pass
'''


def test_failing_hypothesis_test_is_reported_with_the_rest(tmp_path):
    """Under the project's pytest settings, a failing Hypothesis test is
    reported as a failure and the tests after it still run: the warning
    filters turn warnings into errors, but not the deprecation warning
    that Hypothesis's report hook raises, which stopped the session.
    Hypothesis writes its example database and patches to the working
    directory, so the run is made in `tmp_path`."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED test_planted.py::test_planted_failure" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
