"""The scripts README tells users to run work from a plain source
checkout, without installing flatkit or setting PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["verify_theorems.py"],
    ["run_conjecture_search.py", "--trials", "2"],
])
def test_script_runs_from_a_checkout(argv, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "$ flatkit " in done.stdout
