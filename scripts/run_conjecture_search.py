#!/usr/bin/env python3
"""Counterexample search for the two open conjectures at small k.

Any exit code 5 means a counterexample instance was dumped to a .mat
file in the working directory (and would be a publishable surprise).
"""

import argparse
import sys
from pathlib import Path

# run from a source checkout: import flatkit from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flatkit.cli import main  # noqa: E402


def run(seed, trials):
    worst = 0
    for conjecture in (1, 2):
        for k in (2, 3):
            args = ["search", "--conjecture", str(conjecture), "--k", str(k),
                    "--trials", str(trials), "--seed", str(seed)]
            print("$ flatkit " + " ".join(args))
            code = main(args)
            if code == 5:
                return 5
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    a = p.parse_args()
    sys.exit(run(a.seed, a.trials))
