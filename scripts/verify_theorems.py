#!/usr/bin/env python3
"""Run the three randomized verification suites back to back.

Equivalent to three `flatkit verify` invocations; exits nonzero if any
suite fails.
"""

import sys
from pathlib import Path

# run from a source checkout: import flatkit from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flatkit.cli import main  # noqa: E402

SUITES = [
    ["verify", "--suite", "kelly", "--trials", "100", "--seed", "7"],
    ["verify", "--suite", "main-theorem", "--k", "3", "--trials", "25",
     "--seed", "7"],
    ["verify", "--suite", "corollary", "--k", "2", "--trials", "50",
     "--seed", "7"],
]

if __name__ == "__main__":
    worst = 0
    for args in SUITES:
        print("$ flatkit " + " ".join(args))
        worst = max(worst, main(args))
    sys.exit(worst)
