#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny length untraced and twice traced, and
checks that
  - every metric BENCHMARK.json and spec.json name is reported, with its unit,
    and each metric of BENCHMARK.json is described in spec.json under the
    same kind and without a second unit;
  - the verdicts are correct and the same traced and untraced;
  - every count repeats exactly across the two traced runs;
  - nothing is written into the working tree outside .perfbench/ and
    __pycache__/;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exits 1 and names each failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY_SECONDS = "0.5"
WRITABLE = {".git", ".perfbench", "__pycache__"}
problems = []


def check(ok, message):
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def snapshot(root):
    out = {}
    for path in root.rglob("*"):
        rel = path.relative_to(root)
        if path.is_file() and not WRITABLE & set(rel.parts):
            st = path.stat()
            out[str(rel)] = (st.st_size, st.st_mtime_ns)
    return out


def bench(workload, seed, trace):
    """(result line, full record) of one run."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", TINY_SECONDS,
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    check(proc.returncode == 0, f"{workload} trace={trace}: exit "
          f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = run.OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return result, run.load_json(path)


def check_metrics(workload, result, record, listed, units, spec, kind):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0,
          f"{workload} {kind}: {result['failed']} failed ops")
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload} {kind}: result metrics {got} != {want}")
    want = {k: units[k] for k, d in spec["metrics"].items()
            if d["kind"] == kind}
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    check(got == want, f"{workload} {kind}: record metrics differ from "
          f"spec.json: {sorted(set(got) ^ set(want))}")


def counts(record):
    return {k: v["value"] for k, v in record["metrics"].items()
            if v["unit"] in ("count", "ratio") and k != "trace.overhead"}


def check_empty_checkout():
    """Without src/, run.py must refuse to run."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "tightness", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and "correct" not in proc.stdout,
              f"empty checkout: exit {proc.returncode}, stdout "
              f"{proc.stdout!r}")


def main():
    spec = run.load_json(run.HERE / "spec.json")
    listed = run.load_json(run.ROOT / "BENCHMARK.json")
    units = run.metric_units(spec, listed)
    for kind in ("end_to_end", "per_layer"):
        for m in listed[kind]:
            d = spec["metrics"].get(m["name"], {})
            check(d.get("kind") == kind and "unit" not in d,
                  f"{m['name']}: spec.json entry {d} does not match "
                  f"BENCHMARK.json's {kind} list")
    seed = spec["default_seed"]
    before = snapshot(run.ROOT)
    for workload in spec["workloads"]:
        result, plain = bench(workload, seed, 0)
        check_metrics(workload, result, plain, listed["end_to_end"], units,
                      spec, "end_to_end")
        result, traced = bench(workload, seed, 1)
        check_metrics(workload, result, traced, listed["per_layer"], units,
                      spec, "per_layer")
        _, again = bench(workload, seed, 1)
        # Traced verdicts are [warm-up, op 0 untraced, op 0 traced, op 1
        # untraced, ...]; the untraced run's timed ops start the same
        # seeded sequence.
        seen = [v[:3] for v in traced["verdicts"]]
        first, second = seen[:1] + seen[1::2], seen[:1] + seen[2::2]
        m = min(len(plain["verdicts"]), len(first))
        check(first == second and
              [v[:3] for v in plain["verdicts"][:m]] == first[:m],
              f"{workload}: traced and untraced verdicts differ")
        check(counts(traced) == counts(again),
              f"{workload}: counts differ across traced runs: "
              f"{counts(traced)} vs {counts(again)}")
        check({k: v["calls"] for k, v in traced["functions"].items()}
              == {k: v["calls"] for k, v in again["functions"].items()},
              f"{workload}: per-function call counts differ")
        print(f"{workload}: checked", flush=True)
    check_empty_checkout()
    after = snapshot(run.ROOT)
    check(before == after, "working tree changed: "
          f"{sorted(set(before.items()) ^ set(after.items()))}")
    print("FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
