#!/usr/bin/env python3
"""Run every workload once and print its metrics, one workload per row.

    python3 perfbench/table.py [--seed N] [--trace]

Without --trace: the end-to-end metrics, each headed by name and unit.
With --trace: every per-layer metric (rows) of every workload (columns),
the tracing overhead included.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def record(workload, seed, trace):
    """The full metric record run.py prints before its result line."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    rec, result = json.loads(lines[-2]), json.loads(lines[-1])
    rec["correct"] = result["correct"]
    return rec


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main():
    spec = run.load_json(run.HERE / "spec.json")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=spec["default_seed"])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    names = list(spec["workloads"])
    recs = {w: record(w, args.seed, args.trace) for w in names}
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = [m for m, d in spec["metrics"].items() if d["kind"] == kind]
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    units = run.metric_units(spec, bench)

    if args.trace:
        width = max(len(f"{m} ({units[m]})") for m in metrics)
        print(f"{'metric (unit)':<{width}}  "
              + "  ".join(f"{w:>14}" for w in names))
        for m in metrics + ["correct"]:
            label = f"{m} ({units[m]})" if m in units else m
            cells = (fmt(recs[w]["metrics"][m]["value"]) if m in units
                     else str(recs[w][m]) for w in names)
            print(f"{label:<{width}}  " + "  ".join(f"{c:>14}" for c in cells))
        return
    heads = ["workload"] + [f"{m} ({units[m]})" for m in metrics] + ["correct"]
    rows = [[w] + [fmt(recs[w]["metrics"][m]["value"]) for m in metrics]
            + [str(recs[w]["correct"])] for w in names]
    widths = [max(len(r[i]) for r in [heads] + rows) for i in range(len(heads))]
    for r in [heads] + rows:
        print("  ".join(c.rjust(n) for c, n in zip(r, widths)))


if __name__ == "__main__":
    main()
