#!/usr/bin/env python3
"""Benchmark of the flatkit CLI on seeded workloads.

    python3 perfbench/run.py --workload kelly --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; flatkit is imported from its
`src/` directory.  Each op is one in-process call of
`flatkit.cli.main(argv)` with `--json`, made in a closed loop by one
client, and its exit code and document are checked against
`perfbench/reference/<workload>.json`.  The workloads are defined in
`perfbench/spec.json`.

`--trace 0` runs ops for `--seconds` seconds and reports the end-to-end
metrics.  Times are reported at a fixed reference machine speed: a short
exact-arithmetic kernel runs between ops and, from a timer signal, every
`interval_s` inside them (`Meter`), and every op's time is scaled by the
kernel's reference time over its mean time around and inside that op.  On
a shared host whose speed drifts by a third within a minute this keeps
what the program does apart from what the host does; the wall-clock
figures are kept in the record.

`--trace 1` runs a fixed list of ops (so that counts repeat exactly), each
op first untraced and then under `layertrace.Tracer`, and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}.  A full record
with the environment and per-op verdicts is written to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"
READY = "setup-ready"
P90_MIN_SAMPLES = 100
PROBE_TIMEOUT_S = 150


def _kernel():
    """Gauss-Jordan elimination over Q of a fixed 9x9 matrix: the Fraction
    arithmetic, list and generator churn that dominate flatkit's own time,
    in code the program cannot change."""
    n = 9
    m = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + 2 * j) % 5)
          for j in range(n)] for i in range(n)]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


class Meter:
    """The machine's speed relative to the reference, from timed runs of
    `_kernel`: `calibrate` runs it `reps` times between ops, and within
    `sampling` a SIGALRM handler runs it once every `interval_s`, so that
    a change of speed inside a long op is seen too.  `take` returns what
    was gathered since its last call: kernel seconds, kernel runs, and the
    seconds the handler took from the code it interrupted."""

    def __init__(self, calibration):
        self.reps = calibration["reps"]
        self.reference_s = calibration["reference_s"]
        self.interval_s = calibration["interval_s"]
        self.kernel_s, self.runs, self.stolen_s = 0.0, 0, 0.0

    def _time_kernel(self, runs):
        t0 = time.perf_counter()
        for _ in range(runs):
            _kernel()
        dt = time.perf_counter() - t0
        self.kernel_s += dt
        self.runs += runs
        return dt

    def calibrate(self):
        self._time_kernel(self.reps)

    def _sample(self, signum, frame):
        self.stolen_s += self._time_kernel(1)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self):
        got = self.kernel_s, self.runs, self.stolen_s
        self.kernel_s, self.runs, self.stolen_s = 0.0, 0, 0.0
        return got

    def speed(self, *readings):
        """Reference time of one kernel run / its mean time in `readings`."""
        return (self.reference_s * sum(r[1] for r in readings)
                / sum(r[0] for r in readings))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def op_key(argv):
    return " ".join(argv)


def strip_stats(doc):
    """The document without its `stats` fields, whose counters may change
    meaning while the verdict stays the same."""
    if isinstance(doc, dict):
        return {k: strip_stats(v) for k, v in doc.items() if k != "stats"}
    if isinstance(doc, list):
        return [strip_stats(v) for v in doc]
    return doc


def pool_argv(workload, c, s):
    return [a.format(c=c, s=s) for a in workload["argv"]]


def pool_offset(spec, seed):
    """First instance seed of the pool that `seed` draws from."""
    return spec["held_out_pool_offset"] if seed == spec["held_out_seed"] else 0


def warmup_argv(workload, offset):
    return pool_argv(workload, workload["conductors"][0], offset)


def op_sequence(name, workload, seed, offset):
    """Endless seeded op sequence: conductors in turn, and for each
    conductor the instance seeds of the pool in a seeded order."""
    conductors, pool = workload["conductors"], workload["pool"]
    perms = []
    for c in conductors:
        perm = list(range(pool))
        random.Random(f"{seed}/{name}/{c}").shuffle(perm)
        perms.append(perm)
    i = 0
    while True:
        j = i % len(conductors)
        yield pool_argv(workload, conductors[j],
                        offset + perms[j][(i // len(conductors)) % pool])
        i += 1


def import_cli():
    """Import flatkit from this checkout's src/ and no other place."""
    sys.path.insert(0, str(SRC))
    from flatkit import cli
    if Path(cli.__file__).resolve().parent != SRC / "flatkit":
        sys.exit(f"run.py: imported flatkit from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv, meter=None):
    """One op, sampled by `meter` if given: returns (seconds, exit code or
    None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    sampling = meter.sampling() if meter else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            sampling:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects the argv
            rc = exc.code
        except Exception as exc:    # a traceback is a failed op
            rc, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), error or err.getvalue()


def verdict(reference, argv, rc, stdout, error):
    """(ok, digest): whether the op matches its reference entry, and a
    short digest of what it returned."""
    try:
        doc = strip_stats(json.loads(stdout))
    except ValueError:
        doc = {"unparsed stdout": stdout, "error": error}
    got = [rc, doc]
    digest = f"{zlib.crc32(json.dumps(got, sort_keys=True).encode()):08x}"
    return got == reference.get(op_key(argv)), digest


class Ops:
    """Runs ops in a scratch working directory (verify dumps failing
    instances into the current directory) and tallies their verdicts."""

    def __init__(self, cli, reference, workdir):
        self.cli, self.reference, self.workdir = cli, reference, workdir
        self.attempted = self.failed = 0
        self.verdicts = []

    def run(self, argv, meter=None):
        dt, rc, stdout, error = call(self.cli, argv, meter)
        ok, digest = verdict(self.reference, argv, rc, stdout, error)
        self.attempted += 1
        self.failed += not ok
        self.verdicts.append([op_key(argv), rc, digest, ok])
        # An op leaves reference cycles behind.  A CLI process exits
        # before they are collected; here they would pile up over many
        # ops, so peak RSS would grow with the op count and full
        # collections would land inside random later ops.
        gc.collect()
        return dt


def setup(name, workload, offset):
    """Everything before the first timed op: import flatkit, load the
    reference verdicts of this workload only, run one untimed warm-up op."""
    cli = import_cli()
    reference = load_json(REFERENCE / f"{name}.json")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT))
    os.chdir(workdir)
    ops = Ops(cli, reference, workdir)
    ops.run(warmup_argv(workload, offset))
    gc.freeze()   # later collections skip the reference and the modules
    return ops


def measure_setup(args, probes, meter):
    """Median over `probes` fresh processes of the time from start until
    they are ready for the first timed op, at reference speed, and the
    wall times.  Each probe samples the speed while it sets up."""
    times, scaled = [], []
    meter.calibrate()
    before = meter.take()
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                ready = time.perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        tag, _, reading = line.partition(" ")
        if tag != READY or proc.returncode != 0:
            sys.exit(f"run.py: setup probe failed (exit {proc.returncode})")
        inside = json.loads(reading)
        meter.calibrate()
        after = meter.take()
        times.append(ready - inside[2])
        scaled.append(times[-1] * meter.speed(before, inside, after))
        before = after
    return statistics.median(scaled), times


def timed_loop(ops, sequence, seconds, meter):
    """Closed loop: ops back to back, each followed by a calibration,
    until `seconds` have passed.  Returns per-op latencies, per-op cycle
    times (op, verdict check and collection), both without the time of
    the samples taken inside the op, and per-op machine speeds."""
    latencies, cycles, speeds = [], [], []
    meter.calibrate()
    before = meter.take()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        latency = ops.run(next(sequence), meter)
        cycle = time.perf_counter() - t0
        inside = meter.take()
        meter.calibrate()
        after = meter.take()
        latencies.append(latency - inside[2])
        cycles.append(cycle - inside[2])
        speeds.append(meter.speed(before, inside, after))
        before = after
    return latencies, cycles, speeds


def p90(ms):
    return (statistics.quantiles(ms, n=10, method="inclusive")[-1]
            if len(ms) >= P90_MIN_SAMPLES else None)


def end_to_end(args, workload, offset, meter):
    setup_s, setup_samples = measure_setup(args, workload["setup_probes"],
                                           meter)
    ops = setup(args.workload, workload, offset)
    sequence = op_sequence(args.workload, workload, args.seed, offset)
    latencies, cycles, speed = timed_loop(ops, sequence, args.seconds, meter)
    ms = [1000 * x * v for x, v in zip(latencies, speed)]
    wall_ms = [1000 * x for x in latencies]
    metrics = {
        "ops_per_s": len(ms) / sum(c * v for c, v in zip(cycles, speed)),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90(ms),
        "samples": len(ms),
        "failed_ratio": ops.failed / ops.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "machine_speed": statistics.median(speed),
        "wall.ops_per_s": len(ms) / sum(cycles),
        "wall.latency_p50_ms": statistics.median(wall_ms),
        "wall.setup_s": statistics.median(setup_samples),
    }
    return ops, metrics, {"setup_samples_s": setup_samples,
                          "latencies_s": latencies, "speeds": speed}


def per_layer(args, workload, offset, meter):
    from layertrace import Tracer

    ops = setup(args.workload, workload, offset)
    sequence = op_sequence(args.workload, workload, args.seed, offset)
    tracer = Tracer()
    untraced, traced, cals = [], [], []
    # Each op runs untraced and then traced, back to back and each scaled
    # by the speed measured between ops, so that the host's drift over the
    # run falls out of each ratio.  No samples are taken inside the ops,
    # whose spans would count them.
    meter.calibrate()
    cals.append(meter.take())
    for i in range(workload["trace_ops"]):
        argv = next(sequence)
        untraced.append(ops.run(argv))
        meter.calibrate()
        cals.append(meter.take())
        with tracer.installed(), tracer.op(i):
            traced.append(ops.run(argv))
        meter.calibrate()
        cals.append(meter.take())
    # Verdicts are [warm-up, untraced, traced, untraced, traced, ...].
    if ([v[:3] for v in ops.verdicts[1::2]]
            != [v[:3] for v in ops.verdicts[2::2]]):
        ops.failed += 1   # tracing changed what the program returned
    metrics = tracer.metrics()
    speed = [meter.speed(a, b) for a, b in zip(cals, cals[1:])]
    metrics["trace.overhead"] = statistics.median(
        t * vt / (u * vu)
        for t, u, vu, vt in zip(traced, untraced, speed[0::2], speed[1::2]))
    extra = {"untraced_s": untraced, "traced_s": traced,
             "functions": tracer.by_function(),
             "spans": {"fields": ["id", "parent", "op", "name",
                                  "start_s", "end_s"],
                       "rows": tracer.spans}}
    return ops, metrics, extra


def metric_units(spec, bench):
    """Units of every metric: BENCHMARK.json gives those of the metrics
    on the result line, spec.json those reported in the record only."""
    units = {k: d["unit"] for k, d in spec["metrics"].items() if "unit" in d}
    units.update((m["name"], m["unit"])
                 for m in bench["end_to_end"] + bench["per_layer"])
    return units


def environment():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit or "unknown"}


def main(argv=None):
    if not (SRC / "flatkit" / "__init__.py").is_file():
        sys.exit(f"run.py: no flatkit sources under {SRC}")
    spec = load_json(HERE / "spec.json")
    bench = load_json(ROOT / "BENCHMARK.json")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, default=spec["default_seed"])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = spec["workloads"][args.workload]
    offset = pool_offset(spec, args.seed)

    meter = Meter(spec["calibration"])
    if args.setup_probe:
        with meter.sampling():
            ops = setup(args.workload, workload, offset)
        os.chdir(ROOT)
        shutil.rmtree(ops.workdir)
        print(READY, json.dumps(meter.take()), flush=True)
        return 0

    if args.trace:
        ops, metrics, extra = per_layer(args, workload, offset, meter)
        listed = bench["per_layer"]
    else:
        ops, metrics, extra = end_to_end(args, workload, offset, meter)
        listed = bench["end_to_end"]
    os.chdir(ROOT)
    leftovers = sorted(p.name for p in ops.workdir.iterdir())
    shutil.rmtree(ops.workdir)

    units = metric_units(spec, bench)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "attempted": ops.attempted, "failed": ops.failed,
        "files_left_by_ops": leftovers,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(record))
    record.update(extra, verdicts=ops.verdicts)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)

    result = {
        "correct": ops.failed == 0 and not leftovers,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
