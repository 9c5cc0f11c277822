#!/usr/bin/env python3
"""Record perfbench/reference/<workload>.json: the exit code and the --json
document, `stats` fields removed, of every op any workload seed can
produce, that is of both instance pools of every workload.

    python3 perfbench/record_reference.py

Run it only at a commit whose verdicts are trusted; the benchmark counts
every later deviation from these files as a failed op.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def pool_ops(workload, offsets):
    argvs = (run.pool_argv(workload, c, offset + s)
             for offset in offsets for c in workload["conductors"]
             for s in range(workload["pool"]))
    return list({run.op_key(argv): argv for argv in argvs}.values())


def main():
    spec = run.load_json(run.HERE / "spec.json")
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.OUT)
    os.chdir(workdir)
    files = {}
    try:
        for name, workload in spec["workloads"].items():
            lines = ["{"]
            argvs = pool_ops(workload, (0, spec["held_out_pool_offset"]))
            for i, argv in enumerate(argvs):
                _, rc, stdout, error = run.call(cli, argv)
                if rc is None:
                    sys.exit(f"{run.op_key(argv)}: {error}")
                entry = [rc, run.strip_stats(json.loads(stdout))]
                comma = "," if i + 1 < len(argvs) else ""
                lines.append(f" {json.dumps(run.op_key(argv))}: "
                             f"{json.dumps(entry)}{comma}")
            lines.append("}")
            files[name] = "\n".join(lines) + "\n"
            print(f"{name}: {len(argvs)} ops", file=sys.stderr)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir)
    run.REFERENCE.mkdir(exist_ok=True)
    for name, text in files.items():
        with open(run.REFERENCE / f"{name}.json", "w") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
