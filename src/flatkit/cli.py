"""Command-line front end.

Exit codes are a stable contract:
  0 found / all-pass, 1 nothing found, 2 parse error or unreadable input
  file, 3 precondition refused, 4 verification failure (a failed trial
  or a failed runtime theorem check), 5 counterexample found, 6 budget
  exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import catalog as cat
from .errors import (
    BudgetExceededError,
    GenerationError,
    InternalInconsistencyError,
    MatrixParseError,
    UsageError,
)
from .matroid import (
    DEFAULT_CLOSURE_BUDGET,
    Flat,
    Matroid,
    load_matrix,
    save_matrix,
    write_matrix,
)
from .search import (
    CONJECTURE_RANK,
    SearchReport,
    SearchStats,
    conjecture_instances,
    find_elementary_flat,
    find_ordinary_flat_brute,
    find_ordinary_flat_constructive,
    find_two_point_line,
    is_elementary,
    is_ordinary,
    search_conjecture_counterexample,
)

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY_FAIL = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_BUDGET = 6


def _load_input(ref: str):
    """A positional input is a file path when it exists or looks like one,
    otherwise a catalog reference like `uniform:2,3`."""
    if os.path.exists(ref) or os.sep in ref or ref.endswith(".mat"):
        try:
            return load_matrix(ref)
        except OSError as exc:
            raise MatrixParseError(f"cannot read {ref}: {exc.strerror or exc}")
        except UnicodeDecodeError:
            raise MatrixParseError(f"cannot read {ref}: not a text file")
    return cat.build_ref(ref)


def _print(s=""):
    sys.stdout.write(s + "\n")


# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    if args.export:
        ref, path = args.export
        rep = cat.build_ref(ref)
        try:
            save_matrix(rep, path)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}")
        _print(f"wrote {ref} to {path}")
        return EXIT_FOUND
    _print(f"{'name':<14} {'params':<24} certified facts")
    for entry in cat.ENTRIES.values():
        facts = "; ".join(entry.certified_facts)
        _print(f"{entry.name:<14} {entry.params or '-':<24} {facts}")
    return EXIT_FOUND


def cmd_analyze(args) -> int:
    rep = _load_input(args.input)
    M = Matroid(rep)
    out = {
        "input": args.input,
        "conductor": rep.conductor,
        "rank": M.rank(),
        "elements": len(M.ground),
        "points": len(M.parallel_classes()),
        "simple": M.is_simple(),
    }
    if args.simple and args.flats is None:
        if args.json:
            _print(json.dumps({"simple": out["simple"]}))
        else:
            _print(f"simple: {out['simple']}")
        return EXIT_FOUND
    flats_out = None
    if args.flats is not None:
        flats = list(M.flats_of_rank(args.flats, budget=args.budget))
        flats_out = []
        for fl in flats:
            flats_out.append({
                "elements": list(fl.elements),
                "size": len(fl.elements),
                "points": len(M.parallel_classes(within=fl.elements)),
                # the empty flat is not ordinary: that takes rank >= 1
                "ordinary": fl.rank > 0 and is_ordinary(M, fl) is not None,
                "elementary": is_elementary(M, fl),
            })
        out["flats"] = {"rank": args.flats, "count": len(flats),
                        "list": flats_out}
    if args.json:
        _print(json.dumps(out))
        return EXIT_FOUND
    _print(f"rank {out['rank']}, {out['elements']} elements, "
           f"{out['points']} points, "
           f"{'simple' if out['simple'] else 'not simple'}, "
           f"conductor {out['conductor']}")
    if flats_out is not None:
        _print(f"rank-{args.flats} flats: {len(flats_out)}")
        for f in flats_out:
            tags = []
            tags.append("ordinary" if f["ordinary"] else "not ordinary")
            tags.append("elementary" if f["elementary"] else "not elementary")
            _print(f"  {{{', '.join(f['elements'])}}}  "
                   f"{f['points']} points, {', '.join(tags)}")
    return EXIT_FOUND


def _emit_find(args, payload):
    if args.json:
        _print(json.dumps(payload))
        return
    if payload["outcome"] != "witness found":
        _print(payload["outcome"])
        return
    w = payload["witness"]
    _print(f"flat: {{{', '.join(w['flat'])}}}")
    if w.get("point"):
        _print(f"  point:      {{{', '.join(w['point'])}}}")
        _print(f"  complement: {{{', '.join(w['complement'])}}}")
    if payload.get("trace"):
        for lv in payload["trace"]["levels"]:
            fields = [f"{name}={lv[name]}" for name in "xyzw"
                      if lv[name] is not None]
            fields.append(f"output={{{', '.join(lv['output'])}}}")
            _print(f"  level k={lv['k']}: {' '.join(fields)}")


def cmd_find_ordinary(args) -> int:
    rep = _load_input(args.input)
    M = Matroid(rep)
    trace = None
    if args.method == "constructive":
        w, trace = find_ordinary_flat_constructive(
            M, args.k, budget=args.budget)
    else:
        w = find_ordinary_flat_brute(M, args.k, budget=args.budget)
    payload = {"mode": args.method, "k": args.k,
               "outcome": "witness found" if w else "exhausted",
               "witness": w.to_json_dict() if w else None}
    if args.trace and trace is not None:
        payload["trace"] = trace.to_json_dict()
    _emit_find(args, payload)
    return EXIT_FOUND if w else EXIT_NONE


def cmd_find_elementary(args) -> int:
    rep = _load_input(args.input)
    M = Matroid(rep)
    flat = find_elementary_flat(M, args.k, budget=args.budget)
    payload = {"mode": "elementary", "k": args.k,
               "outcome": "witness found" if flat else "exhausted",
               "witness": {"flat": list(flat.elements)} if flat else None}
    _emit_find(args, payload)
    return EXIT_FOUND if flat else EXIT_NONE


# ---------------------------------------------------------------------------

# each suite's least k, and the rank of its trials at k
SUITES = {
    "kelly": (2, lambda k: 4),
    "main-theorem": (2, lambda k: 4 * (k - 1)),
    "corollary": (1, lambda k: 4 ** (k - 1)),
}


def _verify_trial(suite, M, k):
    if suite == "kelly":
        w = find_two_point_line(M)
        return w, w is not None
    if suite == "main-theorem":
        witness, _ = find_ordinary_flat_constructive(M, k)
        # independent recheck on a matroid built afresh from the
        # matrix; a witness that is not an ordinary flat of rank k there
        # fails the trial
        fresh = Matroid(M.to_representation())
        ok = is_ordinary(fresh, Flat(witness.flat.elements, k)) is not None
        return witness, ok
    # the corollary suite
    fl = find_elementary_flat(M, k)
    if fl is None:
        return fl, False
    # recheck on a fresh matroid as above: the flat must be closed
    # there, of rank k and with k points
    fresh = Matroid(M.to_representation())
    closed = fresh.closure(fl.elements)
    ok = (set(closed.elements) == set(fl.elements) and closed.rank == k
          and is_elementary(fresh, closed))
    return fl, ok


def cmd_verify(args) -> int:
    k = args.k
    if args.suite == "kelly":
        k = 2
    elif k is None:
        raise UsageError(f"--k is required for suite {args.suite}")
    least_k, suite_rank = SUITES[args.suite]
    if k < least_k:
        raise UsageError(f"{args.suite} suite needs k >= {least_k}")
    if k > cat.MAX_TRIAL_COLUMNS:
        # a suite's rank at k is at least k, and no trial has fewer
        # columns than its rank; refused before 4^(k-1) is computed
        raise UsageError(f"{args.suite} suite at k={k} would draw more than "
                         f"{cat.MAX_TRIAL_COLUMNS} columns")
    rank = suite_rank(k)
    cols = ((args.cols, args.cols) if args.cols is not None
            else (rank + 4, rank + 6))
    reports = []
    failures = []
    for s, M in cat.trial_instances(rank, args.trials, args.seed,
                                    args.conductor, cols):
        t0 = time.perf_counter()
        rank_calls, flats = M.rank_calls, M.flats_formed
        try:
            witness, ok = _verify_trial(args.suite, M, k)
        except InternalInconsistencyError as exc:
            # a failed theorem check ends the run; leave what replays it
            _dump_failure(args.suite, k, s, M, exc.trace)
            raise
        stats = SearchStats(rank_calls=M.rank_calls - rank_calls,
                            flats_enumerated=M.flats_formed - flats,
                            ms=(time.perf_counter() - t0) * 1000)
        reports.append(SearchReport(
            mode="verify", seed=s, conductor=args.conductor, rank=rank, k=k,
            outcome="witness found" if ok else "exhausted",
            witness=witness, stats=stats))
        if not ok:
            failures.append((s, M))
    if args.json:
        doc = {"suite": args.suite, "k": k, "trials": args.trials,
               "seed": args.seed, "conductor": args.conductor,
               "reports": [r.to_json_dict() for r in reports]}
        _print(json.dumps(doc))
    else:
        passed = sum(1 for r in reports if r.outcome == "witness found")
        for r in reports:
            _print(f"trial seed={r.seed} {r.outcome} "
                   f"({r.stats.rank_calls} rank calls, "
                   f"{r.stats.ms:.0f} ms)")
        _print(f"{passed}/{args.trials} pass")
    for s, M in failures:
        _dump_failure(args.suite, k, s, M)
    return EXIT_VERIFY_FAIL if failures else EXIT_FOUND


def _dump(what, path, text):
    """Write `text`, the dump of `what`, to `path` and say so on stderr,
    or say on stderr that it cannot be written.  Either way the command
    keeps its exit code: its result is already out.  Notices go to
    stderr, so that --json stdout stays one document."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"cannot write {path}: {exc.strerror or exc}\n")
        return
    sys.stderr.write(f"dumped {what} to {path}\n")


def _dump_failure(suite, k, seed, M, trace=None):
    """Dump the matrix of a failed trial's matroid to the working
    directory, and beside it the construction trace of a failed theorem
    check when it carries one."""
    stem = f"failure-{suite}-k{k}-seed{seed}"
    _dump("failing instance", stem + ".mat",
          write_matrix(M.to_representation()))
    if trace is not None:
        _dump("construction trace", stem + ".trace.json",
              json.dumps(trace.to_json_dict()))


def cmd_search(args) -> int:
    stream = conjecture_instances(args.conjecture, args.k, args.trials,
                                  args.seed, conductor=args.conductor)
    report = search_conjecture_counterexample(
        stream, args.conjecture, args.k, budget=args.budget)
    if args.json:
        _print(json.dumps(report.to_json_dict()))
    else:
        _print(f"conjecture {args.conjecture}, k={args.k}, "
               f"rank {report.rank}: {report.mode} / {report.outcome} "
               f"({report.stats.flats_enumerated} flats, "
               f"{report.stats.rank_calls} rank calls)")
    name = f"c{args.conjecture}-k{args.k}-seed{report.seed}.mat"
    if report.mode == "counterexample":
        _dump("counterexample", "counterexample-" + name,
              write_matrix(report.instance))
        return EXIT_COUNTEREXAMPLE
    if report.outcome == "budget exceeded":
        _dump("budget-exceeded instance", "failure-search-" + name,
              write_matrix(report.instance))
        return EXIT_BUDGET
    return EXIT_FOUND


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: building it costs more
    than a parse, and `main` may run many times in one process.  Its
    `commands` maps each subcommand's name to that command's parser."""
    p = argparse.ArgumentParser(
        prog="flatkit",
        description="exact search for ordinary and elementary flats of "
                    "matroids represented over cyclotomic fields")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices   # filled by each add_parser below

    c = sub.add_parser("catalog", help="list or export named constructions")
    c.add_argument("--export", nargs=2, metavar=("REF", "OUT"))
    c.set_defaults(func=cmd_catalog)

    a = sub.add_parser("analyze", help="rank/simplicity/flat report")
    a.add_argument("input")
    a.add_argument("--flats", type=int, default=None, metavar="K")
    a.add_argument("--simple", action="store_true")
    a.add_argument("--json", action="store_true")
    a.add_argument("--budget", type=int, default=DEFAULT_CLOSURE_BUDGET)
    a.set_defaults(func=cmd_analyze)

    fo = sub.add_parser("find-ordinary", help="find an ordinary rank-k flat")
    fo.add_argument("input")
    fo.add_argument("--k", type=int, required=True)
    fo.add_argument("--method", choices=("brute", "constructive"),
                    default="brute")
    fo.add_argument("--trace", action="store_true")
    fo.add_argument("--json", action="store_true")
    fo.add_argument("--budget", type=int, default=DEFAULT_CLOSURE_BUDGET)
    fo.set_defaults(func=cmd_find_ordinary)

    fe = sub.add_parser("find-elementary",
                        help="find an elementary rank-k flat")
    fe.add_argument("input")
    fe.add_argument("--k", type=int, required=True)
    fe.add_argument("--json", action="store_true")
    fe.add_argument("--budget", type=int, default=DEFAULT_CLOSURE_BUDGET)
    fe.set_defaults(func=cmd_find_elementary)

    v = sub.add_parser("verify", help="randomized theorem verification")
    v.add_argument("--suite", choices=tuple(SUITES), required=True)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--trials", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--cols", type=int, default=None)
    v.add_argument("--conductor", type=int, default=1,
                   choices=cat.SUPPORTED_CONDUCTORS)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("search", help="conjecture counterexample search")
    s.add_argument("--conjecture", type=int, choices=tuple(CONJECTURE_RANK),
                   required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--trials", type=int, default=25)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=DEFAULT_CLOSURE_BUDGET)
    s.add_argument("--conductor", type=int, default=1,
                   choices=cat.SUPPORTED_CONDUCTORS)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_search)
    return p


def _parse(argv):
    """The namespace of `argv` (None: `sys.argv[1:]`).  A known command's
    arguments go straight to its own parser: through the top-level parser
    they would be parsed twice, once to match the command and again by
    its parser.  Any other argv goes to the top-level parser.  The routes
    read alike but for an unrecognized argument after a known command,
    which that command's parser reports, under its own usage."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:])


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        for flag in ("trials", "budget"):
            if getattr(args, flag, 0) < 0:
                raise UsageError(f"--{flag} must be at least 0")
        return args.func(args)
    except MatrixParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except (UsageError, GenerationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
