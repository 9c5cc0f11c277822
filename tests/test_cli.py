"""CLI behavior: subcommands, exit codes, machine output."""

import contextlib
import io
import json
import os
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatkit import cli
from flatkit.catalog import ENTRIES, ag23, motzkin, random_instance, uniform
from flatkit.cli import main
from flatkit.matroid import write_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("ag23", "uniform", "motzkin", "ag23_power", "random"):
        assert name in out


def test_catalog_export_roundtrip(capsys, tmp_path):
    path = tmp_path / "ag23.mat"
    code, _, _ = run(capsys, "catalog", "--export", "ag23", str(path))
    assert code == 0
    c1, out1, _ = run(capsys, "analyze", str(path))
    c2, out2, _ = run(capsys, "analyze", "ag23")
    assert c1 == c2 == 0
    assert out1 == out2


def test_catalog_export_parametrized(capsys, tmp_path):
    path = tmp_path / "u23.mat"
    code, _, _ = run(capsys, "catalog", "--export", "uniform:2,3", str(path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0 and "rank 2, 3 elements" in out


def test_analyze_summary(capsys):
    code, out, _ = run(capsys, "analyze", "motzkin")
    assert code == 0
    assert "rank 4, 6 elements" in out and "simple" in out


def test_analyze_flats_annotations(capsys):
    code, out, _ = run(capsys, "analyze", "ag23", "--flats", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["flats"]["count"] == 12
    for f in doc["flats"]["list"]:
        assert f["points"] == 3
        assert not f["ordinary"] and not f["elementary"]


def test_analyze_rank_zero_flat(capsys):
    """The empty flat is listed, elementary and not ordinary."""
    code, out, _ = run(capsys, "analyze", "ag23", "--flats", "0", "--json")
    assert code == 0
    flats = json.loads(out)["flats"]
    assert flats["count"] == 1
    assert flats["list"] == [{"elements": [], "size": 0, "points": 0,
                              "ordinary": False, "elementary": True}]
    code, out, _ = run(capsys, "analyze", "ag23", "--flats", "0")
    assert code == 0
    assert out.splitlines()[1:] == [
        "rank-0 flats: 1", "  {}  0 points, not ordinary, elementary"]


@pytest.mark.parametrize("k", ["0", "1"])
def test_analyze_simple_with_flats_is_the_full_report(capsys, k):
    """--simple alone prints the simplicity only; with --flats, of any
    rank, 0 included, the report is the one without --simple."""
    code, out, _ = run(capsys, "analyze", "ag23", "--simple", "--json")
    assert code == 0 and json.loads(out) == {"simple": True}
    code, out, _ = run(capsys, "analyze", "ag23", "--simple")
    assert code == 0 and out == "simple: True\n"
    code, out, _ = run(capsys, "analyze", "ag23", "--simple", "--flats", k,
                       "--json")
    assert code == 0
    _, full, _ = run(capsys, "analyze", "ag23", "--flats", k, "--json")
    assert json.loads(out) == json.loads(full)
    assert json.loads(out)["flats"]["rank"] == int(k)


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.mat"
    bad.write_text("conductor 1\nsize 2 2\n1 0\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "parse error" in err
    # a conductor of 5,000 digits is past what int() takes
    bad.write_text("conductor " + "3" * 5000 + "\nsize 1 1\n1\n")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.endswith("(line 1)\n")


def test_find_ordinary_ag23_none_exit_1(capsys):
    code, _, _ = run(capsys, "find-ordinary", "ag23", "--k", "2",
                     "--method", "brute")
    assert code == 1


def test_find_ordinary_constructive_trace(capsys):
    code, out, _ = run(capsys, "find-ordinary", "random:8,13,1,42",
                       "--k", "3", "--method", "constructive",
                       "--trace", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "witness found"
    assert doc["witness"]["point"] and doc["witness"]["complement"]
    assert doc["trace"]["levels"][-1]["k"] == 3


def test_find_text_output(capsys):
    """The text form of a witness: each flat in braces, and a trace level
    with only the fields it sets."""
    code, out, _ = run(capsys, "find-ordinary", "ag23_power:2", "--k", "3",
                       "--method", "brute")
    assert code == 0 and out == ("flat: {c1.h1, c1.h2, c1.h3, c2.h1}\n"
                                 "  point:      {c2.h1}\n"
                                 "  complement: {c1.h1, c1.h2, c1.h3}\n")
    code, out, _ = run(capsys, "find-ordinary", "random:8,13,1,42",
                       "--k", "3", "--method", "constructive", "--trace")
    assert code == 0 and out == (
        "flat: {e1, e2, e5}\n"
        "  point:      {e1}\n"
        "  complement: {e2, e5}\n"
        "  level k=2: output={e1, e2}\n"
        "  level k=3: x=e5 y=e6 z=e1 w=e5 output={e1, e2, e5}\n")
    code, out, _ = run(capsys, "find-elementary", "random:16,20,1,0",
                       "--k", "3")
    assert code == 0 and out == "flat: {e1, e2, e5}\n"


def test_find_ordinary_constructive_precondition_exit_3(capsys):
    code, _, err = run(capsys, "find-ordinary", "ag23", "--k", "3",
                       "--method", "constructive")
    assert code == 3


def test_find_elementary_ag23_power_exit_1(capsys):
    code, _, _ = run(capsys, "find-elementary", "ag23_power:2", "--k", "3")
    assert code == 1


def test_find_elementary_found(capsys):
    code, out, _ = run(capsys, "find-elementary", "motzkin", "--k", "2",
                       "--json")
    assert code == 0
    assert json.loads(out)["outcome"] == "witness found"


def test_verify_kelly(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kelly",
                       "--trials", "5", "--seed", "7")
    assert code == 0
    assert "5/5 pass" in out


def test_verify_main_theorem_json_deterministic(capsys):
    args = ("verify", "--suite", "main-theorem", "--k", "3",
            "--trials", "3", "--seed", "7", "--json")
    c1, out1, _ = run(capsys, *args)
    c2, out2, _ = run(capsys, *args)
    assert c1 == c2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["reports"]) == 3
    assert all(r["outcome"] == "witness found" for r in doc["reports"])


def test_verify_requires_k(capsys):
    code, _, err = run(capsys, "verify", "--suite", "main-theorem",
                       "--trials", "1")
    assert code == 3


def test_search_conjecture1_k2(capsys):
    code, out, _ = run(capsys, "search", "--conjecture", "1", "--k", "2",
                       "--trials", "5", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "verify" and doc["outcome"] == "witness found"


def test_search_conjecture2_k2(capsys):
    code, _, _ = run(capsys, "search", "--conjecture", "2", "--k", "2",
                     "--trials", "5", "--seed", "3")
    assert code == 0


def test_search_budget_exit_6(capsys, monkeypatch, tmp_path):
    from flatkit.matroid import load_matrix
    from flatkit.search import conjecture_instances

    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "search", "--conjecture", "1", "--k", "3",
                         "--trials", "2", "--seed", "3", "--budget", "2",
                         "--json")
    assert code == 6
    doc = json.loads(out)  # the dump notice is on stderr
    s, M = next(conjecture_instances(1, 3, 1, 3))
    assert doc["outcome"] == "budget exceeded" and doc["seed"] == s
    path = f"failure-search-c1-k3-seed{s}.mat"
    assert os.listdir(tmp_path) == [path]
    assert load_matrix(tmp_path / path) == M.to_representation()
    assert f"dumped budget-exceeded instance to {path}" in err
    code, out, _ = run(capsys, "search", "--conjecture", "1", "--k", "3",
                       "--trials", "2", "--seed", "3", "--budget", "2")
    assert code == 6
    assert out.startswith("conjecture 1, k=3, rank 5: verify / budget "
                          "exceeded (3 flats, ")
    assert "closure" not in out


def test_search_counterexample_exit_5(capsys, monkeypatch, tmp_path):
    """An exhausted slice is a counterexample: exit 5, the instance
    dumped, and --json stdout one document with the notice on stderr."""
    from flatkit import search
    from flatkit.matroid import load_matrix

    monkeypatch.setattr(search, "find_ordinary_flat_brute",
                        lambda *args, **kwargs: None)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "search", "--conjecture", "1", "--k", "2",
                         "--trials", "1", "--json")
    assert code == 5
    doc = json.loads(out)
    assert doc["mode"] == "counterexample" and doc["outcome"] == "exhausted"
    s, M = next(search.conjecture_instances(1, 2, 1, 0))
    path = f"counterexample-c1-k2-seed{s}.mat"
    assert doc["seed"] == s and os.listdir(tmp_path) == [path]
    assert load_matrix(tmp_path / path) == M.to_representation()
    assert f"dumped counterexample to {path}" in err


@pytest.mark.parametrize("argv", [
    ["find-elementary", "random:16,20,1,0", "--k", "3"],
    ["find-ordinary", "random:8,12,1,0", "--k", "3",
     "--method", "constructive"],
])
def test_constructive_branch_budget_exit_6(capsys, argv):
    # both runs reach the constructive recursion, whose choice of F'
    # forms more than one flat
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 6 and out == ""
    assert err.startswith("budget exceeded: flat budget ")


def test_search_k1_rejected(capsys, monkeypatch):
    monkeypatch.setattr(cli.cat, "_draw_columns", None)  # nothing drawn
    code, out, err = run(capsys, "search", "--conjecture", "1", "--k", "1",
                         "--trials", "1")
    assert code == 3 and out == ""
    assert err == "error: conjectures are stated for k >= 2\n"


def test_threads_option_removed(capsys):
    for argv in (("verify", "--suite", "kelly", "--trials", "1"),
                 ("search", "--conjecture", "2", "--k", "2", "--trials", "1")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 2


def test_summary_option_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "ag23", "--summary"])
    assert exc.value.code == 2


def test_search_budget_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--conjecture", "2", "--k", "2", "--trials", "1",
              "--budget", "1e400"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--suite", "main-theorem", "--k", "3", "--trials", "-3",
      "--json"], "--trials"),
    (["verify", "--suite", "kelly", "--trials", "-1"], "--trials"),
    (["search", "--conjecture", "1", "--k", "2", "--trials", "-1"],
     "--trials"),
    (["search", "--conjecture", "1", "--k", "2", "--budget", "-1",
      "--json"], "--budget"),
    (["find-ordinary", "ag23", "--k", "2", "--budget", "-5"], "--budget"),
    (["find-ordinary", "random:8,12,1,0", "--k", "3", "--method",
      "constructive", "--budget", "-1"], "--budget"),
    (["find-elementary", "ag23", "--k", "2", "--budget", "-1"], "--budget"),
    (["analyze", "ag23", "--flats", "2", "--budget", "-1", "--json"],
     "--budget"),
])
def test_negative_trials_or_budget_exit_3(capsys, monkeypatch, tmp_path,
                                          argv, flag):
    drawn = []
    monkeypatch.setattr(cli.cat, "_draw_columns",
                        lambda *args: drawn.append(args))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err == f"error: {flag} must be at least 0\n"
    assert drawn == [] and os.listdir(tmp_path) == []


def test_zero_trials_and_budget_keep_their_meaning(capsys, monkeypatch,
                                                   tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "--suite", "main-theorem", "--k",
                       "3", "--trials", "0", "--json")
    assert code == 0 and json.loads(out)["reports"] == []
    # a search with no instance has no witness to report
    code, out, err = run(capsys, "search", "--conjecture", "1", "--k", "2",
                         "--trials", "0", "--json")
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ")
    for argv in (["find-ordinary", "ag23", "--k", "2"],
                 ["find-elementary", "ag23", "--k", "2"],
                 ["analyze", "ag23", "--flats", "2"]):
        code, out, err = run(capsys, *argv, "--budget", "0")
        assert code == 6 and out == ""
        assert err == "budget exceeded: flat budget 0 exceeded\n"
    assert os.listdir(tmp_path) == []


def test_missing_input_file_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", str(tmp_path / "nodir" / "missing.mat"))
    assert code == 2 and out == ""
    assert err.startswith("parse error: cannot read ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("rows", [0, 1])
def test_huge_declared_column_count_exit_2(capsys, tmp_path, rows):
    """A three-line file declaring 10^11 columns is a parse error, not a
    memory error: nothing of the declared size is built."""
    path = tmp_path / "huge.mat"
    path.write_text(f"conductor 1\nsize {rows} {10**11}\n" + "1\n" * rows)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("conductor, rows, cols", [(1, 1, 73), (3, 73, 1),
                                                   (23, 7, 2)])
def test_file_one_over_a_size_cap_exit_2(capsys, tmp_path, conductor, rows,
                                         cols):
    """A file with one column more than MAX_FILE_COLUMNS, or one row more
    than MAX_FILE_COLUMN_LENGTH allows at its conductor, is a parse error
    on its size line: nothing after that line is read."""
    path = tmp_path / "big.mat"
    path.write_text(f"conductor {conductor}\nsize {rows} {cols}\n"
                    + ("1 " * cols + "\n") * rows)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.endswith("(line 2)\n")


def test_binary_input_file_exit_2(capsys, tmp_path):
    path = tmp_path / "noise.mat"
    path.write_bytes(b"\xff\xfe\x00conductor")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and err.startswith("parse error: cannot read ")


def test_internal_inconsistency_exit_4(capsys, monkeypatch, tmp_path):
    from flatkit import cli
    from flatkit.errors import InternalInconsistencyError

    def broken(M):
        raise InternalInconsistencyError("planted failure")

    start = Path.cwd()
    litter = set(start.glob("failure-*"))
    monkeypatch.setattr(cli, "find_two_point_line", broken)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "verify", "--suite", "kelly", "--trials", "1")
    assert code == 4
    assert err.splitlines() == [
        "dumped failing instance to failure-kelly-k2-seed0.mat",
        "internal inconsistency: planted failure"]
    assert set(start.glob("failure-*")) == litter


def test_rank_4_without_a_two_point_line_exit_4(capsys, monkeypatch,
                                                 tmp_path):
    """`find_two_point_line`'s own check: with every closure planted as
    the whole ground set no pair closes to two points, and at rank 4 that
    is impossible for a matrix, so the kelly suite exits 4."""
    from flatkit.matroid import Flat, Matroid

    def whole(M, *args):
        return Flat(M.ground, M.rank())

    monkeypatch.setattr(Matroid, "closure", whole)
    monkeypatch.setattr(Matroid, "_closure", whole)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "kelly", "--trials", "1")
    assert code == 4 and out == ""
    assert err.splitlines() == [
        "dumped failing instance to failure-kelly-k2-seed0.mat",
        "internal inconsistency: rank >= 4 with no two-point line: "
        "impossible for matrix-defined input, so some rank computation is "
        "wrong"]


def test_verify_dumps_instance_and_trace_on_failed_theorem_check(
        capsys, monkeypatch, tmp_path):
    from flatkit.catalog import trial_instances
    from flatkit.errors import InternalInconsistencyError
    from flatkit.matroid import Flat, load_matrix
    from flatkit.search import ConstructionTrace, TraceLevel

    trace = ConstructionTrace([TraceLevel(k=2, output=Flat(("e1", "e2"), 2))])

    def broken(M, k):
        raise InternalInconsistencyError("planted failure", trace=trace)

    monkeypatch.setattr(cli, "find_ordinary_flat_constructive", broken)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "main-theorem",
                         "--k", "2", "--trials", "3", "--seed", "5", "--json")
    assert code == 4 and "planted failure" in err
    s, M = next(trial_instances(4, 1, 5, 1, (8, 10)))
    stem = f"failure-main-theorem-k2-seed{s}"
    assert sorted(os.listdir(tmp_path)) == [stem + ".mat",
                                            stem + ".trace.json"]
    assert load_matrix(tmp_path / (stem + ".mat")) == M.to_representation()
    assert json.loads((tmp_path / (stem + ".trace.json")).read_text()) == \
        trace.to_json_dict()
    # the failed check ends the run before the document; notices on stderr
    assert out == ""
    assert f"dumped failing instance to {stem}.mat" in err
    assert f"dumped construction trace to {stem}.trace.json" in err


def test_failed_two_point_line_check_dumps_the_trace(capsys, monkeypatch,
                                                     tmp_path):
    """A two-point-line check that fails inside the constructive search,
    here the base level's at k=3, ends the run with the construction
    trace dumped beside the instance."""
    from flatkit import search
    from flatkit.errors import InternalInconsistencyError

    calls = []
    line = search.find_two_point_line

    def second_call_fails(M):
        calls.append(M)
        if len(calls) == 2:
            raise InternalInconsistencyError("planted failure")
        return line(M)

    monkeypatch.setattr(search, "find_two_point_line", second_call_fails)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "main-theorem", "--k",
                         "3", "--trials", "1", "--seed", "0")
    assert code == 4 and out == "" and len(calls) == 2
    stem = "failure-main-theorem-k3-seed0"
    assert sorted(os.listdir(tmp_path)) == [stem + ".mat",
                                            stem + ".trace.json"]
    # the base level fails before any level is recorded
    assert json.loads((tmp_path / (stem + ".trace.json")).read_text()) == \
        {"levels": []}
    assert err.splitlines()[-1] == "internal inconsistency: planted failure"


def test_failed_runtime_check_dumps_the_trace(capsys, monkeypatch, tmp_path):
    """A runtime theorem check that fails in the search itself, here the
    k=3 level's check that the assembled set is an ordinary flat, ends the
    run with exit 4 and the trace of the levels before it dumped."""
    from flatkit import search
    from flatkit.catalog import trial_instances
    from flatkit.search import ConstructionTrace

    s, M = next(trial_instances(8, 1, 0, 1, (12, 14)))
    _, trace = search.find_ordinary_flat_constructive(M, 3)
    monkeypatch.setattr(search, "is_ordinary", lambda M, flat: None)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "main-theorem", "--k",
                         "3", "--trials", "1", "--seed", "0", "--json")
    assert code == 4 and out == ""
    assert err.endswith("internal inconsistency: the assembled set must be "
                        "an ordinary rank-k flat\n")
    stem = f"failure-main-theorem-k3-seed{s}"
    assert sorted(os.listdir(tmp_path)) == [stem + ".mat",
                                            stem + ".trace.json"]
    dumped = json.loads((tmp_path / (stem + ".trace.json")).read_text())
    assert [level["k"] for level in dumped["levels"]] == [2]
    assert dumped == ConstructionTrace(trace.levels[:1]).to_json_dict()


def test_verify_dumps_instance_without_trace(capsys, monkeypatch, tmp_path):
    from flatkit.errors import InternalInconsistencyError

    def broken(M):
        raise InternalInconsistencyError("planted failure")

    monkeypatch.setattr(cli, "find_two_point_line", broken)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "verify", "--suite", "kelly", "--trials", "2",
                     "--seed", "3", "--conductor", "3")
    assert code == 4
    assert os.listdir(tmp_path) == ["failure-kelly-k2-seed3000009.mat"]


def test_unwritable_search_dump_keeps_exit_6(capsys, monkeypatch, tmp_path):
    """A budget-exceeded instance whose dump path is taken by a
    directory: the document is on stdout, the write error on stderr, and
    the command still exits 6, with no traceback."""
    path = "failure-search-c1-k2-seed0.mat"
    (tmp_path / path).mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "search", "--conjecture", "1", "--k", "2",
                         "--trials", "1", "--budget", "0", "--json")
    assert code == 6
    assert json.loads(out)["outcome"] == "budget exceeded"
    assert err == f"cannot write {path}: Is a directory\n"
    assert os.listdir(tmp_path) == [path]


def test_unwritable_verify_dump_keeps_the_theorem_check_message(
        capsys, monkeypatch, tmp_path):
    """A failed theorem check whose instance dump path is taken by a
    directory: the trace is still dumped beside it, and the run ends with
    exit 4 and the check's own message."""
    from flatkit.errors import InternalInconsistencyError
    from flatkit.search import ConstructionTrace

    def broken(M, k):
        raise InternalInconsistencyError("planted failure",
                                         trace=ConstructionTrace([]))

    stem = "failure-main-theorem-k2-seed0"
    (tmp_path / (stem + ".mat")).mkdir()
    monkeypatch.setattr(cli, "find_ordinary_flat_constructive", broken)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "main-theorem",
                         "--k", "2", "--trials", "1", "--seed", "0")
    assert code == 4 and out == ""
    assert err.splitlines() == [
        f"cannot write {stem}.mat: Is a directory",
        f"dumped construction trace to {stem}.trace.json",
        "internal inconsistency: planted failure"]
    assert json.loads((tmp_path / (stem + ".trace.json")).read_text()) == \
        {"levels": []}


def test_verify_stats_count_the_work_in_minors(capsys, monkeypatch):
    """A main-theorem trial reports the flats formed and the echelon
    bases built or extended in the minors of its recursion, beyond those
    of the trial matroid itself.  Every echelon a matroid builds or
    extends goes through `_extend`, `_basis` included."""
    from flatkit.matroid import Matroid

    built, own = [], []
    extend, trial = Matroid._extend, cli._verify_trial

    def counting_extend(self, *args):
        built.append(self)
        return extend(self, *args)

    def counting_trial(suite, M, k):
        start = len(built)
        got = trial(suite, M, k)
        own.append(sum(m is M for m in built[start:]))
        return got

    monkeypatch.setattr(Matroid, "_extend", counting_extend)
    monkeypatch.setattr(cli, "_verify_trial", counting_trial)
    code, out, _ = run(capsys, "verify", "--suite", "main-theorem", "--k",
                       "3", "--trials", "1", "--seed", "0", "--json")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["stats"]["flats_enumerated"] > 0
    assert report["stats"]["rank_calls"] > own[0] > 0


@pytest.mark.parametrize("argv, counts", [
    (["search", "--conjecture", "1", "--k", "3", "--trials", "25"],
     {"flats_enumerated": 75}),
    (["verify", "--suite", "main-theorem", "--k", "3", "--trials", "1"],
     {"rank_calls": 14, "flats_enumerated": 2}),
    (["search", "--conjecture", "2", "--k", "3", "--trials", "10"],
     {"rank_calls": 20, "flats_enumerated": 30}),
    (["verify", "--suite", "kelly", "--trials", "1"],
     {"rank_calls": 0, "flats_enumerated": 0}),
], ids=["search-c1-k3", "main-theorem-k3", "search-c2-k3", "kelly"])
def test_scans_stop_at_their_first_hit(capsys, argv, counts):
    """Each scan stops at its first hit: conjecture 1 forms one chain of
    three flats per instance (2,269 flats with whole slices), a
    main-theorem trial builds or extends 14 echelon bases, conjecture 2
    goes down one chain per instance, two echelons and three flats, with
    no partner search: its walks never meet a frame that yields nothing,
    and a kelly trial's first pair is a two-point line, whose basis is
    the first two rows of the ground echelon the generator built when it
    checked the instance's rank: no echelon at all."""
    code, out, _ = run(capsys, *argv, "--seed", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    stats = doc["reports"][0]["stats"] if "reports" in doc else doc["stats"]
    assert {name: stats[name] for name in counts} == counts


@pytest.mark.parametrize("planted", ["not a flat", "whole ground set",
                                     "rank-2 ordinary flat"])
def test_verify_main_theorem_recheck_failure_exit_4(
        capsys, monkeypatch, tmp_path, planted):
    """A witness that is not an ordinary rank-3 flat of the rebuilt
    matroid, here 9 elements of a rank-8 instance (not a flat), the whole
    ground set (a flat, not ordinary) or a two-point line (ordinary, of
    rank 2), fails its trial: exit 4, instance dumped."""
    from flatkit.catalog import trial_instances
    from flatkit.matroid import Flat, load_matrix
    from flatkit.search import OrdinaryWitness

    def planted_witness(M, k):
        if planted == "rank-2 ordinary flat":
            witness = OrdinaryWitness(
                flat=M.closure(M.ground[:2]), point=Flat(M.ground[:1], 1),
                complement=Flat(M.ground[1:2], 1))
            return witness, None
        elements = M.ground[:9] if planted == "not a flat" else M.ground
        witness = OrdinaryWitness(
            flat=Flat(elements, M.rank()), point=Flat(elements[:1], 1),
            complement=Flat(elements[1:], M.rank() - 1))
        return witness, None

    monkeypatch.setattr(cli, "find_ordinary_flat_constructive",
                        planted_witness)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "main-theorem", "--k",
                         "3", "--trials", "1", "--seed", "0", "--json")
    assert code == 4
    doc = json.loads(out)  # the dump notice is on stderr
    assert [r["outcome"] for r in doc["reports"]] == ["exhausted"]
    stem = "failure-main-theorem-k3-seed0"
    assert os.listdir(tmp_path) == [stem + ".mat"]
    assert f"dumped failing instance to {stem}.mat" in err
    _, M = next(trial_instances(8, 1, 0, 1, (12, 14)))
    assert load_matrix(tmp_path / (stem + ".mat")) == M.to_representation()


@pytest.mark.parametrize("planted", ["three elements", "one element",
                                     "whole ground set"])
def test_verify_corollary_recheck_failure_exit_4(capsys, monkeypatch,
                                                 tmp_path, planted):
    """A corollary witness is rechecked on a matroid built afresh from
    the matrix: three elements of a rank-4 instance (not a flat of rank
    2), one element (a flat of rank 1) or the whole ground set (a flat of
    rank 4) returned as an elementary line fails its trial: exit 4,
    instance dumped."""
    from flatkit.matroid import Flat

    def planted_flat(M, k, budget=None):
        elements = {"three elements": M.ground[:3],
                    "one element": M.ground[:1],
                    "whole ground set": M.ground}[planted]
        return Flat(elements, k)

    monkeypatch.setattr(cli, "find_elementary_flat", planted_flat)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "corollary", "--k",
                         "2", "--trials", "1", "--seed", "0", "--json")
    assert code == 4
    doc = json.loads(out)
    assert [r["outcome"] for r in doc["reports"]] == ["exhausted"]
    stem = "failure-corollary-k2-seed0"
    assert os.listdir(tmp_path) == [stem + ".mat"]
    assert f"dumped failing instance to {stem}.mat" in err


def test_verify_corollary_without_a_flat_exit_4(capsys, monkeypatch,
                                                tmp_path):
    """A corollary trial in which no elementary flat is found fails
    without a recheck: exit 4, and the instance dumped reads back."""
    from flatkit.catalog import trial_instances
    from flatkit.matroid import load_matrix

    monkeypatch.setattr(cli, "find_elementary_flat",
                        lambda M, k, budget=None: None)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "corollary", "--k",
                         "2", "--trials", "1")
    assert code == 4
    assert out.startswith("trial seed=0 exhausted (")
    assert out.endswith("\n0/1 pass\n")
    stem = "failure-corollary-k2-seed0"
    assert os.listdir(tmp_path) == [stem + ".mat"]
    assert err == f"dumped failing instance to {stem}.mat\n"
    _, M = next(trial_instances(4, 1, 0, 1, (8, 10)))
    assert load_matrix(tmp_path / (stem + ".mat")) == M.to_representation()


@pytest.mark.parametrize("argv", [
    ["analyze", "random:1,3,4,0"],
    ["analyze", "random:-2,-1,1,0"],
    ["verify", "--suite", "corollary", "--k", "1"],
])
def test_never_simple_random_shape_exit_3(capsys, monkeypatch, argv):
    drawn = []
    monkeypatch.setattr(cli.cat, "_draw_columns",
                        lambda *args: drawn.append(args))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "rank--" not in err and drawn == []


@pytest.mark.parametrize("argv", [
    ["analyze", "ag23_power:1000", "--flats", "3"],
    ["find-elementary", "ag23_power:8", "--k", "4"],
    ["catalog", "--export", "uniform_power:2,13,5", "out.mat"],
])
def test_catalog_ref_above_max_columns_exit_3(capsys, monkeypatch, tmp_path,
                                              argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "at most 64" in err
    assert os.listdir(tmp_path) == []


def test_huge_exponent_parses_mod_conductor(capsys, tmp_path):
    path = tmp_path / "big.mat"
    path.write_text("conductor 3\nsize 2 3\n"
                    "1 z^1000000000000000000 z^1000000000000000003\n"
                    "0 1 z^2000000000000000000\n")
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    # columns (1,0), (z,1), (z,z^2): rank 2, three distinct points
    assert doc["rank"] == 2 and doc["points"] == 3


def test_file_conductor_above_bound_exit_2(capsys, tmp_path):
    path = tmp_path / "wide.mat"
    path.write_text("conductor 1000003\nsize 1 1\n1\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith("parse error: conductor 1000003") and "line 1" in err


def test_file_conductor_superscript_digit_exit_2(capsys, tmp_path):
    """A superscript digit passes str.isdigit but not int()."""
    path = tmp_path / "sup.mat"
    path.write_text("conductor ³\nsize 1 1\n1\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == "parse error: expected 'conductor <n>' (line 1)\n"


def test_file_repeated_label_exit_2(capsys, tmp_path):
    path = tmp_path / "twice.mat"
    path.write_text("conductor 1\nsize 1 2\nlabels a a\n1 2\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == "parse error: labels must be unique (line 3)\n"


def test_file_label_over_the_cap_exit_2(capsys, tmp_path):
    path = tmp_path / "long.mat"
    path.write_text("conductor 1\nsize 1 2\nlabels a " + "b" * 65 + "\n1 2\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == "parse error: label longer than 64 characters (line 3)\n"


def test_catalog_export_unwritable_path_exit_3(capsys, tmp_path):
    path = tmp_path / "nodir" / "x.mat"
    code, out, err = run(capsys, "catalog", "--export", "ag23", str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1


def test_random_ref_bound_below_1_exit_3(capsys):
    code, _, err = run(capsys, "analyze", "random:4,8,1,0,0")
    assert code == 3 and err.startswith("error: bound must be at least 1")


@pytest.mark.parametrize("bound", [11, 1000, 10 ** 1100],
                         ids=["11", "1000", "10^1100"])
def test_random_ref_bound_above_10_exit_3(capsys, bound):
    """The draw time grows with the bound (`analyze random:64,64,4,0,100`
    takes minutes), so a bound above 10 is refused; 10 itself is drawn."""
    code, out, err = run(capsys, "analyze", f"random:4,8,1,0,{bound}")
    assert code == 3 and out == ""
    assert err == f"error: bound must be at most 10, got {bound}\n"
    code, out, _ = run(capsys, "analyze", "random:4,8,1,0,10")
    assert code == 0 and out.startswith("rank 4, 8 elements")


@pytest.mark.parametrize("ref, name", [("ag23_power:0", "ag23_power"),
                                       ("uniform_power:2,3,0", "uniform_power")])
def test_power_ref_with_no_copy_exit_3(capsys, ref, name):
    code, out, err = run(capsys, "analyze", ref)
    assert code == 3 and out == ""
    assert err == f"error: {name} requires t >= 1\n"


def test_random_ref_cannot_set_the_draw_limit(capsys):
    """A sixth parameter is refused before any draw, so a reference
    cannot make the rejection sampling run for as long as it likes."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "analyze", "random:2,5,1,0,1,100000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: bad parameters for 'random'")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "corollary", "--k", "7"],
    ["verify", "--suite", "corollary", "--k", "30"],
    ["verify", "--suite", "corollary", "--k", "10000000000"],
    ["verify", "--suite", "main-theorem", "--k", "1000000"],
    ["verify", "--suite", "kelly", "--cols", "100000"],
    ["search", "--conjecture", "2", "--k", "1000000", "--trials", "1"],
    ["search", "--conjecture", "1", "--k", "100000000", "--trials", "1"],
])
def test_trials_above_max_columns_exit_3(capsys, monkeypatch, tmp_path,
                                         argv):
    """A stream whose instances would have more than MAX_TRIAL_COLUMNS
    columns is refused before anything is drawn; corollary k=7 has rank
    4,096, and corollary k=10^10 would have rank 4^(10^10 - 1)."""
    monkeypatch.setattr(cli.cat, "_draw_columns", None)  # nothing drawn
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "72 columns" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cols", ["0", "-3"])
def test_verify_cols_below_the_rank_exit_3(capsys, monkeypatch, tmp_path,
                                           cols):
    """--cols 0 is a column count like any other, not the default: a
    rank-4 stream cannot have fewer than 4 columns."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--suite", "kelly", "--cols", cols,
                         "--trials", "1", "--json")
    assert (code, out) == (3, "")
    assert err == "error: need at least as many columns as rows\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    (["find-elementary", "ag23", "--k", "4"], "k=4 out of range 1..3"),
    (["find-elementary", "ag23", "--k", "10000000000"],
     "k=10000000000 out of range 1..3"),
    (["find-ordinary", "ag23", "--k", "4"], "k=4 out of range 1..3"),
    (["analyze", "ag23", "--flats", "4"], "flat rank 4 out of range 0..3")],
    ids=["find-elementary", "find-elementary-far", "find-ordinary",
         "analyze"])
def test_k_above_the_rank_exit_3(capsys, argv, message):
    """ag23 has rank 3: every command refuses a k above it alike, and
    find-elementary never computes 4^(k-1) for a huge k."""
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("k", ["0", "-1"])
def test_verify_corollary_k_below_1_exit_3(capsys, monkeypatch, k):
    monkeypatch.setattr(cli.cat, "_draw_columns", None)  # nothing drawn
    code, _, err = run(capsys, "verify", "--suite", "corollary", "--k", k)
    assert code == 3 and "corollary suite needs k >= 1" in err


def test_verify_corollary_k1_cols1(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "corollary", "--k", "1",
                     "--cols", "1", "--trials", "2")
    assert code == 0


@pytest.mark.parametrize("cols", [None, "7"])
def test_verify_instance_stream(capsys, monkeypatch, cols):
    # trial i has seed s = seed * 1000003 + i and draws
    # random_instance(rank, m, conductor, seed=s), with m = --cols or
    # rank + 4 + Random(s).randint(0, 2)
    seen = []

    def record(suite, M, k):
        seen.append(M.to_representation())
        return None, True

    monkeypatch.setattr(cli, "_verify_trial", record)
    argv = ["verify", "--suite", "kelly", "--trials", "4", "--seed", "5",
            "--conductor", "3", "--json"] + (["--cols", cols] if cols else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    seeds = [5 * 1000003 + i for i in range(4)]
    assert [r["seed"] for r in json.loads(out)["reports"]] == seeds
    expected = []
    for s in seeds:
        m = int(cols) if cols else 4 + 4 + random.Random(s).randint(0, 2)
        expected.append(random_instance(4, m, 3, seed=s))
    assert seen == expected


# -- fuzz: every argv and input file ends in a documented exit code ----------
# Catalog parameters stay in -2..4 and every flat enumeration gets a small
# --budget only to bound the runtime; larger sizes are not exercised.

SMALL_INTS = ["-2", "-1", "0", "1", "2", "3", "4"]
MATRIX_FILE = "in.mat"
BASE_TEXTS = [write_matrix(rep) for rep in (
    ag23(), motzkin(), uniform(3, 5), random_instance(3, 6, 4, seed=1))]
PIECES = ["", "0", "1", "7", "-", "/", "/0", "z", "^", "^99", " ", "\n",
          "x", "labels a", "size", "conductor", "9999999999", "\x00", "³"]


def _opt(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(
        lambda v: [flag, v]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


catalog_refs = st.builds(
    lambda name, toks: name if toks is None else f"{name}:{','.join(toks)}",
    st.sampled_from([*ENTRIES, "nope", ""]),
    st.none() | st.lists(st.sampled_from(SMALL_INTS + ["", "x", "1.5"]),
                         max_size=6))
budgets = st.sampled_from(["-1", "0", "1", "2", "50", "1e400", "x"]).map(
    lambda v: ["--budget", v])
k_values = SMALL_INTS[:-1] + ["x", ""]


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(["catalog", "analyze", "find-ordinary",
                                "find-elementary", "verify", "search",
                                "bogus"]))
    parts = [[cmd]]
    if cmd == "catalog":
        parts.append(st.one_of(st.just([]), st.tuples(
            catalog_refs,
            st.sampled_from(["out.mat", "nodir/out.mat", ".", ""])).map(
                lambda t: ["--export", *t])))
    elif cmd in ("analyze", "find-ordinary", "find-elementary"):
        parts.append(st.one_of(catalog_refs, st.just(MATRIX_FILE)).map(
            lambda ref: [ref]))
        parts.append(budgets)
        parts.append(_flag("--json"))
        if cmd == "analyze":
            parts += [_opt("--flats", k_values), _flag("--simple"),
                      _flag("--summary")]
        else:
            parts.append(_opt("--k", k_values))
        if cmd == "find-ordinary":
            parts += [_opt("--method", ["brute", "constructive", "x"]),
                      _flag("--trace")]
    elif cmd in ("verify", "search"):
        if cmd == "verify":
            parts += [_opt("--suite",
                           ["kelly", "main-theorem", "corollary", "x"]),
                      _opt("--cols", ["-1", "0", "1", "2", "5", "x"])]
        else:
            parts += [_opt("--conjecture", ["0", "1", "2", "3"]), budgets]
        parts += [_opt("--k", k_values),
                  _opt("--trials", ["-1", "0", "1", "2", "x"]),
                  _opt("--seed", ["-5", "0", "7", "99999999999999999999"]),
                  _opt("--conductor", ["0", "1", "2", "3", "4", "x"]),
                  _flag("--json")]
    parts.append(st.sampled_from([[], [], ["--bogus"], ["--help"]]))
    return [a for part in parts
            for a in (part if isinstance(part, list) else draw(part))]


@st.composite
def matrix_texts(draw):
    text = draw(st.sampled_from(BASE_TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.sampled_from(PIECES)) + text[j:]
    return text


def exit_code(argv):
    """(exit code, stdout) of main(argv), stderr discarded; argparse's
    exit counts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@example(["catalog", "--export", "ag23", "nodir/x.mat"], "")
@example(["analyze", "random:4,8,1,0,0"], "")
@example(["verify", "--suite", "corollary", "--k", "0"], "")
@example(["verify", "--suite", "corollary", "--k", "-1"], "")
@example(["analyze", MATRIX_FILE], "conductor ³\nsize 1 1\n1\n")
@given(cli_argv(), matrix_texts())
def test_cli_fuzz_documented_exit_codes(argv, text):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the CLI writes exports and failure dumps here
        try:
            Path(MATRIX_FILE).write_text(text, encoding="utf-8")
            code, out = exit_code(argv)
        finally:
            os.chdir(cwd)
    assert code in range(7), (argv, code)
    if "--json" in argv and "--help" not in argv and out:
        json.loads(out)  # one document, nothing before or after it


def parse_outcome(parse, argv):
    """(namespace without `command`, exit code, stdout, stderr) of
    parse(argv); an argv argparse refuses or answers itself has no
    namespace, one it accepts no exit code."""
    out, err = io.StringIO(), io.StringIO()
    ns = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    if ns is not None:
        ns = {k: v for k, v in ns.items() if k != "command"}
    return ns, code, out.getvalue(), err.getvalue()


def assert_routes_agree(argv):
    """`main`'s parse of argv reads as the top-level parser's, except
    that an unrecognized argument may be reported under another usage."""
    ns, code, out, err = parse_outcome(cli._parse, argv)
    ns0, code0, out0, err0 = parse_outcome(cli.build_parser().parse_args,
                                           argv)
    assert (ns, code, out) == (ns0, code0, out0), argv
    if "error: unrecognized arguments: " in err0:
        assert err.partition("error: ")[2] == err0.partition("error: ")[2]
    else:
        assert err == err0, argv


@settings(max_examples=300, deadline=None)
@example([])
@example(["-h"])
@example(["bogus"])
@example(["verify", "-h"])
@example(["verify", "--suite", "kelly", "--bogus"])
@example(["find-elementary", "ag23", "--k", "2", "--", "x"])
@given(cli_argv())
def test_command_parser_route_matches_the_top_level_parser(argv):
    assert_routes_agree(argv)


def test_unrecognized_argument_is_reported_by_the_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "kelly", "--trials", "1", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: flatkit verify")
    assert err.endswith(
        "flatkit verify: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "kelly", "--trials", "1", "--json"],
    ["verify", "--suite", "kelly", "--bogus"],
    ["--help"],
    [],
])
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    """The console script calls main() with no argument: it parses
    sys.argv[1:] by the same route as main(argv)."""
    monkeypatch.setattr("sys.argv", ["flatkit", *argv])
    assert_routes_agree(None)
    outcomes = []
    for args in (None, argv):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
