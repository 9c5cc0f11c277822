"""CLI behavior: subcommands, exit codes, machine output."""

import json

import pytest

from flatkit.cli import main


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
    c1, out1, _ = run(capsys, "analyze", str(path), "--summary")
    c2, out2, _ = run(capsys, "analyze", "ag23", "--summary")
    assert c1 == c2 == 0
    assert out1 == out2


def test_catalog_export_parametrized(capsys, tmp_path):
    path = tmp_path / "u23.mat"
    code, _, _ = run(capsys, "catalog", "--export", "uniform:2,3", str(path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(path), "--summary")
    assert code == 0 and "rank 2, 3 elements" in out


def test_analyze_summary(capsys):
    code, out, _ = run(capsys, "analyze", "motzkin", "--summary")
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


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.mat"
    bad.write_text("conductor 1\nsize 2 2\n1 0\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "parse error" in err


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


def test_search_budget_exit_6(capsys):
    code, _, _ = run(capsys, "search", "--conjecture", "1", "--k", "3",
                     "--trials", "2", "--seed", "3", "--budget", "2")
    assert code == 6


def test_search_k1_rejected(capsys):
    code, _, _ = run(capsys, "search", "--conjecture", "1", "--k", "1",
                     "--trials", "1")
    assert code == 3


def test_threads_option_removed(capsys):
    for argv in (("verify", "--suite", "kelly", "--trials", "1"),
                 ("search", "--conjecture", "2", "--k", "2", "--trials", "1")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "2"])
        assert exc.value.code == 2


def test_search_budget_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--conjecture", "2", "--k", "2", "--trials", "1",
              "--budget", "1e400"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_missing_input_file_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", str(tmp_path / "nodir" / "missing.mat"))
    assert code == 2 and out == ""
    assert err.startswith("parse error: cannot read ")
    assert err.count("\n") == 1


def test_binary_input_file_exit_2(capsys, tmp_path):
    path = tmp_path / "noise.mat"
    path.write_bytes(b"\xff\xfe\x00conductor")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and err.startswith("parse error: cannot read ")


def test_internal_inconsistency_exit_4(capsys, monkeypatch):
    from flatkit import cli
    from flatkit.errors import InternalInconsistencyError

    def broken(M):
        raise InternalInconsistencyError("planted failure")

    monkeypatch.setattr(cli, "find_two_point_line", broken)
    code, _, err = run(capsys, "verify", "--suite", "kelly", "--trials", "1")
    assert code == 4
    assert "planted failure" in err and err.count("\n") == 1


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
