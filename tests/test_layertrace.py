"""The benchmark's layer tracer (`perfbench/layertrace.py`) against the
package it patches: a refactor that renames or moves what the tracer
wraps shows here, not only in a benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import flatkit
from flatkit import catalog, cli, cyclotomic, matroid, search

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench/layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patchable():
    """Every function and method the tracer may replace, by owner and
    name, and the catalog builds."""
    owners = (flatkit, cli, search, catalog, matroid, cyclotomic,
              matroid.Matroid, cyclotomic.CyclotomicNumber)
    found = {(owner.__name__, name): obj for owner in owners
             for name, obj in vars(owner).items() if inspect.isfunction(obj)}
    found.update({("ENTRIES", name): entry.build
                  for name, entry in catalog.ENTRIES.items()})
    return found


def test_traced_find_elementary_counts_and_restores(capsys):
    layertrace = load_layertrace()
    before = patchable()
    tracer = layertrace.Tracer()
    with tracer.installed(), tracer.op(0):
        code = cli.main(["find-elementary", "ag23_power:2", "--k", "3",
                         "--json"])
    capsys.readouterr()
    metrics = tracer.metrics()
    assert code == 1
    assert metrics["cli.calls"] == 1
    assert metrics["matroid.flats_of_rank.calls"] > 0
    assert metrics["cyclotomic.arith.calls"] == 0
    assert patchable() == before
