"""Tracing of flatkit's layers from outside the package.

`Tracer.installed()` replaces the public functions of `flatkit.cli`,
`flatkit.search` and `flatkit.catalog` and the public methods of
`Matroid` and `CyclotomicNumber` with timing wrappers, and puts the
originals back when the block ends.  Nothing in the package changes.
Functions are reached through module namespaces and through the `build`
of each `catalog.ENTRIES` entry; both are patched.

Calls into cli, search and catalog are recorded as spans (name, start,
end, parent id, op id).  Calls into matroid and cyclotomic are far more
numerous, so they are kept as per-name counts and times only.  A layer's
self time is the time of its calls minus the time of the wrapped calls
made inside them, whatever their layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time
from collections import defaultdict

SPAN_LAYERS = ("cli", "search", "catalog")
ARITH = ("__add__", "__sub__", "__mul__", "__neg__")
MINORS = ("restrict", "contract", "simplify")
# Construction and attribute guards are not operations of the field or
# the matroid; their cost stays with the caller.
SKIPPED_METHODS = ("__init__", "__setattr__")


def _public_methods(cls):
    for name, obj in vars(cls).items():
        if not inspect.isfunction(obj) or name in SKIPPED_METHODS:
            continue
        if name.startswith("__") or not name.startswith("_"):
            yield name, obj


def _public_functions(module):
    # A wrapper around a generator function would time only the creation
    # of the generator, so generators are left alone.
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


class Tracer:
    """Counts, inclusive times, per-layer self times and spans of one
    traced run.  Ops are delimited with `op()`."""

    def __init__(self):
        self.calls = defaultdict(int)        # "<layer>.<name>" -> calls
        self.inclusive = defaultdict(float)  # outermost activations only
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.spans = []   # (id, parent, op, name, start, end), op order
        self.draws = 0
        self.eliminations = 0
        self._origin = time.perf_counter()
        self._child = []      # child-time accumulator per open wrapped call
        self._depth = defaultdict(int)
        self._open_spans = []
        self._next_id = 0
        self._op_id = None
        self._roots = []      # (root Matroid, rank_calls when built)
        self._undo = []       # callables that put the originals back

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        key = f"{layer}.{name}"
        span = layer in SPAN_LAYERS
        child, depth = self._child, self._depth
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if span:
                sid = self._open_span()
            depth[key] += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - child.pop()
                if child:
                    child[-1] += dt
                calls[key] += 1
                depth[key] -= 1
                if not depth[key]:
                    inclusive[key] += dt
                if span:
                    self._close_span(sid, key, t0, dt)

        return functools.update_wrapper(traced, fn)

    def _wrap_matroid_init(self, fn):
        """Time Matroid construction and remember each root matroid (one
        built from a representation) so that its memo misses can be
        summed, counting the roots built inside random_instance as draws."""
        timed = self._wrap(fn, "matroid", "__init__")
        roots, depth = self._roots, self._depth

        def init(matroid, rep=None, **kwargs):
            timed(matroid, rep, **kwargs)
            if rep is not None:
                roots.append((matroid, matroid.rank_calls))
                if depth["catalog.random_instance"]:
                    self.draws += 1

        return functools.update_wrapper(init, fn)

    def _open_span(self):
        sid = self._next_id
        self._next_id += 1
        self._open_spans.append(sid)
        return sid

    def _close_span(self, sid, name, t0, dt):
        self._open_spans.pop()
        parent = self._open_spans[-1] if self._open_spans else None
        start = t0 - self._origin
        self.spans.append((sid, parent, self._op_id, name, start, start + dt))

    def _patch(self, owner, attr, replacement):
        self._undo.append(
            functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Patch the layers for the duration of the block."""
        import flatkit
        from flatkit import catalog, cli, cyclotomic, matroid, search

        modules = (flatkit, cli, search, catalog, matroid, cyclotomic)
        replaced = {}
        for module in (cli, search, catalog):
            layer = module.__name__.rpartition(".")[2]
            for name, fn in _public_functions(module):
                replaced[fn] = self._wrap(fn, layer, name)
        # The modules import each other's functions by name, so every
        # namespace that holds an original gets the wrapper.
        try:
            for module in modules:
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        self._patch(module, name, replaced[obj])
            # `cli` builds catalog matrices through ENTRIES[name].build.
            for name, entry in list(catalog.ENTRIES.items()):
                if entry.build in replaced:
                    self._undo.append(functools.partial(
                        catalog.ENTRIES.__setitem__, name, entry))
                    catalog.ENTRIES[name] = dataclasses.replace(
                        entry, build=replaced[entry.build])
            for cls, layer in ((matroid.Matroid, "matroid"),
                               (cyclotomic.CyclotomicNumber, "cyclotomic")):
                for name, fn in list(_public_methods(cls)):
                    self._patch(cls, name, self._wrap(fn, layer, name))
            self._patch(matroid.Matroid, "__init__",
                        self._wrap_matroid_init(matroid.Matroid.__init__))
            yield self
        finally:
            for undo in reversed(self._undo):
                undo()
            self._undo.clear()

    @contextlib.contextmanager
    def op(self, op_id):
        """Delimit one op: its spans share `op_id`, and the memo misses of
        the root matroids it built are added to `eliminations`."""
        self._op_id = op_id
        sid = self._open_span()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(sid, "op", t0, time.perf_counter() - t0)
            self.eliminations += sum(m.rank_calls - before
                                     for m, before in self._roots)
            self._roots.clear()
            self._op_id = None

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics, named `<layer>.<function>.calls`,
        `<layer>.<function>.s` and `<layer>.self_s`."""
        c, s = self.calls, self.inclusive
        out = {"cli.calls": c["cli.main"], "cli.self_s": self.self_s["cli"]}
        ri = c["catalog.random_instance"]
        out.update({
            "catalog.random_instance.calls": ri,
            "catalog.random_instance.s": s["catalog.random_instance"],
            "catalog.draws": self.draws,
            "catalog.accept_ratio": ri / self.draws if self.draws else 0.0,
            "catalog.self_s": self.self_s["catalog"],
            "search.self_s": self.self_s["search"],
        })
        for fn in ("find_two_point_line", "find_ordinary_flat_constructive",
                   "find_elementary_flat"):
            out[f"search.{fn}.calls"] = c[f"search.{fn}"]
            out[f"search.{fn}.s"] = s[f"search.{fn}"]
        out["search.is_ordinary.calls"] = c["search.is_ordinary"]
        out["search.is_elementary.calls"] = c["search.is_elementary"]
        out["matroid.self_s"] = self.self_s["matroid"]
        out["matroid.rank.calls"] = c["matroid.rank"]
        for fn in ("closure", "parallel_classes", "flats_of_rank"):
            out[f"matroid.{fn}.calls"] = c[f"matroid.{fn}"]
            out[f"matroid.{fn}.s"] = s[f"matroid.{fn}"]
        closures = c["matroid.closure"]
        out.update({
            "matroid.minors": sum(c[f"matroid.{m}"] for m in MINORS),
            "matroid.eliminations": self.eliminations,
            "matroid.eliminations_per_closure":
                self.eliminations / closures if closures else 0.0,
            "cyclotomic.self_s": self.self_s["cyclotomic"],
            "cyclotomic.arith.calls": sum(c[f"cyclotomic.{m}"] for m in ARITH),
            "cyclotomic.inv.calls": c["cyclotomic.inv"],
            "cyclotomic.inv.s": s["cyclotomic.inv"],
        })
        return out

    def by_function(self):
        """Calls and inclusive seconds of every wrapped function."""
        return {k: {"calls": self.calls[k], "s": self.inclusive[k]}
                for k in sorted(self.calls)}
