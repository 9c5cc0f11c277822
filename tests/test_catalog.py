"""Certified facts of the named constructions."""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from flatkit import catalog
from flatkit.catalog import (
    ENTRIES,
    ag23,
    ag23_power,
    build_ref,
    motzkin,
    random_instance,
    trial_instances,
    uniform,
)
from flatkit.cyclotomic import CyclotomicNumber, _integer_column, euler_phi
from flatkit.errors import GenerationError, UsageError
from flatkit.matroid import Matroid, Representation, representation_from_rows
from flatkit.search import find_elementary_flat, find_two_point_line, is_ordinary


def test_ag23_incidence_profile():
    M = Matroid(ag23())
    assert M.rank() == 3
    assert M.is_simple()
    assert len(M.ground) == 9
    lines = list(M.flats_of_rank(2))
    assert len(lines) == 12
    assert all(len(l.elements) == 3 for l in lines)
    assert find_two_point_line(M) is None


def test_ag23_kelly_sharpness():
    # simple, rank 3, no two-point line: the rank bound cannot drop to 3
    M = Matroid(ag23())
    assert M.is_simple() and M.rank() == 3
    for a, b in itertools.combinations(M.ground, 2):
        assert len(M.closure([a, b]).elements) == 3


def test_uniform_is_uniform():
    for r, n in [(2, 3), (2, 2), (3, 5)]:
        M = Matroid(uniform(r, n))
        assert M.rank() == r
        for sub in itertools.combinations(M.ground, r):
            assert M.rank(sub) == r


def test_uniform_of_rank_zero_is_all_loops():
    rep = uniform(0, 3)
    assert (rep.rows, rep.labels) == (0, ("e1", "e2", "e3"))
    M = Matroid(rep)
    assert M.rank() == 0 and M.loops() == M.ground


def test_uniform_bad_params():
    with pytest.raises(UsageError):
        uniform(3, 2)


def test_motzkin_certificates():
    M = Matroid(motzkin())
    assert M.rank() == 4 and len(M.ground) == 6
    planes = list(M.flats_of_rank(3))
    assert all(len(p.elements) == 4 for p in planes)
    assert any(is_ordinary(M, p) is not None for p in planes)


def test_ag23_power():
    rep = ag23()
    assert ag23_power(1) == Representation(
        rep.conductor, rep.rows, rep.labels, rep.columns)
    M = Matroid(ag23_power(2))
    assert M.rank() == 6 and len(M.ground) == 18


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_ag23_power_has_no_elementary_flat_one_rank_up(t):
    """The certified fact: rank 3t and no elementary rank-(t+1) flat."""
    assert ENTRIES["ag23_power"].certified_facts == (
        "rank 3t", "no elementary rank-(t+1) flat at t in {1,2,3,4}")
    M = Matroid(ag23_power(t))
    assert M.rank() == 3 * t and len(M.ground) == 9 * t
    assert find_elementary_flat(M, t + 1) is None


def test_random_instance_deterministic():
    a = random_instance(4, 8, 4, seed=1)
    b = random_instance(4, 8, 4, seed=1)
    assert a == b
    c = random_instance(4, 8, 4, seed=2)
    assert c != a


def test_random_instance_simple_full_rank():
    for seed in range(5):
        M = Matroid(random_instance(4, 8, 3, seed=seed))
        assert M.rank() == 4 and M.is_simple()


def fraction_instance(d, m, conductor, seed, bound=10):
    """The generator's contract in Fractions: entries drawn row by row,
    each coordinate randint(-bound, bound) / randint(1, bound), until the
    matrix is simple of rank d."""
    rng = random.Random(seed)
    labels = tuple(f"e{i + 1}" for i in range(m))
    for _ in range(1000):
        rows = tuple(tuple(
            CyclotomicNumber(conductor, [
                Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                for _ in range(euler_phi(conductor))])
            for _ in range(m)) for _ in range(d))
        rep = representation_from_rows(rows, conductor, labels)
        M = Matroid(rep)
        if M.rank() == d and M.is_simple():
            return rep
    raise AssertionError("no instance after 1000 draws")


def assert_matroid_of(M, rep):
    """M is the matroid of rep: same matrix, rank, points and closures
    of every pair."""
    assert M.to_representation() == rep
    fresh = Matroid(rep)
    assert M.ground == fresh.ground and M.rank() == fresh.rank()
    assert M.parallel_classes() == fresh.parallel_classes()
    for pair in itertools.combinations(M.ground, 2):
        assert M.closure(pair) == fresh.closure(pair)


@pytest.mark.parametrize("bound", [1, 2, 10])
@pytest.mark.parametrize("conductor", [1, 3, 4])
def test_generated_matroid_is_the_matroid_of_its_matrix(conductor, bound):
    for seed in range(6):
        rep = random_instance(3, 5 + seed % 2, conductor, seed, bound)
        assert rep == fraction_instance(3, 5 + seed % 2, conductor, seed,
                                        bound)
        M = catalog._random_matroid(3, 5 + seed % 2, conductor, seed, bound)
        assert_matroid_of(M, rep)


@pytest.mark.parametrize("conductor", [1, 3, 4])
def test_trial_instances_are_the_matroids_of_random_instance(conductor):
    for s, M in trial_instances(4, 6, 11, conductor, (8, 10)):
        m = len(M.ground)
        assert m == 8 + random.Random(s).randint(0, 2)
        rep = random_instance(4, m, conductor, seed=s)
        assert rep == fraction_instance(4, m, conductor, s)
        assert_matroid_of(M, rep)


def randint_columns(rng, d, m, conductor, bound):
    """_draw_columns as randint draws: every coordinate
    randint(-bound, bound) / randint(1, bound), row by row."""
    phi = euler_phi(conductor)
    draws = [(rng.randint(-bound, bound), rng.randint(1, bound))
             for _ in range(d * m * phi)]
    coords = [(a // g, b // g) for a, b in draws for g in [gcd(a, b)]]
    return [_integer_column([c for i in range(d)
                             for c in coords[(i * m + j) * phi:
                                             (i * m + j + 1) * phi]])
            for j in range(m)]


@pytest.mark.parametrize("bound", [1, 2, 3, 10, 16, 17])
@pytest.mark.parametrize("conductor", [1, 3, 4])
def test_draws_are_randints(conductor, bound):
    """_draw_columns makes randint's draws and leaves the generator where
    randint leaves it: the next random() agrees too."""
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert (catalog._draw_columns(ours, 2, 3, conductor, bound)
                == randint_columns(theirs, 2, 3, conductor, bound))
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("cols, admitted", [
    ((68, 70), True), ((72, 72), True), ((68, 73), False)])
def test_trial_stream_column_limit(monkeypatch, cols, admitted):
    """The paper-scale trials (rank 64, 68-70 columns) are admitted; a
    stream that could draw more than MAX_TRIAL_COLUMNS is refused before
    its first draw."""
    assert catalog.MAX_TRIAL_COLUMNS == 72
    monkeypatch.setattr(catalog, "_random_matroid", lambda *args: args)
    stream = trial_instances(64, 2, 0, 1, cols)
    if admitted:
        drawn = [args for _, args in stream]
        assert len(drawn) == 2
        assert all(rank == 64 and cols[0] <= m <= cols[1]
                   for rank, m, *_ in drawn)
    else:
        with pytest.raises(UsageError, match="at most 72 columns"):
            next(stream)


def test_random_instance_param_checks():
    with pytest.raises(UsageError):
        random_instance(5, 4)
    with pytest.raises(UsageError):
        random_instance(2, 4, conductor=7)


def test_random_instance_rejection_limit():
    with pytest.raises(GenerationError):
        # three elements in rank 1 are always parallel, never simple
        random_instance(1, 3, seed=0)


@pytest.mark.parametrize("d, m", [(-2, -1), (0, 1), (1, 2)],
                         ids=["negative-rank", "rank-0-with-a-column",
                              "rank-1-with-two-columns"])
def test_random_instance_refuses_never_simple_shape(monkeypatch, d, m):
    drawn = []
    monkeypatch.setattr(catalog, "Matroid", drawn.append)
    with pytest.raises(UsageError):
        random_instance(d, m)
    assert drawn == []


def test_random_instance_rejection_limit_on_a_satisfiable_shape():
    # rank 2 over Q with coordinates in {-1, 0, 1} has only four points
    with pytest.raises(GenerationError):
        random_instance(2, 5, seed=0, bound=1)


@pytest.mark.parametrize("d, m", [(0, 0), (1, 1)])
def test_random_instance_smallest_simple_shapes(d, m):
    M = Matroid(random_instance(d, m))
    assert M.rank() == d and M.is_simple()


def test_build_ref():
    assert Matroid(build_ref("ag23")).rank() == 3
    assert Matroid(build_ref("uniform:2,3")).rank() == 2
    assert Matroid(build_ref("random:4,8,4,1")).rank() == 4
    with pytest.raises(UsageError):
        build_ref("nope")
    with pytest.raises(UsageError):
        build_ref("uniform:2")
    with pytest.raises(UsageError):
        build_ref("uniform:a,b")


@pytest.mark.parametrize("ref, columns", [
    ("ag23_power:8", 72), ("ag23_power:1000", 9000), ("uniform:2,65", 65),
    ("uniform_power:2,13,5", 65), ("random:4,65,1,0", 65),
    ("random:4,100000,1,0,10", 100000)])
def test_build_ref_refuses_more_than_max_columns(monkeypatch, ref, columns):
    built = []
    for name, entry in ENTRIES.items():
        monkeypatch.setitem(ENTRIES, name, dataclasses.replace(
            entry, build=lambda *args: built.append(args)))
    with pytest.raises(UsageError, match=f"would have {columns} columns"):
        build_ref(ref)
    assert built == []


@pytest.mark.parametrize("ref, columns", [
    ("ag23", 9), ("motzkin", 6), ("uniform:3,5", 5), ("ag23_power:7", 63),
    ("uniform:2,64", 64), ("uniform_power:1,8,8", 64),
    ("random:3,6,4,1", 6), ("random:2,4", 4)])
def test_build_ref_builds_up_to_max_columns(ref, columns):
    assert catalog.MAX_CATALOG_COLUMNS == 64
    name, _, params = ref.partition(":")
    args = [int(p) for p in params.split(",")] if params else []
    built = len(build_ref(ref).columns)
    assert ENTRIES[name].columns(*args) == built == columns


def test_entry_listing():
    for name in ("ag23", "uniform", "motzkin", "ag23_power", "random"):
        assert name in ENTRIES
