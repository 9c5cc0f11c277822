"""Randomized axiom suites over the catalog matroids."""

import random

import pytest

from flatkit.catalog import ag23, ag23_power, motzkin, random_instance, uniform
from flatkit.matroid import Matroid

CATALOG = {
    "ag23": ag23,
    "uniform23": lambda: uniform(2, 3),
    "motzkin": motzkin,
    "ag23_power2": lambda: ag23_power(2),
    "random_c4": lambda: random_instance(4, 8, 4, seed=77),
}


def subsets(rng, ground, count):
    for _ in range(count):
        yield rng.sample(ground, rng.randint(0, len(ground)))


@pytest.mark.parametrize("name", CATALOG)
def test_rank_axioms(name):
    M = Matroid(CATALOG[name]())
    rng = random.Random(name)
    assert M.rank([]) == 0
    for X in subsets(rng, M.ground, 1000):
        Y = rng.sample(M.ground, rng.randint(0, len(M.ground)))
        rx, ry = M.rank(X), M.rank(Y)
        # unit increase
        if X:
            e = rng.choice(M.ground)
            assert rx <= M.rank(set(X) | {e}) <= rx + 1
        # submodularity
        assert (M.rank(set(X) | set(Y)) + M.rank(set(X) & set(Y))
                <= rx + ry)


@pytest.mark.parametrize("name", CATALOG)
def test_closure_axioms(name):
    M = Matroid(CATALOG[name]())
    rng = random.Random(name + "cl")
    for X in subsets(rng, M.ground, 120):
        cl = M.closure(X)
        assert set(X) <= set(cl.elements)                     # extensive
        assert M.closure(cl.elements) == cl                   # idempotent
        Y = set(X) | set(rng.sample(M.ground, rng.randint(0, 3)))
        assert set(cl.elements) <= set(M.closure(Y).elements)  # monotone


@pytest.mark.parametrize("name", ["ag23", "motzkin"])
def test_minor_commutation(name):
    M = Matroid(CATALOG[name]())
    rng = random.Random(name + "minor")
    X = M.ground[:5]
    R = M.restrict(X)
    for _ in range(20):
        # a flat C of the restriction contained in X
        C = R.closure(rng.sample(X, rng.randint(0, 2)))
        if set(C.elements) == set(X):
            continue
        A = R.contract(C)
        F = M.closure(C.elements)
        B = M.contract(F) if set(F.elements) == set(C.elements) else None
        for _ in range(20):
            Y = rng.sample(A.ground, rng.randint(0, len(A.ground)))
            expect = M.rank(set(Y) | set(C.elements)) - M.rank(C.elements)
            assert A.rank(Y) == expect
            if B is not None:
                assert B.rank(Y) == expect


@pytest.mark.parametrize("name", ["ag23", "uniform23", "motzkin"])
def test_contraction_flat_bijection(name):
    # F -> F \ C is a rank-shifting bijection between flats containing C
    # and flats of the contraction; full enumeration, <= 12 elements
    M = Matroid(CATALOG[name]())
    C = M.closure([M.ground[0]])
    Q = M.contract(C)
    for k in range(0, Q.rank() + 1):
        down = {f.elements for f in Q.flats_of_rank(k)}
        up = {tuple(e for e in f.elements if e not in set(C.elements))
              for f in M.flats_of_rank(C.rank + k)
              if set(C.elements) <= set(f.elements)}
        assert down == up


@pytest.mark.parametrize("name", CATALOG)
def test_representation_rank_agreement(name):
    # rank of X equals elimination rank of the materialized column submatrix
    rep = CATALOG[name]()
    M = Matroid(rep)
    rng = random.Random(name + "rr")
    for X in subsets(rng, M.ground, 50):
        sub = Matroid(M.restrict(X).to_representation()) if X else None
        expect = sub.rank() if sub else 0
        assert M.rank(X) == expect
