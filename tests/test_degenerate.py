"""The matroid layer on degenerate matrices: zero columns, zeta-multiple
columns and planted linear combinations over Q(zeta_n), n in {1, 3, 4}.

A zeta-multiple of a column is parallel to it over Q(zeta_n) although
its rational coordinate vectors are not proportional, so these inputs
separate field-aware point detection from coordinate-wise shortcuts.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from flatkit.cyclotomic import CyclotomicNumber, euler_phi, zero
from flatkit.matroid import Matroid, Representation


@st.composite
def degenerate(draw):
    """(representation, planted facts) with the planted columns mixed in."""
    n = draw(st.sampled_from([1, 3, 4]))
    phi = euler_phi(n)
    d = draw(st.integers(1, 4))
    scalar = st.lists(st.integers(-2, 2), min_size=phi, max_size=phi).map(
        lambda c: CyclotomicNumber(n, c))
    nonzero = scalar.filter(bool)
    cols = draw(st.lists(st.tuples(*[scalar] * d), min_size=1, max_size=4))
    loops, parallel, spanned = [], [], []
    for kind in draw(st.lists(st.sampled_from(["zero", "multiple", "sum"]),
                              min_size=1, max_size=5)):
        if kind == "zero":
            loops.append(len(cols))
            cols.append((zero(n),) * d)
        elif kind == "multiple":
            src = draw(st.integers(0, len(cols) - 1))
            factor = draw(nonzero)
            for _ in range(draw(st.integers(0, n - 1))):
                factor = factor * CyclotomicNumber.zeta(n)
            parallel.append((src, len(cols)))
            cols.append(tuple(factor * x for x in cols[src]))
        else:
            i = draw(st.integers(0, len(cols) - 1))
            j = draw(st.integers(0, len(cols) - 1))
            a, b = draw(scalar), draw(scalar)
            spanned.append(((i, j), len(cols)))
            cols.append(tuple(a * x + b * y for x, y in zip(cols[i], cols[j])))
    order = draw(st.permutations(range(len(cols))))
    labels = [None] * len(cols)
    for pos, j in enumerate(order):
        labels[j] = f"e{pos + 1}"
    rows = tuple(tuple(cols[j][i] for j in order) for i in range(d))
    rep = Representation(n, rows, tuple(labels[j] for j in order))
    facts = {
        "loops": [labels[j] for j in loops],
        "parallel": [(labels[s], labels[t]) for s, t in parallel],
        "spanned": [((labels[i], labels[j]), labels[t])
                    for (i, j), t in spanned],
    }
    return rep, facts


def subset(data, ground):
    return data.draw(st.lists(st.sampled_from(ground), unique=True)
                     if ground else st.just([]))


@settings(max_examples=60, deadline=None)
@given(degenerate())
def test_planted_dependencies(case):
    rep, facts = case
    M = Matroid(rep)
    assert set(facts["loops"]) <= set(M.loops())
    classes = {e: cls for cls in M.parallel_classes() for e in cls}
    for src, dup in facts["parallel"]:
        assert (src in M.loops()) == (dup in M.loops())
        if src not in M.loops():
            assert dup in classes[src]
    for (i, j), t in facts["spanned"]:
        assert t in M.closure([i, j]).elements


@settings(max_examples=60, deadline=None)
@given(degenerate(), st.data())
def test_closure_is_rank_closure(case, data):
    rep, _ = case
    M = Matroid(rep)
    S = subset(data, M.ground)
    r = M.rank(S)
    cl = M.closure(S)
    assert cl.rank == r
    assert set(cl.elements) == {e for e in M.ground
                                if M.rank(S + [e]) == r}


@settings(max_examples=60, deadline=None)
@given(degenerate())
def test_points_are_rank_one_pairs(case):
    rep, _ = case
    M = Matroid(rep)
    loops = {e for e in M.ground if M.rank([e]) == 0}
    assert set(M.loops()) == loops
    classes = M.parallel_classes()
    assert sorted(e for cls in classes for e in cls) == sorted(
        e for e in M.ground if e not in loops)
    cls_of = {e: i for i, cls in enumerate(classes) for e in cls}
    for e in cls_of:
        for f in cls_of:
            assert (cls_of[e] == cls_of[f]) == (M.rank([e, f]) == 1)
    assert M.is_simple() == (not loops and len(classes) == len(M.ground))


@settings(max_examples=60, deadline=None)
@given(degenerate(), st.data())
def test_contraction_rank_formula(case, data):
    rep, _ = case
    M = Matroid(rep)
    M = M.restrict([e for e in M.ground if e not in M.loops()])
    # a proper nonempty flat whenever the rank allows one
    size = data.draw(st.integers(1, max(1, M.rank() - 1)))
    S = data.draw(st.lists(st.sampled_from(M.ground), min_size=1,
                           max_size=size, unique=True)) if M.ground else []
    F = M.closure(S)
    Q = M.contract(F)
    assert Q.is_loopless()
    small = [list(X) for n in (1, 2) for X in itertools.combinations(Q.ground, n)]
    for X in small + [subset(data, Q.ground) for _ in range(5)]:
        assert Q.rank(X) == M.rank(set(X) | set(F.elements)) - F.rank
