"""Rank, closure, flats, minors, direct sums."""

import itertools
import random
from fractions import Fraction

import pytest

from field_reference import FieldNumber
from flatkit.catalog import ag23, ag23_power, uniform
from flatkit.cyclotomic import CyclotomicNumber, euler_phi
from flatkit.errors import (
    BudgetExceededError,
    ConductorMismatchError,
    ContractNonFlatError,
    UsageError,
)
from flatkit.matroid import (
    Flat,
    Matroid,
    Representation,
    direct_sum,
    prefix_labels,
    representation_from_rows,
)


def two_lines():
    return direct_sum(prefix_labels(uniform(2, 3), "a."),
                      prefix_labels(uniform(2, 3), "b."))


# -- independent rank oracle: largest subset with a nonzero minor ------------

def det(rows):
    n = len(rows)
    if n == 0:
        raise ValueError
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def field_column(rep, label):
    """The column of `label` as FieldNumber entries."""
    den, v = rep.columns[rep.labels.index(label)]
    phi = euler_phi(rep.conductor)
    return [FieldNumber(rep.conductor,
                        [Fraction(c, den) for c in v[i:i + phi]])
            for i in range(0, len(v), phi)]


def oracle_rank(rep, labels):
    cols = [field_column(rep, lbl) for lbl in labels]
    best = 0
    for size in range(1, min(len(cols), rep.rows) + 1):
        hit = False
        for cs in itertools.combinations(cols, size):
            for rs in itertools.combinations(range(rep.rows), size):
                sub = [[c[i] for c in cs] for i in rs]
                if det(sub):
                    hit = True
                    break
            if hit:
                break
        if hit:
            best = size
        else:
            break
    return best


# -- rank --------------------------------------------------------------------

def test_rank_empty():
    assert Matroid(ag23()).rank([]) == 0


def test_ag23_rank():
    assert Matroid(ag23()).rank() == 3


def test_parallel_columns_rank_one():
    rep = representation_from_rows([[1, 2], [0, 0]], 1)
    assert Matroid(rep).rank() == 1


def test_rank_unknown_label():
    with pytest.raises(UsageError):
        Matroid(ag23()).rank(["nope"])


def test_rank_matches_determinant_oracle():
    rng = random.Random(3)
    rep = ag23()
    M = Matroid(rep)
    for _ in range(30):
        X = rng.sample(rep.labels, rng.randint(0, 5))
        assert M.rank(X) == oracle_rank(rep, X)


# -- closure -----------------------------------------------------------------

def test_closure_empty_loopless():
    cl = Matroid(ag23()).closure([])
    assert cl == Flat((), 0)


def test_closure_three_point_line():
    M = Matroid(uniform(2, 3))
    cl = M.closure(["e1", "e2"])
    assert cl.elements == ("e1", "e2", "e3") and cl.rank == 2


def test_ag23_pair_closures_are_three_point_lines():
    # brute force over all 36 pairs: the Hesse configuration
    M = Matroid(ag23())
    for a, b in itertools.combinations(M.ground, 2):
        cl = M.closure([a, b])
        assert cl.rank == 2 and len(cl.elements) == 3


@pytest.mark.parametrize("conductor", [1, 3])
def test_closure_of_nothing_is_the_loops(conductor):
    rep = representation_from_rows(
        [[1, 0, 2, 0, 1], [0, 0, 3, 0, 5], [4, 0, 1, 0, 0]], conductor)
    M = Matroid(rep)
    assert M.loops() == ("e2", "e4")
    assert M.closure([]) == Flat(("e2", "e4"), 0)


def test_closure_of_a_spanning_set_is_the_ground():
    """Also over a matroid whose rank is below its row count, so that
    the closure of its whole ground goes through the annihilator."""
    M = Matroid(ag23())
    for spanning in (["h1", "h2", "h4"], M.ground[1:], M.ground):
        assert M.closure(spanning) == Flat(M.ground, 3)
    for n in (1, 3):
        def z(a, b):
            return CyclotomicNumber(n, [a, b])  # a + b zeta_n
        # the last row is zeta times the first plus the second
        M = Matroid(representation_from_rows(
            [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 0, 1],
             [z(0, 1), 1, 0, z(1, 1), z(2, 1)]], n))
        assert M.rank() == 3 < M.to_representation().rows
        for spanning in (["e1", "e2", "e3"], M.ground[1:], M.ground):
            assert M.closure(spanning) == Flat(M.ground, 3)


def test_rank_zero_uniform_closes_to_both_loops():
    M = Matroid(uniform(0, 2))
    for labels in ([], ["e1"], ["e1", "e2"]):
        assert M.closure(labels) == Flat(("e1", "e2"), 0)


# -- simplicity --------------------------------------------------------------

def test_ag23_simple():
    rep = ag23()
    # brute force: no column proportional to another
    M = Matroid(rep)
    for a, b in itertools.combinations(rep.labels, 2):
        assert M.rank([a, b]) == 2
    assert M.is_simple()


def test_zero_column_is_loop():
    rep = representation_from_rows([[1, 0], [0, 0]], 1)
    M = Matroid(rep)
    assert not M.is_simple()
    S, mapping = M.simplify()
    assert S.ground == ("e1",)
    assert "e2" not in mapping


def test_parallel_pair_simplified():
    rep = representation_from_rows([[1, 2, 0], [1, 2, 1]], 1)
    M = Matroid(rep)
    S, mapping = M.simplify()
    assert S.ground == ("e1", "e3")
    assert mapping["e2"] == "e1"


# -- flats_of_rank -----------------------------------------------------------

def test_ag23_line_slice():
    flats = list(Matroid(ag23()).flats_of_rank(2))
    assert len(flats) == 12
    assert all(len(f.elements) == 3 for f in flats)


def test_rank_zero_slice():
    flats = list(Matroid(ag23()).flats_of_rank(0))
    assert flats == [Flat((), 0)]


def test_two_lines_plane_slice():
    M = Matroid(two_lines())
    flats = list(M.flats_of_rank(3))
    # oracle: every closure of a 3-subset, deduplicated
    expect = set()
    for triple in itertools.combinations(M.ground, 3):
        cl = M.closure(triple)
        if cl.rank == 3:
            expect.add(cl.elements)
    assert len(flats) == 6
    assert {f.elements for f in flats} == expect


def test_flats_out_of_range():
    with pytest.raises(UsageError):
        Matroid(ag23()).flats_of_rank(4)


def test_flats_budget():
    walk = Matroid(ag23()).flats_of_rank(2, budget=3)
    with pytest.raises(BudgetExceededError):
        list(walk)


def test_flat_walk_is_lazy():
    # the whole rank-6 slice of ag23^4 takes more than 100,000 flats; its
    # first flat, the first two copies of AG(2,3), takes one per rank
    M = Matroid(ag23_power(4))
    first = next(M.flats_of_rank(6, budget=6))
    assert first == Flat(M.ground[:18], 6)
    assert M.flats_formed == 6


# -- restriction and contraction ---------------------------------------------

def test_restrict_full_is_identity():
    M = Matroid(ag23())
    R = M.restrict(M.ground)
    assert R.ground == M.ground and R.rank() == M.rank()


def test_restrict_ag23_line_is_u23():
    M = Matroid(ag23())
    line = next(M.flats_of_rank(2))
    R = M.restrict(line.elements)
    for size in range(4):
        for X in itertools.combinations(line.elements, size):
            assert R.rank(X) == min(size, 2)


def test_restriction_rank_agreement():
    M = Matroid(ag23())
    X = M.ground[:6]
    R = M.restrict(X)
    rng = random.Random(1)
    for _ in range(100):
        Y = rng.sample(X, rng.randint(0, len(X)))
        assert R.rank(Y) == M.rank(Y)


def test_contract_empty_flat_is_identity():
    M = Matroid(ag23())
    C = M.closure([])
    Q = M.contract(C)
    assert Q.ground == M.ground
    assert Q.rank() == M.rank()


def test_contract_point_of_u34():
    M = Matroid(uniform(3, 4))
    Q = M.contract(M.closure(["e1"]))
    assert len(Q.ground) == 3 and Q.rank() == 2


def test_contract_nonflat_rejected():
    M = Matroid(uniform(2, 3))
    with pytest.raises(ContractNonFlatError):
        M.contract(Flat(("e1", "e2"), 2))  # closure adds e3


def test_contraction_flat_correspondence():
    # flats of M/C of rank k <-> flats F with C ⊆ F of rank r(C)+k in M
    M = Matroid(ag23())
    C = M.closure(["h1"])
    Q = M.contract(C)
    for k in range(0, Q.rank() + 1):
        lifted = {tuple(sorted(f.elements + C.elements))
                  for f in Q.flats_of_rank(k)}
        containing = {tuple(sorted(f.elements))
                      for f in M.flats_of_rank(C.rank + k)
                      if set(C.elements) <= set(f.elements)}
        assert lifted == containing


# -- direct sums -------------------------------------------------------------

def test_two_lines_direct_sum():
    rep = two_lines()
    M = Matroid(rep)
    assert M.rank() == 4 and len(M.ground) == 6
    a = [e for e in M.ground if e.startswith("a.")]
    b = [e for e in M.ground if e.startswith("b.")]
    l1, l2, full = M.closure(a), M.closure(b), M.closure(M.ground)
    assert list(l1.elements) == a and list(l2.elements) == b
    assert full.elements == M.ground
    assert l1.rank + l2.rank == full.rank


def test_direct_sum_conductor_mismatch():
    with pytest.raises(ConductorMismatchError):
        direct_sum(uniform(2, 3), ag23())


def test_direct_sum_empty_identity():
    a = uniform(2, 3)
    empty = representation_from_rows([], 1, labels=())
    assert direct_sum(a, empty) == a


def test_summand_ground_sets_are_flats_and_ranks_add():
    rep = direct_sum(prefix_labels(ag23(), "x."),
                     prefix_labels(ag23(), "y."))
    M = Matroid(rep)
    assert M.rank() == 6 and len(M.ground) == 18
    for pfx in ("x.", "y."):
        block = [e for e in M.ground if e.startswith(pfx)]
        fl = M.closure(block)
        assert list(fl.elements) == block
        assert fl.rank == 3


# -- projection export -------------------------------------------------------

def test_minor_materialization_rank_agreement():
    M = Matroid(ag23())
    Q = M.contract(M.closure(["h2"])).restrict(
        [e for e in M.ground if e not in ("h2", "h1")])
    Q2 = Matroid(Q.to_representation())
    for size in range(0, 4):
        for X in itertools.combinations(Q.ground, size):
            assert Q.rank(X) == Q2.rank(X)


def test_empty_ground_set_is_legal():
    rep = representation_from_rows([], 1, labels=())
    M = Matroid(rep)
    assert M.rank() == 0
    assert list(M.flats_of_rank(0)) == [Flat((), 0)]


# -- the representation record ----------------------------------------------

@pytest.mark.parametrize("labels, columns", [
    (("a",), ((0, (1, 2)),)), (("a",), ((-1, (1, 2)),)),
    (("a",), ((2, (2, 4)),)), (("a",), ((1, (1, 2, 3)),)),
    (("a", "a"), ((1, (1, 0)), (1, (0, 1))))],
    ids=["den-0", "den-negative", "not-in-lowest-terms", "wrong-length",
         "duplicate-labels"])
def test_representation_rejects_a_noncanonical_record(labels, columns):
    with pytest.raises(UsageError):
        Representation(1, 2, labels, columns)


def test_representation_is_the_integer_columns():
    """Equal matrices are equal records: the columns are the lowest-terms
    integer columns, however the entries were written."""
    half = Fraction(1, 2)
    rep = representation_from_rows([[half, 0], [Fraction(3, 4), 2]], 1)
    assert rep == Representation(1, 2, ("e1", "e2"),
                                 ((4, (2, 3)), (1, (0, 2))))
    w = CyclotomicNumber(3, [0, half])
    assert representation_from_rows([[w, 1]], 3) == Representation(
        3, 1, ("e1", "e2"), ((2, (0, 1)), (1, (1, 0))))
    assert Matroid(rep).to_representation() == rep


def test_representation_from_rows_checks_the_conductor():
    with pytest.raises(ConductorMismatchError):
        representation_from_rows([[CyclotomicNumber(4, [0, 1])]], 3)


@pytest.mark.parametrize("conductor", [0, -3])
def test_representation_checks_the_conductor_is_positive(conductor):
    for build in (lambda: Representation(conductor, 0, (), ()),
                  lambda: representation_from_rows([[1]], conductor)):
        with pytest.raises(UsageError, match=f"conductor {conductor} "):
            build()
