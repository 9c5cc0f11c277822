"""The matroid layer on degenerate matrices: zero columns, zeta-multiple
columns and planted linear combinations over Q(zeta_n), n in {1, 3, 4}
(the flat walk and its step also at n = 5 and 6), and the integer rank
kernel against a field reference on the same kind of matrices over more
conductors.

A zeta-multiple of a column is parallel to it over Q(zeta_n) although
its rational coordinate vectors are not proportional, so these inputs
separate field-aware point detection from coordinate-wise shortcuts.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from field_reference import FieldNumber, inv
from flatkit.catalog import build_ref, trial_instances
from flatkit.cyclotomic import (
    _annihilator,
    _normalized,
    _pivot,
    _point_key,
    _primitive,
    _reduce,
    _ring,
    _step_down,
    euler_phi,
)
from flatkit.errors import BudgetExceededError, ContractNonFlatError
from flatkit import matroid
from flatkit.matroid import (
    MAX_FILE_CONDUCTOR,
    Flat,
    Matroid,
    direct_sum,
    parse_matrix,
    prefix_labels,
    representation_from_rows,
    write_matrix,
)
from flatkit.search import (
    OrdinaryWitness,
    find_elementary_flat_brute,
    find_two_point_line,
    is_elementary,
    is_ordinary,
)


@st.composite
def degenerate(draw, conductors=(1, 3, 4)):
    """(representation, planted facts) with the planted columns mixed in;
    facts["columns"] maps each label to its drawn column of
    FieldNumbers, in ground order."""
    n = draw(st.sampled_from(conductors))
    phi = euler_phi(n)
    d = draw(st.integers(1, 4))
    scalar = st.lists(st.integers(-2, 2), min_size=phi, max_size=phi).map(
        lambda c: FieldNumber(n, c))
    nonzero = scalar.filter(bool)
    cols = draw(st.lists(st.tuples(*[scalar] * d), min_size=1, max_size=4))
    loops, parallel, spanned = [], [], []
    for kind in draw(st.lists(st.sampled_from(["zero", "multiple", "sum"]),
                              min_size=1, max_size=5)):
        if kind == "zero":
            loops.append(len(cols))
            cols.append((FieldNumber(n, []),) * d)
        elif kind == "multiple":
            src = draw(st.integers(0, len(cols) - 1))
            factor = draw(nonzero)
            for _ in range(draw(st.integers(0, n - 1))):
                factor = factor * FieldNumber(n, [0, 1])
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
    rows = [[cols[j][i] for j in order] for i in range(d)]
    rep = representation_from_rows(rows, n, [labels[j] for j in order])
    facts = {
        "columns": {labels[j]: cols[j] for j in order},
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


# ---------------------------------------------------------------------------
# minors are the matroids of their matrices
#
# A restriction reuses its parent's integer columns and point keys, and a
# contraction keeps its projected integer columns; each must be the
# matroid of the matrix `to_representation` builds from them.

def assert_same_matroid(A, B, subsets):
    assert A.ground == B.ground and A.rank() == B.rank()
    assert A.loops() == B.loops()
    assert A.parallel_classes() == B.parallel_classes()
    for S in subsets:
        assert A.rank(S) == B.rank(S)
        assert A.closure(S) == B.closure(S)


def assert_minor_is_its_matrix(minor, data):
    """`minor` against a fresh matroid of its matrix, and one contraction
    of each of the two by the same flat against the other."""
    fresh = Matroid(minor.to_representation())
    assert_same_matroid(minor, fresh,
                        [subset(data, minor.ground) for _ in range(4)])
    keep = [e for e in minor.ground if e not in minor.loops()]
    minor, fresh = minor.restrict(keep), fresh.restrict(keep)
    F = minor.closure(subset(data, keep))
    Q = minor.contract(F)
    assert_same_matroid(Q, fresh.contract(F),
                        [subset(data, Q.ground) for _ in range(4)])


@settings(max_examples=60, deadline=None)
@given(degenerate(), st.data())
def test_minors_are_the_matroids_of_their_matrices(case, data):
    rep, _ = case
    M = Matroid(rep)
    assert_minor_is_its_matrix(M.restrict(subset(data, M.ground)), data)
    L = M.restrict([e for e in M.ground if e not in M.loops()])
    F = L.closure(subset(data, L.ground))
    Q = L.contract(F)
    # the span of F is projected out: rank(F) coordinates fewer
    assert Q.to_representation().rows == rep.rows - F.rank
    assert_minor_is_its_matrix(Q, data)


# ---------------------------------------------------------------------------
# one echelon per span
#
# The constructive search extends the echelon basis of a span by more
# columns, and takes a closure and its contraction from one reduction of
# the other columns against it; each must be what the public methods
# build afresh.

def assert_one_echelon_per_span(M, S, T):
    """On a loopless M: the basis of S extended by T is a basis of S + T
    (and the basis of S is left as it was), and one pass over the basis
    of S gives the closure of S and the contraction by it."""
    basis = M._basis(S)
    rows = list(basis)
    union = set(S) | set(T)
    extended = M._extend(basis, T)
    assert basis == rows
    assert len(extended) == M.rank(union)
    assert M._closure(union, extended) == M.closure(union)
    closed, minor = M._contract(set(S), basis)
    assert closed == M.closure(S)
    assert minor.to_representation() == M.contract(closed).to_representation()
    if len(closed) > len(S):
        with pytest.raises(ContractNonFlatError):
            M.contract(Flat(tuple(S), closed.rank))


@settings(max_examples=60, deadline=None)
@given(degenerate(), st.data())
def test_one_echelon_per_span(case, data):
    M = loopless(case[0])
    assert_one_echelon_per_span(M, subset(data, M.ground),
                                subset(data, M.ground))


@pytest.mark.parametrize("ref", ["ag23_power:2", "motzkin", "random:4,9,1,0",
                                 "random:5,8,3,2", "random:4,8,4,5"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_one_echelon_per_span_on_catalog(ref, data):
    M = Matroid(build_ref(ref))
    assert_one_echelon_per_span(M, subset(data, M.ground),
                                subset(data, M.ground))


def shortest_prefix(M, t):
    """The shortest ground prefix of rank t."""
    g = M.ground
    return next(g[:j] for j in range(t, len(g) + 1) if M.rank(g[:j]) == t)


def assert_rank_echelon_prefixes(M, ranks):
    """For each t in `ranks`: the first t rows of the echelon M's rank is
    read off are the echelon basis of the shortest ground prefix of rank
    t, and the pass over them that skips the first t elements gives that
    prefix's closure and the contraction by it, as a constructive level
    takes them."""
    full = M._prefix_basis()
    assert len(full) == M.rank()
    for t in ranks:
        prefix = shortest_prefix(M, t)
        assert full[:t] == M._basis(prefix)
        closed, minor = M._contract(frozenset(M.ground[:t]), full[:t])
        assert closed == M.closure(prefix)
        assert minor.to_representation() == M.contract(
            closed).to_representation()


def first_two_point_line(M):
    """The least pair of M's ground, in ground order, whose closure has
    two elements, as that closure; None if there is none."""
    g = M.ground
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            cl = M.closure([g[i], g[j]])
            if len(cl.elements) == 2:
                return cl
    return None


class ReadLog(dict):
    """A matroid's column dict that logs the labels read through it."""

    def __init__(self, columns):
        super().__init__(columns)
        self.log = []

    def __getitem__(self, label):
        self.log.append(label)
        return super().__getitem__(label)


def assert_ground_echelon_in_steps(make):
    """`make()` builds the same matroid afresh, with no echelon built.
    For every r in 0..rows+1, on fresh matroids: `rank_at_least(r)` is
    rank() >= r and builds nothing for an r of 0 or above the row or
    element count; the ground echelon built to r rows is the first r rows
    of the one built at once, and completed later it is that one, row for
    row, from the same columns read once each in ground order; each build
    or extension counts one echelon, completing an echelon counts one
    only if a column is left for it to take, and a reread of rows built
    counts none; and on the simplification, with its ground echelon built to r
    rows first, the closure `find_two_point_line` takes of its first pair
    off that echelon's first two rows is the closure of the first two
    elements, and it finds the two-point line that closures of pairs
    find."""
    whole = make()
    whole._columns = ReadLog(whole._columns)
    full = whole._prefix_basis()
    once = list(whole._columns.log)
    rank, rows, size = len(full), whole._rows, len(whole.ground)
    assert whole.rank() == rank and whole.rank_calls == 1
    expected = first_two_point_line(whole.simplify()[0])
    for r in range(rows + 2):
        M = make()
        assert M.rank_at_least(r) == (rank >= r)
        assert M.rank_calls == (0 < r <= min(rows, size))
        M = make()
        M._columns = ReadLog(M._columns)
        part = M._prefix_basis(r)
        reads = len(M._columns.log)
        assert part == full[:r] and M.rank_calls == (r > 0)
        assert M._prefix_basis(len(part)) == part
        assert M.rank_at_least(len(part)) and M.rank_calls == (r > 0)
        assert M._prefix_basis() == full and M._columns.log == once
        assert M.rank_at_least(rank) and not M.rank_at_least(rank + 1)
        assert M.rank_calls == 1 + (r > 0 and len(once) > reads)
        S = make().simplify()[0]
        S._prefix_basis(r)
        if len(S.ground) >= 2:
            pair = frozenset(S.ground[:2])
            assert (S._closure(pair, S._prefix_basis(2)[:2])
                    == S.closure(S.ground[:2]))
        assert find_two_point_line(S) == expected


@settings(max_examples=60, deadline=None)
@given(degenerate())
def test_rank_echelon_rows_are_the_prefix_bases(case):
    M = loopless(case[0])
    assert_rank_echelon_prefixes(M, range(M.rank() + 1))
    assert_ground_echelon_in_steps(lambda: loopless(case[0]))


@pytest.mark.parametrize("ref, t, length", [
    ("ag23_power:3", 4, 10), ("uniform_power:2,3,6", 4, 5),
    ("uniform_power:2,3,6", 8, 11)])
def test_rank_echelon_rows_are_the_prefix_bases_on_catalog(ref, t, length):
    """Catalog matroids whose shortest prefix of rank t, the base flat's
    span at a constructive level, is longer than t: AG(2,3) spans a plane
    and the first three elements of a sum of lines are collinear."""
    M = Matroid(build_ref(ref))
    assert len(shortest_prefix(M, t)) == length
    assert_rank_echelon_prefixes(M, range(M.rank() + 1))
    assert_ground_echelon_in_steps(lambda: Matroid(build_ref(ref)))


@pytest.mark.parametrize("conductor", [1, 3, 4])
@pytest.mark.parametrize("rank, cols", [(4, (8, 10)), (8, (12, 14))])
def test_rebuilt_matroid_shares_no_derived_state(conductor, rank, cols):
    """`Matroid(A.to_representation())` is the matroid of A's matrix
    (here read back from its file text), starts with no echelon built,
    and keys its points afresh instead of copying them."""
    rng = random.Random(conductor * 100 + rank)
    for _, M in trial_instances(rank, 3, 11, conductor, cols):
        F = M.closure(M.ground[:rank - 2])
        for A in (M, M.restrict(M.ground[1:]), M.contract(F)):
            B = Matroid(A.to_representation())
            assert B.rank_calls == 0
            subsets = [rng.sample(A.ground, rng.randint(0, len(A.ground)))
                       for _ in range(4)]
            fresh = Matroid(parse_matrix(write_matrix(A.to_representation())))
            assert_same_matroid(B, fresh, subsets)
            e, f = A.ground[:2]
            A._points[f] = A._points[e]  # a wrong key: e and f merged
            assert A.parallel_classes() != fresh.parallel_classes()
            assert (Matroid(A.to_representation()).parallel_classes()
                    == fresh.parallel_classes())


# ---------------------------------------------------------------------------
# flat enumeration against the closures of independent sets

def brute_flats(M, k):
    """{closure(S) : |S| = k, rank(S) = k}, sorted by ground position."""
    position = {e: i for i, e in enumerate(M.ground)}
    flats = {M.closure(S).elements
             for S in itertools.combinations(M.ground, k) if M.rank(S) == k}
    return sorted(flats, key=lambda fl: [position[e] for e in fl])


def assert_flat_walk(M):
    """flats_of_rank(k) is the oracle's list for every k, without
    duplicates; it adds the number of flats of ranks 1..k to
    `flats_formed`, and a budget of exactly that number is the least that
    completes."""
    total = 0
    for k in range(M.rank() + 1):
        before = M.flats_formed
        flats = list(M.flats_of_rank(k))
        elements = [fl.elements for fl in flats]
        assert len(set(elements)) == len(elements)
        assert elements == brute_flats(M, k)
        assert all(fl.rank == k for fl in flats)
        if k == 0:
            continue
        total += len(flats)
        assert M.flats_formed - before == total
        with pytest.raises(BudgetExceededError):
            list(M.flats_of_rank(k, budget=total - 1))
        assert len(list(M.flats_of_rank(k, budget=total))) == len(flats)


@settings(max_examples=60, deadline=None)
@given(degenerate((1, 3, 4, 5, 6)))
def test_flat_walk_matches_brute_oracle(case):
    rep, _ = case
    M = Matroid(rep)
    assert_flat_walk(M.restrict([e for e in M.ground if e not in M.loops()]))


@pytest.mark.parametrize("ref", ["ag23_power:2", "uniform_power:2,3,3"])
def test_flat_walk_matches_brute_oracle_on_catalog(ref):
    assert_flat_walk(Matroid(build_ref(ref)))


@settings(max_examples=60, deadline=None)
@given(degenerate())
def test_flat_walk_first_flat_forms_one_chain(case):
    """The walk is lazy: its first rank-k flat, the first of the whole
    list, forms one flat at each rank 1..k, so a budget of k suffices."""
    rep, _ = case
    M = Matroid(rep)
    M = M.restrict([e for e in M.ground if e not in M.loops()])
    for k in range(1, M.rank() + 1):
        before = M.flats_formed
        first = next(M.flats_of_rank(k, budget=k))
        assert M.flats_formed - before == k
        assert first == list(M.flats_of_rank(k))[0]


def assert_free_walk(M, ranks):
    """flats_of_rank(k, free=True), the walk with the pair test, is the
    whole walk cut to its flats with k elements, order included, and a
    budget of exactly the number of flats it forms is the least that
    completes."""
    for k in ranks:
        before = M.flats_formed
        free = list(M.flats_of_rank(k, free=True))
        formed = M.flats_formed - before
        assert free == [fl for fl in M.flats_of_rank(k) if len(fl) == k]
        if formed:
            with pytest.raises(BudgetExceededError):
                list(M.flats_of_rank(k, budget=formed - 1, free=True))
        assert list(M.flats_of_rank(k, budget=formed, free=True)) == free


def loopless(rep):
    M = Matroid(rep)
    return M.restrict([e for e in M.ground if e not in M.loops()])


@settings(max_examples=60, deadline=None)
@given(degenerate((1, 3, 4, 5, 6)))
def test_free_walk_is_the_walk_cut_to_free_flats(case):
    M = loopless(case[0])
    assert_free_walk(M, range(M.rank() + 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 4]).flatmap(
    lambda n: st.tuples(degenerate((n,)), degenerate((n,)))))
def test_free_walk_is_the_walk_cut_to_free_flats_on_sums(cases):
    """A direct sum has free flats across its parts and dependent ones
    inside them, so its walks meet barren frames and run the pair test."""
    (a, _), (b, _) = cases
    M = loopless(direct_sum(prefix_labels(a, "a."), prefix_labels(b, "b.")))
    assert_free_walk(M, range(M.rank() + 1))


@pytest.mark.parametrize("ref, top", [
    ("ag23_power:2", 6), ("ag23_power:3", 4), ("motzkin", 4),
    ("uniform_power:2,3,3", 6), ("random:4,9,1,0", 4), ("random:5,8,3,2", 5),
    ("random:4,8,4,5", 4)])
def test_free_walk_is_the_walk_cut_to_free_flats_on_catalog(ref, top):
    assert_free_walk(Matroid(build_ref(ref)), range(top + 1))


# ---------------------------------------------------------------------------
# the elementary scan against the is_elementary predicate
#
# The brute scan runs on simple matroids only, where it tests a flat's
# size in place of counting its points.

def assert_elementary_scan(M, ranks):
    for k in ranks:
        plain = next((fl for fl in M.flats_of_rank(k)
                      if is_elementary(M, fl)), None)
        assert find_elementary_flat_brute(M, k) == plain


@settings(max_examples=60, deadline=None)
@given(degenerate())
def test_elementary_scan_matches_is_elementary(case):
    rep, _ = case
    M, _ = Matroid(rep).simplify()
    assert_elementary_scan(M, range(1, M.rank() + 1))


@pytest.mark.parametrize("ref", ["ag23_power:2", "uniform_power:2,3,3"])
def test_elementary_scan_matches_is_elementary_on_catalog(ref):
    M = Matroid(build_ref(ref))
    assert_elementary_scan(M, range(1, 5))


# ---------------------------------------------------------------------------
# the ordinary check against its definition by restriction
#
# is_ordinary tests rank(F - P) = k-1 in place of closing F - P; the
# reference closes F - P in the restriction to F, for each parallel
# class P of F in canonical order.

def restricted_is_ordinary(M, F):
    MF = M.restrict(F.elements)
    for P in M.parallel_classes(within=F.elements):
        rest = tuple(e for e in F.elements if e not in P)
        closed = MF.closure(rest)
        if closed.rank == F.rank - 1 and set(closed.elements) == set(rest):
            return OrdinaryWitness(flat=F, point=Flat(P, 1),
                                   complement=Flat(rest, F.rank - 1))
    return None


def assert_ordinary_check(M):
    """On every flat of rank >= 1 the check and the reference agree,
    witness included; the same flat given another rank is refused."""
    for k in range(1, M.rank() + 1):
        for fl in M.flats_of_rank(k):
            assert is_ordinary(M, fl) == restricted_is_ordinary(M, fl)
            assert is_ordinary(M, Flat(fl.elements, k + 1)) is None


@settings(max_examples=60, deadline=None)
@given(degenerate())
def test_ordinary_check_matches_restriction(case):
    rep, _ = case
    M = Matroid(rep)
    assert_ordinary_check(M.restrict([e for e in M.ground
                                      if e not in M.loops()]))


@pytest.mark.parametrize("ref", ["ag23_power:2", "motzkin",
                                 "uniform_power:2,3,3"])
def test_ordinary_check_matches_restriction_on_catalog(ref):
    assert_ordinary_check(Matroid(build_ref(ref)))


# ---------------------------------------------------------------------------
# the integer kernel against the field kernel
#
# The reference below is the elimination over the field Q(zeta_n), in the
# arithmetic of `field_reference`: every pivot and every point key is
# normalized by a field inverse.  Phi_12 =
# x^4 - x^2 + 1 and Phi_15 fold products in ways the benchmark's
# conductors 1, 3 and 4 never do, and Phi_6 = x^2 - x + 1 is the one
# phi = 2 ring whose closed forms carry c1 = -1.

KERNEL_CONDUCTORS = (1, 3, 4, 5, 6, 8, 12, 15, 24)


def field_conjugate(x, k):
    """The image of x under the automorphism zeta -> zeta^k."""
    n = x.conductor
    return sum((FieldNumber(n, [0] * (j * k % n) + [c])
                for j, c in enumerate(x.coeffs)), FieldNumber(n, []))


def field_reduce(basis, vector):
    v = list(vector)
    for pivot, row in basis:
        factor = v[pivot]
        if factor:
            for i, x in row:
                v[i] = v[i] - factor * x
    return v


def field_echelon(vectors):
    basis = []
    for vector in vectors:
        v = field_reduce(basis, vector)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            scale = inv(v[pivot])
            basis.append((pivot,
                          [(i, x * scale) for i, x in enumerate(v) if x]))
    return basis


def field_point_key(column):
    lead = next((x for x in column if x), None)
    if lead is None:
        return None
    scale = inv(lead)
    return tuple(x * scale for x in column)


class FieldMatroid:
    """Rank, closure, points and contraction by field elimination, on
    columns of FieldNumbers given as a dict label -> column in
    ground order."""

    def __init__(self, columns):
        self.ground = tuple(columns)
        self.columns = columns

    def basis(self, labels):
        return field_echelon([self.columns[e] for e in self.ground
                              if e in labels])

    def closure(self, labels):
        """(closure, rank) of `labels`."""
        basis = self.basis(labels)
        return tuple(e for e in self.ground if e in labels
                     or not any(field_reduce(basis, self.columns[e]))), \
            len(basis)

    def loops(self):
        return tuple(e for e in self.ground
                     if field_point_key(self.columns[e]) is None)

    def parallel_classes(self):
        classes = {}
        for e in self.ground:
            key = field_point_key(self.columns[e])
            if key is not None:
                classes.setdefault(key, []).append(e)
        return [tuple(cls) for cls in classes.values()]

    def restrict(self, labels):
        return FieldMatroid({e: col for e, col in self.columns.items()
                             if e in labels})

    def contract(self, flat):
        basis = self.basis(flat)
        pivots = {pivot for pivot, _ in basis}
        return FieldMatroid({
            e: tuple(x for i, x in enumerate(field_reduce(basis, col))
                     if i not in pivots)
            for e, col in self.columns.items() if e not in flat})


def assert_kernels_agree(M, R, subsets):
    assert M.loops() == R.loops()
    assert M.parallel_classes() == R.parallel_classes()
    for S in subsets:
        closed, rank = R.closure(S)
        assert M.rank(S) == rank
        assert M.closure(S) == Flat(closed, rank)


def assert_contractions_agree(M, R, flat_seed, subsets):
    """Contract the closure of `flat_seed` in the loopless part of both."""
    keep = [e for e in M.ground if e not in M.loops()]
    M, R = M.restrict(keep), R.restrict(keep)
    F = M.closure([e for e in flat_seed if e in keep])
    Q, RQ = M.contract(F), R.contract(F.elements)
    assert Q.ground == RQ.ground
    assert_kernels_agree(Q, RQ, [[e for e in S if e in Q.ground]
                                 for S in subsets])


@pytest.mark.parametrize("n", range(1, MAX_FILE_CONDUCTOR + 1))
def test_adj_times_element_is_its_norm(n):
    """a * adj(a) is [N, 0, ..., 0] for N the norm of a, the product of
    all its Galois conjugates in the field reference: nonzero for a
    nonzero a, and a rational integer for an integral one."""
    ring, phi = _ring(n), euler_phi(n)
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    rng = random.Random(n)
    for bound in (1, 1, 3, 3, 9):
        a = [rng.randint(-bound, bound) for _ in range(phi)]
        if not any(a):
            continue
        x, norm = FieldNumber(n, a), FieldNumber(n, [1])
        for k in units:
            norm = norm * field_conjugate(x, k)
        N = norm.coeffs[0]
        assert N != 0 and N.denominator == 1
        assert norm == FieldNumber(n, [N])
        assert ring.times(a, ring.adj(a)) == [N] + [0] * (phi - 1)


def galois_adj(ring, a):
    """adj(a) as the product of a's images under every automorphism in
    the ring's Galois table, the general route."""
    out = [1] + [0] * (ring.phi - 1)
    for rows in ring.galois:
        out = ring.times([sum(c * x for c, x in zip(row, a)) for row in rows],
                         out)
    return out


def two_pass_step(at, value, shifts, v):
    """One reduction step as the general code takes it: N*v - f*row for
    the first nonzero pivot coordinate f, then minus g times the shift of
    every further nonzero one; v itself when the pivot entry is zero."""
    terms = [(f, s) for f, s in zip(v[at:at + len(shifts)], shifts) if f]
    if not terms:
        return list(v)
    (f, row), *rest = terms
    v = [value * x - f * r for x, r in zip(v, row)]
    for g, shift in rest:
        v = [x - g * s for x, s in zip(v, shift)]
    return v


@pytest.mark.parametrize("n", [3, 4, 6])
def test_phi2_closed_forms_match_the_general_route(n):
    """At phi = 2 `adj` is the one other conjugate in closed form and a
    `_reduce` step is one pass; each gives the integers of the general
    route (the Galois table, two passes), on coefficients up to 2^80 in
    size and on pivot entries with a zero coordinate."""
    ring, rng, big = _ring(n), random.Random(n), 2 ** 80
    assert ring.phi == 2

    def element():
        a = [rng.choice((0, 1, -big, big, rng.randint(-big, big)))
             for _ in range(2)]
        return a if any(a) else [1, 0]

    for _ in range(40):
        a = element()
        assert ring.adj(a) == galois_adj(ring, a)
        d = rng.randint(1, 4)
        at = 2 * rng.randrange(d)
        raw = [c for _ in range(d) for c in element()]
        row = _normalized(ring, raw, at)
        assert row[at] != 0 and row[at + 1] == 0
        step = (at, row[at], ring.shifts(row))
        v = [c for _ in range(d) for c in element()]
        f, g = v[at:at + 2]
        for lead in ([f, g], [0, g], [f, 0], [0, 0]):
            v[at:at + 2] = lead
            assert _reduce(ring, [step], v) == two_pass_step(*step, v)


@settings(max_examples=100, deadline=None)
@given(degenerate((1, 3, 4, 5, 6)), st.data())
def test_walk_step_is_reduce_then_point_key(case, data):
    """`_step_down` gives every carried vector v nonzero at the step's
    pivot entry exactly _primitive(_reduce(ring, [step], v)) and that
    residue's `_point_key`, skips `inside` and passes the other pairs on
    as they are.  Each column is carried as v, -v, zeta*v and -zeta*v, so
    at phi = 2 the residues have negative rational leads and leads with a
    nonzero zeta coefficient; n = 6 has c1 = -1, and n = 5 takes the
    phi > 2 route."""
    rep, _ = case
    M = Matroid(rep)
    ring, phi = M._ring, M._ring.phi
    keys = [key for key in M._points.values() if key is not None]
    assume(keys)
    row = list(data.draw(st.sampled_from(keys)))
    at = _pivot(ring, row)
    step = (at, row[at], ring.shifts(row))
    vectors = []
    for v in M._columns.values():
        for u in (list(v), ring._times_zeta(v)):
            vectors += [u, [-c for c in u]]
    carried = {i: (v, _point_key(ring, v))
               for i, v in enumerate(vectors)}
    inside = set(data.draw(st.lists(st.sampled_from(sorted(carried)),
                                    max_size=2)))
    expected = {}
    for i, pair in carried.items():
        if i not in inside:
            if any(pair[0][at:at + phi]):
                v = _primitive(_reduce(ring, [step], pair[0]))
                pair = v, _point_key(ring, v)
            expected[i] = pair
    assert _step_down(ring, step, carried, inside) == expected


@settings(max_examples=60, deadline=None)
@given(degenerate(KERNEL_CONDUCTORS), st.data())
def test_integer_kernel_matches_field_kernel(case, data):
    rep, facts = case
    assert parse_matrix(write_matrix(rep)) == rep
    M, R = Matroid(rep), FieldMatroid(facts["columns"])
    subsets = [list(M.ground)] + [subset(data, M.ground) for _ in range(6)]
    assert_kernels_agree(M, R, subsets)
    assert_contractions_agree(M, R, subset(data, M.ground), subsets)


@pytest.mark.parametrize("n", [1, 12])
def test_integer_kernel_dense_rank_8(n):
    """Coefficient growth: a dense 8 x 12 matrix with rational
    coordinates, two planted combinations and a column times -zeta^3,
    which over Q is the negated column."""
    rng = random.Random(8)

    def scalar():
        return FieldNumber(n, [Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 9))
                                    for _ in range(euler_phi(n))])

    cols = [tuple(scalar() for _ in range(8)) for _ in range(9)]
    zeta = FieldNumber(n, [0, 1])
    a, b = scalar(), scalar()
    cols.append(tuple(a * x + b * y for x, y in zip(cols[0], cols[5])))
    cols.append(tuple(-(zeta * zeta * zeta * x) for x in cols[3]))
    cols.append(tuple(a * x - y for x, y in zip(cols[9], cols[8])))
    labels = tuple(f"e{j + 1}" for j in range(len(cols)))
    rep = representation_from_rows(zip(*cols), n, labels)
    M, R = Matroid(rep), FieldMatroid(dict(zip(labels, cols)))
    assert M.rank(labels) == 8
    subsets = [list(labels), ["e1", "e6", "e10"], ["e4", "e11"],
               ["e1", "e6", "e9"], list(labels[:7]), list(labels[2:10])]
    assert_kernels_agree(M, R, subsets)
    assert_contractions_agree(M, R, ["e1", "e6", "e9"], subsets)


@pytest.mark.parametrize("n, bound", [(7, 9), (23, 1)])
def test_integer_kernel_dense_4x8_high_phi(n, bound):
    """A dense 4 x 8 matrix at phi(n) = 6 and 22, the largest phi a
    matrix file allows, where a reduction step combines up to phi zeta
    shifts of a row: two planted combinations and a column times zeta^5,
    which is parallel to it but has other coordinates.  Coordinates are
    numerator / denominator with both bounded by `bound`; at phi = 22
    they stay integers in -1..1, as the field reference's Fraction
    arithmetic grows steeply with them."""
    rng = random.Random(n)

    def scalar():
        return FieldNumber(n, [Fraction(rng.randint(-bound, bound),
                                             rng.randint(1, bound))
                                    for _ in range(euler_phi(n))])

    cols = [tuple(scalar() for _ in range(4)) for _ in range(5)]
    zeta5 = FieldNumber(n, [0] * 5 + [1])
    a, b = scalar(), scalar()
    cols.append(tuple(a * x + b * y for x, y in zip(cols[0], cols[1])))
    cols.append(tuple(zeta5 * x for x in cols[2]))
    cols.append(tuple(b * x - y for x, y in zip(cols[5], cols[3])))
    labels = tuple(f"e{j + 1}" for j in range(len(cols)))
    rep = representation_from_rows(zip(*cols), n, labels)
    M, R = Matroid(rep), FieldMatroid(dict(zip(labels, cols)))
    assert M.rank(labels) == 4
    assert ("e3", "e7") in M.parallel_classes()
    assert M.closure(["e1", "e2", "e4"]).elements == (
        "e1", "e2", "e4", "e6", "e8")
    subsets = [list(labels), ["e1", "e2", "e4"], ["e3", "e5"]]
    assert_kernels_agree(M, R, subsets)
    assert_contractions_agree(M, R, ["e3"], subsets)


# -- the certificate of non-membership in a closure ---------------------------

def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


@settings(max_examples=60, deadline=None)
@given(degenerate(KERNEL_CONDUCTORS), st.data())
def test_annihilator_vanishes_on_the_span(case, data):
    """The functional of a basis is zero on every zeta shift of every
    basis row and on every column of the closure, and it is None exactly
    when the basis spans everything."""
    rep, _ = case
    M = Matroid(rep)
    ring = _ring(rep.conductor)
    S = subset(data, M.ground)
    basis = M._basis(S)
    dual = _annihilator(ring, basis, rep.rows * ring.phi)
    if len(basis) == rep.rows:
        assert dual is None
        return
    assert any(dual)
    for _, _, shifts in basis:
        assert all(dot(dual, shift) == 0 for shift in shifts)
    columns = dict(zip(rep.labels, (v for _, v in rep.columns)))
    assert all(dot(dual, columns[e]) == 0 for e in M.closure(S).elements)


@pytest.mark.parametrize("n, d", [(1, 4), (3, 3)])
def test_closure_settles_a_zero_dot_by_reduction(monkeypatch, n, d):
    """Both outcomes of the exact fallback: c = a + b is in the closure
    of {a, b}, and x, built from the functional of {a, b} so that its dot
    product with it is zero, is not.  x is zero at every pivot
    coordinate, where no nonzero vector of the span is."""
    rng = random.Random(n)
    phi = euler_phi(n)

    def column():
        return [FieldNumber(n, [rng.randint(-3, 3) for _ in range(phi)])
                for _ in range(d)]

    a, b = column(), column()
    c = [x + y for x, y in zip(a, b)]
    ring = _ring(n)
    pair = Matroid(representation_from_rows(zip(a, b), n, ("a", "b")))
    basis = pair._basis(["a", "b"])
    assert len(basis) == 2
    dual = _annihilator(ring, basis, d * phi)
    pivots = {at + j for at, _, _ in basis for j in range(phi)}
    i, j = [t for t in range(d * phi) if t not in pivots][:2]
    flat = [0] * (d * phi)
    flat[i], flat[j] = dual[j], -dual[i]
    x = [FieldNumber(n, flat[t:t + phi]) for t in range(0, d * phi, phi)]
    rep = representation_from_rows(zip(a, b, c, x), n, ("a", "b", "c", "x"))
    columns = dict(zip(rep.labels, (v for _, v in rep.columns)))
    assert dot(dual, columns["c"]) == 0 and dot(dual, columns["x"]) == 0

    reduce, reduced = matroid._reduce, []

    def spy(ring, basis, vector):
        reduced.append(vector)
        return reduce(ring, basis, vector)

    M = Matroid(rep)
    monkeypatch.setattr(matroid, "_reduce", spy)
    assert M.closure(["a", "b"]) == Flat(("a", "b", "c"), 2)
    assert columns["c"] in reduced and columns["x"] in reduced
    assert M.rank(["a", "b", "x"]) == 3
