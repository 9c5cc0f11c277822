"""Ordinary/elementary predicates, oracles, and the constructive search."""

import itertools
import random

import pytest

from flatkit.catalog import (
    ag23,
    ag23_power,
    motzkin,
    random_instance,
    trial_instances,
    uniform,
    uniform_power,
)
from flatkit.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    UsageError,
)
from flatkit.cyclotomic import _primitive
from flatkit.matroid import Flat, Matroid, Representation, direct_sum, prefix_labels, representation_from_rows
from flatkit.search import (
    conjecture_instances,
    find_elementary_flat,
    find_elementary_flat_brute,
    find_ordinary_flat_brute,
    find_ordinary_flat_constructive,
    find_two_point_line,
    is_elementary,
    is_ordinary,
    search_conjecture_counterexample,
)


def check_witness(M, w):
    """Type invariants of a witness under independent rank recomputation."""
    fresh = Matroid(M.to_representation())
    pt, comp = set(w.point.elements), set(w.complement.elements)
    assert pt | comp == set(w.flat.elements)
    assert pt & comp == set()
    assert fresh.rank(w.point.elements) == 1
    assert fresh.rank(w.complement.elements) == w.flat.rank - 1
    assert fresh.rank(w.flat.elements) == w.flat.rank
    for part in (w.flat, w.point, w.complement):
        assert set(fresh.closure(part.elements).elements) == set(part.elements)


# -- two-point lines ---------------------------------------------------------

def test_ag23_has_no_two_point_line():
    assert find_two_point_line(Matroid(ag23())) is None


def test_u22_whole_line():
    got = find_two_point_line(Matroid(uniform(2, 2)))
    assert got.elements == ("e1", "e2")


def test_random_rank4_has_two_point_line():
    M = Matroid(random_instance(4, 8, 4, seed=1))
    got = find_two_point_line(M)
    assert got is not None
    assert len(M.closure(got.elements).elements) == 2


def test_two_point_line_requires_simple():
    rep = representation_from_rows([[1, 2], [1, 2]], 1)
    with pytest.raises(UsageError):
        find_two_point_line(Matroid(rep))


# -- ordinary / elementary predicates ----------------------------------------

def test_two_point_line_is_ordinary():
    M = Matroid(uniform(2, 2))
    line = M.closure(M.ground)
    assert line.elements == M.ground
    w = is_ordinary(M, line)
    assert w is not None
    assert w.point.rank == 1 and w.complement.rank == 1
    check_witness(M, w)


def test_three_point_line_not_ordinary():
    M = Matroid(uniform(2, 3))
    line = M.closure(M.ground)
    assert line.elements == M.ground
    assert is_ordinary(M, line) is None


def test_motzkin_plane_point_plus_line():
    M = Matroid(motzkin())
    line1 = [e for e in M.ground if e.startswith("a.")]
    plane = M.closure(line1 + ["b.e1"])
    assert set(plane.elements) == set(line1 + ["b.e1"])
    w = is_ordinary(M, plane)
    assert w is not None
    assert w.point.elements == ("b.e1",)
    assert set(w.complement.elements) == set(line1)


def test_is_ordinary_rejects_nonflat():
    """A set that is not a flat, or a flat given another rank, is not an
    ordinary flat."""
    M = Matroid(uniform(2, 3))
    assert is_ordinary(M, Flat(("e1", "e2"), 2)) is None
    M = Matroid(uniform(3, 4))
    line = M.closure(["e1", "e2"])
    assert is_ordinary(M, line) is not None
    assert is_ordinary(M, Flat(line.elements, 3)) is None


def test_is_elementary():
    M2 = Matroid(uniform(2, 2))
    line = M2.closure(M2.ground)
    assert line.elements == M2.ground
    assert is_elementary(M2, line)
    M3 = Matroid(ag23())
    for line in M3.flats_of_rank(2):
        assert not is_elementary(M3, line)
    # an independent flat with no closure surplus
    M = Matroid(uniform(3, 4))
    fl = M.closure(["e1", "e2"])
    if len(fl.elements) == 2:
        assert is_elementary(M, fl)


# -- brute oracles -----------------------------------------------------------

def test_brute_ag23_k2_none():
    assert find_ordinary_flat_brute(Matroid(ag23()), 2) is None


def test_brute_motzkin_k3():
    w = find_ordinary_flat_brute(Matroid(motzkin()), 3)
    assert w is not None
    assert w.flat.rank == 3
    check_witness(Matroid(motzkin()), w)


def test_brute_ag23_sum_k2_cross_line():
    # within one block every line has 3 points, but a pair mixing the two
    # blocks is a closed two-point line (the rank-6 sum cannot avoid one)
    M = Matroid(ag23_power(2))
    w = find_ordinary_flat_brute(M, 2)
    assert w is not None
    assert {e.split(".")[0] for e in w.flat.elements} == {"c1", "c2"}
    # no witness inside a single block
    block = M.restrict([e for e in M.ground if e.startswith("c1.")])
    assert find_ordinary_flat_brute(block, 2) is None


# -- constructive search -----------------------------------------------------

def test_constructive_preconditions():
    M = Matroid(ag23())
    with pytest.raises(UsageError):
        find_ordinary_flat_constructive(M, 2)  # rank 3 < 4
    with pytest.raises(UsageError):
        find_ordinary_flat_constructive(M, 1)


def test_constructive_base_case_matches_kelly():
    rep = random_instance(4, 9, 1, seed=3)
    M = Matroid(rep)
    w, trace = find_ordinary_flat_constructive(M, 2)
    assert w.flat == find_two_point_line(Matroid(rep))
    assert trace.levels[-1].k == 2


def test_constructive_k3_random():
    rep = random_instance(8, 14, 1, seed=7)
    M = Matroid(rep)
    w, trace = find_ordinary_flat_constructive(M, 3)
    flat = w.flat
    assert flat.rank == 3
    fresh = Matroid(rep)
    closed = fresh.closure(flat.elements)
    assert set(closed.elements) == set(flat.elements)
    assert is_ordinary(fresh, closed) is not None
    # brute oracle agrees a witness exists
    assert find_ordinary_flat_brute(Matroid(rep), 3) is not None


def test_constructive_k4_line_sum():
    M = Matroid(uniform_power(2, 3, 6))  # rank 12
    w, trace = find_ordinary_flat_constructive(M, 4)
    flat = w.flat
    assert flat.rank == 4
    assert is_ordinary(M, flat) is not None
    # the output flat's own slice also carries a brute witness
    sub = M.restrict(flat.elements)
    assert find_ordinary_flat_brute(sub, 4) is not None


def test_constructive_strategies_agree_on_success():
    rep = random_instance(8, 13, 1, seed=19)
    M = Matroid(rep)
    w, _ = find_ordinary_flat_constructive(M, 3)
    assert is_ordinary(M, w.flat) is not None


def constructive_instances():
    """(matroid builder, k): a rank-8 trial instance at k=3, whose one F'
    scan runs at the top level, and the rank-12 line sum at k=4, which
    scans for F' at two levels."""
    _, M = next(trial_instances(8, 1, 0, 1, (12, 14)))
    yield lambda: Matroid(M.to_representation()), 3
    yield lambda: Matroid(uniform_power(2, 3, 6)), 4


@pytest.mark.parametrize("build, k", list(constructive_instances()),
                         ids=["trial-rank8-k3", "line-sum-k4"])
def test_constructive_budget_spans_the_recursion(build, k):
    """The flats formed in minors at every level count against one
    budget: the `flats_formed` delta of a full run is the least budget
    that completes, on a fresh matroid or one that has already worked."""
    M = build()
    witness, _ = find_ordinary_flat_constructive(M, k)
    formed = M.flats_formed
    assert formed > 0 and M.rank_calls > 0
    assert (find_ordinary_flat_constructive(build(), k, budget=formed)[0]
            == witness)
    with pytest.raises(BudgetExceededError,
                       match=f"^flat budget {formed - 1} exceeded$"):
        find_ordinary_flat_constructive(build(), k, budget=formed - 1)
    # the budget is counted from the call, not from the matroid's birth
    assert find_ordinary_flat_constructive(M, k, budget=formed)[0] == witness
    assert M.flats_formed == 2 * formed
    with pytest.raises(BudgetExceededError):
        find_ordinary_flat_constructive(M, k, budget=formed - 1)


def test_elementary_budget_spans_the_induction(monkeypatch):
    """The constructive call at each level of the elementary induction
    gets what the levels before it left of the one budget, and a budget
    that runs out in any of them is reported as the caller's."""
    target = "flatkit.search.find_ordinary_flat_constructive"
    (_, M), = trial_instances(16, 1, 0, 1, (20, 22))
    budgets = []

    def spy(M, k, budget):
        budgets.append((k, budget))
        return find_ordinary_flat_constructive(M, k, budget=budget)

    monkeypatch.setattr(target, spy)
    assert find_elementary_flat(M, 3, budget=1000) is not None
    # the k = 5 call formed 9 flats
    assert budgets == [(5, 1000), (2, 991)]

    def spy_out(M, k, budget):
        if k == 2:
            raise BudgetExceededError(f"flat budget {budget} exceeded")
        return find_ordinary_flat_constructive(M, k, budget=budget)

    monkeypatch.setattr(target, spy_out)
    (_, M), = trial_instances(16, 1, 0, 1, (20, 22))
    with pytest.raises(BudgetExceededError,
                       match="^flat budget 1000 exceeded$"):
        find_elementary_flat(M, 3, budget=1000)


def test_minors_share_the_work_meter():
    """A minor counts on its parent's meter; a matroid built afresh from
    its representation starts a fresh one."""
    M = Matroid(ag23_power(2))
    rank_calls, flats = M.rank_calls, M.flats_formed
    N = M.restrict(M.ground[:6])
    lines = list(N.flats_of_rank(2))
    assert M.flats_formed - flats == N.flats_formed - flats >= len(lines)
    C = M.contract(M.closure(M.ground[:1]))
    C.rank()
    assert M.rank_calls == C.rank_calls > rank_calls
    R = Matroid(M.to_representation())
    assert (R.rank_calls, R.flats_formed) == (0, 0)
    R.rank()
    assert M.rank_calls == C.rank_calls


@pytest.mark.parametrize("k,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_oracle_agreement(k, seed):
    rank = 4 * (k - 1)
    rep = random_instance(rank, rank + 4, 1, seed=100 + seed)
    M = Matroid(rep)
    w, _ = find_ordinary_flat_constructive(M, k)
    check_witness(M, w)
    assert find_ordinary_flat_brute(Matroid(rep), k) is not None


def test_trace_level_invariants():
    rep = random_instance(8, 13, 1, seed=23)
    M = Matroid(rep)
    _, trace = find_ordinary_flat_constructive(M, 3)
    top = trace.levels[-1]
    assert top.k == 3
    f = set(top.contracted_flat.elements)
    f1, f2 = set(top.f1.elements), set(top.f2.elements)
    assert f1 & f2 == f
    # ranks recomputed independently on the same representation
    fresh = Matroid(rep)
    assert fresh.rank(top.f1.elements) == fresh.rank(top.contracted_flat.elements) + 1
    assert fresh.rank(f1 | f2) == fresh.rank(top.contracted_flat.elements) + 2


def greedy_prefix_closure(M, t):
    """The closure of the first t elements of M's greedy basis in ground
    order, grown one rank test per element."""
    basis = []
    for e in M.ground:
        if M.rank(basis + [e]) == len(basis) + 1:
            basis.append(e)
            if len(basis) == t:
                break
    assert len(basis) == t
    return M.closure(basis)


def base_flat_cases():
    """(matroid, k): the line sum at k=4, where every third element
    depends on the two before it, the sum of three AG(2,3)s at k=3, whose
    first nine elements span a plane, and rank-8 trial instances at k=3
    over each conductor."""
    yield Matroid(uniform_power(2, 3, 6)), 4
    yield Matroid(ag23_power(3)), 3
    for c in (1, 3, 4):
        for _, M in trial_instances(8, 5, 0, c, (12, 14)):
            yield M, 3


@pytest.mark.parametrize("M, k", list(base_flat_cases()))
def test_base_flat_is_the_greedy_prefix_closure(M, k):
    """The top level contracts the closure of the shortest ground prefix
    of rank 4(k-2), which is the flat of the first 4(k-2) greedy-basis
    elements."""
    _, trace = find_ordinary_flat_constructive(M, k)
    top = trace.levels[-1]
    assert top.k == k
    fresh = Matroid(M.to_representation())
    assert top.contracted_flat == greedy_prefix_closure(fresh, 4 * (k - 2))


def lines_through_the_base_flat(conductor):
    """A rank-8 trial instance, drawn as `verify --seed 0` draws it, with
    one more column on the line through f and e for each f in the base
    flat F of its top k=3 level and each e outside F, and that F."""
    s, M = next(trial_instances(8, 1, 0, conductor, (12, 14)))
    F, _ = M._contract(frozenset(M.ground[:4]), M._prefix_basis(4)[:4])
    rep = M.to_representation()
    column = dict(zip(rep.labels, rep.columns))
    r = random.Random(s).choice((-3, -2, -1, 1, 2, 3))
    labels, columns = list(rep.labels), list(rep.columns)
    for e in M.ground:
        if e not in F:
            den_e, v_e = column[e]
            for f in F.elements:
                den_f, v_f = column[f]
                labels.append(f"{f}.{e}")
                columns.append((1, tuple(_primitive(
                    [a * den_e + r * b * den_f for a, b in zip(v_f, v_e)]))))
    return Matroid(Representation(conductor, rep.rows, tuple(labels),
                                  tuple(columns))), F


@pytest.mark.parametrize("conductor", [1, 3, 4])
def test_claim1_takes_z_outside_the_base_flat_and_swaps(conductor,
                                                        monkeypatch):
    """With a point of every line from F out to the rest planted, the top
    level's two-point line {z, w} takes z outside the base flat F and w
    the second point b of the contracted line, so x and y swap: the
    trace's x lies in F2 and not in F1.  The witness is ordinary on a
    fresh matroid of the same matrix.  The planted points make `simplify`
    merge parallel classes: M/F's 45 elements into 9 points, and N/L's
    12 into 4."""
    merged = []   # (elements in classes, classes) per simplify call
    simplify = Matroid.simplify

    def spy(self):
        simple, mapping = simplify(self)
        merged.append((len(mapping), len(simple.ground)))
        return simple, mapping

    monkeypatch.setattr(Matroid, "simplify", spy)
    N, F = lines_through_the_base_flat(conductor)
    w, trace = find_ordinary_flat_constructive(N, 3)
    assert merged == [(45, 9), (12, 4)]
    top = trace.levels[-1]
    assert top.k == 3 and top.contracted_flat == F
    assert top.z not in F
    assert top.x in top.f2 and top.x not in top.f1 and top.w == top.x
    assert is_ordinary(Matroid(N.to_representation()), w.flat) is not None


@pytest.mark.parametrize("conductor, k", [(1, k) for k in range(4, 9)]
                         + [(3, k) for k in range(4, 7)])
def test_constructive_flat_count_is_quadratic_in_k(conductor, k):
    """A main-theorem trial, drawn as `verify` draws it at rank 4(k-1),
    forms exactly sum_{j=3..k} (j-1) flats: the F' scan at level j
    reaches its first rank-(j-1) flat with no backtracking, one flat per
    rank.  That is 5, 14 and 27 at k = 4, 6 and 8; over Q(zeta_3) the
    scans walk at phi = 2."""
    rank = 4 * (k - 1)
    _, M = next(trial_instances(rank, 1, 0, conductor, (rank + 4, rank + 6)))
    formed = M.flats_formed
    find_ordinary_flat_constructive(M, k)
    assert M.flats_formed - formed == sum(j - 1 for j in range(3, k + 1))


@pytest.mark.parametrize("k, echelons", [(3, 14), (8, 99), (12, 185)],
                         ids=["k3", "k8", "k12"])
def test_constructive_echelon_count(k, echelons):
    """A main-theorem trial, drawn as `verify --seed 0` draws it, builds
    or extends this many echelon bases, each counting once however many
    columns it takes.  A level extends one basis per span: F + a, F + b
    and F + a + b from the basis of the ground prefix of rank t, which it
    reads off its matroid's ground echelon, the line {x, y}, and L + H,
    L + P and L + H + P from that; the base flat F, the line L and the
    contractions by them come from passes over those bases.  Each level's
    check of the rank of the next level's matroid builds that matroid's
    whole ground echelon, and the k = 2 level reads the basis of its
    first pair, a two-point line here, off that echelon's first two
    rows."""
    rank = 4 * (k - 1)
    _, M = next(trial_instances(rank, 1, 0, 1, (rank + 4, rank + 6)))
    before = M.rank_calls
    find_ordinary_flat_constructive(M, k)
    assert M.rank_calls - before == echelons


# -- elementary flats --------------------------------------------------------

def test_elementary_two_lines_cross_pair():
    M = Matroid(motzkin())
    fl = find_elementary_flat(M, 2)
    assert fl is not None and fl.rank == 2 and len(fl.elements) == 2
    # cross pairs are closed: the witness mixes the two summands
    prefixes = {e.split(".")[0] for e in fl.elements}
    assert prefixes == {"a", "b"}


@pytest.mark.parametrize("k", [2, 3])
def test_ag23_power_has_no_elementary_flat(k):
    M = Matroid(ag23_power(k - 1))
    assert find_elementary_flat(M, k) is None


@pytest.mark.parametrize("t, k, formed, echelons", [
    (2, 3, 99, 20), (3, 4, 999, 110), (4, 5, 9999, 1010)],
    ids=["2-3-99", "3-4-999", "4-5-9999"])
def test_elementary_scan_forms_only_single_element_chains(t, k, formed,
                                                          echelons):
    """A rank-k flat with k elements ends a chain of single-element
    points, so the scan of a sum of t copies of AG(2,3) forms its 9t
    points, its two-point lines and, from k = 4, its free planes and
    rank-4 flats: 99, 999 and 9,999 flats, against 341 and 5,088 in the
    whole walk at k = 3 and 4.  The pair test goes down into few of
    them: at k = 3 the root, the 9t points and the first cross line,
    whose covers all have four elements, are the 20 echelons, against 100
    without it.  The partner search for each point of the second copy is
    the walk's later step down into that point, which takes the search's
    residues and builds no echelon of its own."""
    M = Matroid(ag23_power(t))
    assert find_elementary_flat_brute(M, k) is None
    assert (M.flats_formed, M.rank_calls) == (formed, echelons)


def test_elementary_rank4_random():
    M = Matroid(random_instance(4, 8, 4, seed=9))
    fl = find_elementary_flat(M, 2)
    assert fl is not None and len(fl.elements) == 2


def test_elementary_k1():
    M = Matroid(ag23())
    fl = find_elementary_flat(M, 1)
    assert fl is not None and fl.rank == 1


def test_elementary_k_above_the_rank_is_refused():
    """k = 1 on a matroid with no element is above its rank 0, and is
    refused like any k above the rank."""
    for M, k in ((Matroid(representation_from_rows([[], []], 1, ())), 1),
                 (Matroid(ag23()), 4)):
        with pytest.raises(UsageError,
                           match=rf"^k={k} out of range 1\.\.{k - 1}$"):
            find_elementary_flat(M, k)


@pytest.mark.parametrize("k", [2, 3])
def test_bonnice_edelstein_tightness(k):
    # (k-1)-fold sum of three-point lines has rank 2(k-1) and no
    # elementary rank-k flat
    M = Matroid(uniform_power(2, 3, k - 1))
    assert M.rank() == 2 * (k - 1)
    assert find_elementary_flat(M, k) is None


def test_elementary_implies_ordinary():
    # every elementary flat found on small instances passes is_ordinary
    for seed in range(5):
        rep = random_instance(4, 8, 1, seed=200 + seed)
        M = Matroid(rep)
        fl = find_elementary_flat(M, 2)
        assert fl is not None
        assert is_ordinary(M, fl) is not None


# -- conjecture search -------------------------------------------------------

def test_conjecture_instance_stream():
    # trial i has seed s = seed * 1000003 + i and draws
    # random_instance(rank, rank + 2 + Random(s).randint(0, 2), c, seed=s)
    got = list(conjecture_instances(2, 2, trials=3, seed=9, conductor=3))
    seeds = [9 * 1000003 + i for i in range(3)]
    assert [s for s, _ in got] == seeds
    assert [M.to_representation() for _, M in got] == [
        random_instance(4, 6 + random.Random(s).randint(0, 2), 3, seed=s)
        for s in seeds]


def test_conjecture1_k2_verify_pass():
    stream = conjecture_instances(1, 2, trials=10, seed=4)
    report = search_conjecture_counterexample(stream, 1, 2)
    assert report.mode == "verify"
    assert report.outcome == "witness found"
    assert report.rank == 4


def test_conjecture2_k2_verify_pass():
    stream = conjecture_instances(2, 2, trials=10, seed=5)
    report = search_conjecture_counterexample(stream, 2, 2)
    assert report.mode == "verify" and report.outcome == "witness found"
    assert report.rank == 4


def test_conjecture1_k3_runs():
    stream = trial_instances(5, 5, 6, 1, (8, 10))
    report = search_conjecture_counterexample(stream, 1, 3)
    # the conjecture is open; all we assert is a well-formed report
    assert report.outcome in ("witness found", "exhausted", "budget exceeded")
    assert report.k == 3 and report.rank == 5


def test_under_rank_instance_rejected():
    # AG(2,3) has rank 3 = 3(k-1) for k=2, below the conjectured bound
    with pytest.raises(UsageError):
        search_conjecture_counterexample([(0, Matroid(ag23()))], 2, 2)
    # an empty stream has no instance to vouch for a witness
    with pytest.raises(UsageError):
        search_conjecture_counterexample([], 1, 2)


def test_report_serialization_shape():
    stream = conjecture_instances(1, 2, trials=3, seed=8)
    report = search_conjecture_counterexample(stream, 1, 2)
    doc = report.to_json_dict()
    assert list(doc) == ["mode", "seed", "conductor", "rank", "k",
                         "outcome", "witness", "stats"]
    assert doc["stats"]["ms"] == 0.0
