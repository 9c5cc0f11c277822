"""Ordinary and elementary flat search.

Contains the two-point-line witness finder, the ordinary/elementary
predicates, brute-force oracles over flat slices (one scan, two
predicates), the constructive recursion that finds an ordinary rank-k
flat whenever the rank is at least 4(k-1), the elementary-flat induction
on top of it, and the randomized conjecture-counterexample driver.

Every step of the constructive recursion that the underlying argument
takes for granted is re-checked at runtime; a failed check raises
InternalInconsistencyError with the construction trace attached, since
for representable input it can only mean a toolkit bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import trial_instances
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    UsageError,
)
from .matroid import DEFAULT_CLOSURE_BUDGET, Flat, Matroid, Representation


@dataclass(frozen=True)
class OrdinaryWitness:
    """Decomposition of a rank-k flat as point + rank-(k-1) flat."""

    flat: Flat
    point: Flat
    complement: Flat


@dataclass
class TraceLevel:
    """State of one recursion level of the constructive search."""

    k: int
    contracted_flat: Flat = None
    f1: Flat = None
    f2: Flat = None
    x: str = None
    y: str = None
    z: str = None
    w: str = None
    f_prime: Flat = None
    output: Flat = None


@dataclass
class ConstructionTrace:
    levels: list = field(default_factory=list)

    def to_json_dict(self):
        """Each level's fields in declaration order, a flat as its
        element list."""
        return {"levels": [
            {name: list(v.elements) if isinstance(v, Flat) else v
             for name, v in vars(lv).items()}
            for lv in self.levels]}


@dataclass
class SearchStats:
    """Work on a trial matroid and its minors, read off its meter."""

    rank_calls: int = 0
    flats_enumerated: int = 0
    ms: float = 0.0


@dataclass
class SearchReport:
    mode: str        # "verify" | "counterexample"
    seed: int
    conductor: int
    rank: int
    k: int
    outcome: str     # "witness found" | "exhausted" | "budget exceeded"
    witness: object = None   # OrdinaryWitness | Flat | None
    stats: SearchStats = field(default_factory=SearchStats)
    instance: Representation = None  # the instance the search stopped on

    def to_json_dict(self) -> dict:
        """The report as a JSON document.  `ms` is written as 0.0 so that
        the document is a pure function of the inputs."""
        w = self.witness
        if w is None:
            wd = None
        elif isinstance(w, OrdinaryWitness):
            wd = {"flat": list(w.flat.elements),
                  "point": list(w.point.elements),
                  "complement": list(w.complement.elements)}
        else:
            wd = {"flat": list(w.elements), "point": None, "complement": None}
        return {
            "mode": self.mode,
            "seed": self.seed,
            "conductor": self.conductor,
            "rank": self.rank,
            "k": self.k,
            "outcome": self.outcome,
            "witness": wd,
            "stats": {
                "rank_calls": self.stats.rank_calls,
                "flats_enumerated": self.stats.flats_enumerated,
                "ms": 0.0,
            },
        }


def _require(cond, message):
    if not cond:
        raise InternalInconsistencyError(message)


# ---------------------------------------------------------------------------
# predicates and witnesses

def find_two_point_line(M: Matroid):
    """Lexicographically least rank-2 flat with exactly two elements, or
    None.  Rank >= 4 without one contradicts the complex-representable
    guarantee and raises."""
    if not M.is_simple():
        raise UsageError("find_two_point_line requires a simple matroid")
    g = M.ground
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            # g[0] and g[1] are independent in a simple matroid, so the
            # first two rows of the ground echelon are their span's basis
            cl = (M._closure(frozenset(g[:2]), M._prefix_basis(2)[:2])
                  if j == 1 else M.closure([g[i], g[j]]))
            if len(cl.elements) == 2:
                return cl
    if M.rank_at_least(4):
        raise InternalInconsistencyError(
            "rank >= 4 with no two-point line: impossible for matrix-defined "
            "input, so some rank computation is wrong")
    return None


def is_ordinary(M: Matroid, F: Flat):
    """Witness that F is a point plus a rank-(k-1) flat, or None; None
    also when F is not a flat of M or its rank is not F.rank.

    One closure of F confirms that F is a flat of rank k.  Then, for a
    parallel class P inside F, F - P is a flat of rank k-1 exactly when
    rank(F - P) = k-1: its closure stays inside F, as F - P is a subset
    of the flat F; and if it held one element of P it would hold all of
    P (P is a whole point of M, as F is a flat), so it would be F, of
    rank k.  The classes are tried in canonical order.
    """
    if not M.is_loopless():
        raise UsageError("is_ordinary requires a loopless matroid")
    k = F.rank
    if k < 1:
        raise UsageError("ordinary flats have rank >= 1")
    closed = M.closure(F.elements)
    if closed.rank != k or set(closed.elements) != set(F.elements):
        return None
    for P in M.parallel_classes(within=F.elements):
        point = set(P)
        rest = tuple(e for e in F.elements if e not in point)
        if M.rank(rest) == k - 1:
            return OrdinaryWitness(flat=F, point=Flat(P, 1),
                                   complement=Flat(rest, k - 1))
    return None


def is_elementary(M: Matroid, F: Flat) -> bool:
    """True iff the rank-k flat F contains exactly k points."""
    return len(M.parallel_classes(within=F.elements)) == F.rank


# ---------------------------------------------------------------------------
# brute-force oracles

def _scan_slice(M, k, budget, test, free=False):
    """The first truthy test(flat) over the canonical rank-k slice, or
    with `free` over its flats of k elements, or None; the walk stops at
    that flat."""
    if not M.is_simple():
        raise UsageError("brute search requires a simple matroid")
    if k < 1 or not M.rank_at_least(k):
        raise UsageError(f"k={k} out of range 1..{M.rank()}")
    walk = M.flats_of_rank(k, budget=budget, free=free)
    return next(filter(None, map(test, walk)), None)


def find_ordinary_flat_brute(M: Matroid, k: int,
                             budget: int = DEFAULT_CLOSURE_BUDGET):
    """The witness of the first ordinary flat in the canonical rank-k
    slice, or None."""
    return _scan_slice(M, k, budget, lambda fl: is_ordinary(M, fl))


def find_elementary_flat_brute(M: Matroid, k: int,
                               budget: int = DEFAULT_CLOSURE_BUDGET):
    """First elementary flat in the canonical rank-k slice, or None.
    The scan runs on a simple matroid, whose points are its elements, so
    a rank-k flat is elementary iff it has k elements: it is the free
    walk's first flat."""
    return _scan_slice(M, k, budget, lambda fl: fl, free=True)


# ---------------------------------------------------------------------------
# the constructive search

def find_ordinary_flat_constructive(M: Matroid, k: int,
                                    budget: int = DEFAULT_CLOSURE_BUDGET):
    """Find an ordinary rank-k flat of a simple matroid with rank at
    least 4(k-1), returning (witness, trace).

    Base case k=2 is the two-point-line guarantee at rank >= 4; the
    recursive step restricts to the union of two flats over a common
    rank-4(k-2) flat, contracts a two-point line, recurses at k-1, and
    reassembles an ordinary flat from the lifted witness.  `budget`
    bounds the flats formed by all the levels together: every level works
    on a minor of M, which counts them in M's `flats_formed`.  Rank bounds
    for design matrices gave such flats at larger rank (Barak, Dvir,
    Wigderson and Yehudayoff 2011; Dvir, Saraf and Wigderson 2014).
    """
    if not M.is_simple():
        raise UsageError("constructive search requires a simple matroid")
    if k < 2:
        raise UsageError("constructive search requires k >= 2")
    if not M.rank_at_least(4 * (k - 1)):
        raise UsageError(
            f"rank {M.rank()} below 4(k-1) = {4 * (k - 1)}; "
            "only the brute oracle handles that range")
    trace = ConstructionTrace()
    try:
        witness = _constructive(M, k, trace, M.flats_formed + budget)
    except BudgetExceededError:
        # a scan's own budget is what the levels before it left over
        raise BudgetExceededError(f"flat budget {budget} exceeded") from None
    except InternalInconsistencyError as exc:
        # every failed check of any level ships the trace so far
        exc.trace = trace
        raise
    return witness, trace


def _constructive(M, k, trace, limit):
    """One level of the recursion, returning its witness; the flats
    formed by all the levels may bring M's `flats_formed` up to `limit`."""
    if k == 2:
        line = find_two_point_line(M)
        e1, e2 = line.elements
        witness = OrdinaryWitness(flat=line, point=Flat((e1,), 1),
                                  complement=Flat((e2,), 1))
        trace.levels.append(TraceLevel(k=2, output=line))
        return witness

    t = 4 * (k - 2)
    # the contraction flat is spanned by the first t greedy-basis
    # elements, which are those of the shortest ground prefix of rank t,
    # and the first t rows of M's ground echelon are that prefix's echelon
    # basis (M has rank above t, checked before this level), whose span
    # holds g[:t]; each span below is a known one plus some columns, so
    # its echelon basis extends that span's basis
    basis = M._prefix_basis(t)[:t]
    F, MF = M._contract(frozenset(M.ground[:t]), basis)
    line = find_two_point_line(MF.simplify()[0])  # rank >= 4 there
    a, b = line.elements

    f_set = set(F.elements)
    basis1 = M._extend(basis, [a])
    F1 = M._closure(f_set | {a}, basis1)
    F2 = M._closure(f_set | {b}, M._extend(basis, [b]))
    _require(F1.rank == t + 1 and F2.rank == t + 1,
             "flats over the contraction line have wrong rank")
    _require(set(F1.elements) & set(F2.elements) == f_set,
             "the two flats must intersect exactly in the base flat")
    union = set(F1.elements) | set(F2.elements)
    fu = M._closure(union, M._extend(basis1, [b]))
    _require(set(fu.elements) == union and fu.rank == t + 2,
             "union of the two flats must be a flat of rank t+2")

    N = M.restrict(union)
    x, y = a, b
    line_basis = N._basis([x, y])
    L, N2 = N._contract({x, y}, line_basis)
    _require(set(L.elements) == {x, y} and L.rank == 2,
             "{x,y} must be a two-point line in the restriction")

    N2s, cls_map = N2.simplify()
    _require(N2s.rank() == t, "contracted restriction has wrong rank")
    sub_witness = _constructive(N2s, k - 1, trace, limit)

    # lift through the parallel-class quotient back to the contraction
    p_reps = set(sub_witness.point.elements)
    h_reps = set(sub_witness.complement.elements)
    P = {e for e in N2.ground if cls_map[e] in p_reps}
    H = {e for e in N2.ground if cls_map[e] in h_reps}

    ordered_p = N._order(P)
    k_basis = N._extend(line_basis, N._order(H))
    K = N._closure(H | {x, y}, k_basis)
    _require(set(K.elements) == H | {x, y} and K.rank == k,
             "H with the line must be a rank-k flat")
    pxy = N._closure(P | {x, y}, N._extend(line_basis, ordered_p))
    _require(set(pxy.elements) == P | {x, y} and pxy.rank == 3,
             "P with the line must be a plane")
    hpxy = N._closure(H | P | {x, y}, N._extend(k_basis, ordered_p))
    _require(set(hpxy.elements) == H | P | {x, y} and hpxy.rank == k + 1,
             "H, P and the line must span a rank-(k+1) flat")

    # claim-1 case split: prefer z outside the base flat
    outside = [e for e in ordered_p if e not in f_set]
    pairs = ([(z, w) for z in outside for w in (y, x)] if outside
             else [(ordered_p[0], x)])
    zw = next((pair for pair in pairs
               if len(N.closure(pair).elements) == 2), None)
    _require(zw is not None, "claim-1 two-point line not found")
    z, w = zw
    if w == y:
        x, y = y, x  # so that {x,z} is the two-point line

    f_prime = _choose_f_prime(N, K, x, y, k, limit)
    _require(f_prime is not None,
             "no rank-(k-1) flat in K containing x but not y")

    out = Flat(N._order(set(f_prime.elements) | {z}), k)
    _require(is_ordinary(N, out) is not None,
             "the assembled set must be an ordinary rank-k flat")
    witness = OrdinaryWitness(flat=out, point=Flat((z,), 1),
                              complement=f_prime)
    trace.levels.append(TraceLevel(
        k=k, contracted_flat=F, f1=F1, f2=F2, x=x, y=y, z=z, w=w,
        f_prime=f_prime, output=out))
    return witness


def _choose_f_prime(N, K, x, y, k, limit):
    """The canonically least rank-(k-1) flat inside the rank-k flat K
    that contains x but not y, found by scanning K's (small) slice."""
    return _scan_slice(N.restrict(K.elements), k - 1, limit - N.flats_formed,
                       lambda fl: fl if x in fl and y not in fl else None)


# ---------------------------------------------------------------------------
# elementary flats

def find_elementary_flat(M: Matroid, k: int,
                         budget: int = DEFAULT_CLOSURE_BUDGET):
    """An elementary rank-k flat, or None; a k outside 1..rank is
    refused.

    With rank at least 4^(k-1) the constructive route always succeeds:
    find an ordinary rank-(4^(k-2)+1) flat, recurse into its rank-4^(k-2)
    complement, and extend the elementary flat found there by the point.
    Below that rank, fall back to brute enumeration of the slice.  The
    design-matrix bounds of Barak, Dvir, Wigderson and Yehudayoff (2011)
    and Dvir, Saraf and Wigderson (2014) give such flats at larger rank.
    """
    if not M.is_simple():
        raise UsageError("find_elementary_flat requires a simple matroid")
    if k < 1:
        raise UsageError("k must be at least 1")
    if k == 1 and M.ground:
        return M.closure([M.ground[0]])
    # 4^(k-1) >= k, so one rank question settles both bounds; a k above
    # the element count, and so above the rank, falls through to the
    # scan, which refuses it before 4^(k-1) is computed
    if k <= len(M.ground) and M.rank_at_least(4 ** (k - 1)):
        witness, _ = find_ordinary_flat_constructive(
            M, 4 ** (k - 2) + 1, budget=budget)
        sub = find_elementary_flat(M.restrict(witness.complement.elements),
                                   k - 1, budget=budget)
        _require(sub is not None, "elementary recursion came back empty")
        union = set(sub.elements) | set(witness.point.elements)
        out = M.closure(union)
        _require(set(out.elements) == union and out.rank == k,
                 "extended elementary candidate is not a flat of rank k")
        _require(is_elementary(M, out),
                 "extended candidate is not elementary")
        return out
    return find_elementary_flat_brute(M, k, budget=budget)


# ---------------------------------------------------------------------------
# conjecture search

CONJECTURE_RANK = {1: lambda k: k + 2, 2: lambda k: 3 * (k - 1) + 1}


def conjecture_instances(conjecture: int, k: int, trials: int, seed: int,
                         conductor: int = 1):
    """Seeded stream of (trial seed, Matroid) at exactly the rank
    the conjecture demands, with rank+2 to rank+4 columns."""
    rank = CONJECTURE_RANK[conjecture](k)
    yield from trial_instances(rank, trials, seed, conductor,
                               (rank + 2, rank + 4))


def search_conjecture_counterexample(instances, conjecture: int, k: int,
                                     budget: int = DEFAULT_CLOSURE_BUDGET):
    """Run the matching brute oracle over a stream of (seed, Matroid).

    Returns the report of the first counterexample (an instance whose
    flat slice is exhausted without a witness), a budget-exceeded report,
    or an aggregate verify-pass report.  An empty stream is refused.
    """
    if conjecture not in (1, 2):
        raise UsageError("conjecture must be 1 or 2")
    if k < 2:
        raise UsageError("conjectures are stated for k >= 2")
    need = CONJECTURE_RANK[conjecture](k)
    total = SearchStats()
    base_seed = None
    conductor = None
    for seed, M in instances:
        if base_seed is None:
            base_seed = seed
            conductor = M.conductor
        if M.rank() != need or not M.is_simple():
            raise UsageError(
                f"generator produced rank-{M.rank()} instance; conjecture "
                f"{conjecture} at k={k} needs simple rank {need}")
        rank_calls, flats = M.rank_calls, M.flats_formed
        try:
            if conjecture == 1:
                got = find_ordinary_flat_brute(M, k, budget=budget)
            else:
                got = find_elementary_flat_brute(M, k, budget=budget)
            stop = None if got else ("counterexample", "exhausted")
        except BudgetExceededError:
            stop = ("verify", "budget exceeded")
        total.rank_calls += M.rank_calls - rank_calls
        total.flats_enumerated += M.flats_formed - flats
        if stop:
            mode, outcome = stop
            return SearchReport(
                mode=mode, seed=seed, conductor=M.conductor, rank=need, k=k,
                outcome=outcome, stats=total, instance=M.to_representation())
    if base_seed is None:
        raise UsageError("no instance to search: at least one trial is "
                         "needed")
    return SearchReport(
        mode="verify", seed=base_seed, conductor=conductor,
        rank=need, k=k, outcome="witness found", stats=total)
