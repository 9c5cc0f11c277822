"""Matroids from exact representation matrices.

A matrix over Q(zeta_n) has one format from parse to dump, the integer
columns of a `Representation`: each column is scaled once to integer
power-basis coordinates in Z[zeta_n] (`_integer_column`), and a
`Matroid` computes on those columns as they are.
A column, like every vector of the rank kernel, is one flat sequence of
d*phi(n) Python ints, entry-major: entry i is the slice
[i*phi, (i+1)*phi).  A single element of Z[zeta_n] is a vector of one
entry, so one product (`_Ring.times`, an element times a vector) serves
both.  Every rank question is answered by one exact, fraction-free
routine: `_echelon` builds an echelon basis of a span and `_reduce`
reduces a vector against it.  A basis row is multiplied by
adj(p), the product of the other Galois conjugates of its pivot p, so
that the pivot becomes the rational integer N(p), and is stored with
its zeta shifts, row times zeta^j.  Reducing v against it is
v <- N(p) v - f row for f the entry of v at the pivot, one whole-vector
list comprehension at phi <= 2, at most phi in general.  Kept vectors
are made primitive.  No field inverse is taken and nothing is divided
except by an exact integer gcd.  A closure rejects a non-member column
by an integer functional that vanishes on the span (`_annihilator`): a
nonzero dot product with it proves the column is outside, and only a
column with a zero dot product is settled by `_reduce`, so every answer
stays exact.  Minors hold integer columns too: a restriction
keeps a subset of the columns and their point keys, and contracting a
flat projects its span out of the other columns.  Points (parallel
classes) are read off a projective normal form of each column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm

from .cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    format_scalar,
    parse_scalar,
)
from .errors import (
    BudgetExceededError,
    ConductorMismatchError,
    ContractNonFlatError,
    MatrixParseError,
    UsageError,
)

DEFAULT_CLOSURE_BUDGET = 10**7

# Largest conductor a matrix file may declare.  Rank work grows steeply
# with phi(n), most of it in adj, the product of the phi(n) - 1 other
# conjugates of each pivot and point lead.  For a dense 4x8 matrix with
# coordinates randint(-5, 5) / randint(1, 4), in-process `analyze` took
# 0.15 s at n = 23 and 2.3 s at n = 37, and `analyze --flats 2` 0.98 s
# and 9.8 s (medians of 3 runs, 2-vCPU VM, Python 3.11).
MAX_FILE_CONDUCTOR = 24


@dataclass(frozen=True)
class Representation:
    """A d x m matrix over Q(zeta_n) with distinct column labels, held as
    integer columns: columns[j] is (den, v) for the column labelled
    labels[j], v its d*phi(n) power-basis coordinates times den as ints,
    entry-major, and den >= 1 sharing no factor with v, as
    `_integer_column` makes it.  So equal matrices are equal records."""

    conductor: int
    rows: int
    labels: tuple[str, ...]
    columns: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.conductor < 1:
            raise UsageError(
                f"conductor {self.conductor} is not a positive integer")
        if len(self.columns) != len(self.labels):
            raise UsageError("column count does not match label count")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("labels must be unique")
        size = self.rows * euler_phi(self.conductor)
        for den, v in self.columns:
            if len(v) != size:
                raise UsageError("column length does not match row count")
            if den < 1 or gcd(den, *v) != 1:
                raise UsageError("column is not in lowest terms")


def _coordinates(x, conductor: int, phi: int):
    """The (numerator, denominator) pairs of the coordinates of a scalar."""
    if isinstance(x, CyclotomicNumber):
        if x.conductor != conductor:
            raise ConductorMismatchError(
                "entry conductor differs from declared conductor")
        coeffs = x.coeffs
    else:
        coeffs = (Fraction(x),) + (0,) * (phi - 1)
    return [(c.numerator, c.denominator) for c in coeffs]


def representation_from_rows(rows, conductor: int, labels=None) -> Representation:
    """Build a Representation from rows of ints, Fractions or
    CyclotomicNumbers of the given conductor; labels default to e1, e2..."""
    rows = [list(row) for row in rows]
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(len(rows[0]) if rows else 0))
    labels = tuple(labels)
    if any(len(row) != len(labels) for row in rows):
        raise UsageError("row length does not match label count")
    phi = euler_phi(conductor)
    columns = tuple(
        _integer_column([c for row in rows
                         for c in _coordinates(row[j], conductor, phi)])
        for j in range(len(labels)))
    return Representation(conductor, len(rows), labels, columns)


def prefix_labels(rep: Representation, prefix: str) -> Representation:
    return replace(rep, labels=tuple(prefix + lbl for lbl in rep.labels))


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Block-diagonal sum; conductors must agree and labels must be
    disjoint."""
    if a.conductor != b.conductor:
        raise ConductorMismatchError(
            f"direct sum of conductors {a.conductor} and {b.conductor}")
    if set(a.labels) & set(b.labels):
        raise UsageError("direct summands share labels; prefix them first")
    phi = euler_phi(a.conductor)
    below, above = (0,) * (b.rows * phi), (0,) * (a.rows * phi)
    columns = (tuple((den, v + below) for den, v in a.columns)
               + tuple((den, above + v) for den, v in b.columns))
    return Representation(a.conductor, a.rows + b.rows, a.labels + b.labels,
                          columns)


@dataclass(frozen=True)
class Flat:
    """A closure-closed element set together with its rank."""

    elements: tuple[str, ...]
    rank: int

    def __contains__(self, label):
        return label in self.elements

    def __len__(self):
        return len(self.elements)


class _Ring:
    """Arithmetic in Z[zeta_n] on power-basis coordinates held as ints.

    A vector of d entries is one flat sequence of d*phi(n) ints,
    entry-major: entry i is the slice [i*phi, (i+1)*phi), its
    coefficients of 1, zeta, ..., zeta^(phi-1).  An element is a vector
    of one entry.  `times` (an element times a vector) is the only
    product, and `_times_zeta` the only reduction modulo the monic
    integer Phi_n, so nothing is divided.  `adj` maps an element through
    the Galois matrices, built once per ring, or at phi = 2 a closed form.
    """

    __slots__ = ("n", "phi", "low", "fold", "galois")

    def __init__(self, n: int):
        poly = cyclotomic_polynomial(n)
        self.n = n
        self.phi = phi = len(poly) - 1
        # zeta^phi = -(sum of the lower terms of Phi_n)
        self.low = tuple(int(c) for c in poly[:-1])
        self.fold = tuple((j, c) for j, c in enumerate(self.low) if c)
        powers = [[1] + [0] * (phi - 1)]
        for _ in range(n - 1):
            powers.append(self._times_zeta(powers[-1]))
        # the rows of the phi x phi matrix of each automorphism
        # zeta -> zeta^k other than the identity: its column j is zeta^(jk)
        self.galois = tuple(
            tuple(zip(*[powers[j * k % n] for j in range(phi)]))
            for k in range(2, n) if gcd(k, n) == 1)

    def adj(self, a) -> list:
        """The product of the Galois conjugates of the element a other
        than a itself, so that a * adj(a) is the rational integer N(a),
        nonzero when a is.  At phi = 2 it is the one other conjugate."""
        if self.phi == 2:  # the other conjugate of zeta is -c1 - zeta
            return [a[0] - self.low[1] * a[1], -a[1]]
        # for n = 1 and 2 there is no other conjugate, and adj is 1
        out, *rest = [[sum(map(operator.mul, row, a)) for row in rows]
                      for rows in self.galois] or [[1]]
        for conj in rest:
            out = self.times(conj, out)
        return out

    def _times_zeta(self, v) -> list:
        """zeta * v for a flat vector v: in each entry the coefficients
        move up one place and the top one folds back through Phi_n."""
        phi = self.phi
        out = [0, *v[:-1]]
        for base in range(0, len(v), phi):
            top = v[base + phi - 1]
            out[base] = 0
            if top:
                for j, c in self.fold:
                    out[base + j] -= c * top
        return out

    def shifts(self, v) -> list:
        """[v, zeta*v, ..., zeta^(phi-1)*v] for a flat vector v, so that
        a*v is the sum of a_j times the j-th one for an element a."""
        out = [v]
        for _ in range(self.phi - 1):
            out.append(self._times_zeta(out[-1]))
        return out

    def times(self, a, v) -> list:
        """The flat vector a*v for an element a, entry by entry through
        a's phi x phi integer multiplication matrix, whose j-th column
        is zeta^j * a."""
        phi = self.phi
        entries = zip(*[iter(v)] * phi)
        if phi == 2:
            # zeta^2 = -c0 - c1*zeta, so zeta*a = (-c0*a1, a0 - c1*a1)
            (a0, a1), (c0, c1) = a, self.low
            b0, b1 = -c0 * a1, a0 - c1 * a1
            return [c for p, q in entries
                    for c in (a0 * p + b0 * q, a1 * p + b1 * q)]
        rows = list(zip(*self.shifts(a)))
        return [sum(map(operator.mul, row, x))
                for x in entries for row in rows]


def _primitive(v) -> list:
    """The flat vector v divided by the gcd of all its integer
    coordinates, which keeps its Q(zeta_n)-line and bounds coefficient
    growth."""
    g = gcd(*v)
    if g > 1:
        v = [c // g for c in v]
    return v


def _pivot(ring: _Ring, v):
    """The offset of the first nonzero entry of the flat vector v (the
    entry holding its first nonzero coordinate), None if v is zero."""
    at = next(compress(count(), v), None)
    return at if at is None else at - at % ring.phi


def _normalized(ring: _Ring, v, at: int) -> list:
    """The primitive part of v times adj of its entry at offset `at`,
    signed so that entry becomes a positive rational integer:
    (N, 0, ..., 0) with N > 0."""
    lead = v[at:at + ring.phi]
    if any(lead[1:]):
        v = ring.times(ring.adj(lead), v)
    v = _primitive(v)
    return v if v[at] > 0 else [-c for c in v]


@lru_cache(maxsize=None)
def _ring(n: int) -> _Ring:
    return _Ring(n)


def _integer_column(coords) -> tuple[int, tuple]:
    """A column, given entry-major as the (numerator, denominator) pairs
    of its coordinates, as (den, the flat column times den), den the lcm
    of the denominators; scaling a column by a nonzero rational changes
    no rank, closure, point or contraction."""
    den = lcm(*[d for _, d in coords])
    return den, tuple([c * (den // d) for c, d in coords])


def _reduce(ring: _Ring, basis, vector) -> list:
    """The flat `vector` with every pivot entry of the echelon basis
    cleared, fraction-free: v <- N*v - f*row, f the entry of v at the
    row's pivot and N the pivot's value.  f*row is the sum of f_j times
    the stored shift zeta^j * row, so a step is one list comprehension
    over Q and at phi = 2, and at most phi of them in general.  The
    result is a nonzero integer multiple of the reduction over the
    field, so it is zero iff `vector` lies in the span of the basis.
    Callers that keep it take its primitive part."""
    v = vector
    phi = ring.phi
    for at, value, shifts in basis:
        if phi == 1:
            f = v[at]
            if f:
                v = [value * x - f * r for x, r in zip(v, shifts[0])]
            continue
        if phi == 2:
            f, g = v[at:at + 2]
            if f or g:
                v = [value * x - f * r - g * q for x, r, q in zip(v, *shifts)]
            continue
        terms = [(f, s) for f, s in zip(v[at:at + phi], shifts) if f]
        if terms:
            (f, row), *rest = terms
            v = [value * x - f * r for x, r in zip(v, row)]
            for g, shift in rest:
                v = [x - g * s for x, s in zip(v, shift)]
    return v


def _echelon(ring: _Ring, vectors, basis=()) -> list:
    """Echelon basis of the span of flat `vectors` and of the echelon
    `basis` they extend (a copy of it; the one given is not changed),
    stopping at full row rank.

    A basis is a list of (at, N, shifts) triples.  Each row is a reduced
    vector multiplied by adj of its first nonzero entry, the pivot,
    starting at offset `at`, so that the pivot becomes the rational
    integer N, and then made primitive and signed so that N > 0; the row
    is zero at the pivots of the rows before it.  It is stored as
    `shifts`, the row times 1, zeta, ..., zeta^(phi-1), which `_reduce`
    combines.  The length of the basis is the rank of the span.

    The pivots depend on the span alone, so the primitive part of a
    residue `_reduce` leaves, a positive multiple of the residue over the
    field, is the same against every echelon basis of the span.
    """
    basis = list(basis)
    phi = ring.phi
    for vector in vectors:
        v = _reduce(ring, basis, vector)
        at = _pivot(ring, v)
        if at is None:
            continue
        row = _normalized(ring, v, at)
        basis.append((at, row[at], ring.shifts(row)))
        if len(basis) * phi == len(v):
            break
    return basis


def _annihilator(ring: _Ring, basis, size: int):
    """A nonzero integer functional on flat vectors of length `size`
    that vanishes on the span of the echelon basis, as a list of `size`
    ints; None if the basis spans everything.  A vector whose dot
    product with it is nonzero lies outside the span.

    Over Q the span is that of the stored shifts, and shift j of a row is
    N at coordinate at + j, zero at the other coordinates of its pivot
    entry and at the pivot entries of the rows before it.  The functional
    is seeded with distinct weights at every coordinate outside the pivot
    entries and solved up the rows from the last, fraction-free: at a
    row, for s_j the dot product of its shift j with the functional, the
    functional is multiplied by N and its coordinate at + j set to -s_j,
    which makes that dot product zero.  No other shift of the row and no
    shift of a later row is nonzero at at + j, so their dot products stay
    zero."""
    phi = ring.phi
    pivots = {at + j for at, _, _ in basis for j in range(phi)}
    if len(pivots) == size:
        return None
    dual = [0 if i in pivots else i + 1 for i in range(size)]
    for at, value, shifts in reversed(basis):
        dots = [sum(map(operator.mul, shift, dual)) for shift in shifts]
        if any(dots):
            dual = [value * c for c in dual]
            dual[at:at + phi] = [-s for s in dots]
    return _primitive(dual)


def _point_key(ring: _Ring, column):
    """The flat column times adj of its first nonzero entry, made
    primitive and signed so that entry is positive: the unique primitive
    integer vector that is a positive rational multiple of column / lead,
    so that parallel columns get equal keys even when they differ by a
    power of zeta; None for a zero column, which is a loop."""
    at = _pivot(ring, column)
    if at is None:
        return None
    return tuple(_normalized(ring, column, at))


@dataclass
class _Meter:
    """Work counts shared by a matroid and every minor taken from it:
    echelon bases built and flats formed."""

    echelons: int = 0
    flats: int = 0


class Matroid:
    """The matroid of the columns of a Representation.

    Minors are matroids of derived integer columns: a restriction keeps
    a subset of the columns, and contracting a flat projects its span out
    of the remaining columns.  A minor shares its parent's work meter.
    """

    def __init__(self, rep: Representation):
        self._setup(rep.conductor, rep.labels, rep.rows, rep.columns)

    @classmethod
    def _from_columns(cls, conductor, labels, rows, columns, points=None,
                      meter=None):
        """The matroid of `rows`-long columns given as `_integer_column`
        makes them; `points` are their point keys if already known, and
        `meter` is the work meter it shares (a fresh one if None)."""
        matroid = cls.__new__(cls)
        matroid._setup(conductor, labels, rows, columns, points, meter)
        return matroid

    def _setup(self, conductor, labels, rows, columns, points=None,
               meter=None):
        self.ground: tuple[str, ...] = tuple(labels)
        self._ground_set = frozenset(self.ground)
        self._ring = _ring(conductor)
        self._rows = rows
        self._denominators = {e: den for e, (den, _) in zip(labels, columns)}
        self._columns = {e: col for e, (_, col) in zip(labels, columns)}
        self._position = {e: j for j, e in enumerate(self.ground)}
        self._ground_basis = None
        self._meter = _Meter() if meter is None else meter
        if points is None:
            points = [_point_key(self._ring, col) for _, col in columns]
        self._points = dict(zip(self.ground, points))

    # -- basics ------------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._ring.n

    @property
    def rank_calls(self) -> int:
        """Echelon bases built or extended by this matroid and its minors,
        one each however many columns they take."""
        return self._meter.echelons

    @property
    def flats_formed(self) -> int:
        """Flats formed by `flats_of_rank` on this matroid and its minors."""
        return self._meter.flats

    def _labels(self, labels) -> frozenset:
        key = frozenset(labels)
        if not key <= self._ground_set:
            unknown = next(iter(key - self._ground_set))
            raise UsageError(f"unknown element label {unknown!r}")
        return key

    def _order(self, labels):
        return tuple(sorted(labels, key=self._position.__getitem__))

    def _basis(self, labels):
        """Echelon basis of the columns of `labels`, taken in ground order."""
        return self._extend((), labels)

    def _extend(self, basis, labels):
        """The echelon `basis` of some span extended by the columns of
        `labels`, taken in ground order: a new echelon basis of the span
        of both."""
        self._meter.echelons += 1
        return _echelon(self._ring,
                        [self._columns[e] for e in self._order(labels)], basis)

    def rank(self, labels=None) -> int:
        if labels is not None:
            return len(self._basis(self._labels(labels)))
        return len(self._prefix_basis())

    def _prefix_basis(self):
        """The echelon basis of all the columns, taken in ground order,
        built once.  Its first r rows are the echelon basis of the
        shortest ground prefix of rank r: the build reaches that prefix's
        last column with exactly those rows."""
        if self._ground_basis is None:
            self._ground_basis = self._basis(self.ground)
        return self._ground_basis

    def closure(self, labels) -> Flat:
        """The flat spanned by `labels`.  An element outside `labels`
        whose column has a nonzero dot product with the annihilator of
        their span is outside it; any other one is settled by `_reduce`."""
        key = self._labels(labels)
        return self._closure(key, self._basis(key))

    def _closure(self, key, basis) -> Flat:
        """The flat spanned by the label set `key`, `basis` an echelon
        basis of the span of its columns."""
        if len(key) == len(self.ground):
            return Flat(self.ground, len(basis))
        ring, columns = self._ring, self._columns
        dual = _annihilator(ring, basis, self._rows * ring.phi)
        if dual is None:
            return Flat(self.ground, len(basis))
        closed = tuple(e for e in self.ground if e in key
                       or (not sum(map(operator.mul, dual, columns[e]))
                           and not any(_reduce(ring, basis, columns[e]))))
        return Flat(closed, len(basis))

    def is_flat(self, labels) -> bool:
        cl = self.closure(labels)
        return set(cl.elements) == set(labels)

    def as_flat(self, labels) -> Flat:
        """Validate that `labels` is closed and wrap it as a Flat."""
        cl = self.closure(labels)
        if set(cl.elements) != set(labels):
            raise UsageError("element set is not a flat")
        return cl

    # -- simplicity --------------------------------------------------------

    def loops(self) -> tuple[str, ...]:
        return tuple(e for e in self.ground if self._points[e] is None)

    def is_loopless(self) -> bool:
        return not self.loops()

    def parallel_classes(self, within=None):
        """Partition of the non-loop elements into rank-1 closures (the
        points), each sorted in ground order; classes in order of first
        element.  `within` limits the partition to a subset."""
        pool = self.ground if within is None else self._order(
            self._labels(within))
        classes = {}
        for e in pool:
            if self._points[e] is not None:
                classes.setdefault(self._points[e], []).append(e)
        return [tuple(cls) for cls in classes.values()]

    def is_simple(self) -> bool:
        return len(self.parallel_classes()) == len(self.ground)

    def simplify(self):
        """Drop loops, keep the first element of each parallel class.

        Returns (simple matroid, mapping element -> representative); loops
        are absent from the mapping.
        """
        mapping = {}
        reps = []
        for cls in self.parallel_classes():
            rep = cls[0]
            reps.append(rep)
            for e in cls:
                mapping[e] = rep
        return self.restrict(reps), mapping

    # -- minors ------------------------------------------------------------

    def restrict(self, labels) -> "Matroid":
        """The restriction to `labels`, on the parent's integer columns
        and point keys."""
        keep = self._labels(labels)
        ground = tuple(e for e in self.ground if e in keep)
        return Matroid._from_columns(
            self.conductor, ground, self._rows,
            [(self._denominators[e], self._columns[e]) for e in ground],
            [self._points[e] for e in ground], self._meter)

    def contract(self, flat: Flat) -> "Matroid":
        """Contract a flat; the result is loopless when self is.

        Only flats may be contracted; anything else raises."""
        if not self.is_loopless():
            raise UsageError("contraction requires a loopless matroid")
        key = self._labels(flat.elements)
        closed, minor = self._contract(key, self._basis(key))
        if len(closed) != len(key):
            raise ContractNonFlatError(
                f"cannot contract non-flat {flat.elements}")
        return minor

    def _contract(self, key, basis):
        """(cl(S), M/cl(S)) for S the span of the echelon `basis`, which
        holds the columns of the label set `key` and may span more than
        them.  Each column outside `key` is reduced against the basis
        once: a zero residue puts its element in the closure, and a
        nonzero one, made primitive and cut to the coordinates outside the
        rank(S) pivot entries, where it is zero, is that element's column
        in the contraction."""
        ring = self._ring
        phi = ring.phi
        closed, ground, reduced = [], [], []
        for e in self.ground:
            v = () if e in key else _reduce(ring, basis, self._columns[e])
            if any(v):
                ground.append(e)
                reduced.append(_primitive(v))
            else:
                closed.append(e)
        pivots = {at for at, _, _ in basis}
        kept = [i for i in range(0, self._rows * phi, phi) if i not in pivots]
        return Flat(tuple(closed), len(basis)), Matroid._from_columns(
            self.conductor, ground, len(kept),
            [(1, tuple([c for i in kept for c in v[i:i + phi]]))
             for v in reduced], meter=self._meter)

    # -- flats -------------------------------------------------------------

    def flats_of_rank(self, k: int, budget: int = DEFAULT_CLOSURE_BUDGET, *,
                      max_size=None):
        """An iterator over the rank-k flats, each once, canonically
        sorted (by the ground positions of their elements); with
        `max_size`, only those with at most `max_size` elements.  The
        walk runs as the iterator advances.

        The flats are reached by a walk down chains of flats
        {} = C_0 < C_1 < ... < C_k, each covering the one before.  The
        flats covering C are C + P for the points P of the contraction
        M/C, and a chain takes P only if the first element of P in ground
        order comes after that of the point taken one step before.  Such
        a chain is the closure chain of the greedy basis of C_k, so every
        flat of rank at most k is formed exactly once, and the walk,
        depth first with points in order of first element, meets the
        rank-k flats in canonical order.  Every step of a chain adds at
        least one element, so at a rank-r flat C the walk skips a point P
        with len(C) + len(P) + (k - r - 1) > max_size: no rank-k flat
        that small lies beyond it.

        With max_size = k every flat on a chain that can still end in a
        rank-k flat has as many elements as its rank: it is free
        (independent and closed), and so is each of its subsets.  In
        particular any two elements of such a flat form a two-point line,
        and each element e outside C of it is a single-element point {e}
        of M/C.  So at a rank-r flat C, r >= 1 and r + 1 < k, the walk
        goes down into C + b, b a single-element point of M/C, only if at
        least k - r - 1 elements e after b are single-element points of
        M/C and partners of b ({b, e} is a flat): each chain through C + b
        adds such elements.  The partners of b are the single-element
        points of M/{b}, found once per walk from the elements' own
        columns.  This pair test starts only once the walk has gone down
        into a flat and found nothing below it, so a walk whose first
        chain ends in a rank-k flat does no work for it.

        `budget` bounds the number of flats the walk forms, at ranks 1..k;
        each one is counted in `flats_formed`, a cover the pair test
        rejects included, and a skipped point forms none; the iterator
        raises when it would form one more.  `rank_calls` counts a step
        down into a flat and a partner search as one echelon each; a
        partner search for b is the root's step down into {b}, so that
        step reuses its residues and builds nothing.
        """
        if not self.is_loopless():
            raise UsageError("flats_of_rank requires a loopless matroid")
        if k < 0 or k > self.rank():
            raise UsageError(f"flat rank {k} out of range 0..{self.rank()}")
        if k == 0:
            return iter([Flat((), 0)])
        ring, meter, ground = self._ring, self._meter, self.ground
        limit = meter.flats + budget
        # without a bound, a cap no chain reaches: no flat has more than
        # len(ground) elements
        cap = len(ground) + k if max_size is None else max_size
        free = max_size == k
        root = {i: (self._columns[e], self._points[e])
                for i, e in enumerate(ground)}
        partners = {}
        below = {}  # residues of a partner search not yet stepped into
        hits = 0
        barren = False  # a frame the walk went down into has yielded nothing

        # At the flat C (ground positions, sorted) every element i outside
        # C carries its column reduced against an echelon basis of C, made
        # primitive, and the point key of that residue: equal keys are the
        # points of M/C.  The point taken extends the basis by its key.  A
        # residue zero at the step's pivot entry keeps its key.  Residues
        # are reduced, not keys: a key is one times phi - 1 conjugates.
        def points_of(carried):
            points = {}
            for i, (_, key) in carried.items():
                points.setdefault(key, []).append(i)
            return points

        def descend(carried, row, inside):
            meter.echelons += 1
            at = _pivot(ring, row)
            step = [(at, row[at], ring.shifts(row))]
            end = at + ring.phi
            down = {}
            for i, (v, key) in carried.items():
                if i not in inside:
                    if any(v[at:end]):
                        v = _primitive(_reduce(ring, step, v))
                        key = _point_key(ring, v)
                    down[i] = v, key
            return down

        # a set of ground positions as the bits of an int: a walk holds up
        # to one partner set per element, a few bytes each where a set of
        # nine takes 0.7 KB, and a bit count counts the members after b
        def singles(points):
            return sum(1 << point[0] for point in points.values()
                       if len(point) == 1)

        def mates(b):
            # b is a single-element point of M/C, so {b} is its own point
            # of M, and the search is the root's step down into {b}, which
            # comes later (b is after the root point taken) and takes the
            # residues kept here
            if b not in partners:
                below[b] = descend(root, root[b][1], (b,))
                partners[b] = singles(points_of(below[b]))
            return partners[b]

        def walk(flat, rank, last, carried):
            nonlocal hits, barren
            points = points_of(carried)
            single = None
            for row, point in points.items():
                first = point[0]
                if (first <= last
                        or len(flat) + len(point) + (k - rank - 1) > cap):
                    continue
                meter.flats += 1
                if meter.flats > limit:
                    raise BudgetExceededError(f"flat budget {budget} exceeded")
                cover = tuple(sorted(flat + tuple(point)))
                if rank + 1 == k:
                    hits += 1
                    yield Flat(tuple(ground[i] for i in cover), k)
                    continue
                if barren and rank:
                    if single is None:
                        single = singles(points)
                    if (((single & mates(first)) >> first + 1).bit_count()
                            < k - rank - 1):
                        continue
                before = hits
                down = below.pop(first, None) if rank == 0 else None
                if down is None:
                    down = descend(carried, row, set(point))
                yield from walk(cover, rank + 1, first, down)
                barren = barren or (free and hits == before)

        return walk((), 0, -1, root)

    # -- materialization ---------------------------------------------------

    def to_representation(self) -> Representation:
        """The matrix of the matroid as its own integer columns: the ones
        it was built from, the parent's for a restriction, the projected
        columns for a contraction."""
        return Representation(
            self.conductor, self._rows, self.ground,
            tuple((self._denominators[e], self._columns[e])
                  for e in self.ground))


# ---------------------------------------------------------------------------
# matrix file format

def write_matrix(rep: Representation) -> str:
    phi = euler_phi(rep.conductor)
    cells = [[format_scalar([Fraction(c, den) for c in v[i:i + phi]])
              for i in range(0, len(v), phi)] for den, v in rep.columns]
    lines = [f"conductor {rep.conductor}",
             f"size {rep.rows} {len(rep.labels)}",
             "labels " + " ".join(rep.labels)]
    for i in range(rep.rows):
        lines.append(" ".join(col[i] for col in cells))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Representation:
    """The matrix of a matrix file.  The sizes are checked against the
    rows, or the labels of a file with no rows, before anything is built."""
    raw = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if ln]
    if len(lines) < 2:
        raise MatrixParseError("file too short: need conductor and size lines")
    lineno, first = lines[0]
    parts = first.split()
    if len(parts) != 2 or parts[0] != "conductor" or not parts[1].isdigit():
        raise MatrixParseError("expected 'conductor <n>'", line=lineno)
    conductor = int(parts[1])
    if conductor < 1:
        raise MatrixParseError("conductor must be positive", line=lineno)
    if conductor > MAX_FILE_CONDUCTOR:
        raise MatrixParseError(
            f"conductor {conductor} exceeds the maximum {MAX_FILE_CONDUCTOR}",
            line=lineno)
    lineno, second = lines[1]
    parts = second.split()
    if len(parts) != 3 or parts[0] != "size":
        raise MatrixParseError("expected 'size <d> <m>'", line=lineno)
    try:
        d, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise MatrixParseError("size fields must be integers", line=lineno)
    rest = lines[2:]
    labels = None
    if rest and rest[0][1].split()[0] == "labels":
        lineno, lab = rest[0]
        labels = tuple(lab.split()[1:])
        if len(labels) != m:
            raise MatrixParseError(
                f"expected {m} labels, got {len(labels)}", line=lineno)
        rest = rest[1:]
    if not m and not rest:
        # a matrix with no columns is written as d blank rows
        if d < 0:
            raise MatrixParseError("expected a row count of at least 0",
                                   line=lines[1][0])
        return Representation(conductor, d, labels or (), ())
    if len(rest) != d:
        raise MatrixParseError(
            f"expected {d} matrix rows, got {len(rest)}")
    if labels is None and m and not rest:
        # nothing else in the file bounds m
        raise MatrixParseError("a file with no matrix rows must list its "
                               "labels", line=lineno)
    rows = []
    for lineno, ln in rest:
        toks = ln.split()
        if len(toks) != m:
            raise MatrixParseError(
                f"expected {m} entries, got {len(toks)}", line=lineno)
        row = []
        for col, tok in enumerate(toks):
            try:
                row.append(parse_scalar(tok, conductor))
            except Exception as exc:
                raise MatrixParseError(
                    f"bad scalar {tok!r}: {exc}", line=lineno, column=col + 1)
        rows.append(row)
    return representation_from_rows(rows, conductor, labels)


def load_matrix(path) -> Representation:
    with open(path) as fh:
        return parse_matrix(fh.read())


def save_matrix(rep: Representation, path) -> None:
    with open(path, "w") as fh:
        fh.write(write_matrix(rep))
