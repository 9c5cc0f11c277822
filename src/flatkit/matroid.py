"""Matroids from exact representation matrices.

A matroid is a labeled matrix over Q(zeta_n), held as integer columns:
each column is scaled once to integer power-basis coordinates in
Z[zeta_n] (`_integer_column`), and its matrix is built only on demand.
Every rank question is answered by one exact, fraction-free routine on
Python ints: `_echelon` builds an echelon basis of a span and `_reduce`
reduces a vector against it.  A basis row is multiplied by adj(p), the
product of the other Galois conjugates of its pivot p, so that the pivot
becomes the rational integer N(p); reducing against it is
v <- N(p) v - v[pivot] row, and kept vectors are made primitive.  No
field inverse is taken and nothing is divided except by an exact integer
gcd.  Minors hold integer columns too: a restriction keeps a subset of
the columns and their point keys, and contracting a flat projects its
span out of the other columns.  Points (parallel classes) are read off a
projective normal form of each column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
    zero,
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
# with phi(n), most of it in the adj products of pivots: for a dense 4x8
# matrix, rank, points and simplicity (`analyze`) took 0.12 s at n = 23
# and 1.5 s at n = 37, and its rank-2 flats a further 0.4 s and 2.0 s
# (2-vCPU VM, Python 3.11).
MAX_FILE_CONDUCTOR = 24


@dataclass(frozen=True)
class Representation:
    """A d x m matrix over Q(zeta_n) with distinct column labels."""

    conductor: int
    entries: tuple[tuple[CyclotomicNumber, ...], ...]  # row-major, d rows
    labels: tuple[str, ...]

    def __post_init__(self):
        for row in self.entries:
            if len(row) != len(self.labels):
                raise UsageError("row length does not match label count")
            for x in row:
                if x.conductor != self.conductor:
                    raise ConductorMismatchError(
                        "entry conductor differs from declared conductor")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("labels must be unique")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def columns(self) -> int:
        return len(self.labels)

    def column(self, j: int) -> tuple[CyclotomicNumber, ...]:
        return tuple(row[j] for row in self.entries)


def representation_from_rows(rows, conductor: int, labels=None) -> Representation:
    """Build a Representation from rows of ints/Fractions/CyclotomicNumbers."""
    ent = []
    for row in rows:
        out = []
        for x in row:
            if not isinstance(x, CyclotomicNumber):
                x = CyclotomicNumber.from_rational(Fraction(x), conductor)
            out.append(x)
        ent.append(tuple(out))
    m = len(ent[0]) if ent else 0
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(m))
    return Representation(conductor, tuple(ent), tuple(labels))


def prefix_labels(rep: Representation, prefix: str) -> Representation:
    return Representation(rep.conductor, rep.entries,
                          tuple(prefix + lbl for lbl in rep.labels))


def direct_sum(a: Representation, b: Representation) -> Representation:
    """Block-diagonal sum; conductors must agree and labels must be
    disjoint."""
    if a.conductor != b.conductor:
        raise ConductorMismatchError(
            f"direct sum of conductors {a.conductor} and {b.conductor}")
    if set(a.labels) & set(b.labels):
        raise UsageError("direct summands share labels; prefix them first")
    z = zero(a.conductor)
    rows = []
    for row in a.entries:
        rows.append(row + (z,) * b.columns)
    for row in b.entries:
        rows.append((z,) * a.columns + row)
    return Representation(a.conductor, tuple(rows), a.labels + b.labels)


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
    """Arithmetic in Z[zeta_n] on power-basis coefficient tuples of ints.

    An element is the tuple of its coefficients of 1, zeta, ...,
    zeta^(phi(n)-1), trimmed so that zero is () and so falsy.  Products
    are reduced modulo the monic integer Phi_n, so nothing is divided.
    """

    __slots__ = ("n", "phi", "fold", "units")

    def __init__(self, n: int):
        poly = cyclotomic_polynomial(n)
        self.n = n
        self.phi = len(poly) - 1
        # zeta^phi = -(sum of the lower terms of Phi_n)
        self.fold = tuple((j, int(c)) for j, c in enumerate(poly[:-1]) if c)
        # the Galois automorphisms zeta -> zeta^k other than the identity
        self.units = tuple(k for k in range(2, n) if gcd(k, n) == 1)

    def _reduced(self, coeffs: list) -> tuple:
        """The element with coefficient list `coeffs`, of any degree."""
        phi = self.phi
        for d in range(len(coeffs) - 1, phi - 1, -1):
            c = coeffs.pop()
            if c:
                for j, f in self.fold:
                    coeffs[d - phi + j] -= c * f
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    def mul(self, a: tuple, b: tuple) -> tuple:
        """The product a * b."""
        if not a or not b:
            return ()
        if len(a) == 1:
            c = a[0]
            return tuple([c * x for x in b])
        if len(b) == 1:
            c = b[0]
            return tuple([c * x for x in a])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._reduced(out)

    def adj(self, a: tuple) -> tuple:
        """The product of the Galois conjugates of a other than a itself,
        so that a * adj(a) is the rational integer N(a), nonzero when a
        is.  A rational a is its own pivot, and 1 is returned."""
        out = (1,)
        if len(a) == 1:
            return out
        n = self.n
        for k in self.units:
            conj = [0] * n
            for i, c in enumerate(a):
                conj[i * k % n] += c
            out = self.mul(out, self._reduced(conj))
        return out

    def scaled(self, v, a: tuple) -> list:
        """The primitive part of the vector v times a."""
        if a != (1,):
            v = [self.mul(x, a) for x in v]
        return _primitive(v)


def _primitive(v) -> list:
    """The vector v divided by the gcd of all its integer coefficients,
    which keeps its Q(zeta_n)-line and bounds coefficient growth."""
    g = gcd(*[c for x in v for c in x])
    if g > 1:
        v = [tuple([c // g for c in x]) for x in v]
    return v


def _sub(a: tuple, b: tuple) -> tuple:
    if len(a) >= len(b):
        out = list(a)
        for i, y in enumerate(b):
            out[i] -= y
    else:
        out = [-y for y in b]
        for i, x in enumerate(a):
            out[i] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def _ring(n: int) -> _Ring:
    return _Ring(n)


def _integer_column(entries) -> tuple[int, tuple]:
    """A column, its entries given as (numerator, denominator) pairs of
    coordinates, as (den, the column times den in ring elements), den the
    lcm of the denominators; scaling a column by a nonzero rational
    changes no rank, closure, point or contraction."""
    den = lcm(*[d for entry in entries for _, d in entry])
    out = []
    for entry in entries:
        coeffs = [c * (den // d) for c, d in entry]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(tuple(coeffs))
    return den, tuple(out)


def _reduce(ring: _Ring, basis, vector) -> list:
    """`vector` with every pivot coordinate of the echelon basis cleared,
    fraction-free: v <- N*v - v[pivot]*row for each row with pivot value
    N.  The result is a nonzero integer multiple of the reduction over
    the field, so it is zero iff `vector` lies in the span of the basis.
    Callers that keep it take its primitive part."""
    v = list(vector)
    mul = ring.mul
    for pivot, value, row in basis:
        factor = v[pivot]
        if factor:
            if value != 1:
                v = [tuple([value * c for c in x]) for x in v]
            for i, x in row:
                v[i] = _sub(v[i], mul(factor, x))
    return v


def _echelon(ring: _Ring, vectors) -> list:
    """Echelon basis of the span of `vectors`, stopping at full row rank.

    A basis is a list of (pivot, N, row) triples.  Each row is a reduced
    vector multiplied by adj of its first nonzero coordinate, the pivot,
    so that the pivot becomes the rational integer N, and then made
    primitive; it is stored as the (index, entry) pairs of its nonzero
    coordinates and is zero at the pivots of the rows before it.  The
    length of the basis is the rank of the span.
    """
    basis = []
    for vector in vectors:
        v = _reduce(ring, basis, vector)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        row = ring.scaled(v, ring.adj(v[pivot]))
        basis.append((pivot, row[pivot][0],
                      tuple((i, x) for i, x in enumerate(row) if x)))
        if len(basis) == len(v):
            break
    return basis


def _point_key(ring: _Ring, column):
    """The column times adj of its first nonzero entry, made primitive and
    signed so that entry is positive: the unique primitive integer
    vector that is a positive rational multiple of column / lead, so
    that parallel columns get equal keys even when they differ by a
    power of zeta; None for a zero column, which is a loop."""
    lead = next((i for i, x in enumerate(column) if x), None)
    if lead is None:
        return None
    key = ring.scaled(column, ring.adj(column[lead]))
    if key[lead][0] < 0:
        key = [tuple([-c for c in x]) for x in key]
    return tuple(key)


class Matroid:
    """The matroid of the columns of a Representation.

    Minors are matroids of derived integer columns: a restriction keeps
    a subset of the columns, and contracting a flat projects its span out
    of the remaining columns.
    """

    def __init__(self, rep: Representation):
        columns = [[[(c.numerator, c.denominator) for c in x.coeffs]
                    for x in rep.column(j)] for j in range(rep.columns)]
        self._setup(rep.conductor, rep.labels, rep.rows,
                    [_integer_column(col) for col in columns])

    @classmethod
    def _from_columns(cls, conductor, labels, rows, columns, points=None):
        """The matroid of `rows`-long columns given as `_integer_column`
        makes them; `points` are their point keys if already known."""
        matroid = cls.__new__(cls)
        matroid._setup(conductor, labels, rows, columns, points)
        return matroid

    def _setup(self, conductor, labels, rows, columns, points=None):
        self.ground: tuple[str, ...] = tuple(labels)
        self._ground_set = frozenset(self.ground)
        self._ring = _ring(conductor)
        self._rows = rows
        self._denominators = {e: den for e, (den, _) in zip(labels, columns)}
        self._columns = {e: col for e, (_, col) in zip(labels, columns)}
        self._position = {e: j for j, e in enumerate(self.ground)}
        self._rank = None
        self._echelons = 0
        if points is None:
            points = [_point_key(self._ring, col) for _, col in columns]
        self._points = dict(zip(self.ground, points))

    # -- basics ------------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._ring.n

    @property
    def rank_calls(self) -> int:
        """Echelon bases built by this matroid; its minors count their own."""
        return self._echelons

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
        self._echelons += 1
        return _echelon(self._ring,
                        [self._columns[e] for e in self._order(labels)])

    def rank(self, labels=None) -> int:
        if labels is not None:
            return len(self._basis(self._labels(labels)))
        if self._rank is None:
            self._rank = len(self._basis(self.ground))
        return self._rank

    def closure(self, labels) -> Flat:
        key = self._labels(labels)
        basis = self._basis(key)
        ring, columns = self._ring, self._columns
        closed = tuple(e for e in self.ground if e in key
                       or not any(_reduce(ring, basis, columns[e])))
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
            [self._points[e] for e in ground])

    def contract(self, flat: Flat) -> "Matroid":
        """Contract a flat; the result is loopless when self is.

        Only flats may be contracted; anything else raises.  The span of
        the flat is projected out of the other integer columns: each is
        reduced against an echelon basis of the flat, made primitive, and
        loses the rank(flat) pivot coordinates.
        """
        if not self.is_loopless():
            raise UsageError("contraction requires a loopless matroid")
        key = self._labels(flat.elements)
        basis = self._basis(key)
        ground = tuple(e for e in self.ground if e not in key)
        reduced = [_primitive(_reduce(self._ring, basis, self._columns[e]))
                   for e in ground]
        if not all(any(v) for v in reduced):
            raise ContractNonFlatError(
                f"cannot contract non-flat {flat.elements}")
        pivots = {pivot for pivot, _, _ in basis}
        kept = [i for i in range(self._rows) if i not in pivots]
        return Matroid._from_columns(
            self.conductor, ground, len(kept),
            [(1, tuple(v[i] for i in kept)) for v in reduced])

    # -- flats -------------------------------------------------------------

    def flats_of_rank(self, k: int, budget: int = DEFAULT_CLOSURE_BUDGET,
                      counter=None):
        """All rank-k flats, each once, canonically sorted (by the ground
        positions of their elements).

        The flats are reached by a walk down chains of flats
        {} = C_0 < C_1 < ... < C_k, each covering the one before.  The
        flats covering C are C + P for the points P of the contraction
        M/C, and a chain takes P only if the first element of P in ground
        order comes after that of the point taken one step before.  Such
        a chain is the closure chain of the greedy basis of C_k, so every
        flat of rank at most k is formed exactly once.

        `budget` bounds the number of flats the walk forms, at ranks 1..k;
        `counter` is an optional mutable [n] accumulating that number
        across calls.
        """
        if not self.is_loopless():
            raise UsageError("flats_of_rank requires a loopless matroid")
        if k < 0 or k > self.rank():
            raise UsageError(f"flat rank {k} out of range 0..{self.rank()}")
        if counter is None:
            counter = [0]
        if k == 0:
            return [self.closure([])]
        found = []
        ring = self._ring

        # At the flat C (ground positions, sorted) every element i outside
        # C carries residues[i], its column reduced against an echelon
        # basis of C, and keys[i], the point key of that residue, so equal
        # keys are the points of M/C.  One row, from the first element of
        # the point taken, extends the basis; a residue that is zero at its
        # pivot is left unchanged by the step, and keeps its key.
        def walk(flat, rank, last, residues, keys):
            points = {}
            for i, key in keys.items():
                points.setdefault(key, []).append(i)
            for point in points.values():
                first = point[0]
                if first <= last:
                    continue
                counter[0] += 1
                if counter[0] > budget:
                    raise BudgetExceededError(
                        f"closure budget {budget} exceeded",
                        stats={"closures": counter[0],
                               "flats_found": len(found)})
                cover = tuple(sorted(flat + tuple(point)))
                if rank + 1 == k:
                    found.append(cover)
                    continue
                self._echelons += 1
                step = _echelon(ring, [residues[first]])
                pivot = step[0][0]
                inside = set(point)
                down, down_keys = {}, {}
                for i, v in residues.items():
                    if i in inside:
                        continue
                    if v[pivot]:
                        v = _primitive(_reduce(ring, step, v))
                        down_keys[i] = _point_key(ring, v)
                    else:
                        down_keys[i] = keys[i]
                    down[i] = v
                walk(cover, rank + 1, first, down, down_keys)

        ground = self.ground
        walk((), 0, -1, {i: self._columns[e] for i, e in enumerate(ground)},
             {i: self._points[e] for i, e in enumerate(ground)})
        found.sort()
        return [Flat(tuple(ground[i] for i in flat), k) for flat in found]

    # -- materialization ---------------------------------------------------

    def to_representation(self) -> Representation:
        """The matrix, built on demand from the integer columns: the one
        the matroid was built from, the parent's columns for a restriction,
        the projected integer columns for a contraction."""
        n = self.conductor
        columns = [[CyclotomicNumber(n, [Fraction(c, den) for c in x])
                    for x in self._columns[e]]
                   for e, den in self._denominators.items()]
        entries = tuple(tuple(col[i] for col in columns)
                        for i in range(self._rows))
        return Representation(n, entries, self.ground)


# ---------------------------------------------------------------------------
# matrix file format

def write_matrix(rep: Representation) -> str:
    lines = [f"conductor {rep.conductor}",
             f"size {rep.rows} {rep.columns}",
             "labels " + " ".join(rep.labels)]
    for row in rep.entries:
        lines.append(" ".join(format_scalar(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Representation:
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
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(m))
    if len(rest) != d:
        raise MatrixParseError(
            f"expected {d} matrix rows, got {len(rest)}")
    entries = []
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
        entries.append(tuple(row))
    return Representation(conductor, tuple(entries), labels)


def load_matrix(path) -> Representation:
    with open(path) as fh:
        return parse_matrix(fh.read())


def save_matrix(rep: Representation, path) -> None:
    with open(path, "w") as fh:
        fh.write(write_matrix(rep))
