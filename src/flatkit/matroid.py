"""Matroids from exact representation matrices.

A matrix over Q(zeta_n) has one format from parse to dump, the integer
columns of a `Representation`: each column is scaled once to integer
power-basis coordinates in Z[zeta_n] (`_integer_column`), and a
`Matroid` computes on those columns as they are, with the rank kernel
of `cyclotomic`.  Minors hold integer columns too: a restriction keeps
a subset of the columns and their point keys, and contracting a flat
projects its span out of the other columns.  Points (parallel classes)
are read off a projective normal form of each column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .cyclotomic import (
    CyclotomicNumber,
    _annihilator,
    _echelon,
    _integer_column,
    _pivot,
    _point_key,
    _primitive,
    _reduce,
    _ring,
    _step_down,
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
# conjugates of each pivot and point lead.  For dense 4x8 matrices with
# coordinates randint(-5, 5) / randint(1, 4) at n = 23, in-process
# `analyze` took 0.22-0.27 s and `analyze --flats 2` 1.25-1.58 s (three
# matrices, one run each, 2-vCPU VM, Python 3.11).
MAX_FILE_CONDUCTOR = 24

# Most columns a matrix file may declare, and most integers in one of its
# columns, rows x phi(n).  Every file flatkit writes is admitted: a
# catalog export has at most 64 columns and a verify or search dump at
# most 72, at phi(n) <= 2, and neither has more rows than columns.  On
# dense matrices with coordinates drawn as the trial generator draws
# them, randint(-10, 10) / randint(1, 10), in-process `analyze` (rank
# and simplicity) of the slowest admitted shapes took 14.4 s at 72 x 72
# over Q(zeta_3), 10.8 s over Q(i), 5.8-6.6 s at 6 x 72 (n = 23),
# 8 x 72 (n = 19) and 12 x 72 (n = 13), and 3.1 s at 144 x 72 over Q
# (one run each, same VM); a refused 10 x 30 file at n = 23 took 7.8 s.
MAX_FILE_COLUMNS = 72
MAX_FILE_COLUMN_LENGTH = 144

# Most characters in a line of a matrix file up to its size line; the
# longest a file within the caps needs is `size 144 72`.
_MAX_HEADER_LINE = 256

# Most characters in a label of a matrix file; the longest label flatkit
# writes has 6, such as `c10.e1`.
MAX_FILE_LABEL = 64

# Most bytes in a file `load_matrix` reads.  The longest file flatkit
# writes with default parameters, `catalog --export uniform:64,64`, has
# 186,152, and reading MAX_FILE_BYTES + 1 bytes of a longer file peaks
# at 0.27 MB under tracemalloc.
MAX_FILE_BYTES = 256 * 1024


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
        # the ground echelon so far and the ground labels not yet taken
        # into it, None once it is complete
        self._ground_basis = []
        self._ground_rest = iter(self.ground)
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
        return self._extend((), self._order(labels))

    def _extend(self, basis, labels, stop=None):
        """The echelon `basis` of some span extended by the columns of
        `labels`, given in ground order: a new echelon basis of the span
        of both, or, with `stop`, the first `stop` rows of it; an iterator
        `labels` is left at the first label not taken (`_echelon`)."""
        self._meter.echelons += 1
        return _echelon(self._ring, map(self._columns.__getitem__, labels),
                        basis, stop)

    def rank(self, labels=None) -> int:
        if labels is not None:
            return len(self._basis(self._labels(labels)))
        return len(self._prefix_basis())

    def rank_at_least(self, r: int) -> bool:
        """rank() >= r, read off the ground echelon built to at most r
        rows; an r above the row count or the element count builds
        nothing."""
        if r > self._rows or r > len(self.ground):
            return False
        return len(self._prefix_basis(r)) >= r

    def _prefix_basis(self, r=None):
        """The echelon basis of all the columns, taken in ground order,
        built only as far as asked: at least its first r rows (all of
        them if it has fewer, or if r is None).  It is kept and extended
        from the first column it has not taken, so its rows are those of
        one build.  Its first t rows are the echelon basis of the shortest
        ground prefix of rank t: the build reaches that prefix's last
        column with exactly those rows."""
        rest = self._ground_rest
        if rest is not None and (r is None or len(self._ground_basis) < r):
            basis = self._extend(self._ground_basis, rest, r)
            # a tuple iterator's length hint is the count of labels left
            if len(basis) == self._rows or not operator.length_hint(rest):
                self._ground_rest = None  # full rank, or every column taken
            self._ground_basis = basis
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
        ring, columns = self._ring, self._columns
        dual = _annihilator(ring, basis, self._rows * ring.phi)
        if dual is None:
            return Flat(self.ground, len(basis))
        closed = tuple(e for e in self.ground if e in key
                       or (not sum(map(operator.mul, dual, columns[e]))
                           and not any(_reduce(ring, basis, columns[e]))))
        return Flat(closed, len(basis))

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
                      free=False):
        """An iterator over the rank-k flats, each once, canonically
        sorted (by the ground positions of their elements); with `free`,
        only those with k elements.  The walk runs as the iterator
        advances.

        The flats are reached by a walk down chains of flats
        {} = C_0 < C_1 < ... < C_k, each covering the one before.  The
        flats covering C are C + P for the points P of the contraction
        M/C, and a chain takes P only if the first element of P in ground
        order comes after that of the point taken one step before.  Such
        a chain is the closure chain of the greedy basis of C_k, so every
        flat of rank at most k is formed exactly once, and the walk,
        depth first with points in order of first element, meets the
        rank-k flats in canonical order.

        Every step of a chain adds at least one element, so a rank-k flat
        with k elements lies only beyond flats with as many elements as
        their ranks: with `free`, the walk skips a point of more than one
        element.  Every flat on its chains is free (independent and
        closed), and so is each of its subsets.  In
        particular any two elements of such a flat form a two-point line,
        and each element e outside C of it is a single-element point {e}
        of M/C.  So at a rank-r flat C, r >= 1 and r + 1 < k, the walk
        goes down into C + b, b a single-element point of M/C, only if at
        least k - r - 1 elements e after b are single-element points of
        M/C and partners of b ({b, e} is a flat): each chain through C + b
        adds such elements.  The partners of b are the single-element
        points of M/{b}, found once per walk from the elements' own
        columns.  This pair test starts only once the walk has come back
        up from a flat, so a walk stopped at its first rank-k flat, as the
        scans stop, does no work for it unless a chain before that flat
        ended short of rank k.

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
        if k < 0 or not self.rank_at_least(k):
            raise UsageError(f"flat rank {k} out of range 0..{self.rank()}")
        if k == 0:
            return iter([Flat((), 0)])
        ring, meter, ground = self._ring, self._meter, self.ground
        limit = meter.flats + budget
        root = {i: (self._columns[e], self._points[e])
                for i, e in enumerate(ground)}
        partners = {}
        below = {}  # frames of a partner search not yet stepped into
        barren = False  # the walk has come back up from a frame

        # At the flat C (ground positions, sorted) every element i outside
        # C carries its column reduced against an echelon basis of C, made
        # primitive, and the point key of that residue: equal keys are the
        # points of M/C.  The point taken extends the basis by its key.  A
        # residue zero at the step's pivot entry keeps its key.  Residues
        # are reduced, not keys: a key is one times phi - 1 conjugates.
        # A step's arithmetic is `_step_down`'s, in closed form at phi = 2.
        # A frame is the carried dict with its points, grouped once.
        def points_of(carried):
            points = {}
            for i, (_, key) in carried.items():
                points.setdefault(key, []).append(i)
            return points

        def descend(carried, row, inside):
            meter.echelons += 1
            at = _pivot(ring, row)
            down = _step_down(ring, (at, row[at], ring.shifts(row)), carried,
                              inside)
            return down, points_of(down)

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
            # frame kept here
            if b not in partners:
                below[b] = descend(root, root[b][1], (b,))
                partners[b] = singles(below[b][1])
            return partners[b]

        def walk(flat, rank, last, frame):
            nonlocal barren
            carried, points = frame
            single = None
            for row, point in points.items():
                first = point[0]
                if first <= last or (free and len(point) > 1):
                    continue
                meter.flats += 1
                if meter.flats > limit:
                    raise BudgetExceededError(f"flat budget {budget} exceeded")
                if barren and 0 < rank < k - 1:
                    if single is None:
                        single = singles(points)
                    if (((single & mates(first)) >> first + 1).bit_count()
                            < k - rank - 1):
                        continue
                cover = tuple(sorted(flat + tuple(point)))
                if rank + 1 == k:
                    yield Flat(tuple(ground[i] for i in cover), k)
                    continue
                down = below.pop(first, None) if rank == 0 else None
                if down is None:
                    down = descend(carried, row, set(point))
                yield from walk(cover, rank + 1, first, down)
                barren = free

        return walk((), 0, -1, (root, points_of(root)))

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
    """The matrix file of `rep`.  The labels line is split on whitespace
    when read, so a label that is empty or holds whitespace is refused,
    and so is one longer than `MAX_FILE_LABEL`, or a file longer than
    `MAX_FILE_BYTES` in UTF-8: none of them would read back."""
    for label in rep.labels:
        if len(label) > MAX_FILE_LABEL:
            raise UsageError(f"a label of {len(label)} characters cannot be "
                             "written to a matrix file: the most is "
                             f"{MAX_FILE_LABEL}")
        if label.split() != [label]:
            raise UsageError(f"label {label!r} cannot be written to a "
                             "matrix file: it is empty or holds whitespace")
    phi = euler_phi(rep.conductor)
    cells = [[format_scalar([Fraction(c, den) for c in v[i:i + phi]])
              for i in range(0, len(v), phi)] for den, v in rep.columns]
    lines = [f"conductor {rep.conductor}",
             f"size {rep.rows} {len(rep.labels)}",
             "labels " + " ".join(rep.labels)]
    for i in range(rep.rows):
        lines.append(" ".join(col[i] for col in cells))
    text = "\n".join(lines) + "\n"
    if len(text.encode("utf-8")) > MAX_FILE_BYTES:
        raise UsageError("the matrix file would be longer than "
                         f"{MAX_FILE_BYTES} bytes, the most that is read")
    return text


def parse_matrix(text: str) -> Representation:
    """The matrix of a matrix file.  A line ends at \\n, \\r\\n or \\r.
    A line up to the size line that is longer than `_MAX_HEADER_LINE` is
    refused before its fields are read.  The sizes are checked against
    the caps on the size line, before any label or row is read, and then
    against the rows, or the labels of a file with no rows, before
    anything is built."""
    raw = [part for ln in text.split("\n")
           for part in ln.removesuffix("\r").split("\r")]
    lines = [(i, ln) for i, ln in enumerate(raw, 1) if ln.strip()]
    end = lines[1][0] if len(lines) > 1 else len(raw)
    for lineno, ln in enumerate(raw[:end], 1):
        if len(ln) > _MAX_HEADER_LINE:
            raise MatrixParseError(
                f"line longer than {_MAX_HEADER_LINE} characters before "
                "the end of the size line", line=lineno)
    if len(lines) < 2:
        raise MatrixParseError("file too short: need conductor and size lines")
    head, rest = lines[:2], lines[2:]
    lineno, first = head[0]
    parts = first.split()
    # isdecimal, not isdigit: int() refuses a superscript digit such as "³"
    if len(parts) != 2 or parts[0] != "conductor" or not parts[1].isdecimal():
        raise MatrixParseError("expected 'conductor <n>'", line=lineno)
    conductor = int(parts[1])
    if conductor < 1:
        raise MatrixParseError("conductor must be positive", line=lineno)
    if conductor > MAX_FILE_CONDUCTOR:
        raise MatrixParseError(
            f"conductor {conductor} exceeds the maximum {MAX_FILE_CONDUCTOR}",
            line=lineno)
    lineno, second = head[1]
    parts = second.split()
    if len(parts) != 3 or parts[0] != "size":
        raise MatrixParseError("expected 'size <d> <m>'", line=lineno)
    try:
        d, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise MatrixParseError("size fields must be integers", line=lineno)
    if m > MAX_FILE_COLUMNS:
        raise MatrixParseError(
            f"{m} columns exceed the maximum {MAX_FILE_COLUMNS}", line=lineno)
    length = d * euler_phi(conductor)
    if length > MAX_FILE_COLUMN_LENGTH:
        raise MatrixParseError(
            f"{d} rows at conductor {conductor} make columns of {length} "
            f"integers, above the maximum {MAX_FILE_COLUMN_LENGTH}",
            line=lineno)
    labels = None
    if rest and rest[0][1].split()[0] == "labels":
        lineno, lab = rest.pop(0)
        labels = tuple(lab.split()[1:])
        if len(labels) != m:
            raise MatrixParseError(
                f"expected {m} labels, got {len(labels)}", line=lineno)
        if max(map(len, labels), default=0) > MAX_FILE_LABEL:
            raise MatrixParseError(
                f"label longer than {MAX_FILE_LABEL} characters", line=lineno)
        if len(set(labels)) != m:
            raise MatrixParseError("labels must be unique", line=lineno)
    if not m and not rest:
        # a matrix with no columns is written as d blank rows
        if d < 0:
            raise MatrixParseError("expected a row count of at least 0",
                                   line=head[1][0])
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
    """`parse_matrix` on the file at `path`, decoded as UTF-8.  At most
    `MAX_FILE_BYTES` + 1 bytes are read, once, so a longer file is
    refused without the rest being read."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise MatrixParseError(f"file longer than {MAX_FILE_BYTES} bytes")
    return parse_matrix(data.decode("utf-8"))


def save_matrix(rep: Representation, path) -> None:
    text = write_matrix(rep)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
