"""Arithmetic in Z[zeta_n]: the cyclotomic polynomials, the text syntax
of scalars of Q(zeta_n), and the exact integer rank kernel built on them.

Q is conductor 1, the Eisenstein rationals conductor 3, the Gaussian
rationals conductor 4.  `CyclotomicNumber` is the immutable value a
parsed matrix entry becomes (`parse_scalar`): its coordinates in the
power basis 1, zeta, ..., zeta^(phi(n)-1), reduced modulo Phi_n, with
equality and hashing and no field arithmetic.  A matrix is held as
integer columns (`matroid.Representation`, built by `_integer_column`),
and every rank question is settled on those by the kernel below.

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
except by an exact integer gcd.  A step of the flat walk reduces each
residue it carries by one row and keys it (`_step_down`): at phi <= 2
that is one closed-form pass per residue, the same integers as
`_reduce`, `_primitive` and `_point_key`, which it calls at phi > 2.  A
closure rejects a non-member column by an integer functional that
vanishes on the span (`_annihilator`): a nonzero dot product with it
proves the column is outside, and only a column with a zero dot product
is settled by `_reduce`, so every answer stays exact.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm

from .errors import ScalarParseError


# ---------------------------------------------------------------------------
# polynomial helpers, little-endian coefficient lists over Fraction

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c == 0:
            continue
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return _trim(q), _trim(a)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        a, b = k, n
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Phi_n as a monic polynomial, computed by dividing x^n - 1 by the
    cyclotomic polynomials of the proper divisors of n."""
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


class CyclotomicNumber:
    """An element of Q(zeta_n), fully reduced modulo Phi_n."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        phi = euler_phi(conductor)
        poly = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(poly) > phi:
            _, poly = _poly_divmod(poly, list(cyclotomic_polynomial(conductor)))
        poly += [Fraction(0)] * (phi - len(poly))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(poly))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {str(self)!r})"

    def __str__(self):
        return format_scalar(self.coeffs)


# ---------------------------------------------------------------------------
# text syntax: polynomial in `z` with rational coefficients, e.g. 1/2+3z-z^2

def format_scalar(coeffs) -> str:
    """Canonical whitespace-free printing of power-basis coordinates,
    terms in increasing degree."""
    parts = []
    for deg, c in enumerate(coeffs):
        if c == 0:
            continue
        if deg == 0:
            body = str(c)
        else:
            var = "z" if deg == 1 else f"z^{deg}"
            if c == 1:
                body = var
            elif c == -1:
                body = "-" + var
            else:
                body = f"{c}{var}"
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return "".join(parts) if parts else "0"


_TERM_RE = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(z(?:\^(\d+))?)?$")


def parse_scalar(text: str, conductor: int) -> CyclotomicNumber:
    """Parse the scalar syntax; spaces are tolerated, the result is reduced
    modulo Phi_n for the given conductor.

    Exponents are reduced mod n first, which is exact because zeta^n = 1,
    so the work does not grow with the exponent."""
    if conductor < 1:
        raise ValueError("conductor must be a positive integer")
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ScalarParseError("empty scalar token")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ScalarParseError(f"malformed scalar {text!r}")
    coeffs: dict[int, Fraction] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (not m.group(2) and not m.group(3)):
            raise ScalarParseError(f"malformed term {term!r} in scalar {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(3) is None:
            deg = 0
        elif m.group(4) is None:
            deg = 1
        else:
            deg = int(m.group(4))
        deg %= conductor
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + sign * coeff
    poly = [Fraction(0)] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        poly[deg] = c
    return CyclotomicNumber(conductor, poly)


# ---------------------------------------------------------------------------
# the integer rank kernel over Z[zeta_n]

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


def _step_down(ring: _Ring, step, carried, inside) -> dict:
    """One step of the flat walk, down into the point whose basis row is
    `step`, (at, N, shifts) as `_echelon` stores it.  `carried` maps each
    element outside a flat C to (v, key), v its primitive residue against
    a basis of C and key that residue's `_point_key`; the result maps
    each one outside C and `inside` to the pair against the basis
    extended by the row: _primitive(_reduce(ring, [step], v)) and its
    key, or the pair as it is if v is zero at the pivot entry.  At
    phi <= 2 a residue takes one pass with no call: reduce, divide by the
    content, find the lead entry; at phi = 2, if the lead is not
    rational, multiply by its other conjugate a0 - c1*a1 - a1*zeta and
    divide by the content again; sign the lead positive."""
    at, value, shifts = step
    phi = ring.phi
    down = {}
    if phi > 2:
        basis, end = [step], at + phi
        for i, (v, key) in carried.items():
            if i not in inside:
                if any(v[at:end]):
                    v = _primitive(_reduce(ring, basis, v))
                    key = _point_key(ring, v)
                down[i] = v, key
        return down
    row, zrow = shifts if phi == 2 else (shifts[0], None)
    c0, c1 = ring.low if phi == 2 else (0, 0)
    for i, pair in carried.items():
        if i in inside:
            continue
        v = pair[0]
        f = v[at]
        if phi == 1:
            if not f:
                down[i] = pair
                continue
            w = [value * x - f * r for x, r in zip(v, row)]
        else:
            g = v[at + 1]
            if not (f or g):
                down[i] = pair
                continue
            w = [value * x - f * r - g * q for x, r, q in zip(v, row, zrow)]
        content = gcd(*w)
        if not content:
            down[i] = w, None
            continue
        if content > 1:
            w = [x // content for x in w]
        # w is nonzero, so the walk's generator meets no StopIteration
        lead = next(compress(count(), w))
        key = w
        if phi == 2:
            lead -= lead % 2
            a0, a1 = w[lead], w[lead + 1]
            if a1:
                # (x + y zeta)(a0 - c1 a1 - a1 zeta), zeta^2 = -c0 - c1 zeta
                s, t = a0 - c1 * a1, c0 * a1
                pairs = iter(w[lead:])
                key = w[:lead] + [y for x, z in zip(pairs, pairs)
                                  for y in (s * x + t * z, a0 * z - a1 * x)]
                content = gcd(*key)
                if content > 1:
                    key = [x // content for x in key]
        down[i] = w, tuple(key) if key[lead] > 0 else tuple([-x for x in key])
    return down


def _echelon(ring: _Ring, vectors, basis=(), stop=None) -> list:
    """Echelon basis of the span of flat `vectors` and of the echelon
    `basis` they extend (a copy of it; the one given is not changed),
    stopping at full row rank or, if `stop` is given, as soon as it has
    `stop` rows.  `vectors` is read in order and no further than the
    vector that gives the last row, so an iterator is left at the first
    vector not taken.

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
        if len(basis) * phi == len(v) or len(basis) == stop:
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
