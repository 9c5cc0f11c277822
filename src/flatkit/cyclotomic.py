"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as coordinate vectors in the power basis
1, zeta, ..., zeta^(phi(n)-1) of Q[x]/Phi_n(x), with Fraction coordinates.
Q is conductor 1, the Eisenstein rationals conductor 3, the Gaussian
rationals conductor 4.  All values are immutable and all operations pure.

`CyclotomicNumber` is the value `parse_scalar` returns, and its field
operations are the reference the tests check the integer rank kernel
of `matroid` against.  A matrix is held as integer columns
(`matroid.Representation`), so no matrix, rank question or catalog
construction reaches this module's arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import ConductorMismatchError, ScalarParseError


# ---------------------------------------------------------------------------
# polynomial helpers, little-endian coefficient lists over Fraction

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


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

    @classmethod
    def from_rational(cls, q, conductor: int = 1) -> "CyclotomicNumber":
        return cls(conductor, [Fraction(q)])

    @classmethod
    def zeta(cls, conductor: int) -> "CyclotomicNumber":
        """The primitive root of unity zeta_n (equals 1 when n = 1)."""
        if conductor == 1:
            return cls(1, [Fraction(1)])
        return cls(conductor, [Fraction(0), Fraction(1)])

    def _check(self, other):
        if self.conductor != other.conductor:
            raise ConductorMismatchError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}")

    def __add__(self, other):
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        return CyclotomicNumber(
            self.conductor, _poly_mul(list(self.coeffs), list(other.coeffs)))

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


def zero(conductor: int) -> CyclotomicNumber:
    return CyclotomicNumber.from_rational(0, conductor)


def one(conductor: int) -> CyclotomicNumber:
    return CyclotomicNumber.from_rational(1, conductor)


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
