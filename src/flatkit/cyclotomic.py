"""Scalars of the cyclotomic fields Q(zeta_n) and their text syntax.

Elements are stored as coordinate vectors in the power basis
1, zeta, ..., zeta^(phi(n)-1) of Q[x]/Phi_n(x), with Fraction coordinates.
Q is conductor 1, the Eisenstein rationals conductor 3, the Gaussian
rationals conductor 4.

`CyclotomicNumber` is the immutable value a parsed matrix entry becomes
(`parse_scalar`): its coordinates reduced modulo Phi_n, with equality
and hashing and no field arithmetic.  A matrix is held as integer
columns (`matroid.Representation`), and every rank question is settled
on those.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

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
