"""Field arithmetic in Q(zeta_n) for the tests: the reference that the
integer rank kernel of `flatkit.matroid` is checked against.

`flatkit.cyclotomic.CyclotomicNumber` is only the value a parsed matrix
entry becomes; the package computes on integer columns and has no field
operations.  `FieldNumber` adds +, -, * and unary - to it, and `inv` is
the inverse by extended Euclid against Phi_n.  This module holds no
tests; the test modules import it.
"""

from fractions import Fraction

from flatkit.cyclotomic import (
    CyclotomicNumber,
    _poly_divmod,
    _trim,
    cyclotomic_polynomial,
)
from flatkit.errors import ConductorMismatchError


# ---------------------------------------------------------------------------
# polynomial helpers, little-endian coefficient lists over Fraction

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


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _poly_ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(s0, [-c for c in _poly_mul(q, s1)])
        t0, t1 = t1, _poly_add(t0, [-c for c in _poly_mul(q, t1)])
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


class FieldNumber(CyclotomicNumber):
    """A CyclotomicNumber with the field operations; results are
    FieldNumbers, and they compare equal to the CyclotomicNumber of the
    same element."""

    __slots__ = ()

    def _check(self, other):
        if self.conductor != other.conductor:
            raise ConductorMismatchError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}")

    def __add__(self, other):
        self._check(other)
        return FieldNumber(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return FieldNumber(
            self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FieldNumber(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        return FieldNumber(
            self.conductor, _poly_mul(list(self.coeffs), list(other.coeffs)))


def inv(x):
    """The multiplicative inverse of x in Q(zeta_n), by extended Euclid
    against Phi_n."""
    a = _trim(list(x.coeffs))
    if not a:
        raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
    g, s, _ = _poly_ext_gcd(a, list(cyclotomic_polynomial(x.conductor)))
    # Phi_n is irreducible over Q, so gcd with any nonzero element is 1
    assert g == [Fraction(1)], "cyclotomic polynomial not coprime to element"
    return FieldNumber(x.conductor, s)
