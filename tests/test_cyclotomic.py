"""Scalars of Q(zeta_n): the package's reduced values and text syntax,
and the tests' field arithmetic on them (`field_reference`)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_reference import FieldNumber, inv
from flatkit.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    format_scalar,
    parse_scalar,
)
from flatkit.errors import ConductorMismatchError, ScalarParseError


def num(q, n=1):
    return FieldNumber(n, [Fraction(q)])


def zero(n):
    return FieldNumber(n, [])


def one(n):
    return FieldNumber(n, [1])


def zeta(n):
    """The primitive root of unity zeta_n (equals 1 when n = 1)."""
    return FieldNumber(n, [0, 1])


def test_rational_addition():
    assert num("1/2") + num("1/3") == num("5/6")


def test_zeta3_plus_zeta3_squared_is_minus_one():
    z = zeta(3)
    assert z + z * z == num(-1, 3)


def test_add_zero_identity():
    import random
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.choice([1, 3, 4])
        x = FieldNumber(
            n, [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                for _ in range(euler_phi(n))])
        assert x + zero(n) == x


def test_zeta4_squared_is_minus_one():
    assert zeta(4) * zeta(4) == num(-1, 4)


def test_zeta3_squared_reduction():
    # z^2 reduces to -1 - z under x^2 + x + 1
    assert zeta(3) * zeta(3) == CyclotomicNumber(3, [-1, -1])


def test_zeta3_times_its_square_is_one():
    # oracle: repeated multiplication realizes z^3 = 1
    z = zeta(3)
    assert z * (z * z) == one(3)
    cube = one(3)
    for _ in range(3):
        cube = cube * z
    assert cube == one(3)


def test_inverse_of_two():
    assert inv(num(2)) == num("1/2")


def test_inverse_of_zeta3():
    got = inv(zeta(3))
    assert zeta(3) * got == one(3)
    assert got == CyclotomicNumber(3, [-1, -1])


def test_inverse_of_one_plus_i():
    x = num(1, 4) + zeta(4)
    got = inv(x)
    assert x * got == one(4)
    assert got == CyclotomicNumber(4, [Fraction(1, 2), Fraction(-1, 2)])


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv(zero(3))


def test_embed():
    assert zero(3) == CyclotomicNumber(3, [0, 0])
    assert one(4) * one(4) == one(4)
    assert num("5/7", 1).coeffs == (Fraction(5, 7),)


def test_cyclotomic_number_is_immutable_and_unequal_to_other_types():
    x = CyclotomicNumber(3, [1])
    with pytest.raises(AttributeError, match="^CyclotomicNumber is immut"):
        x.coeffs = (2, 0)
    assert x == CyclotomicNumber(3, [1, 0])
    assert x != 1 and x != (1,) and not x == "1"


def test_conductor_mismatch_rejected():
    with pytest.raises(ConductorMismatchError):
        zeta(3) + zeta(4)
    with pytest.raises(ConductorMismatchError):
        zeta(3) * one(1)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])
def test_zeta_primitivity(n):
    z = zeta(n)
    power = one(n)
    for m in range(1, n):
        power = power * z
        assert power != one(n), f"zeta_{n}^{m} must not be 1"
    assert power * z == one(n)


@pytest.mark.parametrize("n,expected", [
    (1, [-1, 1]),           # x - 1
    (2, [1, 1]),            # x + 1
    (3, [1, 1, 1]),         # x^2 + x + 1
    (4, [1, 0, 1]),         # x^2 + 1
    (6, [1, -1, 1]),        # x^2 - x + 1
    (12, [1, 0, -1, 0, 1]),
])
def test_cyclotomic_polynomials(n, expected):
    poly = cyclotomic_polynomial(n)
    assert list(poly) == expected
    assert all(type(c) is int for c in poly)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("build", [
    cyclotomic_polynomial,
    lambda n: CyclotomicNumber(n, [1]),
    lambda n: parse_scalar("1", n),
], ids=["cyclotomic_polynomial", "CyclotomicNumber", "parse_scalar"])
def test_conductor_below_one_is_refused(build, n):
    # one check, in cyclotomic_polynomial, which the other two reach first
    with pytest.raises(ValueError, match="^conductor must be a positive "
                                         "integer$"):
        build(n)


def test_canonical_form_idempotence():
    x = CyclotomicNumber(3, [Fraction(2), Fraction(-5, 3)])
    again = CyclotomicNumber(3, x.coeffs)
    assert again == x and again.coeffs == x.coeffs


# -- randomized field axioms -------------------------------------------------

def cyclo_numbers(n):
    phi = euler_phi(n)
    rat = st.fractions(min_value=-10, max_value=10, max_denominator=9)
    return st.lists(rat, min_size=phi, max_size=phi).map(
        lambda cs: FieldNumber(n, cs))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 3, 4]).flatmap(
    lambda n: st.tuples(cyclo_numbers(n), cyclo_numbers(n), cyclo_numbers(n))))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * inv(a) == one(a.conductor)


# -- text syntax -------------------------------------------------------------

@pytest.mark.parametrize("text,n", [
    ("0", 3), ("1", 1), ("-1", 4), ("1/2+3z-z^2", 5),
    ("z", 3), ("-z", 4), ("2/3z", 3), ("5/7", 1),
])
def test_parse_format_roundtrip(text, n):
    x = parse_scalar(text, n)
    assert parse_scalar(format_scalar(x.coeffs), n) == x


def test_format_is_canonical():
    assert format_scalar(zero(3).coeffs) == "0"
    assert format_scalar(zeta(4).coeffs) == "z"
    assert format_scalar((-zeta(4)).coeffs) == "-z"
    x = CyclotomicNumber(5, [Fraction(1, 2), Fraction(3), Fraction(-1)])
    assert format_scalar(x.coeffs) == "1/2+3z-z^2" == str(x)


def test_parse_accepts_spaces_and_reduces():
    assert parse_scalar(" 1/2 + 3z - z^2 ", 5) == parse_scalar("1/2+3z-z^2", 5)
    # z^3 reduces to 1 at conductor 3
    assert parse_scalar("z^3", 3) == one(3)


def test_parse_rejects_garbage():
    for bad in ["", "z^", "1//2", "q", "+", "1+*z"]:
        with pytest.raises(ScalarParseError):
            parse_scalar(bad, 3)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_exponent_reduced_mod_conductor(n):
    # oracle: repeated multiplication by zeta
    power = one(n)
    for k in range(3 * n + 1):
        assert parse_scalar(f"z^{k}", n) == power
        assert parse_scalar(f"2z^{10**18 * n + k}", n) == num(2, n) * power
        power = power * zeta(n)
