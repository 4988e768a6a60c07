"""Exact cyclotomic arithmetic."""

import cmath
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymap.numberfield import (ConductorMismatch, CycloNumber, cyclotomic_polynomial,
                                 divisors, embed, power_by_squaring, totient, zeta)


def approx(a: CycloNumber) -> complex:
    """Floating-point image of a under zeta_N -> exp(2*pi*i/N)."""
    n = a.conductor
    z = 0j
    for i, c in enumerate(a.coeffs):
        if c:
            z += float(c) * cmath.exp(2j * cmath.pi * i / n)
    return z


def test_cyclotomic_polynomials():
    # coefficient tuples, constant term first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # phi(105) is the first with a coefficient of modulus 2
    assert min(cyclotomic_polynomial(105)) == -2


def test_totient_divisors():
    assert [totient(n) for n in (1, 2, 3, 4, 8, 12, 24, 60)] == \
        [1, 1, 2, 2, 4, 4, 8, 16]
    assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]


def test_roots_of_unity():
    i = zeta(4)
    assert i * i == CycloNumber.from_rational(-1, 4)
    w = zeta(3)
    assert w * w + w + CycloNumber.one(3) == CycloNumber.zero(3)
    assert zeta(6) ** 6 == CycloNumber.one(6)
    assert zeta(5) ** 5 == CycloNumber.one(5)
    # primitive: no smaller power hits 1
    assert all(zeta(12) ** k != CycloNumber.one(12) for k in range(1, 12))


def test_square_roots():
    # sqrt(2) = z8 - z8^3 and sqrt(5) = 1 + 2*z5 + 2*z5^4
    r2 = zeta(8) - zeta(8, 3)
    assert (r2 * r2).rational_value() == 2
    eta = zeta(5)
    r5 = CycloNumber.one(5) + (eta + eta ** 4) * Fraction(2)
    assert (r5 * r5).rational_value() == 5


def test_zeta_power_form():
    assert zeta(8, 3) == zeta(8) ** 3
    assert zeta(24, 6) == zeta(24) ** 6
    # z24^6 embeds i, z24^3 embeds z8
    assert zeta(24, 6) == embed(zeta(4), 24)
    assert zeta(24, 3) == embed(zeta(8), 24)
    assert zeta(60, 12) == embed(zeta(5), 60)
    z = zeta(60, 7) + 1
    assert z ** 0 == CycloNumber.one(60)
    product = z ** 0
    for e in range(1, 20):
        product = product * z
        assert z ** e == product and z ** -e == product.inverse()


def test_high_powers_of_a_large_conductor():
    # z^1023 lies 512 shifts above the basis of Q(zeta_1024), deeper
    # than a recursion of one frame per power can reach
    assert zeta(1024, 1023) * zeta(1024) == 1
    assert embed(zeta(512, 511), 1024) == zeta(1024, 1022)


class _Counted:
    """An integer that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


def test_power_by_squaring_takes_no_product_by_one():
    for e in range(1, 70):
        _Counted.products = 0
        assert power_by_squaring(_Counted(3), e).value == 3 ** e
        # floor(log2 e) squarings, one product per set bit after the lowest
        assert _Counted.products == e.bit_length() - 1 + bin(e).count("1") - 1, e


@pytest.mark.parametrize("exponent", [0, -1])
def test_power_by_squaring_rejects_exponents_below_one(exponent):
    # the callers answer exponent 0 themselves; the loop would never end
    with pytest.raises(ValueError):
        power_by_squaring(3, exponent)


def test_embed_requires_divisibility():
    a = zeta(8)
    with pytest.raises(ValueError):
        embed(a, 12)


def test_same_conductor_policy():
    with pytest.raises(ConductorMismatch):
        zeta(3) + zeta(4)
    with pytest.raises(ConductorMismatch):
        zeta(3) * zeta(4)
    assert embed(zeta(3), 12) + embed(zeta(4), 12) == zeta(12, 4) + zeta(12, 3)


def test_only_int_and_fraction_coordinates():
    # a float would be stored as its exact binary value, 0.1 as 3602879701896397/2^55
    for bad in (0.1, 1.0, "1/2", complex(1)):
        with pytest.raises(TypeError):
            CycloNumber(4, [bad, 0])
        with pytest.raises(TypeError):
            CycloNumber.from_rational(bad, 3)
    assert CycloNumber(4, [Fraction(1, 10), 2]).coeffs == (Fraction(1, 10), 2)
    assert CycloNumber.from_rational(Fraction(1, 10), 3).rational_value() == Fraction(1, 10)


def test_rational_detection():
    a = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert a.is_rational() and a.rational_value() == -1
    assert not zeta(5).is_rational()
    with pytest.raises(ValueError):
        zeta(5).rational_value()


def test_inverse():
    for n in (3, 4, 5, 8, 12, 24):
        a = zeta(n) + CycloNumber.from_rational(Fraction(1, 2), n)
        assert a * a.inverse() == CycloNumber.one(n)
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero(7).inverse()


def test_approx_agrees_with_cmath():
    for n in (1, 2, 3, 8, 12):
        got = approx(zeta(n))
        want = cmath.exp(2j * cmath.pi / n)
        assert abs(got - want) < 1e-12


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def cyclo(conductor):
    dim = totient(conductor)
    return st.tuples(*([small_rats] * dim)).map(
        lambda cs: sum((zeta(conductor, k) * c for k, c in enumerate(cs)),
                       CycloNumber.zero(conductor)))


@settings(max_examples=60, deadline=None)
@given(cyclo(12), cyclo(12), cyclo(12))
def test_field_axioms_q12(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(cyclo(6), cyclo(6))
def test_embed_is_a_homomorphism(a, b):
    assert embed(a + b, 24) == embed(a, 24) + embed(b, 24)
    assert embed(a * b, 24) == embed(a, 24) * embed(b, 24)
    assert abs(approx(embed(a, 24)) - approx(a)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(cyclo(8))
def test_inverse_roundtrip(a):
    if a == CycloNumber.zero(8):
        return
    assert a * a.inverse() == CycloNumber.one(8)


# ---------------------------------------------------------------------------
# differential test: integer vectors against Fraction coordinates

CONDUCTORS = (1, 3, 4, 5, 6, 8, 9, 10, 12, 24, 60)


def ref_reduce(n, poly):
    """Remainder of a Fraction polynomial modulo the n-th cyclotomic polynomial."""
    mod = cyclotomic_polynomial(n)
    phi = len(mod) - 1
    poly = list(poly) + [Fraction(0)] * (phi - len(poly))
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for i, m in enumerate(mod):
                poly[k - phi + i] -= c * m
    return tuple(poly[:phi])


def ref_mul(n, a, b):
    """Product of two coordinate vectors as a Fraction convolution."""
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return ref_reduce(n, conv)


def ref_embed(a, n, m):
    """Coordinates of a in Q(zeta_m), zeta_n -> zeta_m^(m/n)."""
    step = m // n
    poly = [Fraction(0)] * (step * (len(a) - 1) + 1)
    for i, c in enumerate(a):
        poly[i * step] += c
    return ref_reduce(m, poly)


def assert_matches(x, want):
    """x has the coordinates `want`, in their old types and in lowest terms."""
    assert x.coeffs == tuple(want)
    assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in x.coeffs)
    assert x._den > 0 and gcd(x._den, *x._num) == 1
    rebuilt = CycloNumber(x.conductor, want)
    assert rebuilt == x and hash(rebuilt) == hash(x)


rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def operands(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    vec = st.tuples(*([rats] * totient(n)))
    return n, draw(vec), draw(vec)


@settings(max_examples=120, deadline=None)
@given(operands(), st.integers(min_value=-2, max_value=4))
def test_arithmetic_matches_fraction_oracle(ops, exponent):
    n, ac, bc = ops
    a, b = CycloNumber(n, ac), CycloNumber(n, bc)
    assert_matches(a, ac)
    assert_matches(a + b, [x + y for x, y in zip(ac, bc)])
    assert_matches(a - b, [x - y for x, y in zip(ac, bc)])
    assert_matches(-a, [-x for x in ac])
    assert_matches(a * b, ref_mul(n, ac, bc))
    assert_matches(a * bc[0], [x * bc[0] for x in ac])
    if b:
        assert_matches(a / b, ref_mul(n, ac, b.inverse().coeffs))
        assert ref_mul(n, (a / b).coeffs, bc) == tuple(ac)
    if a or exponent >= 0:
        base = ac if exponent >= 0 else a.inverse().coeffs
        want = (Fraction(1),) + (Fraction(0),) * (len(ac) - 1)
        for _ in range(abs(exponent)):
            want = ref_mul(n, want, base)
        assert_matches(a ** exponent, want)
    m = lcm(n, 24)
    assert_matches(embed(a, m), ref_embed(ac, n, m))
    # one value reached along two paths has one representation
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
