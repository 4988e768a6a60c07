"""Exact arithmetic in Q and in the cyclotomic fields Q(zeta_N).

A CycloNumber lives in one fixed field Q(zeta_N) and stores its
coordinates in the power basis 1, z, ..., z^(phi(N)-1), where z is the
principal N-th root of unity and phi is Euler's totient.  The
coordinates are held as a vector of integers over one positive common
denominator, in lowest terms (the gcd of the denominator and all the
integers is one), so equal values have equal representations.  Sums
and products are integer arithmetic with one gcd at the end, the usual
representation of number-field elements (Cohen, A Course in
Computational Algebraic Number Theory, 1993).  An inverse is the
product of the other Galois conjugates z -> z^k over the rational norm
(ibid., 4.3), so it too is integer arithmetic on the same vectors.
`coeffs` reads the coordinates back as ints, or Fractions where not
integral.  Values are immutable.

Mixed-conductor arithmetic is deliberately not supported: callers pick
a common conductor up front and embed with `embed`.  Rationals coerce
into any conductor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class ConductorMismatch(ValueError):
    """Operands live in cyclotomic fields neither of which was embedded into the other."""


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divexact_int(a, b):
    # long division of integer polynomials, exact by construction
    a = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        q, r = divmod(c, b[db])
        if r:
            raise ArithmeticError("division not exact")
        out[i - db] = q
        for j in range(db + 1):
            a[i - db + j] -= q * b[j]
    if any(a):
        raise ArithmeticError("division not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in divisors(n):
        if d < n:
            poly = _poly_divexact_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _fold_terms(n: int) -> tuple:
    # z^phi over the power basis, z^phi = -(c_0 + c_1 z + ...), as the
    # (i, -c_i) with c_i nonzero
    cyc = cyclotomic_polynomial(n)
    return tuple((i, -c) for i, c in enumerate(cyc[:totient(n)]) if c)


class CycloNumber:
    """An element of Q(zeta_N) in the power basis modulo the N-th cyclotomic polynomial.

    `_num` holds phi(N) integers and `_den` one positive integer; the
    value is sum(_num[i] * z^i) / _den, with gcd(_den, *_num) == 1.
    Coordinates and rationals come in as int or Fraction only: a float
    raises TypeError rather than being stored as its binary value.
    """

    __slots__ = ("conductor", "_num", "_den")

    def __init__(self, conductor: int, coeffs):
        phi = totient(conductor)
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {conductor}, got {len(coeffs)}")
        den = 1
        for c in coeffs:
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(f"coordinates must be int or Fraction, got {c!r}")
        # the lcm of reduced denominators leaves no common factor to divide out
        num = tuple(c.numerator * (den // c.denominator) if isinstance(c, Fraction)
                    else int(c) * den for c in coeffs)
        _set_fields(self, conductor, num, den)

    def __setattr__(self, *a):
        raise AttributeError("CycloNumber is immutable")

    @property
    def coeffs(self) -> tuple:
        """Coordinates in the power basis: ints, or Fractions where not integral."""
        den = self._den
        if den == 1:
            return self._num
        return tuple(c // den if c % den == 0 else Fraction(c, den) for c in self._num)

    @classmethod
    def from_rational(cls, value, conductor: int) -> "CycloNumber":
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"a rational must be int or Fraction, got {value!r}")
        pad = (0,) * (totient(conductor) - 1)
        if isinstance(value, Fraction):
            return _reduced(conductor, (value.numerator,) + pad, value.denominator)
        return _reduced(conductor, (int(value),) + pad, 1)

    @classmethod
    def zero(cls, conductor: int) -> "CycloNumber":
        return cls.from_rational(0, conductor)

    @classmethod
    def one(cls, conductor: int) -> "CycloNumber":
        return cls.from_rational(1, conductor)

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor {other.conductor} vs {self.conductor}; embed first")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(other, self.conductor)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        sd, od = self._den, other._den
        if sd == od:
            return _reduced(self.conductor,
                            tuple(a + b for a, b in zip(self._num, other._num)), sd)
        return _reduced(self.conductor,
                        tuple(a * od + b * sd for a, b in zip(self._num, other._num)),
                        sd * od)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        sd, od = self._den, other._den
        if sd == od:
            return _reduced(self.conductor,
                            tuple(a - b for a, b in zip(self._num, other._num)), sd)
        return _reduced(self.conductor,
                        tuple(a * od - b * sd for a, b in zip(self._num, other._num)),
                        sd * od)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _reduced(self.conductor, tuple(-a for a in self._num), self._den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _reduced(self.conductor, _mul_num(self.conductor, self._num, other._num),
                        self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power_by_squaring(self, exponent) if exponent else CycloNumber.one(self.conductor)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other, self.conductor)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        if other.conductor != self.conductor:
            raise ConductorMismatch(
                f"cannot compare conductors {self.conductor} and {other.conductor}; embed first")
        # lowest terms make the representation unique
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self.conductor, self._num, self._den))

    def __bool__(self):
        return any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self._num[0], self._den)

    def inverse(self) -> "CycloNumber":
        """Multiplicative inverse: the other Galois conjugates over the norm.

        With a = num/den, num times the product P of its conjugates
        sigma_k(num), k in (Z/N)* other than 1, is the norm of num, a
        rational integer n0, so 1/a = den * P / n0.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        n, num = self.conductor, self._num
        if self.is_rational():
            return CycloNumber.from_rational(Fraction(self._den, num[0]), n)
        prod = _power_basis_rows(n, 1)[0]
        for k in range(2, n):
            if gcd(k, n) == 1:
                prod = _mul_num(n, prod, _power_map(num, n, n, k))
        # n0 > 0: an irrational value needs N >= 3, where Q(zeta_N) has no
        # real embedding, so the conjugates pair off as complex conjugates
        norm = _mul_num(n, num, prod)[0]
        return _reduced(n, tuple(c * self._den for c in prod), norm)

    def __repr__(self):
        return f"CycloNumber({self.conductor}, {self.coeffs})"


_set_conductor = CycloNumber.conductor.__set__
_set_num = CycloNumber._num.__set__
_set_den = CycloNumber._den.__set__


def _set_fields(x, conductor, num, den):
    _set_conductor(x, conductor)
    _set_num(x, num)
    _set_den(x, den)


def _reduced(conductor: int, num: tuple, den: int) -> CycloNumber:
    # num / den brought to lowest terms with one gcd
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    x = object.__new__(CycloNumber)
    _set_fields(x, conductor, num, den)
    return x


_POWER_ROWS = {}  # conductor -> [z^0, z^1, ...] over its power basis


def _power_basis_rows(n: int, count: int) -> list:
    # z^0, ..., z^(count-1) over the power basis, as integers (the
    # modulus is monic integral), with any more rows already built; each
    # new row is z times the last, its overflow z^phi folded back in
    rows = _POWER_ROWS.get(n)
    if rows is None:
        rows = _POWER_ROWS[n] = [(1,) + (0,) * (totient(n) - 1)]
    while len(rows) < count:
        last = rows[-1]
        row = [0, *last[:-1]]
        for i, r in _fold_terms(n):
            row[i] += last[-1] * r
        rows.append(tuple(row))
    return rows


def _mul_num(n: int, a: tuple, b: tuple) -> tuple:
    # product of two integer vectors: convolution, then fold z^k
    # (k >= phi) back onto the basis, highest power first, since
    # z^k = z^(k-phi) * z^phi lands on powers below k
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                conv[i + j] += ai * bj
    fold = _fold_terms(n)
    for k in range(2 * phi - 2, phi - 1, -1):
        c = conv[k]
        if c:
            base = k - phi
            for i, r in fold:
                conv[base + i] += c * r
    return tuple(conv[:phi])


def _power_map(num: tuple, n: int, m: int, step: int) -> tuple:
    # image of an integer vector of Q(zeta_n) under z_n -> z_m^step:
    # an embedding when step = m/n, a Galois automorphism when m = n;
    # z_m^m = 1 keeps the cached rows below m
    out = [0] * totient(m)
    rows = _power_basis_rows(m, m)
    for i, c in enumerate(num):
        if c:
            for j, r in enumerate(rows[i * step % m]):
                if r:
                    out[j] += c * r
    return tuple(out)


def power_by_squaring(base, exponent: int):
    """base**exponent for exponent >= 1, for any type with `*`.

    The result starts as base^(2^k) for the lowest set bit k of the
    exponent, so no product is by one: exponent e costs floor(log2 e)
    squarings and one product per further set bit."""
    if exponent < 1:
        raise ValueError(f"exponent must be at least 1, got {exponent}")
    while not exponent & 1:
        base = base * base
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = base * base
        if exponent & 1:
            result = result * base
        exponent >>= 1
    return result


def zeta(n: int, power: int = 1) -> CycloNumber:
    """The root of unity zeta_n^power as an element of Q(zeta_n)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    k = power % n
    if totient(n) == 1:
        # Q(zeta_1) = Q(zeta_2) = Q
        value = 1 if n == 1 else (-1) ** k
        return CycloNumber.from_rational(value, n)
    return CycloNumber(n, _power_basis_rows(n, k + 1)[k])


def embed(a: CycloNumber, conductor: int) -> CycloNumber:
    """Image of a under Q(zeta_n) -> Q(zeta_m), zeta_n |-> zeta_m^(m/n); needs n | m."""
    n = a.conductor
    if conductor % n != 0:
        raise ConductorMismatch(f"{n} does not divide {conductor}")
    if conductor == n:
        return a
    return _reduced(conductor, _power_map(a._num, n, conductor, conductor // n), a._den)
