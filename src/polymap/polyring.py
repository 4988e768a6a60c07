"""Sparse multivariate polynomials over Q or Q(zeta_N).

Terms are kept in a dict mapping exponent tuples to nonzero
coefficients.  A polynomial is pinned to an ordered variable tuple and
a coefficient field; operations across different rings raise
RingMismatch rather than guessing an embedding.

Monomial orders are separate objects (degrevlex, block elimination)
so the same polynomial can be read under several orders.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd, lcm, prod
from operator import mul, sub

from .numberfield import CycloNumber, ConductorMismatch, embed, power_by_squaring


class RingMismatch(ValueError):
    """Operands live in different polynomial rings."""


class ExactDivisionError(ArithmeticError):
    """Requested quotient does not exist in the ring."""


# ---------------------------------------------------------------------------
# coefficient fields

class RationalField:
    """The field Q; coefficients are ints or Fractions."""

    is_cyclotomic = False
    conductor = 1

    def coerce(self, value):
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, CycloNumber):
            if value.is_rational():
                return self.coerce(value.rational_value())
            raise RingMismatch("cyclotomic coefficient in a rational ring")
        raise RingMismatch(f"cannot coerce {value!r} into Q")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class CyclotomicField:
    """The field Q(zeta_N) for a fixed conductor N."""

    is_cyclotomic = True

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return CycloNumber.from_rational(value, self.conductor)
        if isinstance(value, CycloNumber):
            if value.conductor == self.conductor:
                return value
            if self.conductor % value.conductor == 0:
                return embed(value, self.conductor)
            raise ConductorMismatch(
                f"conductor {value.conductor} does not divide {self.conductor}")
        raise RingMismatch(f"cannot coerce {value!r} into Q(zeta_{self.conductor})")

    @property
    def zero(self):
        return CycloNumber.zero(self.conductor)

    @property
    def one(self):
        return CycloNumber.one(self.conductor)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("cyclo", self.conductor))

    def __repr__(self):
        return f"QQ(zeta_{self.conductor})"


def common_field(f1, f2):
    """Smallest field of the supported family containing both."""
    if f1 == f2:
        return f1
    if not f1.is_cyclotomic:
        return f2
    if not f2.is_cyclotomic:
        return f1
    return CyclotomicField(lcm(f1.conductor, f2.conductor))


def field_inverse(c):
    """1/c for a nonzero coefficient: a Fraction over Q, a CycloNumber over Q(zeta_N)."""
    if isinstance(c, CycloNumber):
        return c.inverse()
    return Fraction(1) / c


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """A monomial order: a larger `key` ranks higher.

    Each entry of the key must be an integer linear form in the
    exponents, since the Groebner engine reads the order as the weight
    matrix of those forms.
    """

    name = "order"

    def key(self, exps):  # pragma: no cover - interface stub
        raise NotImplementedError

    def __repr__(self):
        return self.name


class DegRevLex(MonomialOrder):
    name = "degrevlex"

    def key(self, exps):
        return (sum(exps),) + tuple(-e for e in reversed(exps))


class BlockOrder(MonomialOrder):
    """Elimination order: degrevlex on a front block, then degrevlex on the rest."""

    name = "block"

    def __init__(self, front_indices, nvars):
        self.front = tuple(front_indices)
        self.back = tuple(i for i in range(nvars) if i not in self.front)
        self.nvars = nvars

    def key(self, exps):
        fe = tuple(exps[i] for i in self.front)
        be = tuple(exps[i] for i in self.back)
        return ((sum(fe),) + tuple(-e for e in reversed(fe))
                + (sum(be),) + tuple(-e for e in reversed(be)))

    def __repr__(self):
        return f"block(front={self.front})"


def block_order(variables, front_vars) -> BlockOrder:
    idx = []
    for v in front_vars:
        if v not in variables:
            raise ValueError(f"unknown variable {v!r}")
        idx.append(variables.index(v))
    return BlockOrder(idx, len(variables))


DEFAULT_ORDER = DegRevLex()


# ---------------------------------------------------------------------------
# products

def _product(a: dict, b: dict, nvars: int, field) -> dict:
    """Terms of the product of two nonzero term dicts.

    A dense product over Q is one big-integer product (Kronecker
    substitution; Harvey, JSC 2009).  Each operand, scaled to integers,
    becomes one int whose fixed-width fields hold its coefficients at the
    mixed-radix positions of the product's exponent box.  A field holds
    min(|a|, |b|) * max|A| * max|B| and a sign, so no carry crosses it.
    Products that are not dense, over Q(zeta_N), by a single term or of
    fewer than 16 term pairs run the schoolbook loop.  Coefficients over
    Q come back as ints when integral.
    """
    if len(a) < len(b):
        a, b = b, a
    rational = not field.is_cyclotomic
    if rational and nvars and len(b) > 1 and len(a) * len(b) >= 16:
        dims = [max(ea) + max(eb) + 1 for ea, eb in zip(zip(*a), zip(*b))]
        if prod(dims) <= len(a) * len(b):
            return _kronecker(a, b, dims)
    out = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            prior = out.get(exps)
            if prior is None:
                out[exps] = c
            else:
                c = prior + c
                if c:
                    out[exps] = c
                else:
                    del out[exps]
    return _canonical(out) if rational else out


def _canonical(terms: dict) -> dict:
    """Q terms with every integral coefficient an int, changed in place."""
    for e, c in terms.items():
        if c.__class__ is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def integral_terms(terms: dict):
    """(int_terms, den) of Q terms: den > 0 is the least integer making
    den * terms integral, and int_terms, those integers, is `terms`
    itself when every coefficient is an int."""
    den = 1
    ints = True
    for c in terms.values():
        if type(c) is not int:
            ints = False
            d = c.denominator
            den = den * d // gcd(den, d)
    if ints:
        return terms, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _kronecker(a: dict, b: dict, dims: list) -> dict:
    """_product over Q when the product fills the exponent box `dims`; |a| >= |b|."""
    strides = [1] * len(dims)
    for i in range(len(dims) - 1, 0, -1):
        strides[i - 1] = strides[i] * dims[i]
    (ints_a, den_a), (ints_b, den_b) = integral_terms(a), integral_terms(b)
    # whole bytes for the bound on a product coefficient and a sign bit
    width = (len(b) * max(map(abs, ints_a.values()))
             * max(map(abs, ints_b.values()))).bit_length() // 8 + 1
    packed = 1
    for ints in (ints_a, ints_b):
        # two's-complement fields; a negative field borrows one from the next
        top = width * sum(map(mul, map(max, zip(*ints)), strides))
        buf, borrow = bytearray(top + width), bytearray(top + width + 1)
        for exps, c in ints.items():
            o = width * sum(map(mul, exps, strides))
            buf[o:o + width] = c.to_bytes(width, "little", signed=True)
            if c < 0:
                borrow[o + width] = 1
        packed *= int.from_bytes(buf, "little") - int.from_bytes(borrow, "little")
    # a half-field bias in every field makes each one nonnegative
    half = 1 << (8 * width - 1)
    size = width * prod(dims)
    packed += int.from_bytes(half.to_bytes(width, "little") * prod(dims), "little")
    data = packed.to_bytes(size, "little")
    den = den_a * den_b
    out = {}
    for exps, o in zip(product(*map(range, dims)), range(0, size, width)):
        c = int.from_bytes(data[o:o + width], "little") - half
        if c:
            if den != 1:
                c = Fraction(c, den)
                if c.denominator == 1:
                    c = c.numerator
            out[exps] = c
    return out


# ---------------------------------------------------------------------------
# polynomials

class MultiPoly:
    """A sparse polynomial over an ordered variable tuple and a coefficient field."""

    __slots__ = ("vars", "field", "terms")

    def __init__(self, variables, terms, field=QQ, *, _clean=False):
        variables = tuple(variables)
        if _clean:
            clean = terms
        else:
            clean = {}
            nv = len(variables)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nv:
                    raise ValueError("exponent arity does not match the variables")
                coeff = field.coerce(coeff)
                if coeff:
                    prior = clean.get(exps)
                    if prior is not None:
                        coeff = prior + coeff
                        if coeff:
                            clean[exps] = coeff
                        else:
                            del clean[exps]
                    else:
                        clean[exps] = coeff
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables, field=QQ):
        return cls(variables, {}, field, _clean=True)

    @classmethod
    def constant(cls, value, variables, field=QQ):
        value = field.coerce(value)
        nv = len(tuple(variables))
        terms = {(0,) * nv: value} if value else {}
        return cls(variables, terms, field, _clean=True)

    @classmethod
    def variable(cls, name, variables, field=QQ):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: field.one}, field, _clean=True)

    @classmethod
    def monomial(cls, coeff, exps, variables, field=QQ):
        return cls(variables, {tuple(exps): coeff}, field)

    # -- ring plumbing ------------------------------------------------

    def _same_ring(self, other):
        if self.vars != other.vars or self.field != other.field:
            raise RingMismatch(
                f"rings differ: {self.vars}/{self.field} vs {other.vars}/{other.field}")

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars or other.field != self.field:
                raise RingMismatch(
                    f"rings differ: {self.vars}/{self.field} vs {other.vars}/{other.field}")
            return other
        if isinstance(other, (int, Fraction, CycloNumber)):
            return MultiPoly.constant(other, self.vars, self.field)
        return None

    def in_field(self, field) -> "MultiPoly":
        """The same polynomial with coefficients coerced into a larger field."""
        if field == self.field:
            return self
        return MultiPoly(self.vars, {e: field.coerce(c) for e, c in self.terms.items()},
                         field, _clean=True)

    def rename(self, new_variables) -> "MultiPoly":
        """Reinterpret the polynomial over variables of other names, position by position."""
        new_variables = tuple(new_variables)
        if len(new_variables) != len(self.vars):
            raise ValueError("arity mismatch in rename")
        return MultiPoly(new_variables, dict(self.terms), self.field, _clean=True)

    def restricted(self, keep_vars) -> "MultiPoly":
        """Drop variables that do not occur; error if a dropped variable occurs."""
        keep_vars = tuple(keep_vars)
        keep_idx = [self.vars.index(v) for v in keep_vars]
        drop_idx = [i for i in range(len(self.vars)) if i not in keep_idx]
        terms = {}
        for exps, coeff in self.terms.items():
            if any(exps[i] for i in drop_idx):
                raise ValueError("polynomial involves a dropped variable")
            terms[tuple(exps[i] for i in keep_idx)] = coeff
        return MultiPoly(keep_vars, terms, self.field, _clean=True)

    def extended(self, new_variables) -> "MultiPoly":
        """The same polynomial viewed in a ring with extra variables."""
        new_variables = tuple(new_variables)
        pos = {v: i for i, v in enumerate(new_variables)}
        for v in self.vars:
            if v not in pos:
                raise ValueError(f"new ring is missing variable {v!r}")
        nv = len(new_variables)
        terms = {}
        for exps, coeff in self.terms.items():
            out = [0] * nv
            for v, e in zip(self.vars, exps):
                out[pos[v]] = e
            terms[tuple(out)] = coeff
        return MultiPoly(new_variables, terms, self.field, _clean=True)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = terms.get(exps)
            if c is None:
                terms[exps] = coeff
            else:
                c = c + coeff
                if c:
                    if c.__class__ is Fraction and c.denominator == 1:
                        c = c.numerator
                    terms[exps] = c
                else:
                    del terms[exps]
        return MultiPoly(self.vars, terms, self.field, _clean=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = terms.get(exps)
            if c is None:
                terms[exps] = -coeff
            else:
                c = c - coeff
                if c:
                    if c.__class__ is Fraction and c.denominator == 1:
                        c = c.numerator
                    terms[exps] = c
                else:
                    del terms[exps]
        return MultiPoly(self.vars, terms, self.field, _clean=True)

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()},
                         self.field, _clean=True)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.vars, self.field)
        return MultiPoly(self.vars, _product(self.terms, other.terms, len(self.vars), self.field),
                         self.field, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not exponent:
            return MultiPoly.constant(1, self.vars, self.field)
        return power_by_squaring(self, exponent)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = MultiPoly.constant(other, self.vars, self.field)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars == other.vars and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.field, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries ------------------------------------------------------

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return self.field.zero
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def leading(self, order: MonomialOrder = DEFAULT_ORDER):
        """Leading (exponent, coefficient) under the given order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def sorted_terms(self, order: MonomialOrder = DEFAULT_ORDER):
        """The (exponent, coefficient) pairs, leading term first."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def uses_variable(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    def __repr__(self):
        from .parser import format_poly
        return f"MultiPoly({format_poly(self)!r})"


# ---------------------------------------------------------------------------
# calculus

def derivative(p: MultiPoly, name: str) -> MultiPoly:
    """Partial derivative with respect to one variable."""
    i = p.vars.index(name)
    terms = {}
    for exps, coeff in p.terms.items():
        e = exps[i]
        if e:
            ne = exps[:i] + (e - 1,) + exps[i + 1:]
            c = coeff * e
            prior = terms.get(ne)
            terms[ne] = c if prior is None else prior + c
    return MultiPoly(p.vars, {e: c for e, c in terms.items() if c}, p.field, _clean=True)


def jacobian_det(f1: MultiPoly, f2: MultiPoly) -> MultiPoly:
    """Determinant of the Jacobian matrix of (f1, f2) in the first two variables."""
    f1._same_ring(f2)
    x, y = f1.vars[:2]
    return (derivative(f1, x) * derivative(f2, y)
            - derivative(f1, y) * derivative(f2, x))


def hessian_det(p: MultiPoly) -> MultiPoly:
    """Determinant of the Hessian matrix of p in the first two variables."""
    x, y = p.vars[:2]
    px, py = derivative(p, x), derivative(p, y)
    return derivative(px, x) * derivative(py, y) - derivative(px, y) ** 2


# ---------------------------------------------------------------------------
# substitution

def substitute(p: MultiPoly, images: dict) -> MultiPoly:
    """Evaluate p at polynomial images of its variables.

    Variables absent from `images` map to themselves; the target ring
    is taken from the images (they must agree) and must then contain
    any such untouched variable.

    The pullback runs Horner's rule in the image X of the first variable
    p uses.  Its terms are grouped by their exponent k of that variable;
    each group p_k is summed as scalars times cached products of powers
    of the other images, and the groups are folded as
    (...(p_d*X^(d-k) + p_k)*X^(k-j) + p_j...)*X^i.  That takes about
    deg_x(p) full products, not one per term.  When every image is a
    single term, as under a monomial matrix, no product is needed: each
    term of p maps to one term.
    """
    target_vars = None
    target_field = p.field
    for img in images.values():
        if not isinstance(img, MultiPoly):
            raise TypeError("images must be MultiPoly values")
        if target_vars is None:
            target_vars = img.vars
        elif img.vars != target_vars:
            raise RingMismatch("substitution images live in different rings")
        target_field = common_field(target_field, img.field)
    if target_vars is None:
        target_vars = p.vars
    used = []      # (position in p.vars, image) of each variable p uses
    for i, v in enumerate(p.vars):
        if not p.uses_variable(v):
            continue
        if v in images:
            used.append((i, images[v].in_field(target_field)))
        else:
            used.append((i, MultiPoly.variable(v, target_vars, target_field)))
    if not used:
        return MultiPoly.constant(p.constant_value(), target_vars, target_field)

    def power(plist, e):
        while len(plist) <= e:
            plist.append(plist[-1] * plist[1])
        return plist[e]

    coerce = target_field.coerce
    if all(len(img.terms) == 1 for _, img in used):
        # every image is one term k_j*m_j, so each term of p goes to one
        # term: its coefficient times the k_j^e_j, at the product of the m_j^e_j
        action = [(i, *next(iter(img.terms.items()))) for i, img in used]
        scalars = [[None, k] for _, _, k in action]     # scalars[j][e] = k_j^e
        acc = {}
        for exps, coeff in p.terms.items():
            c = coerce(coeff)
            out = (0,) * len(target_vars)
            for (i, m, _), plist in zip(action, scalars):
                e = exps[i]
                if e:
                    c = c * power(plist, e)
                    out = tuple(o + e * d for o, d in zip(out, m))
            cur = acc.get(out)
            if cur is None:
                acc[out] = c
            else:
                cur = cur + c
                if cur:
                    acc[out] = cur
                else:
                    del acc[out]
        if not target_field.is_cyclotomic:
            _canonical(acc)
        return MultiPoly(target_vars, acc, target_field, _clean=True)

    (xi, ximg), rest = used[0], used[1:]
    powers = [[None, img] for _, img in rest]   # powers[j][e] = image_j^e

    monomials = {}      # exponents of the other variables -> their image

    # iterative, not recursive: a closure that calls itself is a reference
    # cycle, which would keep the cached powers alive after the return
    def monomial(r):
        m = monomials.get(r)
        if m is None:
            for j, e in enumerate(r):
                if e:
                    factor = power(powers[j], e)
                    m = factor if m is None else m * factor
            monomials[r] = m
        return m

    origin = (0,) * len(target_vars)
    slices = {}
    for exps, coeff in p.terms.items():
        slices.setdefault(exps[xi], []).append((tuple(exps[i] for i, _ in rest), coeff))

    def sliced(k):
        # p_k, the coefficient of x^k, as scalar multiples of monomial images
        acc = {}
        for r, coeff in slices[k]:
            c = coerce(coeff)
            if any(r):
                scaled = [(e, c * mc) for e, mc in monomial(r).terms.items()]
            else:
                scaled = [(origin, c)]
            for e, delta in scaled:
                cur = acc.get(e)
                if cur is None:
                    acc[e] = delta
                else:
                    cur = cur + delta
                    if cur:
                        acc[e] = cur
                    else:
                        del acc[e]
        if not target_field.is_cyclotomic:
            _canonical(acc)
        return MultiPoly(target_vars, acc, target_field, _clean=True)

    xpowers = [None, ximg]
    degrees = sorted(slices, reverse=True)
    result = sliced(degrees[0])
    for high, low in zip(degrees, degrees[1:]):
        result = result * power(xpowers, high - low) + sliced(low)
    if degrees[-1]:
        result = result * power(xpowers, degrees[-1])
    return result


# ---------------------------------------------------------------------------
# normalization helpers

def _coeff_parts(p: MultiPoly):
    # (content of the numerators, denominator) of each coefficient in
    # lowest terms; the lcm of the denominators over the gcd of the
    # contents is p's primitive scale
    for c in p.terms.values():
        if isinstance(c, CycloNumber):
            yield gcd(*c._num), c._den
        else:
            q = Fraction(c)
            yield q.numerator, q.denominator


def _first_signed(coeff):
    # a value with the sign of the first nonzero coordinate
    if isinstance(coeff, CycloNumber):
        return next((q for q in coeff._num if q), 0)
    return coeff


def primitive_normalize(p: MultiPoly) -> MultiPoly:
    """Scale p so its coefficients are integral with content one.

    The sign is fixed so the degrevlex leading coefficient's first nonzero
    coordinate is positive; the result is the canonical associate used
    for frozen expected values.  Over Q its coefficients are ints.
    """
    if not p.terms:
        return p
    num = 0
    den = 1
    for n, d in _coeff_parts(p):
        num = gcd(num, n)
        den = den * d // gcd(den, d)
    scale = Fraction(den, num)
    _, lead = p.leading()
    if _first_signed(lead) * scale < 0:
        scale = -scale
    if scale == 1 and (p.field.is_cyclotomic
                       or all(c.__class__ is int for c in p.terms.values())):
        return p
    if p.field.is_cyclotomic:
        terms = {e: c * scale for e, c in p.terms.items()}
    else:
        # exact integer quotients, not Fractions with denominator one
        n, d = scale.numerator, scale.denominator
        terms = {e: c.numerator * n // (c.denominator * d) for e, c in p.terms.items()}
    return MultiPoly(p.vars, terms, p.field, _clean=True)


def monic(p: MultiPoly, order: MonomialOrder = DEFAULT_ORDER) -> MultiPoly:
    if not p.terms:
        return p
    inv = field_inverse(p.leading(order)[1])
    terms = {e: c * inv for e, c in p.terms.items()}
    return MultiPoly(p.vars, terms if p.field.is_cyclotomic else _canonical(terms),
                     p.field, _clean=True)


def is_scalar_multiple(p: MultiPoly, q: MultiPoly) -> bool:
    """True iff p = c*q for some nonzero field constant c (or both are zero)."""
    if not p.terms and not q.terms:
        return True
    if not p.terms or not q.terms:
        return False
    if set(p.terms) != set(q.terms):
        return False
    e0 = next(iter(p.terms))
    cp, cq = p.terms[e0], q.terms[e0]
    # cross-multiply to avoid inverses
    return all(p.terms[e] * cq == q.terms[e] * cp for e in p.terms)


# ---------------------------------------------------------------------------
# exact division

def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Quotient a/b when b divides a exactly; ExactDivisionError otherwise.

    Leading terms come off a heap.  Over Q the loop is fraction-free: a
    is scaled to integers and b to a primitive integer polynomial, so by
    Gauss's lemma an exact quotient has integer coefficients and the
    first one that is not proves that b does not divide a.
    """
    a._same_ring(b)
    if not b.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a.terms:
        return MultiPoly.zero(a.vars, a.field)
    rational = not a.field.is_cyclotomic
    if rational:
        (ints_a, den_a), (ints_b, den_b) = integral_terms(a.terms), integral_terms(b.terms)
        content = gcd(*ints_b.values())
        rem = dict(ints_a)  # popped below, and may be a.terms itself
        bterms = {e: c // content for e, c in ints_b.items()}
    else:
        rem, bterms = dict(a.terms), b.terms
    keyf = DEFAULT_ORDER.key
    be = max(bterms, key=keyf)
    bc = bterms[be]
    binv = None if rational else field_inverse(bc)
    tail = [(e, c) for e, c in bterms.items() if e != be]
    heap = [(tuple(-k for k in keyf(e)), e) for e in rem]
    heapify(heap)
    quo = {}
    while heap:
        e = heappop(heap)[1]
        c = rem.pop(e, None)
        if c is None:       # cancelled since it was pushed
            continue
        qe = tuple(x - y for x, y in zip(e, be))
        if any(x < 0 for x in qe):
            raise ExactDivisionError("leading monomial not divisible")
        if rational:
            qc, r = divmod(c, bc)
            if r:
                raise ExactDivisionError("quotient coefficient is not an integer")
        else:
            qc = c * binv
        quo[qe] = qc
        for eb, cb in tail:
            ne = tuple(x + y for x, y in zip(qe, eb))
            c = rem.get(ne)
            if c is None:
                rem[ne] = -qc * cb
                heappush(heap, (tuple(-k for k in keyf(ne)), ne))
            else:
                c -= qc * cb
                if c:
                    rem[ne] = c
                else:
                    del rem[ne]
    if rational:
        # a / b = (ints_a / den_a) / (content * primitive b / den_b)
        scale = Fraction(den_b, den_a * content)
        if scale != 1:
            quo = _canonical({e: c * scale for e, c in quo.items()})
    return MultiPoly(a.vars, quo, a.field, _clean=True)


def divides(b: MultiPoly, a: MultiPoly) -> bool:
    try:
        exact_div(a, b)
        return True
    except ExactDivisionError:
        return False


# ---------------------------------------------------------------------------
# gcd (one modular image checked by exact division; the Groebner engine's
# lcm where the image cannot decide)

_P = (1 << 61) - 1              # a Mersenne prime; images live in GF(_P)
_AT = 0x9E3779B97F4A7C15        # variable j of an image is set to _AT * (j + 1) mod _P


@cache
def _lanes(n: int):
    """GF(_P) images of the primitive n-th roots of unity, as their powers r^j for
    j < phi(n), with the inverse of the matrix (r^j) that takes the values
    of a Q(zeta_n) element at the roots back to its coordinates; None
    unless n divides _P - 1, which makes every root an element of GF(_P)."""
    if (_P - 1) % n:
        return None
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % s for s in range(2, q))]
    g = 2
    while any(pow(g, (_P - 1) // q, _P) == 1 for q in primes):
        g += 1
    w = pow(g, (_P - 1) // n, _P)       # of order exactly n
    roots = [pow(w, k, _P) for k in range(1, n + 1) if gcd(k, n) == 1]
    m = len(roots)
    powers = [[pow(r, j, _P) for j in range(m)] for r in roots]
    rows = [row + [int(i == k) for i in range(m)] for k, row in enumerate(powers)]
    for c in range(m):                  # Gauss-Jordan on (powers | identity)
        piv = next(r for r in range(c, m) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, _P)
        rows[c] = [x * inv % _P for x in rows[c]]
        for r in range(m):
            if r != c:
                f = rows[r][c]
                rows[r] = [(x - f * y) % _P for x, y in zip(rows[r], rows[c])]
    return powers, [row[m:] for row in rows]


def _coordinates(p: MultiPoly) -> dict:
    """p times a common denominator: exponents -> integer power-basis coordinates."""
    if not p.field.is_cyclotomic:
        return {e: (c,) for e, c in integral_terms(p.terms)[0].items()}
    den = lcm(*[c._den for c in p.terms.values()])
    return {e: tuple(x * (den // c._den) for x in c._num) for e, c in p.terms.items()}


def _image(ints: dict, i: int, point) -> list:
    """Coefficients mod _P of an integer term dict in variable i, constant first,
    with each other variable j set to point[j]."""
    out = [0] * (max(e[i] for e in ints) + 1)
    for e, c in ints.items():
        for j, k in enumerate(e):
            if k and j != i:
                c *= pow(point[j], k, _P)
        out[e[i]] += c
    return [c % _P for c in out]


def _gf_gcd(f: list, g: list) -> list:
    """Monic gcd over GF(_P) of two coefficient lists, constant first, nonzero leads."""
    while g:
        inv, n = pow(g[-1], -1, _P), len(g) - 1
        f = f[:]
        while len(f) > n:
            q = f.pop() * inv % _P
            if q:
                off = len(f) - n
                f[off:] = [(x - q * y) % _P for x, y in zip(f[off:], g)]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    inv = pow(f[-1], -1, _P)
    return [c * inv % _P for c in f]


def _lift(a: MultiPoly, b: MultiPoly, coords: list, used: list):
    """gcd(a, b) for inputs in one variable x or homogeneous in (x, y); None if unproved.

    Each lane maps zeta_N to one root in GF(_P) (over Q the one lane is
    the identity).  The monic image gcd of a(x, 1) and b(x, 1) in a lane
    has at least the true degree when _P divides neither leading
    coefficient there.  Scaled by a multiple gamma of the true gcd's
    leading coefficient and read back to coordinates in symmetric
    residues, the lanes give the true gcd up to a unit when no
    coordinate exceeds _P/2.  A candidate of the image degree that
    divides both inputs is therefore the gcd.  Homogeneous inputs get it
    rehomogenized; y divides neither, as gcd_poly has taken out their
    monomial content.
    """
    powers, inverse = _lanes(a.field.conductor)
    i, nv = used[0], len(a.vars)
    gs = []
    for rp in powers:
        images = [_image({e: sum(map(mul, v, rp)) for e, v in c.items()}, i, [1] * nv)
                  for c in coords]
        if not all(f[-1] for f in images):
            return None
        gs.append(_gf_gcd(*images))
    d = len(gs[0]) - 1
    if any(len(g) != d + 1 for g in gs):
        return None
    gamma = [1]
    if d:
        # a multiple of the gcd's leading coefficient: lc(a), or
        # gcd(lc(a), lc(b)) when both are integers
        la, lb = (c[max(c, key=lambda e: e[i])] for c in coords)
        gamma = la if any(la[1:] + lb[1:]) else [gcd(la[0], lb[0])]
    coeffs = []
    for m in range(d + 1):
        y = [sum(map(mul, gamma, rp)) * g[m] % _P for rp, g in zip(powers, gs)]
        u = [sum(map(mul, row, y)) % _P for row in inverse]
        coeffs.append([c - _P if c > _P // 2 else c for c in u])
    content = gcd(*[c for u in coeffs for c in u])
    terms = {}
    for m, u in enumerate(coeffs):
        if any(u):
            e = [0] * nv
            e[i] = m
            if len(used) == 2:
                e[used[1]] = d - m
            u = [c // content for c in u]
            terms[tuple(e)] = CycloNumber(a.field.conductor, u) if a.field.is_cyclotomic else u[0]
    cand = MultiPoly(a.vars, terms, a.field, _clean=True)
    if d and not (any(coeffs[-1]) and divides(cand, a) and divides(cand, b)):
        return None
    return cand


def _modular_gcd(a: MultiPoly, b: MultiPoly):
    """gcd(a, b) up to a unit, or None where the engine must decide.

    The inputs are nonconstant, and no variable divides either.  Inputs
    in one variable or homogeneous in two go to _lift.  Other inputs are
    proved coprime by a constant image gcd in each variable both use, in
    the first lane, with the other variables at fixed points where
    neither leading coefficient vanishes mod _P: a common factor uses
    such a variable and keeps its degree there.  Q(zeta_N) with N not
    dividing _P - 1 has no lanes and always goes to the engine.
    """
    lanes = _lanes(a.field.conductor)
    if lanes is None:
        return None
    coords = [_coordinates(p) for p in (a, b)]
    used = [i for i in range(len(a.vars)) if any(e[i] for c in coords for e in c)]
    if len(used) == 1 or len(used) == 2 and all(len({sum(e) for e in c}) == 1
                                                for c in coords):
        return _lift(a, b, coords, used)
    ints = [{e: sum(map(mul, v, lanes[0][0])) for e, v in c.items()} for c in coords]
    point = [_AT * (j + 1) % _P for j in range(len(a.vars))]
    for i in used:
        images = [_image(t, i, point) for t in ints]
        if len(images[0]) > 1 and len(images[1]) > 1 and (
                not all(f[-1] for f in images) or len(_gf_gcd(*images)) > 1):
            return None
    return MultiPoly.constant(1, a.vars, a.field)


def _engine_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd(a, b) up to a unit, as a / (lcm(a, b) / b).

    <lcm(a, b)> is the intersection of <a> and <b>, which for a variable
    t the ring lacks is <t*a, (1 - t)*b> intersected with k[vars] (Cox,
    Little & O'Shea, Ideals, Varieties, and Algorithms, section 4.3):
    one elimination by the engine.
    """
    from .groebner import elimination_ideal     # groebner imports this module
    t = "t"
    while t in a.vars:
        t += "_"
    ring = a.vars + (t,)
    tv = MultiPoly.variable(t, ring, a.field)
    ta, tb = a.extended(ring), b.extended(ring)
    (least,) = elimination_ideal([tv * ta, tb - tv * tb], (t,))
    return exact_div(a, exact_div(least, b))


def _monomial_content(p: MultiPoly):
    """(the minimum exponent of each variable over p's terms, p divided by that monomial)."""
    m = tuple(map(min, zip(*p.terms)))
    if not any(m):
        return m, p
    return m, MultiPoly(p.vars, {tuple(map(sub, e, m)): c for e, c in p.terms.items()},
                        p.field, _clean=True)


def gcd_poly(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, monic-normalized by its leading coefficient.

    It is the monomial both inputs share times the gcd of what is left
    once each is divided by its own monomial content.  That gcd comes
    from one modular image where the image decides, else from an exact
    division when one input divides the other, and from the engine
    otherwise.
    """
    a._same_ring(b)
    if not a.terms:
        return monic(b)
    if not b.terms:
        return monic(a)
    (ma, a), (mb, b) = _monomial_content(a), _monomial_content(b)
    shared = MultiPoly.monomial(1, tuple(map(min, ma, mb)), a.vars, a.field)
    if a.is_constant() or b.is_constant():
        return shared
    g = _modular_gcd(a, b)
    if g is None:
        g = b if divides(b, a) else a if divides(a, b) else _engine_gcd(a, b)
    return shared * monic(g)


def squarefree_decomposition(p: MultiPoly):
    """(F, strata): F the product of the distinct irreducible factors of
    p, as a primitive associate, and strata = {k: P_k} by increasing k,
    P_k the primitive product of the irreducible factors that p carries
    exactly k times, for each k where there are some.

    The strata are squarefree and pairwise coprime, F is their product
    up to a unit, and p = c * prod(P_k^k); a constant p gives (1, {}).
    The repeated part R = gcd(p, dp/dv for each variable v that p uses)
    carries each irreducible factor f of multiplicity e exactly e - 1
    times, as in characteristic zero f does not divide df/dv for a
    variable v that f uses; F = p / R.  The strata come off R by the gcd
    chain of Yun's decomposition (Yun, SYMSAC 1976, in the gcd-only form
    that needs no derivative in one chosen variable): with C the factors
    of multiplicity at least k and R = prod f^(e - k) over them,
    Y = gcd(C, R) is the factors of multiplicity above k, P_k = C / Y,
    and the chain goes on with C = Y and R / Y.  Where C divides R,
    every factor of C occurs more than k times: there is no stratum k,
    and R / C is taken without a gcd, so p = c*F^k costs k - 1 divisions
    and no gcd past the repeated part's.
    """
    if not p.terms:
        raise ValueError("squarefree part of the zero polynomial")
    if p.is_constant():
        return MultiPoly.constant(1, p.vars, p.field), {}
    R = p
    for v in p.vars:
        if p.uses_variable(v):
            R = gcd_poly(R, derivative(p, v))
            if R.is_constant():
                break
    F = primitive_normalize(p if R.is_constant() else exact_div(p, R))
    strata = {}
    C, k = F, 1
    while not C.is_constant():
        if R.is_constant():
            strata[k] = primitive_normalize(C)
            break
        try:
            R = exact_div(R, C)
        except ExactDivisionError:
            Y = gcd_poly(C, R)
            R = exact_div(R, Y)
            strata[k] = primitive_normalize(exact_div(C, Y))
            C = Y
        k += 1
    return F, strata
