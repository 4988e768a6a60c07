"""Rank-2 complex reflection groups and their quotient maps.

The catalog covers the cyclic and product groups, the imprimitive
family G(m, p, 2), and the nineteen exceptional groups numbered 4-22.
Each entry carries exact generator matrices over a cyclotomic field,
the expected order, invariant degrees, and (for the exceptional kinds)
the central-extension presentation data.  Invariant pairs are built
from a small set of seed polynomials and verified on the fly: the
multipliers of the root seeds under the base generators come from
substitution, those of the covariant seeds from the Hessian and
Jacobian rules.  The claimed branch curves of the quotient maps are
stored alongside.

Three catalog constants differ from their commonly printed forms; each
was settled by an independent divisibility check of the claimed branch
against the critical locus (see the test suite for the frozen
oracles).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .maps import PolyMap, branch_status, verify_branch
from .numberfield import CycloNumber, embed, power_by_squaring, zeta
from .parser import parse_poly
from .polyring import (CyclotomicField, MultiPoly, common_field, hessian_det,
                       is_scalar_multiple, jacobian_det, substitute)

VARS = ("x", "y")


class Matrix2:
    """2x2 matrix with entries in a single cyclotomic field, row-major."""

    __slots__ = ("a", "b", "c", "d", "conductor")

    def __init__(self, a, b, c, d):
        entries = (a, b, c, d)
        conductors = {e.conductor for e in entries if isinstance(e, CycloNumber)}
        if len(conductors) > 1:
            raise ValueError("mixed conductors in matrix entries")
        n = conductors.pop() if conductors else 1
        a, b, c, d = (e if isinstance(e, CycloNumber)
                      else CycloNumber.from_rational(e, n) for e in entries)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "conductor", n)

    def __setattr__(self, *args):
        raise AttributeError("Matrix2 is immutable")

    @classmethod
    def identity(cls, conductor: int = 1):
        one = CycloNumber.one(conductor)
        zero = CycloNumber.zero(conductor)
        return cls(one, zero, zero, one)

    @classmethod
    def diagonal(cls, u, v):
        m = cls(u, v, v, u)  # round-trip unifies the two conductors
        zero = CycloNumber.zero(m.conductor)
        return cls(m.a, zero, zero, m.b)

    def embed(self, conductor: int) -> "Matrix2":
        return Matrix2(*(embed(e, conductor) for e in self.entries()))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        s, o = self, other
        return Matrix2(s.a * o.a + s.b * o.c, s.a * o.b + s.b * o.d,
                       s.c * o.a + s.d * o.c, s.c * o.b + s.d * o.d)

    def scaled(self, value) -> "Matrix2":
        v = value if isinstance(value, CycloNumber) else \
            CycloNumber.from_rational(value, self.conductor)
        return Matrix2(*(e * v for e in self.entries()))

    def __pow__(self, n: int) -> "Matrix2":
        if n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power_by_squaring(self, n) if n else Matrix2.identity(self.conductor)

    def det(self):
        return self.a * self.d - self.b * self.c

    def key(self):
        # the conductor first: keys of different conductors then differ
        # before entries, whose comparison would raise, are compared
        return (self.conductor, self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Matrix2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


@dataclass(frozen=True)
class Presentation:
    family: str        # A4, S4 or A5: the binary polyhedral group of S1, T1
    lam: CycloNumber   # S = lam * S1 and T = mu * T1 over the family conductor
    mu: CycloNumber
    k1: int
    k2: int
    k3: int
    k: int
    power: int  # the p in (ST)^p = Z^k3: 3, 4 or 5 by family


@dataclass(frozen=True)
class GroupRecord:
    kind: str          # cyclic | product | imprimitive | exceptional
    params: tuple
    label: str
    expected_order: int
    degrees: tuple
    conductor: int
    generators: tuple = field(compare=False, repr=False)
    presentation: Presentation | None = field(default=None, compare=False,
                                              repr=False)
    gap_label: str | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# catalog data

# exceptional rows: no -> (family, lam, mu, k1, k2, k3, k, degrees, gap id)
_EXCEPTIONAL = {
    4:  ("A4", "-1",                  "-zeta(3)",         1, 2, 2, 2,    (4, 6),   "[24,3]"),
    5:  ("A4", "-zeta(3)",            "-zeta(3)",         1, 6, 6, 6,    (6, 12),  "[72,25]"),
    6:  ("A4", "zeta(4)",             "-zeta(3)",         4, 4, 1, 4,    (4, 12),  "[48,33]"),
    7:  ("A4", "zeta(4)*zeta(3)",     "-zeta(3)",         8, 12, 3, 12,  (12, 12), "[144,157]"),
    8:  ("S4", "zeta(8)^3",           "1",                1, 2, 4, 4,    (8, 12),  "[96,67]"),
    9:  ("S4", "zeta(4)",             "zeta(8)",          8, 7, 8, 8,    (8, 24),  "[192,963]"),
    10: ("S4", "zeta(8)^7*zeta(3)^2", "-zeta(3)",         7, 12, 12, 12, (12, 24), "[288,400]"),
    11: ("S4", "zeta(4)",             "zeta(8)*zeta(3)",  24, 21, 8, 24, (24, 24), "[576,5472]"),
    12: ("S4", "zeta(4)",             "1",                2, 1, 1, 2,    (6, 8),   "[48,29]"),
    13: ("S4", "zeta(4)",             "zeta(4)",          4, 1, 2, 4,    (8, 12),  "[96,192]"),
    14: ("S4", "zeta(4)",             "-zeta(3)",         6, 6, 5, 6,    (6, 24),  "[144,122]"),
    15: ("S4", "zeta(4)",             "zeta(4)*zeta(3)",  12, 3, 10, 12, (12, 24), "[288,903]"),
    16: ("A5", "-zeta(5)^3",          "1",                7, 10, 10, 10, (20, 30), "[600,54]"),
    17: ("A5", "zeta(4)",             "zeta(4)*zeta(5)^3", 20, 11, 20, 20, (20, 60), "[1200,483]"),
    18: ("A5", "-zeta(3)*zeta(5)^3",  "zeta(3)^2",        11, 30, 30, 30, (30, 60), "[1800,328]"),
    19: ("A5", "zeta(4)*zeta(3)",     "zeta(4)*zeta(5)^3", 40, 33, 40, 60, (60, 60), None),
    20: ("A5", "1",                   "zeta(3)^2",        3, 6, 5, 6,    (12, 30), "[360,51]"),
    21: ("A5", "zeta(4)",             "zeta(3)^2",        12, 12, 1, 12, (12, 60), "[720,420]"),
    22: ("A5", "zeta(4)",             "1",                4, 4, 3, 4,    (12, 20), "[240,93]"),
}

_FAMILY_POWER = {"A4": 3, "S4": 4, "A5": 5}
_FAMILY_CONDUCTOR = {"A4": 24, "S4": 24, "A5": 60}
_FAMILY_ORDER = {"A4": 24, "S4": 48, "A5": 120}  # |<S1, T1>|


def _scalar(text: str, conductor: int) -> CycloNumber:
    value = parse_poly(text).constant_value()
    if not isinstance(value, CycloNumber):
        value = CycloNumber.from_rational(value, 1)
    return embed(value, conductor)


@lru_cache(maxsize=None)
def _base_matrices(family: str):
    """S1 and T1 over the field their entries live in: Q(zeta_8) for A4
    and S4, Q(zeta_5) for A5."""
    if family in ("A4", "S4"):
        i, eps, one = zeta(8, 2), zeta(8), CycloNumber.one(8)
        half_rt2 = (eps - eps**3) * Fraction(1, 2)  # 1/sqrt(2)
        if family == "A4":
            return (Matrix2(i, 0 * i, 0 * i, -i),
                    Matrix2(eps, eps**3, eps, eps**7).scaled(half_rt2))
        return (Matrix2(i, one, -one, -i).scaled(half_rt2),
                Matrix2(eps, eps, eps**3, eps**7).scaled(half_rt2))
    if family == "A5":
        eta = zeta(5)
        one = CycloNumber.one(5)
        fifth_rt5 = (one + eta * 2 + eta**4 * 2) * Fraction(1, 5)  # 1/sqrt(5)
        s1 = Matrix2(eta**4 - eta, eta**2 - eta**3,
                     eta**2 - eta**3, eta - eta**4).scaled(fifth_rt5)
        t1 = Matrix2(eta**2 - eta**4, eta**4 - one,
                     one - eta, eta**3 - eta).scaled(fifth_rt5)
        return s1, t1
    raise ValueError(f"unknown family {family!r}")


def cyclic_group(m: int) -> GroupRecord:
    if m < 1:
        raise ValueError("cyclic group needs m >= 1")
    gen = Matrix2.diagonal(CycloNumber.one(m), zeta(m))
    return GroupRecord("cyclic", (m,), f"Z_{m}", m, (1, m), m, (gen,))


def product_group(m: int, n: int) -> GroupRecord:
    if m < 1 or n < 1:
        raise ValueError("product group needs m, n >= 1")
    lc = math.lcm(m, n)
    g1 = Matrix2.diagonal(zeta(lc, lc // m), CycloNumber.one(lc))
    g2 = Matrix2.diagonal(CycloNumber.one(lc), zeta(lc, lc // n))
    return GroupRecord("product", (m, n), f"Z_{m}xZ_{n}", m * n, (m, n), lc,
                       (g1, g2))


def imprimitive_group(m: int, p: int) -> GroupRecord:
    if m < 1 or p < 1:
        raise ValueError("imprimitive group needs m, p >= 1")
    if m % p:
        raise ValueError("imprimitive group needs p | m")
    one = CycloNumber.one(m)
    zero = CycloNumber.zero(m)
    theta = zeta(m)
    swap = Matrix2(zero, one, one, zero)
    gens = (swap, Matrix2.diagonal(theta, theta.inverse()),
            Matrix2.diagonal(one, theta**p))
    order = 2 * m * m // p
    return GroupRecord("imprimitive", (m, p), f"G({m},{p},2)", order,
                       (2 * m // p, m), m, gens)


def exceptional_group(no: int) -> GroupRecord:
    if no not in _EXCEPTIONAL:
        raise ValueError("exceptional groups are numbered 4 through 22")
    family, lam, mu, k1, k2, k3, k, degrees, gap = _EXCEPTIONAL[no]
    n = _FAMILY_CONDUCTOR[family]
    s1, t1 = _base_matrices(family)
    pres = Presentation(family, _scalar(lam, n), _scalar(mu, n), k1, k2, k3, k,
                        _FAMILY_POWER[family])
    s = s1.embed(n).scaled(pres.lam)
    t = t1.embed(n).scaled(pres.mu)
    return GroupRecord("exceptional", (no,), f"G_{no}",
                       degrees[0] * degrees[1], degrees, n, (s, t), pres, gap)


def build_group(kind: str, *params) -> GroupRecord:
    ctors = {"cyclic": (cyclic_group, 1), "product": (product_group, 2),
             "imprimitive": (imprimitive_group, 2),
             "exceptional": (exceptional_group, 1)}
    if kind not in ctors:
        raise ValueError(f"unknown group kind {kind!r}")
    ctor, arity = ctors[kind]
    if len(params) != arity:
        raise ValueError(f"{kind} group takes {arity} parameter{'s' * (arity > 1)}, "
                         f"got {len(params)}")
    return ctor(*params)


_SPEC_FORMS = [
    (re.compile(r"^G_?(\d+)$"), lambda m: ("exceptional", int(m.group(1)))),
    (re.compile(r"^G\((\d+),(\d+),2\)$"), lambda m: ("imprimitive", int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^Z_?(\d+)$"), lambda m: ("cyclic", int(m.group(1)))),
    (re.compile(r"^Z_?(\d+)xZ_?(\d+)$"), lambda m: ("product", int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^(cyclic|product|imprimitive|exceptional)\(([\d,]+)\)$"),
     lambda m: (m.group(1),) + tuple(int(v) for v in m.group(2).split(","))),
]


def parse_group_spec(text: str) -> GroupRecord:
    """Group from a short spec: G4, G(6,2,2), Z_5, Z_2xZ_3, cyclic(5), ..."""
    compact = text.strip().replace(" ", "")
    for pattern, extract in _SPEC_FORMS:
        m = pattern.match(compact)
        if m:
            args = extract(m)
            return build_group(args[0], *args[1:])
    raise ValueError(f"could not read group spec {text!r}")


# ---------------------------------------------------------------------------
# enumeration

class _Arith:
    """Interned scalars with memoized pairwise products and sums.

    The exact closure of a base group (`_Base`) multiplies matrices whose
    entries repeat heavily; hashing entries down to small integers makes
    it spend its time in dict lookups instead of cyclotomic
    multiplication.  A group's own closure multiplies no entries at all:
    it steps integer pairs (b, j) over its base (see GroupElements).
    """

    __slots__ = ("values", "index", "muls", "adds")

    def __init__(self):
        self.values = []
        self.index = {}
        self.muls = {}
        self.adds = {}

    def intern(self, v: CycloNumber) -> int:
        got = self.index.get(v)
        if got is None:
            got = len(self.values)
            self.values.append(v)
            self.index[v] = got
        return got

    def mul(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        got = self.muls.get(key)
        if got is None:
            got = self.intern(self.values[i] * self.values[j])
            self.muls[key] = got
        return got

    def add(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        got = self.adds.get(key)
        if got is None:
            got = self.intern(self.values[i] + self.values[j])
            self.adds[key] = got
        return got


def _mat_ids(ar: _Arith, m: Matrix2):
    return tuple(ar.intern(e) for e in m.entries())


def _mul_ids(ar: _Arith, m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (ar.add(ar.mul(a, e), ar.mul(b, g)),
            ar.add(ar.mul(a, f), ar.mul(b, h)),
            ar.add(ar.mul(c, e), ar.mul(d, g)),
            ar.add(ar.mul(c, f), ar.mul(d, h)))


def _closure(start, product, gens: int, label: str, order: int):
    """Breadth-first closure of `start` under product(x, k) for the
    generators k < gens: the numbering of the elements, in closure
    order, and the step tables (see GroupElements).  Raises if it
    overshoots twice `order`: the data or the arithmetic is wrong."""
    index = {start: 0}
    elements, parent, gen = [start], [None], [None]
    step = [[] for _ in range(gens)]
    # elements grows behind i: each new element is stepped in its turn,
    # which is the breadth-first order
    i = 0
    while i < len(elements):
        x = elements[i]
        for k in range(gens):
            prod = product(x, k)
            j = index.get(prod)
            if j is None:
                j = index[prod] = len(elements)
                elements.append(prod)
                parent.append(i)
                gen.append(k)
                if len(elements) > 2 * order:
                    raise RuntimeError(
                        f"closure of {label} exceeded twice the expected order {order}")
            step[k].append(j)
        i += 1
    return index, step, parent, gen


def _roots_of_unity(n: int) -> list:
    """The roots of unity of Q(zeta_n) as the powers w^0, w^1, ... of w:
    zeta_n for even n, -zeta_n^((n+1)/2), of order 2n, for odd n."""
    if n % 2 == 0:
        return [zeta(n, j) for j in range(n)]
    half = (n + 1) // 2
    return [-zeta(n, j * half) if j % 2 else zeta(n, j * half) for j in range(2 * n)]


class _Base:
    """The exact closure B of matrix generators over Q(zeta_N).

    `elements` are B's matrices as tuples of interned entry ids, in
    closure order, with `_step`, `_parent` and `_gen` as in
    GroupElements.  `roots[e]` is w^e, w as in `_roots_of_unity(N)`, and
    `canon[x]` is the pair (c, e) with elements[x] = w^e·elements[c], c
    the first, in closure order, of x's coset of B's scalar matrices.
    """

    __slots__ = ("gens", "arith", "elements", "_step", "_parent", "_gen", "roots",
                 "exponent", "canon")

    def __init__(self, gens, conductor: int, label: str, order: int):
        ar = self.arith = _Arith()
        one = _mat_ids(ar, Matrix2.identity(conductor))
        gen_ids = [_mat_ids(ar, g) for g in gens]
        self.gens = gens
        index, self._step, self._parent, self._gen = _closure(
            one, lambda m, k: _mul_ids(ar, m, gen_ids[k]), len(gens), label, order)
        self.elements = list(index)
        self.roots = _roots_of_unity(conductor)
        self.exponent = {w: e for e, w in enumerate(self.roots)}
        scalars = [(a, self.exponent[ar.values[a]]) for a, b, c, d in self.elements
                   if b == c == one[1] and a == d]
        self.canon = [None] * len(self.elements)
        for c, ids in enumerate(self.elements):
            if self.canon[c] is None:
                for w, e in scalars:
                    self.canon[index[tuple(ar.mul(w, i) for i in ids)]] = (c, e)


@lru_cache(maxsize=None)
def _base_group(family: str) -> _Base:
    """The binary polyhedral group <S1, T1> of a family, in its conductor."""
    n = _FAMILY_CONDUCTOR[family]
    return _Base(tuple(g.embed(n) for g in _base_matrices(family)), n, family,
                 _FAMILY_ORDER[family])


class GroupElements:
    """Complete element list of a catalog group, closed under product.

    Element i is the matrix w^j·b for the pair (b, j) = `_pairs[i]`: b
    numbers an element of the base group B (`_Base`), which is <S1, T1>
    for an exceptional row and the group itself otherwise, and w
    generates the roots of unity of the group's field.  w^j·b = w^j'·b'
    exactly when b^-1·b' = w^(j-j') is a scalar matrix of B, so with b
    the first of its coset and j taken modulo the order of w (see
    `_Base.canon`), equal matrices are equal pairs.  Pairs are numbered
    in closure order with the identity as 0.  The closure also leaves
    the group's Cayley graph: `_step[k][i]` numbers elements[i]·g_k for
    the k-th generator g_k, and element i > 0 was first reached as
    elements[_parent[i]]·g_k with k = `_gen[i]`.  Following the parents
    spells a generator word for each element, so x·m is m's word applied
    to x through the tables: list lookups, no field arithmetic.
    """

    __slots__ = ("record", "_base", "_pairs", "_step", "_parent", "_gen")

    def __init__(self, record, base, index, step, parent, gen):
        self.record, self._base, self._pairs = record, base, list(index)
        self._step, self._parent, self._gen = step, parent, gen

    def __len__(self):
        return len(self._pairs)

    def __iter__(self):
        base, ar = self._base, self._base.arith
        for b, j in self._pairs:
            w = ar.intern(base.roots[j])
            yield Matrix2(*(ar.values[ar.mul(w, i)] for i in base.elements[b]))

    def _word(self, i: int) -> list:
        """The step tables whose composition, in order, is elements[i]."""
        word = []
        while i:
            word.append(self._step[self._gen[i]])
            i = self._parent[i]
        word.reverse()
        return word

    def _powers(self, i: int) -> list:
        """The numbers of elements[i]^1, ^2, ... up to the identity."""
        word, powers = self._word(i), [i]
        while powers[-1]:
            cur = powers[-1]
            for step in word:
                cur = step[cur]
            powers.append(cur)
        return powers

    def _left(self, x: int) -> list:
        """The numbers of elements[x]·elements[j] for every j.

        Closure order puts each parent before its children, and
        x·elements[j] is (x·elements[parent])·g_k.
        """
        left = [x]
        for j in range(1, len(self._parent)):
            left.append(self._step[self._gen[j]][left[self._parent[j]]])
        return left


def enumerate_group(record: GroupRecord) -> GroupElements:
    """Breadth-first closure of the generators, with its Cayley graph.

    Each generator g_k must be w^l_k times the k-th generator of the
    record's base group (see GroupElements), checked exactly; else a
    ValueError names the group.  The closure then steps integer pairs,
    (b, j)·g_k = (B_step_k[b], j + l_k) in canonical form, with no field
    arithmetic.  Raises if it overshoots twice the expected order.
    """
    pres = record.presentation
    base = (_base_group(pres.family) if pres else
            _Base(record.generators, record.conductor, record.label,
                  record.expected_order))
    n, moves = len(base.roots), []
    for k, (g, h) in enumerate(zip(record.generators, base.gens)):
        p = next(i for i, e in enumerate(h.entries()) if e)
        l = base.exponent.get(g.entries()[p] * h.entries()[p].inverse())
        if l is None or g != h.scaled(base.roots[l]):
            raise ValueError(f"generator {k} of {record.label} is not a root of "
                             f"unity times its base matrix")
        moves.append([(c, e + l) for c, e in map(base.canon.__getitem__, base._step[k])])

    def product(pair, k):
        c, e = moves[k][pair[0]]
        return c, (pair[1] + e) % n

    return GroupElements(record, base, *_closure(
        (0, 0), product, len(moves), record.label, record.expected_order))


def fingerprint(els: GroupElements) -> dict:
    """Order, center order and element-order histogram of a group.

    The center and the histogram are read off the closure's step tables,
    with no field arithmetic.
    """
    n = len(els)
    # one power walk per cyclic subgroup; if m has order q, then m^j has
    # order q / gcd(j, q)
    orders, histogram = [0] * n, {}
    for m in range(n):
        if not orders[m]:
            powers = els._powers(m)
            q = len(powers)
            for j, p in enumerate(powers, 1):
                orders[p] = q // math.gcd(j, q)
        histogram[orders[m]] = histogram.get(orders[m], 0) + 1
    # m is central iff m·g_k = g_k·m for every generator; step[0] numbers
    # g_k itself
    sides = [(step, els._left(step[0])) for step in els._step]
    center = sum(all(step[m] == left[m] for step, left in sides)
                 for m in range(n))
    return {"order": n, "center_order": center,
            "order_histogram": dict(sorted(histogram.items()))}


def verify_presentation(record: GroupRecord) -> bool:
    """Check the central-extension relations of an exceptional group.

    The central element Z is the scalar zeta_N^(N/k), N the conductor,
    so it commutes with S and T, Z^k = 1 exactly when k divides N, and
    each power Z^j is the root of unity zeta_N^(jN/k) on the diagonal.
    """
    if record.kind != "exceptional":
        raise ValueError("presentations are stored for exceptional groups only")
    pres, n = record.presentation, record.conductor
    if n % pres.k:
        return False
    s, t = record.generators

    def z_power(j):
        w = zeta(n, j * n // pres.k)
        return Matrix2.diagonal(w, w)

    return (s * s == z_power(pres.k1) and t * t * t == z_power(pres.k2)
            and (s * t)**pres.power == z_power(pres.k3))


# ---------------------------------------------------------------------------
# invariant theory

def _action_images(g: Matrix2, fld):
    """The images a*x + b*y and c*x + d*y of x and y under g, in `fld`."""
    return {"x": MultiPoly(VARS, {(1, 0): g.a, (0, 1): g.b}, fld),
            "y": MultiPoly(VARS, {(1, 0): g.c, (0, 1): g.d}, fld)}


def is_invariant(record: GroupRecord, p: MultiPoly) -> bool:
    """Whether p is fixed by the group's linear action (generators suffice)."""
    fld = common_field(p.field, CyclotomicField(record.conductor))
    pl = p.in_field(fld)
    for g in record.generators:
        if substitute(pl, _action_images(g, fld)) != pl:
            return False
    return True


_SEEDS = {
    "a4":  "x^4 + (4*zeta(6) - 2)*x^2*y^2 + y^4",
    "b6":  "x^5*y - x*y^5",
    "c8":  "x^8 + 14*x^4*y^4 + y^8",
    "d12": "x^12 - 33*x^8*y^4 - 33*x^4*y^8 + y^12",
    "e12": "x^11*y + 11*x^6*y^6 - x*y^11",
    "f20": "x^20 - 228*x^15*y^5 + 494*x^10*y^10 + 228*x^5*y^15 + y^20",
    "g30": "x^30 + 522*x^25*y^5 - 10005*x^20*y^10 - 10005*x^10*y^20 - 522*x^5*y^25 + y^30",
}


@lru_cache(maxsize=None)
def invariant_seed(name: str) -> MultiPoly:
    if name not in _SEEDS:
        raise ValueError(f"unknown seed {name!r}")
    return parse_poly(_SEEDS[name])


# basic invariant pairs for the exceptional rows: (seed, power, seed, power)
_PAIRS = {
    4:  ("a4", 1, "b6", 1),
    5:  ("b6", 1, "a4", 3),
    6:  ("a4", 1, "b6", 2),
    7:  ("b6", 2, "a4", 3),
    8:  ("c8", 1, "d12", 1),
    9:  ("c8", 1, "d12", 2),
    10: ("d12", 1, "c8", 3),
    11: ("d12", 2, "c8", 3),
    12: ("b6", 1, "c8", 1),
    13: ("c8", 1, "b6", 2),
    14: ("b6", 1, "d12", 2),
    15: ("b6", 2, "d12", 2),
    16: ("f20", 1, "g30", 1),
    17: ("f20", 1, "g30", 2),
    18: ("g30", 1, "f20", 3),
    19: ("g30", 2, "f20", 3),
    20: ("e12", 1, "g30", 1),
    21: ("e12", 1, "g30", 2),
    22: ("e12", 1, "f20", 1),
}

# the seeds that are covariants of others (Klein, Vorlesungen über das
# Ikosaeder, 1884): one parent names its Hessian, two their Jacobian
_COVARIANTS = {
    "c8":  ("b6",),
    "d12": ("b6", "c8"),
    "f20": ("e12",),
    "g30": ("e12", "f20"),
}


@lru_cache(maxsize=None)
def _base_seed_scalars(family: str, seed_name: str):
    """Multipliers the base generators S1, T1 apply to a seed polynomial.

    Every seed spans a one-dimensional semi-invariant space of its
    family; scaling a generator by a root of unity then scales the
    multiplier by (root)^deg, so one multiplier per base matrix covers
    every table row.  The multipliers go into the family conductor.

    The root seeds a4, b6 and e12 are substituted into each base matrix,
    in the field of the matrices and the seed.  The others are classical
    covariants (Klein, *Vorlesungen über das Ikosaeder*, 1884):
    c8 ∝ Hess(b6), d12 ∝ Jac(b6, c8), f20 ∝ Hess(e12) and
    g30 ∝ Jac(e12, f20), each checked exactly as a scalar multiple.  For
    g acting by f ↦ f∘g,

        Hess(f∘g) = det(g)²·Hess(f)∘g,   Jac(f∘g, h∘g) = det(g)·Jac(f, h)∘g,

    so from f∘g = χ_f·f and h∘g = χ_h·h the multipliers follow with no
    substitution: χ_Hess = χ_f²/det(g)² and χ_Jac = χ_f·χ_h/det(g).
    """
    n = _FAMILY_CONDUCTOR[family]
    seed = invariant_seed(seed_name)
    parents = _COVARIANTS.get(seed_name)
    if parents:
        if len(parents) == 1:
            kind, covariant = "Hessian", hessian_det(invariant_seed(parents[0]))
        else:
            kind, covariant = "Jacobian", jacobian_det(*map(invariant_seed, parents))
        if not is_scalar_multiple(seed, covariant):
            raise ArithmeticError(
                f"{seed_name} is not a multiple of the {kind} of {', '.join(parents)}")
        out = []
        for g, chis in zip(_base_matrices(family),
                           zip(*(_base_seed_scalars(family, p) for p in parents))):
            det_inv = embed(g.det(), n).inverse()
            out.append((chis[0] * det_inv)**2 if len(chis) == 1
                       else chis[0] * chis[1] * det_inv)
        return tuple(out)
    s1, t1 = _base_matrices(family)
    fld = common_field(CyclotomicField(s1.conductor), seed.field)
    seed = seed.in_field(fld)
    out = []
    for g in (s1, t1):
        moved = substitute(seed, _action_images(g.embed(fld.conductor), fld))
        exps = next(iter(seed.terms))
        ratio = moved.coeff(exps) * seed.coeff(exps).inverse()
        if moved != seed * ratio:
            raise ArithmeticError(
                f"{seed_name} is not semi-invariant under the {family} base group")
        out.append(embed(ratio, n))
    return tuple(out)


def _pair_scalars(record: GroupRecord, seed_name: str):
    pres = record.presentation
    deg = invariant_seed(seed_name).total_degree()
    base = _base_seed_scalars(pres.family, seed_name)
    return (base[0] * pres.lam**deg, base[1] * pres.mu**deg)


@lru_cache(maxsize=None)
def basic_invariants(record: GroupRecord):
    """The basic invariant pair (phi1, phi2) of a catalog group, verified.

    Verified means: both components are fixed by every generator, the
    Jacobian determinant is nonzero (algebraic independence), and the
    degrees multiply to the group order.
    """
    x = MultiPoly.variable("x", VARS)
    y = MultiPoly.variable("y", VARS)
    if record.kind == "cyclic":
        m, = record.params
        pair = (x, y**m)
    elif record.kind == "product":
        m, n = record.params
        pair = (x**m, y**n)
    elif record.kind == "imprimitive":
        m, p = record.params
        q = m // p
        pair = ((x * y)**q, x**m + y**m)
    else:
        no, = record.params
        s1, e1, s2, e2 = _PAIRS[no]
        one = CycloNumber.one(record.conductor)
        for seed_name, e in ((s1, e1), (s2, e2)):
            if any(c**e != one for c in _pair_scalars(record, seed_name)):
                raise ArithmeticError(
                    f"{seed_name}^{e} is not {record.label}-invariant")
        # stay in the smallest field hosting the pair; elimination over
        # the full group conductor would pay a large constant factor
        fld = common_field(invariant_seed(s1).field, invariant_seed(s2).field)
        pair = (invariant_seed(s1).in_field(fld)**e1,
                invariant_seed(s2).in_field(fld)**e2)
    if record.kind != "exceptional":
        for p in pair:
            if not is_invariant(record, p):
                raise ArithmeticError(f"component not {record.label}-invariant")
    if record.expected_order > 1 and not jacobian_det(*pair).terms:
        raise ArithmeticError(f"{record.label} invariants are dependent")
    if pair[0].total_degree() * pair[1].total_degree() != record.expected_order:
        raise ArithmeticError(f"{record.label} degrees do not multiply to |G|")
    return pair


def quotient_map(record: GroupRecord) -> PolyMap:
    """The orbit map of a catalog group: both basic invariants at once."""
    return PolyMap(*basic_invariants(record))


# claimed branch curves in target-plane coordinates (x, y); three of the
# exceptional constants are the oracle-checked corrections mentioned in
# the module docstring
_CLAIMED_EXCEPTIONAL = {
    4:  "x^3 + (-24*zeta(6) + 12)*y^2",
    5:  "y*(x^2 + (1/18*zeta(6) - 1/36)*y)",
    6:  "y*(x^3 + (-24*zeta(6) + 12)*y)",
    7:  "x*y*(x + (1/18*zeta(6) - 1/36)*y)",
    8:  "y^2 - x^3",
    9:  "y*(y - x^3)",
    10: "y*(y - x^2)",
    11: "x*y*(x - y)",
    12: "y^3 - 108*x^4",
    13: "y*(x^3 - 108*y^2)",
    14: "y*(y + 108*x^4)",
    15: "x*y*(y + 108*x^2)",
    16: "y^2 - x^3",
    17: "y*(y - x^3)",
    18: "y*(y - x^2)",
    19: "x*y*(x - y)",
    20: "y^2 - 1728*x^5",
    21: "y*(y - 1728*x^5)",
    22: "y^3 + 1728*x^5",
}


def claimed_branch(record: GroupRecord) -> MultiPoly:
    """The branch curve the catalog asserts for the group's quotient map."""
    if record.expected_order == 1:
        return MultiPoly.constant(1, VARS)  # the trivial quotient branches nowhere
    x = MultiPoly.variable("x", VARS)
    y = MultiPoly.variable("y", VARS)
    if record.kind == "cyclic":
        return y
    if record.kind == "product":
        m, n = record.params
        if m < 2:
            return y
        if n < 2:
            return x
        return x * y
    if record.kind == "imprimitive":
        m, p = record.params
        curve = y**2 - x**p * 4
        return curve if p == m else x * curve
    return parse_poly(_CLAIMED_EXCEPTIONAL[record.params[0]])


def verify_table4_row(record: GroupRecord, tier: str = "full") -> dict:
    """Check that the claimed branch curve matches the quotient map.

    Runs `verify_branch`'s three tiers: the two cheap certificates, then
    the elimination of the branch ideal, which the command's budget can
    stop; a budget of 0 reports the certificates alone.  `tier` is
    accepted for callers that still pass "full", and any other value
    raises ValueError.  Returns the `verify_branch` report as `tiers`,
    its `branch_status` as `status`, and `ok`, false only when the
    status is fail.
    """
    if tier != "full":
        raise ValueError("tier must be 'full'")
    tiers = verify_branch(quotient_map(record), claimed_branch(record))
    status = branch_status(tiers)
    return {"tiers": tiers, "ok": status != "fail", "status": status}


def default_table4_rows():
    """The verification slate: small families plus every exceptional group."""
    rows = [cyclic_group(m) for m in range(2, 7)]
    rows += [product_group(m, n) for m in range(2, 5) for n in range(m, 5)]
    rows += [imprimitive_group(m, p) for m in range(2, 7)
             for p in range(1, m + 1) if m % p == 0]
    rows += [exceptional_group(no) for no in sorted(_EXCEPTIONAL)]
    return rows


# ---------------------------------------------------------------------------
# the degree census

def classes_of_degree(d: int):
    """Every catalog group of order d, one record per equivalence class."""
    if d < 2:
        raise ValueError("the census starts at degree 2")
    out = [cyclic_group(d)]
    for m in range(2, int(math.isqrt(d)) + 1):
        if d % m == 0 and d // m >= m:
            out.append(product_group(m, d // m))
    for m in range(2, d // 2 + 1):
        # 2 m^2 / p = d with p | m forces m <= d/2
        if 2 * m * m % d:
            continue
        p = 2 * m * m // d
        # G(2,2,2) is conjugate to Z_2xZ_2, and G(4,4,2) to G(2,1,2), the
        # dihedral group of order 8
        if m % p or (m, p) in ((2, 2), (4, 4)):
            continue
        out.append(imprimitive_group(m, p))
    for no, row in sorted(_EXCEPTIONAL.items()):
        if row[7][0] * row[7][1] == d:
            out.append(exceptional_group(no))
    return out
