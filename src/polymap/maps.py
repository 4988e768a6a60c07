"""Polynomial self-maps of the affine plane and their geometry.

A PolyMap is a pair of polynomials in the source variables (x, y); its
target plane carries the variables (s, t) so graph ideals can mix both
planes.  Properness and topological degree are both read from one
basis of the graph ideal <s - f1, t - f2> under a block order with
(x, y) first.  The branch curve comes from eliminating the source
variables from the graph ideal together with F, the squarefree part
of the Jacobian determinant J; tier one of `verify_branch` divides by
the same F.  This gives the ideal of the branch curve, the radical of
the elimination over J, and for a proper map the two are equal.  F is
the cheaper input: a reflection-group quotient map's J carries each
mirror e_H - 1 times, F each once.  One squarefree decomposition of J
per map gives F and its multiplicity strata P_k, the factors J carries
exactly k times, and the elimination runs once per stratum: the branch
ideal is the lcm of the strata's principal ideals, or, when some
stratum's ideal is not principal, the one elimination over F.  A J
with one stratum is eliminated over F, which is that stratum.  A
curve on the target plane, a branch generator or a claim, is written
in (x, y) like the catalog's claims and the command line's.

Before any Groebner basis, a map sheds its target-side shears
(`_target_reduced`): while the top form of one component is c times a
power of the other's, that multiple of the power is subtracted, and
the step is recorded.  Only the callers that move a curve between the
two targets build the triangular target automorphism from the steps
(`_target_to`): `branch_ideal` from the steps as recorded, and
`verify_branch` its inverse, from the steps undone in reverse order.
Every plane automorphism is a product of affine and triangular maps
(Jung 1942; van der Kulk 1953), so a map post-composed with a shear
loses it here.  Properness, degree and dominance do not change under a
target automorphism, and the branch ideal moves with it, so every
answer is the one the unreduced map gives.  The command's budget
counts the pairs of the reduced map's bases, and so does a stop's report.
"""

from __future__ import annotations

from .groebner import (ResourceBudgetExceeded, buchberger, elimination_ideal,
                       interreduce, staircase_count)
from .polyring import (MultiPoly, QQ, RingMismatch, block_order, common_field,
                       divides, exact_div, field_inverse, gcd_poly, is_scalar_multiple,
                       jacobian_det, monic, primitive_normalize,
                       squarefree_decomposition, substitute)

SOURCE_VARS = ("x", "y")
TARGET_VARS = ("s", "t")


class PolyMap:
    """A polynomial map (x, y) -> (f1(x, y), f2(x, y))."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: MultiPoly, f2: MultiPoly):
        if f1.vars != SOURCE_VARS or f2.vars != SOURCE_VARS:
            raise RingMismatch("map components must live in the (x, y) plane")
        field = common_field(f1.field, f2.field)
        object.__setattr__(self, "f1", f1.in_field(field))
        object.__setattr__(self, "f2", f2.in_field(field))

    def __setattr__(self, *a):
        raise AttributeError("PolyMap is immutable")

    @property
    def field(self):
        return self.f1.field

    def components(self):
        return (self.f1, self.f2)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.f1 == other.f1 and self.f2 == other.f2

    def __hash__(self):
        return hash((self.f1, self.f2))

    def __repr__(self):
        from .parser import format_map
        return f"PolyMap({format_map(self.f1, self.f2)})"


class PlaneAutomorphism:
    """A polynomial automorphism of the plane, stored with its inverse.

    The constructor checks both compositions against the identity, so a
    constructed value is an automorphism by construction.
    """

    __slots__ = ("forward", "inverse")

    def __init__(self, forward, inverse):
        fw = tuple(forward)
        inv = tuple(inverse)
        if len(fw) != 2 or len(inv) != 2:
            raise ValueError("an automorphism needs two components each way")
        x = MultiPoly.variable("x", SOURCE_VARS, fw[0].field)
        y = MultiPoly.variable("y", SOURCE_VARS, fw[0].field)
        for a, b in ((fw, inv), (inv, fw)):
            land = [substitute(c, {"x": b[0], "y": b[1]}) for c in a]
            if land[0] != x.in_field(land[0].field) or land[1] != y.in_field(land[1].field):
                raise ValueError("forward and inverse do not compose to the identity")
        object.__setattr__(self, "forward", fw)
        object.__setattr__(self, "inverse", inv)

    def __setattr__(self, *a):
        raise AttributeError("PlaneAutomorphism is immutable")

    @classmethod
    def linear(cls, a, b, c, d, field=QQ):
        """(x, y) -> (a x + b y, c x + d y) for an invertible 2x2 matrix."""
        a, b, c, d = (field.coerce(v) for v in (a, b, c, d))
        det = a * d - b * c
        if not det:
            raise ValueError("matrix is singular")
        inv_det = field_inverse(det)
        x = MultiPoly.variable("x", SOURCE_VARS, field)
        y = MultiPoly.variable("y", SOURCE_VARS, field)
        fw = (x * a + y * b, x * c + y * d)
        inv = ((x * d - y * b) * inv_det, (x * (-c) + y * a) * inv_det)
        return cls(fw, inv)

    @classmethod
    def triangular(cls, p: MultiPoly, lower=False):
        """(x, y) -> (x + p(y), y), or (x, y + p(x)) when lower is set."""
        x = MultiPoly.variable("x", SOURCE_VARS, p.field)
        y = MultiPoly.variable("y", SOURCE_VARS, p.field)
        if lower:
            if p.uses_variable("y"):
                raise ValueError("shear polynomial must avoid the sheared variable")
            return cls((x, y + p), (x, y - p))
        if p.uses_variable("x"):
            raise ValueError("shear polynomial must avoid the sheared variable")
        return cls((x + p, y), (x - p, y))

    def then(self, other: "PlaneAutomorphism") -> "PlaneAutomorphism":
        """Composition self followed by other."""
        fw = tuple(substitute(c, {"x": self.forward[0], "y": self.forward[1]})
                   for c in other.forward)
        inv = tuple(substitute(c, {"x": other.inverse[0], "y": other.inverse[1]})
                    for c in self.inverse)
        return PlaneAutomorphism(fw, inv)

    def __repr__(self):
        from .parser import format_map
        return f"PlaneAutomorphism({format_map(*self.forward)})"


# ---------------------------------------------------------------------------
# families

# the parameters each named family takes
_FAMILY_PARAMS = {"whitney": (), "power": ("d",), "product": ("m", "n"),
                  "pinch": ("d",), "shifted_power": ("d", "n"),
                  "semi_separate": ("q",), "separate": ("p", "q")}


def make_family(name: str, **params) -> PolyMap:
    """Named families of plane maps used throughout the test catalog.

    whitney            -> (x, y^3 + x*y)
    power d            -> (x, y^d)
    product m n        -> (x^m, y^n)
    pinch d            -> (x + y + x*y, x^(d-1)*y)        [d >= 2]
    shifted_power d n  -> (x, y^d - d*x^n*y)              [d >= 3, n >= 1]
    semi_separate q    -> (x, q) for a polynomial q monic in y
    separate p q       -> (p(x), q(y))

    A parameter the family takes that is missing or None raises
    ValueError, and so does one it does not take that is not None.
    """
    if name not in _FAMILY_PARAMS:
        raise ValueError(f"unknown family {name!r}")
    takes = _FAMILY_PARAMS[name]
    for key, value in params.items():
        if value is not None and key not in takes:
            raise ValueError(f"{name} family takes no parameter {key}")
    for key in takes:
        if params.get(key) is None:
            raise ValueError(f"{name} family needs parameter {key}")
    d, n, m, p, q = (params.get(key) for key in "dnmpq")

    x = MultiPoly.variable("x", SOURCE_VARS)
    y = MultiPoly.variable("y", SOURCE_VARS)
    if name == "whitney":
        return PolyMap(x, y**3 + x * y)
    if name == "power":
        if d < 1:
            raise ValueError("power family needs d >= 1")
        return PolyMap(x, y**d)
    if name == "product":
        if m < 1 or n < 1:
            raise ValueError("product family needs m, n >= 1")
        return PolyMap(x**m, y**n)
    if name == "pinch":
        if d < 2:
            raise ValueError("pinch family needs d >= 2")
        return PolyMap(x + y + x * y, x**(d - 1) * y)
    if name == "shifted_power":
        if d < 3 or n < 1:
            raise ValueError("shifted_power family needs d >= 3, n >= 1")
        return PolyMap(x, y**d - d * x**n * y)
    if name == "semi_separate":
        if not _is_monic_in(q, "y"):
            raise ValueError("semi_separate family needs q monic in y")
        return PolyMap(x.in_field(q.field), q)
    if p.uses_variable("y") or q.uses_variable("x"):
        raise ValueError("separate components must be univariate in x and y")
    return PolyMap(p, q)


# ---------------------------------------------------------------------------
# basic geometry

def _top_extremes(p: MultiPoly, degree: int) -> tuple:
    """The exponents of x in the first and last monomials of p's top form."""
    xs = [e[0] for e in p.terms if sum(e) == degree]
    return max(xs), min(xs)


def _target_reduced(f: PolyMap) -> tuple:
    """(g, steps): f with its target-side shears stripped.

    While the lower-degree component f_lo has degree d >= 1 dividing the
    other's degree k*d, and the top form of f_hi is c times that of
    f_lo^k, f_hi becomes f_hi - c*f_lo^k, and the step (hi, k, c) is
    recorded.  Each step is a triangular target automorphism of
    Jacobian determinant 1, so g's Jacobian is f's; `_target_to` builds
    the composite automorphism from the steps for the callers that move
    curves between the two targets.  A map that admits no step comes
    back as itself with no steps.
    """
    comps = list(f.components())
    steps = []
    while True:
        degrees = [c.total_degree() for c in comps]
        lo = 0 if degrees[0] <= degrees[1] else 1
        hi = 1 - lo
        if degrees[lo] < 1 or degrees[hi] % degrees[lo]:
            break
        k = degrees[hi] // degrees[lo]
        # the top form of a power is the power of the top form, so its
        # extreme monomials are k times its base's and their coefficients
        # are k-th powers: a mismatch there rules the step out before
        # any product is built
        first, last = _top_extremes(comps[lo], degrees[lo])
        if _top_extremes(comps[hi], degrees[hi]) != (k * first, k * last):
            break
        lo_first, lo_last = (comps[lo].terms[(a, degrees[lo] - a)] for a in (first, last))
        hi_first, hi_last = (comps[hi].terms[(k * a, degrees[hi] - k * a)]
                             for a in (first, last))
        c = hi_first * field_inverse(lo_first) ** k
        if hi_last != c * lo_last ** k:
            break
        reduced = comps[hi] - comps[lo] ** k * c
        if reduced.total_degree() >= degrees[hi]:
            break
        comps[hi] = reduced
        steps.append((hi, k, c))
    return (PolyMap(*comps) if steps else f), steps


def _target_to(steps, field) -> tuple:
    """`to`, as components in (x, y): the target automorphism with g = to . f.

    Each step (hi, k, c) follows the ones before it.  Its inverse is the
    step (hi, k, -c), so `to`'s inverse, `back` with f = back . g, is
    `_target_to` over the steps reversed with each c negated.
    """
    to = [MultiPoly.variable(v, SOURCE_VARS, field) for v in SOURCE_VARS]
    for hi, k, c in steps:
        to[hi] = to[hi] - to[1 - hi] ** k * c
    return tuple(to)


def _graph_generators(f: PolyMap) -> list:
    """s - f1 and t - f2 over (x, y, s, t)."""
    allv = SOURCE_VARS + TARGET_VARS
    return [MultiPoly.variable(v, allv, f.field) - c.extended(allv)
            for v, c in zip(TARGET_VARS, f.components())]


def _graph_basis_leads(f: PolyMap) -> list:
    """Leading exponents, over (x, y, s, t), of the graph ideal's block-order basis.

    The basis of <s - f1, t - f2> with (x, y) eliminated first
    specializes to a basis of the fiber over a generic target point, so
    the (x, y)-parts of these exponents describe that fiber.  Elements
    whose leading monomial avoids x and y generate the polynomial
    relations between f1 and f2; f is dominant exactly when there are none.
    The basis is that of f with its target-side shears stripped, which
    changes none of these properties.
    """
    leads = buchberger(_graph_generators(_target_reduced(f)[0]),
                       block_order(SOURCE_VARS + TARGET_VARS, SOURCE_VARS)).leads
    if any(not any(e[:len(SOURCE_VARS)]) for e in leads):
        raise ValueError("map is not dominant (algebraically dependent components)")
    return leads


def is_proper(f: PolyMap) -> bool:
    """Whether f is proper, i.e. the coordinate ring is finite over the image.

    Finite exactly when the graph basis has leading monomials that are
    pure powers of x and of y, free of the target variables.
    """
    leads = _graph_basis_leads(f)
    return all(any(e[i] and not any(e[:i] + e[i + 1:]) for e in leads)
               for i in range(len(SOURCE_VARS)))


def _is_monic_in(q: MultiPoly, var: str) -> bool:
    """Whether q = c*var^d + (lower var-degree) with c a nonzero scalar, d >= 1."""
    d = q.degree_in(var)
    if d < 1:
        return False
    i = q.vars.index(var)
    lead = [e for e in q.terms if e[i] == d]
    return len(lead) == 1 and not any(lead[0][:i] + lead[0][i + 1:])


def topological_degree(f: PolyMap) -> int:
    """Number of points, with multiplicity, in the fiber over a generic point.

    Counts the standard monomials of the (x, y)-parts of the graph
    basis's leading monomials; for a proper map this is the topological
    degree.
    """
    leads = _graph_basis_leads(f)
    return staircase_count([e[:len(SOURCE_VARS)] for e in leads])


def critical_ideal(f: PolyMap) -> MultiPoly:
    """Jacobian determinant of f (the principal generator of the critical ideal)."""
    return jacobian_det(f.f1, f.f2)


def _nonzero_jacobian(f: PolyMap) -> MultiPoly:
    J = critical_ideal(f)
    if not J.terms:
        raise ValueError("map is not dominant (identically zero Jacobian)")
    return J


def _eliminated_branch(g: PolyMap, F: MultiPoly, strata: dict) -> list:
    """The reduced basis of g's branch ideal, in (x, y) read as
    coordinates on the target plane, for F the squarefree part of g's
    Jacobian J and strata its multiplicity strata
    (`squarefree_decomposition`).

    Eliminating x and y from <F, s - g1, t - g2> gives the kernel of
    k[s, t] -> k[x, y]/(F).  Its zero set is the image of V(F) = V(J),
    and it is the ideal of that image, the radical of the elimination
    over J (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
    §3.2 and §4.4).  For a proper map the two are equal; they differ
    only where a critical curve with a repeated factor collapses to a
    point.  The strata are coprime with product F, so (F) is the
    intersection of the (P_k) and the kernel is the intersection of
    the kernels over the P_k (§4.3): each stratum is eliminated on its
    own, and eliminations cost far more than linearly in the degree.
    When every stratum's kernel is principal, the intersection is the
    lcm of their generators.  A stratum whose kernel is not, such as a
    curve collapsed to a point, ends the loop: if it is F itself, its
    kernel is the answer, and otherwise the one elimination over F
    runs.  A constant J has no strata, and its branch ideal is <1>.
    """
    def eliminated(P):
        gens = [P.extended(SOURCE_VARS + TARGET_VARS), *_graph_generators(g)]
        return [q.rename(SOURCE_VARS) for q in elimination_ideal(gens, SOURCE_VARS)]

    least = MultiPoly.constant(1, SOURCE_VARS, g.field)
    for P in strata.values():
        gens = eliminated(P)
        if len(gens) > 1:
            return gens if P == F else eliminated(F)
        # a kernel over a nonconstant P is a proper ideal, so q is not constant
        (q,) = gens
        least = q if least.is_constant() else exact_div(least * q, gcd_poly(least, q))
    # the strata's generators lead with rational coefficients, as the
    # engine's elements are monic, so the lcm does too and its primitive
    # associate is the one elimination would give
    return [primitive_normalize(least)]


def branch_ideal(f: PolyMap) -> list:
    """Generators of the ideal of f's branch curve, in (x, y) read as
    coordinates on the target plane, as claims and `verify_branch` take
    them.

    Eliminates the source variables from <F, s - f1, t - f2>, with F the
    squarefree part of J_f, so the answer is the radical of the
    elimination over J_f (the two agree for every proper map); the
    elimination runs once per multiplicity stratum of J_f where it can
    (`_eliminated_branch`).  Each generator comes back content-normalized with a
    fixed sign.  The elimination runs for g = to . f, f with its
    target-side shears stripped: the branch ideal of f is that of g with
    `to` substituted into each generator.  Several generators are
    reduced again, so the answer is f's reduced basis.
    """
    g, steps = _target_reduced(f)
    gens = _eliminated_branch(g, *squarefree_decomposition(_nonzero_jacobian(g)))
    if not steps:
        return gens
    images = dict(zip(SOURCE_VARS, _target_to(steps, g.field)))
    moved = [substitute(q, images) for q in gens]
    if len(moved) > 1:
        moved = interreduce(buchberger(moved)).basis
    # the engine's canonical multiple: primitive over Q, monic over Q(zeta_N)
    return [primitive_normalize(monic(q)) for q in moved]


# ---------------------------------------------------------------------------
# branch verification tiers

def branch_status(tiers: dict) -> str:
    """The verdict of a `verify_branch` report: fail if a tier refutes
    the claim, otherwise the elimination's pass, fail or skipped-budget."""
    if not (tiers["substitution_divisible"] and tiers["claimed_squarefree"]):
        return "fail"
    return tiers["elimination"]


def verify_branch(f: PolyMap, claimed: MultiPoly) -> dict:
    """Check a claimed branch equation for f, cheap tiers first.

    The claimed polynomial is written in (x, y) read as coordinates on
    the target plane.  Tier one: the pullback of the claim must vanish
    on the reduced critical locus, i.e. be divisible by F, the
    squarefree part of J_f.  Tier two: the claim itself must be
    squarefree, all its strata of multiplicity one.  Tier three: the
    branch ideal, eliminated as in `branch_ideal`, must be principal
    with the claim as generator, up to a unit.  One decomposition of J
    gives F for tier one and the strata for tier three.  Both work on
    g = to . f, f with its target-side shears stripped, and on the
    claim moved to g's target, claim . back: its pullback along g is
    claim . f, and g's branch ideal is generated by it exactly when f's
    is generated by the claim.

    Returns the tier report: `substitution_divisible`,
    `claimed_squarefree`, `elimination` ("pass", "fail" or
    "skipped-budget") and, for a skipped elimination, `elimination_stop`
    with the limit hit and the engine's counters; a budget of 0 pair
    reductions thus reports the two cheap tiers alone.  `branch_status`
    gives its verdict.  A budget stop before tier three is raised, and
    so is a zero claim, which defines no curve.
    """
    if not claimed.terms:
        raise ValueError("claimed branch curve is the zero polynomial")
    field = common_field(f.field, claimed.field)
    claim = claimed.in_field(field).rename(SOURCE_VARS)
    # claim . f is (claim . back) . g, built without f's high-degree powers
    g, steps = _target_reduced(PolyMap(f.f1.in_field(field), f.f2.in_field(field)))
    J = _nonzero_jacobian(g)
    F, strata = squarefree_decomposition(J)
    moved = claim
    if steps:
        back = _target_to([(hi, k, -c) for hi, k, c in reversed(steps)], field)
        moved = substitute(claim, dict(zip(SOURCE_VARS, back)))
    pullback = substitute(moved, {"x": g.f1, "y": g.f2})
    tiers = {"substitution_divisible": divides(F, pullback),
             "claimed_squarefree": squarefree_decomposition(claim)[1].keys() <= {1}}
    try:
        # f's branch ideal is principal on the claim exactly when g's is
        # principal on claim . back
        gens = _eliminated_branch(g, F, strata)
        principal = len(gens) == 1 and is_scalar_multiple(gens[0], moved)
        tiers["elimination"] = "pass" if principal else "fail"
    except ResourceBudgetExceeded as exc:
        tiers["elimination"] = "skipped-budget"
        tiers["elimination_stop"] = exc.details
    return tiers


# ---------------------------------------------------------------------------
# composition and equivalence

def compose(f: PolyMap, pre: PlaneAutomorphism = None,
            post: PlaneAutomorphism = None) -> PolyMap:
    """The map post . f . pre (either side may be omitted)."""
    g1, g2 = f.f1, f.f2
    if pre is not None:
        g1 = substitute(g1, {"x": pre.forward[0], "y": pre.forward[1]})
        g2 = substitute(g2, {"x": pre.forward[0], "y": pre.forward[1]})
    if post is not None:
        h1, h2 = post.forward
        g1, g2 = (substitute(h1, {"x": g1, "y": g2}),
                  substitute(h2, {"x": g1, "y": g2}))
    return PolyMap(g1, g2)


def integral_relation_check(f: PolyMap, element: MultiPoly,
                            relation: MultiPoly) -> bool:
    """Whether a monic relation r(u, s, t) annihilates `element` over the image.

    The relation must be monic in its main variable u up to a nonzero
    scalar (a unit does not affect integrality); s and t stand for the
    two components of f.
    """
    if relation.degree_in("u") < 1:
        raise ValueError("relation is constant in its main variable")
    if not _is_monic_in(relation, "u"):
        raise ValueError("relation is not monic in its main variable")
    field = common_field(relation.field, f.field)
    elem = element.in_field(field)
    images = {"u": elem, "s": f.f1.in_field(field), "t": f.f2.in_field(field)}
    value = substitute(relation.in_field(field), images)
    return not value.terms
