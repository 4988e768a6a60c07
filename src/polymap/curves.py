"""Plane curve singularities: Milnor numbers and low-degree classification.

The Milnor number at the origin is the local dimension of the Jacobian
algebra, dim C{x,y}/(F_x, F_y), which for two generators is the
intersection multiplicity of F_x = 0 and F_y = 0 there; Fulton's
algorithm computes it from the two curves alone, with no standard
basis.  Summed over all singular points of the reduced critical curve
it is one global quotient dimension per map; equivalent maps have
equal totals, so different totals prove two proper maps inequivalent.
Every answer is a plain value: an int, math.inf or a class name.
"""

from __future__ import annotations

import math

from .groebner import buchberger, staircase_count
from .maps import PolyMap, critical_ideal, is_proper
from .polyring import (MultiPoly, derivative, gcd_poly, primitive_normalize,
                       squarefree_decomposition)


def _intersection_multiplicity(F: MultiPoly, G: MultiPoly):
    """Intersection multiplicity of the plane curves F = 0 and G = 0 at
    the origin; math.inf when they share a component through it.

    In two variables that is exactly when gcd(F, G) vanishes at the
    origin, so it is tested first.  Then Fulton's algorithm (Algebraic
    Curves, 1969, 3.3) on f = F(x, 0) and g = G(x, 0), swapped so that
    deg f <= deg g with f = 0 lowest: a curve that misses the origin
    adds 0; if f = 0, then F = y * F1 and I(F, G) = ord_x g + I(F1, G);
    otherwise lc(f) G - lc(g) x^(deg g - deg f) F replaces G, which
    spans the same ideal with F and has a lower deg g.  Each step lowers
    I, or keeps it and lowers (deg f, deg g) lexicographically, so a
    finite I ends the loop.
    """
    origin = (0, 0)
    if origin not in gcd_poly(F, G).terms:
        return math.inf
    total = 0
    while origin not in F.terms and origin not in G.terms:
        f = {i: c for (i, j), c in F.terms.items() if not j}
        g = {i: c for (i, j), c in G.terms.items() if not j}
        if max(g, default=-1) < max(f, default=-1):
            F, G, f, g = G, F, g, f
        if not f:
            total += min(g)
            F = MultiPoly(F.vars, {(i, j - 1): c for (i, j), c in F.terms.items()},
                          F.field, _clean=True)
        else:
            r, s = max(f), max(g)
            shifted = MultiPoly.monomial(g[s], (s - r, 0), F.vars, F.field) * F
            G = primitive_normalize(G * f[r] - shifted)
    return total


def milnor_at_origin(F: MultiPoly):
    """Milnor number of the curve F = 0 at the origin: an int, or
    math.inf at a non-isolated critical point.

    dim C{x,y}/(F_x, F_y) is the intersection multiplicity of the two
    partials at the origin, so a smooth point gives 0.  The zero
    polynomial defines no curve and is refused.
    """
    if not F.terms:
        raise ValueError("the zero polynomial defines no curve")
    if (0,) * len(F.vars) in F.terms:
        raise ValueError("curve does not pass through the origin")
    return _intersection_multiplicity(*(derivative(F, v) for v in F.vars))


LINE = "line"
CONIC_ONE_POINT = "conic-one-point-at-infinity"
CONIC_TWO_POINTS = "conic-two-points-at-infinity"
DEGENERATE_CONIC = "degenerate-conic"
NOT_APPLICABLE = "not-applicable"


def classify_low_degree_curve(F: MultiPoly) -> str:
    """Classify a degree <= 2 curve in (x, y) up to biholomorphism.

    Smooth conics are separated by how many points their projective
    closure puts on the line at infinity: one (the curve is a copy of
    the affine line) or two (a punctured line).
    """
    deg = F.total_degree()
    if deg > 2:
        raise ValueError("classification only covers degrees 1 and 2")
    if deg < 1:
        return NOT_APPLICABLE
    if deg == 1:
        return LINE
    a, b, c, d, e, f = (F.coeff(ij) for ij in
                        ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    # twice the conic's symmetric matrix [[2a, b, d], [b, 2c, e], [d, e, 2f]]
    det = (2 * a * (4 * c * f - e * e) - b * (2 * b * f - d * e)
           + d * (b * e - 2 * c * d))
    if not det:
        return DEGENERATE_CONIC
    disc = b * b - 4 * a * c
    return CONIC_TWO_POINTS if disc else CONIC_ONE_POINT


def _total_milnor(F: MultiPoly) -> int:
    """Sum of the Milnor numbers of the reduced curve F = 0.

    F^2 lies in (F_x, F_y) at every point of the curve (Briancon-Skoda),
    and F^2 is a unit off it, so dim k[x,y]/(F_x, F_y, F^2) counts each
    singular point with its Milnor number and nothing else.
    """
    gens = [derivative(F, v) for v in F.vars] + [F * F]
    return staircase_count(buchberger(gens).leads)


def distinguish_by_milnor(*maps: PolyMap) -> list:
    """Total Milnor number of each map's reduced critical curve, in
    input order.

    Equivalent maps have critical curves that match under a polynomial
    change of coordinates, so different totals prove two maps
    inequivalent; equal totals prove nothing.  Every map must be proper
    with a critical curve, or a ValueError names its position.
    """
    totals = []
    for k, h in enumerate(maps, 1):
        if not is_proper(h):
            raise ValueError(f"map {k} is not proper")
        J = critical_ideal(h)
        if J.is_constant():
            raise ValueError(f"map {k} has no critical curve")
        totals.append(_total_milnor(squarefree_decomposition(J)[0]))
    return totals
