"""Reference implementations that tests compare the engine against.

Each function here is plain and slow on purpose and no command of the
package runs it: the lex order that the engine's orders are checked
beside, resultants by fraction-free elimination on the Sylvester
matrix, the normal form by textbook multivariate division, and the
branch elimination over the whole Jacobian determinant.
`normal_form` goes back to the package with the Milnor spectrum of
ROADMAP item 3, whose multiplication matrices will be its first
runtime caller.
"""

from polymap.groebner import elimination_ideal
from polymap.polyring import (MonomialOrder, MultiPoly, exact_div, field_inverse,
                              jacobian_det)


class Lex(MonomialOrder):
    name = "lex"

    def key(self, exps):
        return exps


def normal_form(p: MultiPoly, basis) -> MultiPoly:
    """Remainder of p under full division by the elements of an IdealBasis.

    Textbook division under the basis's order: the leading term of what
    is left is cancelled by the first element whose lead divides it,
    with one field quotient, or else moved to the remainder.
    """
    order = basis.order
    leads = [(g, *g.leading(order)) for g in basis.basis]
    rem = MultiPoly.zero(p.vars, p.field)
    while p.terms:
        e, c = p.leading(order)
        for g, le, lc in leads:
            if all(a <= b for a, b in zip(le, e)):
                shift = tuple(a - b for a, b in zip(e, le))
                p = p - g * MultiPoly.monomial(c * field_inverse(lc), shift, p.vars, p.field)
                break
        else:
            lead = MultiPoly.monomial(c, e, p.vars, p.field)
            rem, p = rem + lead, p - lead
    return rem


def jacobian_branch(f) -> list:
    """k[s, t] ∩ <J, s - f1, t - f2> for the map f as given, J its
    Jacobian determinant, in (x, y) read as coordinates on the target
    plane: one plain elimination, with no shear stripped and no
    multiplicity strata.

    `maps.branch_ideal` eliminates over the squarefree part of J instead,
    so it returns the radical of this ideal; the two agree for every
    proper map.
    """
    allv = ("x", "y", "s", "t")
    gens = [jacobian_det(f.f1, f.f2).extended(allv)]
    gens += [MultiPoly.variable(v, allv, f.field) - c.extended(allv)
             for v, c in zip(("s", "t"), f.components())]
    return [q.rename(("x", "y")) for q in elimination_ideal(gens, ("x", "y"))]


def _as_univariate(p: MultiPoly, name: str) -> dict:
    """Coefficients of p as a polynomial in one variable; values keep the full ring."""
    i = p.vars.index(name)
    out = {}
    for exps, coeff in p.terms.items():
        d = exps[i]
        base = exps[:i] + (0,) + exps[i + 1:]
        bucket = out.setdefault(d, {})
        bucket[base] = coeff
    return {d: MultiPoly(p.vars, t, p.field, _clean=True) for d, t in out.items()}


def sylvester_matrix(a: MultiPoly, b: MultiPoly, name: str):
    """Sylvester matrix of a and b in the named variable, a-rows above b-rows."""
    da, db = a.degree_in(name), b.degree_in(name)
    if da <= 0 and db <= 0:
        raise ValueError("both inputs are constant in the chosen variable")
    if not a.terms or not b.terms:
        raise ValueError("resultant of the zero polynomial")
    ua, ub = _as_univariate(a, name), _as_univariate(b, name)
    zero = MultiPoly.zero(a.vars, a.field)
    size = da + db
    rows = []
    acoeffs = [ua.get(da - j, zero) for j in range(da + 1)]
    bcoeffs = [ub.get(db - j, zero) for j in range(db + 1)]
    for i in range(db):
        rows.append([zero] * i + acoeffs + [zero] * (size - i - da - 1))
    for i in range(da):
        rows.append([zero] * i + bcoeffs + [zero] * (size - i - db - 1))
    return rows


def _bareiss_det(rows):
    """Fraction-free determinant of a square matrix of polynomials."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    m = [list(r) for r in rows]
    ring = m[0][0]
    sign = 1
    prev = MultiPoly.constant(1, ring.vars, ring.field)
    for k in range(n - 1):
        if not m[k][k].terms:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k].terms), None)
            if pivot_row is None:
                return MultiPoly.zero(ring.vars, ring.field)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_div(num, prev) if prev.terms else num
            m[i][k] = MultiPoly.zero(ring.vars, ring.field)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(a: MultiPoly, b: MultiPoly, name: str) -> MultiPoly:
    """Resultant of a and b in the named variable, by fraction-free elimination."""
    return _bareiss_det(sylvester_matrix(a, b, name))
