"""Buchberger bases, elimination, and local standard bases."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymap.groebner import (ComputationBudget, ResourceBudgetExceeded,
                              buchberger, elimination_ideal,
                              mora_standard_basis, normal_form,
                              quotient_dimension)
from polymap.parser import parse_poly
from polymap.polyring import (DegRevLex, Lex, MultiPoly, QQ, derivative,
                              divides, is_scalar_multiple, monic)

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


def test_reduced_basis_textbook_example():
    gens = [parse_poly("x^2 + 2*x*y^2"), parse_poly("x*y + 2*y^3 - 1")]
    basis = buchberger(gens, Lex())
    got = sorted((monic(g, Lex()) for g in basis.basis),
                 key=lambda p: p.leading(Lex())[0])
    assert got == [parse_poly("y^3 - 1/2"), parse_poly("x")]


def test_membership_by_normal_form():
    basis = buchberger([X ** 2 - Y, X * Y - 1])
    # x - y^2 lies in the ideal: x = x*(x^2 - y) ... easier: reduce directly
    member = (X ** 2 - Y) * Y + (X * Y - 1) * X
    assert not normal_form(member, basis).terms
    # 1 is not in the ideal (the variety is nonempty)
    one = parse_poly("1")
    assert normal_form(one, basis).terms


def test_normal_form_is_idempotent():
    basis = buchberger([X ** 3 - 1, Y ** 2 - X])
    p = parse_poly("x^5*y^3 + x^2 + y")
    r = normal_form(p, basis)
    assert normal_form(r, basis) == r
    assert not normal_form(p - r, basis).terms


def test_quotient_dimension_monomial_staircase():
    basis = buchberger([X ** 2, Y ** 3])
    assert quotient_dimension(basis) == 6
    basis = buchberger([X ** 2 + Y ** 2 - 1, X - Y])
    assert quotient_dimension(basis) == 2


def test_quotient_dimension_infinite():
    import math
    basis = buchberger([X * Y])
    assert quotient_dimension(basis) == math.inf


def test_elimination_order_projects():
    # the twisted-cubic style check: eliminate x from (s - x^2, t - x^3)
    gens = [parse_poly("s - x^2", variables=("x", "s", "t")),
            parse_poly("t - x^3", variables=("x", "s", "t"))]
    out = elimination_ideal(gens, ("x",))
    assert len(out) == 1
    assert is_scalar_multiple(out[0].extended(("x", "s", "t")),
                              parse_poly("s^3 - t^2", variables=("x", "s", "t")))


def test_elimination_agrees_with_resultant():
    from polymap.polyring import resultant
    a = parse_poly("y^2 + x*y + x^2 - 1")
    b = parse_poly("y^3 - x")
    out = elimination_ideal([a, b], ("y",))
    r = resultant(a, b, "y")
    assert len(out) == 1
    assert is_scalar_multiple(out[0].extended(("x", "y")), r)


def test_budget_interrupts():
    gens = [parse_poly("x^4 + y^3 - 1"), parse_poly("x^2*y + x*y^2 - 7")]
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(gens, budget=ComputationBudget(max_pair_reductions=1))
    # generous budget sails through
    buchberger(gens, budget=ComputationBudget(max_pair_reductions=10000))


def test_coefficient_budget_interrupts():
    gens = [parse_poly("x^4 + 1000000000*y^3 - 1"),
            parse_poly("x^2*y + x*y^2 - 1/999999937")]
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(gens, budget=ComputationBudget(max_coeff_bits=8))


def test_local_quotient_dimension_cusp():
    # ordinary cusp: local algebra of the Jacobian ideal has length 2
    basis = mora_standard_basis([X ** 2 * 3, Y * 2])
    assert quotient_dimension(basis) == 2
    basis = mora_standard_basis([X * 2, Y * 2])
    assert quotient_dimension(basis) == 1


def test_local_unit_factors_are_invisible():
    # x - x^2 = x(1 - x): locally a coordinate, so the quotient is a point
    basis = mora_standard_basis([X - X ** 2, Y])
    assert quotient_dimension(basis) == 1


def test_local_vs_global_dimension():
    import math
    # y^2 - x^2(x + 1) has a node at the origin and nothing else on x = y
    F = parse_poly("y^2 - x^3 - x^2")
    gens = [parse_poly("-3*x^2 - 2*x"), Y * 2]
    local = quotient_dimension(mora_standard_basis(gens))
    total = quotient_dimension(buchberger(gens))
    assert local == 1
    # the global critical scheme also sees x = -2/3
    assert total == 2


def test_mora_budget():
    gens = [parse_poly("x^2 - y^3"), parse_poly("x*y^2 + x^4")]
    with pytest.raises(ResourceBudgetExceeded):
        mora_standard_basis(gens, ComputationBudget(max_pair_reductions=0))
    mora_standard_basis(gens)


def test_budget_stop_reports_progress():
    # the unlimited run reduces 3 pairs; each smaller limit stops right
    # after its last allowed reduction, with the live basis at that point
    gens = [parse_poly("x^4 + y^3 - 1"), parse_poly("x^2*y + x*y^2 - 7")]
    assert buchberger(gens).stats["pair_reductions"] == 3
    for limit, live in ((0, 2), (1, 3), (2, 4)):
        with pytest.raises(ResourceBudgetExceeded) as exc:
            buchberger(gens, budget=ComputationBudget(max_pair_reductions=limit))
        assert exc.value.stats == {"pair_reductions": limit,
                                   "zero_reductions": 0, "basis_size": live}
    # the coefficient limit trips on the first new element, before it joins
    wide = [parse_poly("x^4 + 1000000000*y^3 - 1"),
            parse_poly("x^2*y + x*y^2 - 1/999999937")]
    with pytest.raises(ResourceBudgetExceeded) as exc:
        buchberger(wide, budget=ComputationBudget(max_coeff_bits=8))
    assert exc.value.stats == {"pair_reductions": 1, "zero_reductions": 0,
                               "basis_size": 2}
    # a local basis runs through the same engine on the homogenized
    # generators, so it stops and reports the same way
    local = [parse_poly("x^2 - y^3"), parse_poly("x*y^2 + x^4")]
    assert mora_standard_basis(local).stats == {"pair_reductions": 3,
                                                "zero_reductions": 1,
                                                "basis_size": 4}
    with pytest.raises(ResourceBudgetExceeded) as exc:
        mora_standard_basis(local, ComputationBudget(max_pair_reductions=1))
    assert exc.value.stats == {"pair_reductions": 1, "zero_reductions": 0,
                               "basis_size": 3}


small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
expo = st.tuples(st.integers(0, 3), st.integers(0, 3))


def polys(max_terms=4):
    return st.dictionaries(expo, small, min_size=1, max_size=max_terms).map(
        lambda d: MultiPoly(("x", "y"), d, QQ))


@settings(max_examples=25, deadline=None)
@given(st.lists(polys(), min_size=1, max_size=3))
def test_every_generator_reduces_to_zero(gens):
    gens = [g for g in gens if g.terms]
    if not gens:
        return
    basis = buchberger(gens)
    for g in gens:
        assert not normal_form(g, basis).terms


@settings(max_examples=20, deadline=None)
@given(polys(3), polys(3))
def test_spolynomials_reduce_to_zero(a, b):
    # the defining property of a Groebner basis
    if not a.terms or not b.terms:
        return
    order = DegRevLex()
    basis = buchberger([a, b], order)
    polys_ = basis.basis
    for i in range(len(polys_)):
        for j in range(i + 1, len(polys_)):
            ei, ci = polys_[i].leading(order)
            ej, cj = polys_[j].leading(order)
            lcm = tuple(max(u, v) for u, v in zip(ei, ej))
            mi = MultiPoly(("x", "y"),
                           {tuple(l - u for l, u in zip(lcm, ei)):
                            Fraction(1) / Fraction(ci)}, QQ)
            mj = MultiPoly(("x", "y"),
                           {tuple(l - u for l, u in zip(lcm, ej)):
                            Fraction(1) / Fraction(cj)}, QQ)
            spoly = polys_[i] * mi - polys_[j] * mj
            assert not normal_form(spoly, basis).terms


@settings(max_examples=20, deadline=None)
@given(polys(2), polys(2))
def test_elimination_matches_resultant_random(a, b):
    from polymap.polyring import resultant
    if a.degree_in("y") < 1 or b.degree_in("y") < 1:
        return
    out = elimination_ideal([a, b], ("y",))
    r = resultant(a, b, "y")
    if not r.terms:
        return  # common factor; no containment claim either way
    # the resultant always lies in the elimination ideal, and for two
    # curves it is a multiple of the principal generator
    if len(out) == 1 and out[0].terms:
        assert divides(out[0].extended(("x", "y")), r)


# ---------------------------------------------------------------------------
# the local engine against a truncation oracle: for an ideal J of Q[x, y],
# Q[x, y]/(J + m^n) is supported at the origin only, so its dimension is
# the local one of J + m^n.  It equals mu = dim O/J as soon as m^n lies in
# J locally, and until then it grows strictly with n (Nakayama): equal
# values at n and n + 1 prove mu, and a finite mu is reached by n = mu.


def truncated_dimension(gens, n):
    """dim Q[x, y]/(gens + m^n), by the global engine alone."""
    power = [MultiPoly(("x", "y"), {(i, n - i): 1}, QQ) for i in range(n + 1)]
    return quotient_dimension(buchberger(list(gens) + power))


def jacobian(F):
    return [g for g in (derivative(F, v) for v in F.vars) if g.terms]


curve_exps = [(i, j) for i in range(6) for j in range(6) if 1 <= i + j <= 5]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(curve_exps), small, min_size=1, max_size=6))
def test_local_dimension_matches_truncation(terms):
    F = MultiPoly(("x", "y"), terms, QQ)
    assume(F.terms)
    gens = jacobian(F)
    # two curves of degree <= d - 1 with no common component through the
    # origin meet there at most (d - 1)^2 times, so a finite mu is below n
    n = (F.total_degree() - 1) ** 2 + 1
    mu = quotient_dimension(mora_standard_basis(gens))
    truncated = truncated_dimension(gens, n)
    if mu == math.inf:
        assert truncated_dimension(gens, n + 1) > truncated
    else:
        assert mu == truncated


@pytest.mark.parametrize("curve, mu, stable", [
    ("2/3*x^4*y^4 + x^2*y^4 - 1/2*x^4*y - 1/3*x*y^4 - 2*x^4", 13, 7),
    ("x^6*y^3 - x^2*y^5 - x^6 - 4*x^5*y - x*y^5", 25, 9),
])
def test_local_dimension_frozen_curves(curve, mu, stable):
    # both took Mora's tangent-cone algorithm past 5 s
    gens = jacobian(parse_poly(curve))
    assert quotient_dimension(mora_standard_basis(gens)) == mu
    assert truncated_dimension(gens, stable) == mu
    assert truncated_dimension(gens, stable + 1) == mu
