"""Curve singularities: Milnor numbers and conic classification."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymap.curves import (CONIC_ONE_POINT, CONIC_TWO_POINTS,
                            DEGENERATE_CONIC, LINE, NOT_APPLICABLE,
                            _intersection_multiplicity, _total_milnor,
                            classify_low_degree_curve, distinguish_by_milnor,
                            milnor_at_origin)
from polymap.groebner import buchberger, staircase_count
from polymap.maps import PlaneAutomorphism, PolyMap, compose, make_family
from polymap.parser import parse_map, parse_poly
from polymap.polyring import QQ, MultiPoly, derivative, substitute

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


def test_milnor_grid_frozen():
    # mu(y^d - x^n) = (d-1)(n-1)
    for d in range(2, 6):
        for n in range(2, 6):
            assert milnor_at_origin(Y ** d - X ** n) == (d - 1) * (n - 1)


def test_milnor_smooth_point():
    assert milnor_at_origin(Y - X ** 2) == 0
    # the partials of x are the unit 1 and 0
    assert milnor_at_origin(X) == 0


def test_milnor_node_and_cusp():
    assert milnor_at_origin(Y ** 2 - X ** 2 - X ** 3) == 1
    assert milnor_at_origin(Y ** 2 - X ** 3) == 2
    assert milnor_at_origin(parse_poly("y^2 - zeta(3)*x^3")) == 2
    # tangential unit factors do not change the local count
    assert milnor_at_origin((Y ** 2 - X ** 3) * (X + 1)) == 2


def test_milnor_non_isolated():
    # the partials 0 and 2y share the line y = 0
    assert milnor_at_origin(Y ** 2) == math.inf


def test_milnor_requires_vanishing():
    with pytest.raises(ValueError):
        milnor_at_origin(Y ** 2 - X ** 3 + 1)


def test_intersection_multiplicity_of_the_cusp_partials():
    # ordinary cusp: the partials 3x^2 and 2y meet twice at the origin
    assert _intersection_multiplicity(X ** 2 * 3, Y * 2) == 2
    assert _intersection_multiplicity(X * 2, Y * 2) == 1


def test_intersection_multiplicity_ignores_unit_factors():
    # x - x^2 = x(1 - x): locally a coordinate, so the curves meet once
    assert _intersection_multiplicity(X - X ** 2, Y) == 1


def test_intersection_multiplicity_is_local():
    # the partials of y^2 - x^3 - x^2 meet at the node and at x = -2/3;
    # the global quotient counts both points, the origin only one
    gens = [parse_poly("-3*x^2 - 2*x"), Y * 2]
    assert _intersection_multiplicity(*gens) == 1
    assert staircase_count(buchberger(gens).leads) == 2


def test_intersection_multiplicity_needs_the_gcd_check():
    # x*y and x*(y - x^2) share the line x = 0 through the origin
    assert _intersection_multiplicity(X * Y, X * (Y - X ** 2)) == math.inf
    # x + 1 misses the origin, where y and y - x^2 meet twice
    assert _intersection_multiplicity((X + 1) * Y, (X + 1) * (Y - X ** 2)) == 2
    # a common component other than y: without the check Fulton's loop
    # would replace one curve by the other's multiple forever
    F = X * parse_poly("6*x^2 - 9/2*x*y + 2*x - 5")
    assert _intersection_multiplicity(F, X ** 3 * Fraction(-3, 2)) == math.inf


SMOOTH_ORIGIN = ("-5*x^5*y^5 - 1/2*x^3*y^5 - 4/3*x^2*y^6 + 1/3*x^2*y^3"
                 " + 5/3*x^4 + 5/2*y")


def test_milnor_with_a_unit_partial_is_immediate():
    # dF/dy has constant term 5/2, a unit at the origin, so Fulton's loop
    # stops before its first step
    started = time.monotonic()
    assert milnor_at_origin(parse_poly(SMOOTH_ORIGIN)) == 0
    assert time.monotonic() - started < 0.1


# ---------------------------------------------------------------------------
# Milnor numbers against a truncation oracle: for an ideal J of Q[x, y],
# Q[x, y]/(J + m^n) is supported at the origin only, so its dimension is
# the local one of J + m^n.  It equals mu = dim O/J as soon as m^n lies in
# J locally, and until then it grows strictly with n (Nakayama): equal
# values at n and n + 1 prove mu, and a finite mu is reached by n = mu.


def truncated_dimension(gens, n):
    """dim Q[x, y]/(gens + m^n), by the global engine alone."""
    power = [MultiPoly(("x", "y"), {(i, n - i): 1}, QQ) for i in range(n + 1)]
    return staircase_count(buchberger(list(gens) + power).leads)


def jacobian(F):
    return [g for g in (derivative(F, v) for v in F.vars) if g.terms]


small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
curve_exps = [(i, j) for i in range(6) for j in range(6) if 1 <= i + j <= 5]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(curve_exps), small, min_size=1, max_size=6))
def test_milnor_matches_truncation(terms):
    F = MultiPoly(("x", "y"), terms, QQ)
    assume(F.terms)
    gens = jacobian(F)
    # two curves of degree <= d - 1 with no common component through the
    # origin meet there at most (d - 1)^2 times, so a finite mu is below n
    n = (F.total_degree() - 1) ** 2 + 1
    mu = milnor_at_origin(F)
    truncated = truncated_dimension(gens, n)
    if mu == math.inf:
        assert truncated_dimension(gens, n + 1) > truncated
    else:
        assert mu == truncated


@pytest.mark.parametrize("curve, mu, stable", [
    ("2/3*x^4*y^4 + x^2*y^4 - 1/2*x^4*y - 1/3*x*y^4 - 2*x^4", 13, 7),
    ("x^6*y^3 - x^2*y^5 - x^6 - 4*x^5*y - x*y^5", 25, 9),
    ("-x^8*y^8 + 3/2*x^8*y - 3*y^9 + 2*x^8 - 1/2*y^8 - 1/3*x*y^4 + 3*x^4", 13, 7),
    ("x^8*y^7 - x^6*y^7 + 2*x^9 + 4*x^3*y^4 - 3*y^7 + 2/3*y^6", 40, 14),
], ids=["mu13", "mu25", "mu13-degree16", "mu40"])
def test_milnor_frozen_curves(curve, mu, stable):
    # the first two took Mora's tangent-cone algorithm past 5 s; the
    # last two took a homogenized local standard basis 350 s and 7.2 s
    F = parse_poly(curve)
    assert milnor_at_origin(F) == mu
    gens = jacobian(F)
    assert truncated_dimension(gens, stable) == mu
    assert truncated_dimension(gens, stable + 1) == mu


@pytest.mark.parametrize("curve, points, total", [
    (Y ** 2 - X ** 2 * (X - 1) ** 2, [(0, 0), (1, 0)], 2),
    (X * Y * (X + Y - 1), [(0, 0), (1, 0), (0, 1)], 3),
    # the critical curve of test_distinguish_far_singularities' first map
    (Y ** 3 - (X - 1) ** 2 * X ** 2, [(0, 0), (1, 0)], 4),
    (Y ** 2 - X ** 3, [(0, 0)], 2),
    (Y - X ** 3, [], 0),
], ids=["two-nodes", "three-lines", "two-cusps", "cusp", "smooth"])
def test_total_milnor_sums_local_milnor_numbers(curve, points, total):
    # the same move as `milnor --at a,b`: the point (a, b) goes to the origin
    local = [milnor_at_origin(substitute(curve, {"x": X + a, "y": Y + b}))
             for a, b in points]
    assert all(0 < m < math.inf for m in local)
    assert _total_milnor(curve) == sum(local) == total


def test_classify_conics_frozen():
    assert classify_low_degree_curve(X) == LINE
    assert classify_low_degree_curve(Y - X * 7 + 2) == LINE
    # hyperbola-type: two points at infinity
    assert classify_low_degree_curve(parse_poly("x*y - 1")) == CONIC_TWO_POINTS
    assert classify_low_degree_curve(parse_poly("x^2 + y^2 - 1")) == \
        CONIC_TWO_POINTS
    assert classify_low_degree_curve(parse_poly("-x*y + x - 2*y")) == \
        CONIC_TWO_POINTS
    # parabola-type: one point
    assert classify_low_degree_curve(Y - X ** 2) == CONIC_ONE_POINT
    # rank drop
    assert classify_low_degree_curve(X ** 2 - Y ** 2) == DEGENERATE_CONIC
    assert classify_low_degree_curve(X ** 2) == DEGENERATE_CONIC
    assert classify_low_degree_curve(parse_poly("3")) == NOT_APPLICABLE
    with pytest.raises(ValueError):
        classify_low_degree_curve(Y ** 3 - X)


def test_theorem_a_cofactors_classify():
    for d in (3, 4, 5):
        h2 = parse_poly(f"(2 - {d})*x*y + x - ({d} - 1)*y")
        assert classify_low_degree_curve(h2) == CONIC_TWO_POINTS


def test_distinguish_by_milnor_certificates():
    f = make_family("shifted_power", d=3, n=2)
    g = make_family("shifted_power", d=3, n=3)
    assert distinguish_by_milnor(f, g) == [1, 2]
    # equal totals prove nothing, but they are still reported
    assert distinguish_by_milnor(f, f) == [1, 1]
    # one total per map, in input order, for any number of maps
    h = make_family("shifted_power", d=3, n=4)
    assert distinguish_by_milnor(h, f, g) == [3, 1, 2]


def test_distinguish_grid():
    for d in (3, 4, 5):
        for n in (2, 3):
            for m in range(n + 1, 5):
                f = make_family("shifted_power", d=d, n=n)
                g = make_family("shifted_power", d=d, n=m)
                assert distinguish_by_milnor(f, g) == [(d - 2) * (n - 1),
                                                       (d - 2) * (m - 1)]


def test_distinguish_preconditions():
    improper = PolyMap(*parse_map("(x + x^2*y, y)"))
    whitney = make_family("whitney")
    with pytest.raises(ValueError, match="^map 1 is not proper$"):
        distinguish_by_milnor(improper, whitney)
    # the critical curve 3y^2 reduces to the smooth line y = 0, and
    # whitney's parabola is smooth too: 0 against 0 proves nothing
    pure = PolyMap(*parse_map("(x, y^3)"))
    assert distinguish_by_milnor(pure, whitney) == [0, 0]


def test_distinguish_names_the_map_that_fails_a_precondition():
    whitney = make_family("whitney")
    improper = PolyMap(*parse_map("(x + x^2*y, y)"))
    with pytest.raises(ValueError, match="^map 2 is not proper$"):
        distinguish_by_milnor(whitney, improper, whitney)
    # an automorphism is proper with a constant Jacobian
    shear = PolyMap(*parse_map("(x, y + x^2)"))
    with pytest.raises(ValueError, match="^map 2 has no critical curve$"):
        distinguish_by_milnor(whitney, shear, whitney)


def test_distinguish_far_singularities():
    # f's critical curve y^3 = x^2 (x - 1)^2 has cusps at (0, 0) and (1, 0)
    f = PolyMap(X, Y ** 4 - (X - 1) ** 2 * X ** 2 * Y * 4)
    assert distinguish_by_milnor(f, make_family("shifted_power", d=4, n=2)) == [4, 2]


def random_automorphism(rng, shear_degree=2):
    """A linear map followed by a shear y -> y + s(x), as cli-mix draws them."""
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c != 0:
            break
    lin = PlaneAutomorphism.linear(a, b, c, d)
    shear = MultiPoly(("x", "y"), {(k, 0): Fraction(rng.randint(-2, 2))
                                   for k in range(shear_degree + 1)}, QQ)
    return lin.then(PlaneAutomorphism.triangular(shear, lower=True))


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 4), st.integers(2, 3), st.integers(0, 2 ** 32))
def test_distinguish_is_invariant_under_automorphisms(d, n, seed):
    rng = random.Random(seed)
    base = make_family("shifted_power", d=d, n=n)
    f = compose(base, pre=random_automorphism(rng),
                post=random_automorphism(rng))
    g = make_family("shifted_power", d=d, n=n + 1)
    assert distinguish_by_milnor(f, g) == [(d - 2) * (n - 1), (d - 2) * n]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_milnor_formula_random(d, n):
    assert milnor_at_origin(Y ** d - X ** n) == (d - 1) * (n - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(-3, 3))
def test_milnor_invariant_under_linear_change(a, b, c):
    # unimodular substitutions preserve the local algebra
    from polymap.polyring import substitute
    F = Y ** 2 - X ** 3
    G = substitute(F, {"x": X + Y * c, "y": Y * 1})
    assert milnor_at_origin(G) == 2
