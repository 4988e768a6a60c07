"""Curve singularities: Milnor numbers and conic classification."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymap.curves import (CONIC_ONE_POINT, CONIC_TWO_POINTS,
                            DEGENERATE_CONIC, LINE, NOT_APPLICABLE,
                            NonEquivalenceCertificate, PreconditionError,
                            classify_low_degree_curve, distinguish_by_milnor,
                            milnor_at_origin,
                            singular_points_exist_outside_origin)
from polymap.maps import PolyMap, make_family
from polymap.parser import parse_map, parse_poly
from polymap.polyring import MultiPoly

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


def test_milnor_grid_frozen():
    # mu(y^d - x^n) = (d-1)(n-1)
    for d in range(2, 6):
        for n in range(2, 6):
            res = milnor_at_origin(Y ** d - X ** n)
            assert res.isolated and res.value == (d - 1) * (n - 1)
            assert int(res) == (d - 1) * (n - 1)


def test_milnor_smooth_point():
    res = milnor_at_origin(Y - X ** 2)
    assert res.value == 0 and res.isolated


def test_milnor_node_and_cusp():
    assert milnor_at_origin(Y ** 2 - X ** 2 - X ** 3).value == 1
    assert milnor_at_origin(Y ** 2 - X ** 3).value == 2
    # tangential unit factors do not change the local count
    assert milnor_at_origin((Y ** 2 - X ** 3) * (X + 1)).value == 2


def test_milnor_non_isolated():
    res = milnor_at_origin(Y ** 2)
    assert not res.isolated and res.value == math.inf
    with pytest.raises(ValueError):
        int(res)


def test_milnor_requires_vanishing():
    with pytest.raises(ValueError):
        milnor_at_origin(Y ** 2 - X ** 3 + 1)


def test_singular_points_elsewhere():
    # cusp only at the origin
    assert not singular_points_exist_outside_origin(Y ** 2 - X ** 3)
    # two nodes: origin and (1, 0)
    two_nodes = Y ** 2 - X ** 2 * (X - 1) ** 2
    assert singular_points_exist_outside_origin(two_nodes)
    with pytest.raises(ValueError):
        singular_points_exist_outside_origin((Y - X) ** 2)


def test_smooth_curve_has_no_singular_points():
    assert not singular_points_exist_outside_origin(Y - X ** 3)


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
    cert = distinguish_by_milnor(f, g)
    assert isinstance(cert, NonEquivalenceCertificate)
    assert (cert.milnor_first, cert.milnor_second) == (1, 2)
    # equal invariants: no certificate
    assert distinguish_by_milnor(f, f) is None


def test_distinguish_grid():
    for d in (3, 4, 5):
        for n in (2, 3):
            for m in range(n + 1, 5):
                f = make_family("shifted_power", d=d, n=n)
                g = make_family("shifted_power", d=d, n=m)
                cert = distinguish_by_milnor(f, g)
                assert cert.milnor_first == (d - 2) * (n - 1)
                assert cert.milnor_second == (d - 2) * (m - 1)


def test_distinguish_preconditions():
    improper = PolyMap(*parse_map("(x + x^2*y, y)"))
    whitney = make_family("whitney")
    with pytest.raises(PreconditionError):
        distinguish_by_milnor(improper, whitney)
    # critical curve 3y^2 is not reduced
    pure = PolyMap(*parse_map("(x, y^3)"))
    with pytest.raises(PreconditionError):
        distinguish_by_milnor(pure, whitney)


def test_distinguish_rejects_far_singularities():
    # f's critical curve has a second singular point away from the origin
    f = PolyMap(X, Y ** 4 - (X - 1) ** 2 * X ** 2 * Y * 4)
    with pytest.raises(PreconditionError):
        distinguish_by_milnor(f, make_family("shifted_power", d=4, n=2))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_milnor_formula_random(d, n):
    assert milnor_at_origin(Y ** d - X ** n).value == (d - 1) * (n - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(-3, 3))
def test_milnor_invariant_under_linear_change(a, b, c):
    # unimodular substitutions preserve the local algebra
    from polymap.polyring import substitute
    F = Y ** 2 - X ** 3
    G = substitute(F, {"x": X + Y * c, "y": Y * 1})
    assert milnor_at_origin(G).value == 2
