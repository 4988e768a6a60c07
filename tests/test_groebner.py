"""Buchberger bases, elimination, and the packed engine layer."""

import gc
import itertools
import math
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import Lex, normal_form, resultant
from polymap import curves, groebner, maps
from polymap.curves import distinguish_by_milnor
from polymap.groebner import (ComputationBudget, IdealBasis,
                              ResourceBudgetExceeded, _Entry, _entries,
                              _ExponentOverflow, _gm_update, _grading,
                              _packed, _Packing, _reduce_terms,
                              buchberger, elimination_ideal, interreduce,
                              staircase_count, under_budget)
from polymap.maps import (PlaneAutomorphism, compose, critical_ideal, is_proper,
                          make_family, topological_degree)
from polymap.numberfield import CycloNumber
from polymap.parser import format_poly, parse_poly
from polymap.polyring import (CyclotomicField, DegRevLex, MultiPoly, QQ,
                              block_order, derivative, divides, integral_terms,
                              is_scalar_multiple, monic, primitive_normalize)
from polymap.refgroups import exceptional_group, parse_group_spec, quotient_map

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


def test_reduced_basis_textbook_example():
    gens = [parse_poly("x^2 + 2*x*y^2"), parse_poly("x*y + 2*y^3 - 1")]
    basis = interreduce(buchberger(gens, Lex()))
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
    assert staircase_count(basis.leads) == 6
    basis = buchberger([X ** 2 + Y ** 2 - 1, X - Y])
    assert staircase_count(basis.leads) == 2


def test_quotient_dimension_infinite():
    basis = buchberger([X * Y])
    assert staircase_count(basis.leads) == math.inf


def test_elimination_order_projects():
    # the twisted-cubic style check: eliminate x from (s - x^2, t - x^3)
    gens = [parse_poly("s - x^2", variables=("x", "s", "t")),
            parse_poly("t - x^3", variables=("x", "s", "t"))]
    out = elimination_ideal(gens, ("x",))
    assert len(out) == 1
    assert is_scalar_multiple(out[0].extended(("x", "s", "t")),
                              parse_poly("s^3 - t^2", variables=("x", "s", "t")))


def test_elimination_agrees_with_resultant():
    a = parse_poly("y^2 + x*y + x^2 - 1")
    b = parse_poly("y^3 - x")
    out = elimination_ideal([a, b], ("y",))
    r = resultant(a, b, "y")
    assert len(out) == 1
    assert is_scalar_multiple(out[0].extended(("x", "y")), r)


def test_elimination_rejects_what_it_cannot_eliminate():
    with pytest.raises(ValueError, match="no nonzero generators"):
        elimination_ideal([X - X, MultiPoly.zero(("x", "y"))], ("x",))
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        elimination_ideal([X * Y - 1], ("x", "z"))


def test_elimination_with_several_eliminants_is_pinned():
    # the eliminants of the minimal basis, reduced among themselves, must
    # give the reduced basis of I ∩ k[s, t, u]; these values were recorded
    # from an engine that reduced the whole basis
    allv = ("x", "s", "t", "u")
    q_gens = [parse_poly(g, allv) for g in ("s - x^2 - 2*x", "t - x^3 + x", "u - x^4")]
    assert [format_poly(p) for p in elimination_ideal(q_gens, ("x",))] == [
        "s^2 + 2*s*t + t^2 - s*u - s - 2*t - 3*u",
        "2*s*t*u + t^2*u - s*u^2 + 2*s*t + 3*t^2 + 2*t*u - 2*u^2 + s + 2*t + 2*u",
        "2*t^3 + t^2*u - s*u^2 - t^2 + 6*t*u + 2*u^2 + s + 2*t - 2*u",
        "s*t^2 + t^2 + s*u - 2*t*u - u^2 - s - 2*t + u"]
    z3_gens = [parse_poly(g, allv).in_field(CyclotomicField(3))
               for g in ("s - x^2 - 2*zeta(3)*x", "t - x^3 + x", "u - x^4")]
    assert [format_poly(p) for p in elimination_ideal(z3_gens, ("x",))] == [
        "s^2 + (2*zeta(3))*s*t + t^2 - s*u - s + (-2*zeta(3))*t + (4*zeta(3)+5)*u",
        "2*s*t*u + (-zeta(3)-1)*t^2*u + (zeta(3)+1)*s*u^2 + 2*s*t + (5*zeta(3)+1)*t^2"
        " + 2*t*u + (-6*zeta(3)-2)*u^2 + (-zeta(3)-1)*s + 2*t + (6*zeta(3)+2)*u",
        "2*t^3 + (-zeta(3)-1)*t^2*u + (zeta(3)+1)*s*u^2 + (zeta(3)+1)*t^2 + 6*t*u"
        " + (-2*zeta(3)-2)*u^2 + (-zeta(3)-1)*s + 2*t + (2*zeta(3)+2)*u",
        "s*t^2 + t^2 + s*u + (-2*zeta(3))*t*u - u^2 - s + (-2*zeta(3))*t + u"]
    # one of the eliminants has a tail that the others reduce
    gb = buchberger(q_gens, block_order(allv, ("x",)))
    assert gb.basis != interreduce(gb).basis


def test_budget_interrupts():
    gens = [parse_poly("x^4 + y^3 - 1"), parse_poly("x^2*y + x*y^2 - 7")]
    with pytest.raises(ResourceBudgetExceeded), \
            under_budget(ComputationBudget(max_pair_reductions=1)):
        buchberger(gens)
    # generous budget sails through
    with under_budget(ComputationBudget(max_pair_reductions=10000)):
        buchberger(gens)


def test_budget_stop_reports_progress():
    # the unlimited run reduces 3 pairs; each smaller limit stops right
    # after its last allowed reduction, with the live basis at that point
    gens = [parse_poly("x^4 + y^3 - 1"), parse_poly("x^2*y + x*y^2 - 7")]
    assert buchberger(gens).stats["pair_reductions"] == 3
    for limit, live in ((0, 2), (1, 3), (2, 4)):
        with pytest.raises(ResourceBudgetExceeded) as exc, \
                under_budget(ComputationBudget(max_pair_reductions=limit)):
            buchberger(gens)
        assert exc.value.stats == {"pair_reductions": limit,
                                   "zero_reductions": 0, "basis_size": live}


small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
expo = st.tuples(st.integers(0, 3), st.integers(0, 3))
XYZ = ("x", "y", "z")


def polys(max_terms=4):
    return st.dictionaries(expo, small, min_size=1, max_size=max_terms).map(
        lambda d: MultiPoly(("x", "y"), d, QQ))


def _weighted_ideals_for(weights):
    by_degree = {}
    for e in itertools.product(range(6), repeat=len(weights)):
        d = sum(w * x for w, x in zip(weights, e))
        if 1 <= d <= 5:
            by_degree.setdefault(d, []).append(e)
    degrees = sorted(d for d, exps in by_degree.items() if len(exps) > 1)
    generator = st.sampled_from(degrees).flatmap(
        lambda d: st.dictionaries(st.sampled_from(by_degree[d]), small.filter(bool),
                                  min_size=2, max_size=3))
    return st.lists(generator.map(lambda terms: MultiPoly(XYZ, terms, QQ)),
                    min_size=2, max_size=3)


# ideals of Q[x, y, z] whose generators are each homogeneous for random
# weights in 1..3, so buchberger selects pairs by weighted degree
weighted_ideals = st.tuples(*[st.integers(1, 3)] * 3).flatmap(_weighted_ideals_for)


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.lists(polys(), min_size=1, max_size=3), weighted_ideals))
def test_every_generator_reduces_to_zero(gens):
    gens = [g for g in gens if g.terms]
    if not gens:
        return
    basis = buchberger(gens)
    for g in gens:
        assert not normal_form(g, basis).terms


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(polys(3), min_size=2, max_size=2), weighted_ideals))
def test_spolynomials_reduce_to_zero(gens):
    # the defining property of a Groebner basis, whatever the pair selection
    gens = [g for g in gens if g.terms]
    if not gens:
        return
    order = DegRevLex()
    basis = buchberger(gens, order)
    polys_ = basis.basis
    for i in range(len(polys_)):
        for j in range(i + 1, len(polys_)):
            ei, ci = polys_[i].leading(order)
            ej, cj = polys_[j].leading(order)
            lcm = tuple(max(u, v) for u, v in zip(ei, ej))
            mi = MultiPoly(basis.vars,
                           {tuple(l - u for l, u in zip(lcm, ei)):
                            Fraction(1) / Fraction(ci)}, QQ)
            mj = MultiPoly(basis.vars,
                           {tuple(l - u for l, u in zip(lcm, ej)):
                            Fraction(1) / Fraction(cj)}, QQ)
            spoly = polys_[i] * mi - polys_[j] * mj
            assert not normal_form(spoly, basis).terms


def _up_to_scalars(terms):
    """A polynomial's term dict, scaled to make one fixed coefficient 1."""
    c = Fraction(terms[max(terms)])
    return frozenset((e, Fraction(a) / c) for e, a in terms.items())


def _sympy_reduced_basis(gens, order_name):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(XYZ)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.prod(v ** k for v, k in zip(syms, e))
                 for e, c in g.terms.items()) for g in gens]
    got = sympy.groebner(exprs, *syms, order=order_name, domain="QQ")
    return {_up_to_scalars({e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})
            for p in got.polys}


@settings(max_examples=20, deadline=None)
@given(weighted_ideals)
def test_reduced_basis_matches_sympy(gens):
    # an independent implementation; the reduced basis is unique up to scalars
    for order, order_name in ((DegRevLex(), "grevlex"), (Lex(), "lex")):
        ours = {_up_to_scalars(g.terms) for g in interreduce(buchberger(gens, order)).basis}
        assert ours == _sympy_reduced_basis(gens, order_name)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(polys(3), min_size=1, max_size=3), weighted_ideals),
       st.integers(0, 2))
def test_buchberger_returns_the_minimal_basis(gens, which):
    # no lead divides another, and the leads are the reduced basis's
    gens = [g for g in gens if g.terms]
    assume(gens)
    order = _engine_orders(len(gens[0].vars))[which]
    try:
        with under_budget(ComputationBudget(max_pair_reductions=40)):
            gb = buchberger(gens, order)
    except ResourceBudgetExceeded:
        assume(False)
    for a, b in itertools.permutations(gb.leads, 2):
        assert not all(x <= y for x, y in zip(a, b))
    reduced = interreduce(gb)
    assert reduced.leads == gb.leads == [g.leading(order)[0] for g in reduced.basis]
    assert reduced.stats == gb.stats


def branch_ideal_generators(f):
    """<J_f, s - f1, t - f2>, whose elimination of x, y gives the branch curve."""
    allv = ("x", "y", "s", "t")
    return [critical_ideal(f).extended(allv),
            MultiPoly.variable("s", allv, f.field) - f.f1.extended(allv),
            MultiPoly.variable("t", allv, f.field) - f.f2.extended(allv)]


def test_grading_of_branch_and_local_generators():
    # invariants of degrees 4 and 6 make the G_4 branch ideal weighted
    g4 = branch_ideal_generators(quotient_map(exceptional_group(4)))
    assert _grading(g4) == (1, 1, 4, 6)
    # the cyclic and product rows are multigraded; free weights are 1
    for spec, weights in (("Z_3", (1, 1, 1, 3)), ("Z_2xZ_3", (1, 1, 2, 3))):
        gens = branch_ideal_generators(quotient_map(parse_group_spec(spec)))
        assert _grading(gens) == weights, spec
    # an automorphism on each side destroys every grading
    shear = PlaneAutomorphism.triangular(parse_poly("x^2 + 1"), lower=True)
    moved = compose(make_family("whitney"), pre=shear,
                    post=PlaneAutomorphism.linear(1, 2, 1, 3))
    assert _grading(branch_ideal_generators(moved)) is None
    # homogenizing with one new variable makes any generators standard-graded
    F = parse_poly("x^4 + x^2*y + y^4")
    gens = [derivative(F, v) for v in F.vars]
    assert _grading(gens) is None
    homogenized = [MultiPoly(("x", "y", "h"),
                             {e + (g.total_degree() - sum(e),): c
                              for e, c in g.terms.items()}, QQ)
                   for g in gens]
    assert _grading(homogenized) == (1, 1, 1)


def test_g4_elimination_stats():
    # the normal strategy took 4431 pair reductions, 3178 of them zero
    gens = branch_ideal_generators(quotient_map(exceptional_group(4)))
    gb = buchberger(gens, block_order(("x", "y", "s", "t"), ("x", "y")))
    assert gb.stats == {"pair_reductions": 30, "zero_reductions": 17,
                        "basis_size": 14}


@settings(max_examples=20, deadline=None)
@given(polys(2), polys(2))
def test_elimination_matches_resultant_random(a, b):
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
# exact division: the engine's fraction-free division loop against the
# textbook division with one field quotient per step

def _engine_remainder(p, basis):
    """Remainder of p by the basis from the engine's division loop: exact
    over Q(zeta_N), up to a positive factor over Q, where the loop takes
    the integral multiple of p."""
    terms = p.terms if p.field.is_cyclotomic else integral_terms(p.terms)[0]

    def divide(packing):
        rterms = _reduce_terms({packing.pack(e): c for e, c in terms.items()},
                               _entries(basis, packing), packing, p.field)
        return MultiPoly(p.vars, {packing.unpack(m): c for m, c in rterms.items()}, p.field)

    return _packed(divide, len(p.vars), basis.order)


def _assert_exact_normal_forms(basis, p, rescale):
    # rescaling the basis by a non-integral constant changes every leading
    # coefficient but not the ideal, so the remainder must not change;
    # over Q the engine's remainder is exact up to a factor, so primitive
    # associates are compared
    scaled = IdealBasis(basis.order, [g * rescale for g in basis.basis], basis.leads)
    want = normal_form(p, basis)
    assert normal_form(p, scaled) == want
    for b in (basis, scaled):
        got = _engine_remainder(p, b)
        if p.field.is_cyclotomic:
            assert got == want
        else:
            assert primitive_normalize(got) == primitive_normalize(want)


fractional = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(
    lambda q: q.denominator != 1)
exact_orders = st.sampled_from((DegRevLex(), Lex(), block_order(("x", "y"), ("x",))))


@settings(max_examples=40, deadline=None)
@given(st.lists(polys(3), min_size=2, max_size=2),
       st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), fractional,
                       min_size=1, max_size=6),
       exact_orders, st.sampled_from((Fraction(3, 7), Fraction(-5, 2), 6)))
def test_normal_form_is_exact_over_q(gens, terms, order, rescale):
    gens = [g for g in gens if g.terms]
    assume(gens)
    basis = buchberger(gens, order)
    _assert_exact_normal_forms(basis, MultiPoly(("x", "y"), terms, QQ), rescale)


Q12 = CyclotomicField(12)
q12_coeffs = st.tuples(*[st.integers(-3, 3)] * 4, st.integers(1, 3)).map(
    lambda v: CycloNumber(12, tuple(Fraction(c, v[4]) for c in v[:4])))


def q12_polys(max_terms, max_exp):
    exps = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(exps, q12_coeffs.filter(bool), min_size=1,
                           max_size=max_terms).map(lambda d: MultiPoly(("x", "y"), d, Q12))


@settings(max_examples=25, deadline=None)
@given(st.lists(q12_polys(3, 2), min_size=2, max_size=2), q12_polys(5, 4), exact_orders)
def test_normal_form_is_exact_over_q12(gens, p, order):
    try:
        with under_budget(ComputationBudget(max_pair_reductions=40)):
            basis = buchberger(gens, order)
    except ResourceBudgetExceeded:
        assume(False)
    _assert_exact_normal_forms(basis, p, CycloNumber(12, (1, 2, 0, Fraction(-1, 3))))


def test_cyclotomic_division_takes_no_inverse(monkeypatch):
    # the entries are made monic when they are built, so each division step
    # subtracts the term's coefficient times its reducer: dividing by a
    # rescaled, non-monic basis inverts nothing inside the loop
    gb = buchberger([parse_poly("zeta(3)*x^2*y - 2*y + 1"),
                     parse_poly("x*y^2 + 3*x + zeta(3)")])
    basis = IdealBasis(gb.order, [g * CycloNumber(3, (3, 1)) for g in gb.basis], gb.leads)
    p = parse_poly("(zeta(3) + 2)*(x^4*y^3 - 1/2*x^2*y^2 + 5*x*y + 7)")

    def no_inverse(self):
        raise AssertionError("the division loop inverted a coefficient")

    def divide(packing):
        entries = _entries(basis, packing)
        with monkeypatch.context() as patch:
            patch.setattr(CycloNumber, "inverse", no_inverse)
            terms = _reduce_terms({packing.pack(e): c for e, c in p.terms.items()},
                                  entries, packing, p.field)
        return MultiPoly(p.vars, {packing.unpack(m): c for m, c in terms.items()}, p.field)

    got = _packed(divide, 2, basis.order)
    assert got.terms
    assert got == normal_form(p, basis)


def _auto(a, b, c, d, shear):
    lower = parse_poly(shear, ("x", "y"))
    return PlaneAutomorphism.linear(a, b, c, d).then(
        PlaneAutomorphism.triangular(lower, lower=True))


# graph ideals <s - g1, t - g2> of composed maps under the block order that
# eliminates (x, y); the stats and reduced bases were recorded with the
# Fraction-division engine, and fraction-free division must reproduce them
COMPOSED_GRAPH_BASES = [
    (("product", {"m": 2, "n": 3}, (3, 1, 1, 1, "x"), (2, 3, -1, -2, "-x^2 + 2")),
     {"pair_reductions": 4, "zero_reductions": 1, "basis_size": 3},
     ["9*x^2 + 6*x*y + y^2 - 3*s^2 - 2*s - 3*t + 6",
      "144*x*y^2 + 56*y^3 + 576*x*s^2 + 480*y*s^2 + 384*x*s + 320*y*s + 54*s^2"
      " + 576*x*t + 480*y*t - 1152*x - 960*y + 27*s + 54*t - 108",
      "8*y^4 - 4608*x*y*s^2 - 2112*y^2*s^2 - 3456*s^4 - 3072*x*y*s - 1408*y^2*s"
      " - 972*x*s^2 - 270*y*s^2 - 4608*s^3 - 4608*x*y*t - 2112*y^2*t - 6912*s^2*t"
      " + 9216*x*y + 4224*y^2 - 486*x*s - 135*y*s + 12288*s^2 - 972*x*t - 270*y*t"
      " - 4608*s*t - 3456*t^2 + 1944*x + 540*y + 9216*s + 13824*t - 13824"]),
    (("pinch", {"d": 4}, (1, -1, 2, 1, "x"), (1, 2, 0, 3, "x^2 - 1")),
     {"pair_reductions": 6, "zero_reductions": 2, "basis_size": 4},
     ["12*x*s^4 - 12*y*s^4 + 18*x*y*s^2 - 18*y^2*s^2 + 36*x*s^3 - 36*y*s^3 - 28*s^4"
      " - 24*x*s^2*t + 24*y*s^2*t + 27*x*y*s - 27*y^2*s + 270*x*s^2 - 63*y*s^2"
      " - 84*s^3 - 18*x*y*t + 18*y^2*t - 36*x*s*t + 36*y*s*t + 56*s^2*t + 12*x*t^2"
      " - 12*y*t^2 - 234*x*y - 9*y^2 + 324*x*s - 54*y*s - 94*s^2 - 243*x*t + 36*y*t"
      " + 84*s*t - 28*t^2 + 321*x - 96*y - 60*s + 31*t + 59",
      "9*x^2 - 9*x*y - 2*s^2 + 12*x - 3*y - 3*s + 2*t + 2",
      "-16*s^6 + 1644*x*s^4 - 1428*y*s^4 - 72*s^5 + 48*s^4*t - 1134*y^2*s^2"
      " + 4932*x*s^3 - 4284*y*s^3 - 3420*s^4 - 3288*x*s^2*t + 2856*y*s^2*t"
      " + 144*s^3*t - 48*s^2*t^2 + 1458*y^3 + 243*x*y*s - 1701*y^2*s + 31182*x*s^2"
      " - 5559*y*s^2 - 9936*s^3 + 1134*y^2*t - 4932*x*s*t + 4284*y*s*t + 6732*s^2*t"
      " + 1644*x*t^2 - 1428*y*t^2 - 72*s*t^2 + 16*t^3 - 33048*x*y + 891*y^2"
      " + 36324*x*s - 3438*y*s - 9258*s^2 - 27483*x*t + 2346*y*t + 9882*s*t"
      " - 3312*t^2 + 31353*x - 11346*y - 5166*s + 1887*t + 5215",
      "-16*s^6 + 996*x*s^4 - 780*y*s^4 - 72*s^5 + 48*s^4*t - 1134*y^2*s^2"
      " + 2988*x*s^3 - 2340*y*s^3 - 2124*s^4 - 1992*x*s^2*t + 1560*y*s^2*t"
      " + 144*s^3*t - 48*s^2*t^2 + 1458*x*y^2 + 243*x*y*s - 1701*y^2*s + 19194*x*s^2"
      " - 4101*y*s^2 - 6048*s^3 + 1134*y^2*t - 2988*x*s*t + 2340*y*s*t + 4140*s^2*t"
      " + 996*x*t^2 - 780*y*t^2 - 72*s*t^2 + 16*t^3 - 17496*x*y - 81*y^2"
      " + 22716*x*s - 3438*y*s - 6450*s^2 - 16953*x*t + 2346*y*t + 5994*s*t"
      " - 2016*t^2 + 21795*x - 6810*y - 3870*s + 1995*t + 4027"]),
    (("pinch", {"d": 3}, (2, 1, 1, 1, "0"), (3, 2, 1, 1, "x^2")),
     {"pair_reductions": 4, "zero_reductions": 1, "basis_size": 3},
     ["16*s^4 - 24*x*s^2 - 14*y*s^2 + 16*s^3 - 32*s^2*t + y^2 - 14*x*s - 9*y*s"
      " + 31*s^2 + 24*x*t + 14*y*t - 16*s*t + 16*t^2 - 27*x - 18*y + 12*s - 27*t",
      "-8*s^4 + 14*x*s^2 + 8*y*s^2 - 8*s^3 + 16*s^2*t + x*y + 8*x*s + 5*y*s - 17*s^2"
      " - 14*x*t - 8*y*t + 8*s*t - 8*t^2 + 18*x + 12*y - 7*s + 15*t",
      "4*s^4 - 9*x*s^2 - 5*y*s^2 + 4*s^3 - 8*s^2*t + x^2 - 5*x*s - 3*y*s + 9*s^2"
      " + 9*x*t + 5*y*t - 4*s*t + 4*t^2 - 12*x - 8*y + 4*s - 8*t"]),
]


@pytest.mark.parametrize("spec, stats, basis", COMPOSED_GRAPH_BASES,
                         ids=["product23", "pinch4", "pinch3"])
def test_composed_graph_bases_are_pinned(spec, stats, basis):
    name, params, pre, post = spec
    g = compose(make_family(name, **params), pre=_auto(*pre), post=_auto(*post))
    allv = ("x", "y", "s", "t")
    gens = [MultiPoly.variable(v, allv) - c.extended(allv)
            for v, c in zip(("s", "t"), (g.f1, g.f2))]
    gb = interreduce(buchberger(gens, block_order(allv, ("x", "y"))))
    assert gb.stats == stats
    assert [format_poly(p) for p in gb.basis] == basis


# ---------------------------------------------------------------------------
# the packed layer: monomials as ints with a guard bit above each field, and
# the order as one linear int key


def _engine_orders(n):
    """The three monomial orders the engine runs, on n variables."""
    names = tuple("xyzw"[:n])
    return Lex(), DegRevLex(), block_order(names, names[:n // 2])


def _monomials(n, bits):
    top = (1 << bits) - 1
    exponent = st.one_of(st.sampled_from((0, 1, top - 1, top)), st.integers(0, top))
    return st.tuples(*[exponent] * n)


def _monomial_pairs(bits):
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(_monomials(n, bits), _monomials(n, bits)))


@settings(max_examples=200, deadline=None)
@given(_monomial_pairs(15))
def test_packed_monomials_match_tuple_arithmetic(pair):
    a, b = pair
    packing = _Packing(len(a), DegRevLex(), 15)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a and packing.unpack(pb) == b
    assert packing.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    lcm = packing.lcm(pa, pb)
    assert packing.unpack(lcm) == tuple(max(x, y) for x, y in zip(a, b))
    # coprime leading monomials are those whose lcm is their product
    assert (lcm == pa + pb) == all(x == 0 or y == 0 for x, y in zip(a, b))
    product = tuple(x + y for x, y in zip(a, b))
    if max(product) < 1 << 15:
        assert packing.unpack(pa + pb) == product
        packing.negkey(pa + pb)
    else:
        # the sum set a guard bit and carried no further; its key is refused
        assert (pa + pb) & packing.guard
        with pytest.raises(_ExponentOverflow):
            packing.negkey(pa + pb)


def test_ring_without_variables():
    # a nonzero constant generates the unit ideal; there is nothing to pack
    basis = buchberger([MultiPoly.constant(3, ())], Lex())
    assert basis.basis == [MultiPoly.constant(1, ())]
    assert not normal_form(MultiPoly.constant(5, ()), basis).terms


@pytest.mark.parametrize("bits", [15, 31])
def test_packing_refuses_an_exponent_past_its_fields(bits):
    packing = _Packing(2, Lex(), bits)
    packing.pack((0, (1 << bits) - 1))
    with pytest.raises(_ExponentOverflow):
        packing.pack((0, 1 << bits))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((15, 31)).flatmap(
    lambda bits: st.tuples(st.just(bits), _monomial_pairs(bits), st.integers(0, 2))))
def test_int_keys_order_like_the_order_keys(case):
    # the int key is exact only if each order's key is linear in the exponents
    bits, (a, b), which = case
    order = _engine_orders(len(a))[which]
    packing = _Packing(len(a), order, bits)
    ka = -packing.negkey(packing.pack(a))
    kb = -packing.negkey(packing.pack(b))
    ta, tb = order.key(a), order.key(b)
    assert (ka < kb, ka == kb) == (ta < tb, ta == tb)


@pytest.mark.parametrize("gens, basis, stats, remainder", [
    # the S-polynomial holds y^40000, past 15 bits; x^40000*y reduces to
    # y^1600000001 = (y^60000)^26666 * y^40001 = y^40001
    (("x^2 + y^20000", "x*y^20000 + 1"), ["y^60000 + 1", "-y^40000 + x"],
     {"pair_reductions": 3, "zero_reductions": 1, "basis_size": 2}, "y^40001"),
    # an input exponent past 15 bits; x^40000*y reduces to y^80001 = y^2
    (("x^40000 - y", "y^2 - x"), ["y^80000 - y", "-y^2 + x"],
     {"pair_reductions": 1, "zero_reductions": 0, "basis_size": 2}, "y^2"),
])
def test_large_exponents_widen_the_packing(gens, basis, stats, remainder):
    gb = interreduce(buchberger([parse_poly(g) for g in gens], Lex()))
    assert [format_poly(p) for p in gb.basis] == basis
    assert gb.stats == stats
    assert _engine_remainder(parse_poly("x^40000*y"), gb) == parse_poly(remainder)


@settings(max_examples=30, deadline=None)
@given(weighted_ideals, st.sampled_from((DegRevLex(), Lex())))
def test_weighted_and_normal_selection_agree(gens, order):
    # a redundant generator that no positive weights make homogeneous
    # switches selection from weighted degree to the normal strategy; the
    # reduced basis of the ideal must not change
    assume(_grading(gens) is not None)
    redundant = gens[0] * (MultiPoly.variable("x", XYZ) + 1)
    assert _grading(gens + [redundant]) is None
    assert (interreduce(buchberger(gens + [redundant], order)).basis
            == interreduce(buchberger(gens, order)).basis)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(polys(3), min_size=1, max_size=3),
                 st.lists(q12_polys(3, 2), min_size=2, max_size=2)),
       st.integers(0, 2))
def test_engine_leads_are_the_leading_exponents(gens, which):
    # the engine hands over the leads it knew packed; reading them again
    # off the basis under the order's tuple key must give the same list
    gens = [g for g in gens if g.terms]
    assume(gens)
    order = _engine_orders(2)[which]
    try:
        with under_budget(ComputationBudget(max_pair_reductions=40)):
            gb = buchberger(gens, order)
    except ResourceBudgetExceeded:
        assume(False)
    assert gb.leads == [g.leading(order)[0] for g in gb.basis]


# ---------------------------------------------------------------------------
# the Gebauer-Moeller pair update against the quadratic update it replaced


def _gm_update_quadratic(pairs, entries, new, packing):
    """The pair update that tested criterion M candidate against candidate."""
    t = new.index
    lead = new.lead_exp
    guard = packing.guard
    lcm_with_new = {g.index: packing.lcm(g.lead_exp, lead)
                    for g in entries if g.index != t}
    survivors = {}
    for (i, j), lcm in pairs.items():
        if (((lcm | guard) - lead) & guard == guard
                and lcm_with_new[i] != lcm and lcm_with_new[j] != lcm):
            continue
        survivors[(i, j)] = lcm
    fresh = {g.index: lcm_with_new[g.index] for g in entries
             if not g.retired and g.index != t}
    kept = {}
    for i, lcm in fresh.items():
        lg = lcm | guard
        dominated = any(other != lcm and (lg - other) & guard == guard
                        for other in fresh.values())
        if not dominated:
            kept[i] = lcm
    classes = {}
    for i, lcm in sorted(kept.items()):
        classes.setdefault(lcm, []).append(i)
    for lcm, members in classes.items():
        if any(lcm == entries[i].lead_exp + lead for i in members):
            continue
        survivors[(members[0], t)] = lcm
    return survivors


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.booleans()),
    min_size=2, max_size=10)), st.randoms(use_true_random=False))
def test_pair_update_matches_the_quadratic_update(leads, rnd):
    # random leads, some retired, and a random old pair set among them;
    # the new element is the last
    packing = _Packing(len(leads[0][0]), DegRevLex(), 15)
    entries = []
    for k, (exps, retired) in enumerate(leads):
        m = packing.pack(exps)
        entries.append(_Entry({m: 1}, m, k, QQ))
        entries[-1].retired = retired and k < len(leads) - 1
    new = entries[-1]
    pairs = {(i, j): packing.lcm(entries[i].lead_exp, entries[j].lead_exp)
             for i, j in itertools.combinations(range(new.index), 2) if rnd.random() < 0.5}
    want = _gm_update_quadratic(dict(pairs), entries, new, packing)
    # the live entries in any order: the engine keeps them sorted by lead
    active = [g for g in entries[:-1] if not g.retired]
    rnd.shuffle(active)
    got = dict(pairs)
    added = _gm_update(got, entries, active, new, packing)
    assert got == want
    assert added == {ij: lcm for ij, lcm in want.items() if ij[1] == new.index}


# ---------------------------------------------------------------------------
# the staircase count against enumeration of the standard monomials


def _standard_in_box(leads, n):
    return sum(not any(a <= i and b <= j for a, b in leads)
               for i in range(n) for j in range(n))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8),
       st.lists(st.integers(0, 6), max_size=2), st.lists(st.integers(0, 6), max_size=2))
def test_staircase_count_matches_enumeration(leads, x_powers, y_powers):
    # every standard monomial of a finite staircase lies below the largest
    # exponent of a lead, so a count that grows with the box is infinite;
    # leads come unsorted, repeated and not minimal, and may hold a unit
    leads = leads + [(a, 0) for a in x_powers] + [(0, b) for b in y_powers]
    top = max((max(e) for e in leads), default=0)
    inner, outer = _standard_in_box(leads, top + 1), _standard_in_box(leads, top + 2)
    assert staircase_count(leads) == (inner if inner == outer else math.inf)


# ---------------------------------------------------------------------------
# bases decoded where they are read


def _recording_bases(monkeypatch):
    """Every basis the engine returns from here on, to any caller."""
    bases = []

    def recording(*args, **kwargs):
        basis = buchberger(*args, **kwargs)
        bases.append(basis)
        return basis

    for module in (groebner, maps, curves):
        monkeypatch.setattr(module, "buchberger", recording)
    return bases


def _decoded(basis):
    return [k for k, p in enumerate(basis.basis._polys) if p is not None]


def test_leads_only_callers_decode_nothing(monkeypatch):
    bases = _recording_bases(monkeypatch)
    f = quotient_map(exceptional_group(4))
    assert is_proper(f)
    assert topological_degree(f) == 24
    assert distinguish_by_milnor(make_family("pinch", d=3)) == [1]
    assert len(bases) == 4    # distinguish_by_milnor checks properness first
    assert all(_decoded(b) == [] for b in bases)


def test_elimination_decodes_only_its_eliminants(monkeypatch):
    bases = _recording_bases(monkeypatch)
    gens = branch_ideal_generators(quotient_map(exceptional_group(4)))
    (branch,) = elimination_ideal(gens, ("x", "y"))
    (gb,) = bases
    free = [k for k, e in enumerate(gb.leads) if not any(e[:2])]
    assert len(gb.leads) == 14 and len(free) == 1
    assert _decoded(gb) == free
    assert branch.total_degree() == 3


def test_decoded_basis_keeps_no_packing():
    # what a basis holds after the run: its packed terms, their field
    # layout and the decoded polynomials, but not the packing and its key memo
    gb = buchberger(branch_ideal_generators(quotient_map(exceptional_group(4))),
                    block_order(("x", "y", "s", "t"), ("x", "y")))
    seen, todo = set(), [gb]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (_Packing, types.FunctionType)), obj
        todo.extend(gc.get_referents(obj))
    assert gb.basis == list(gb.basis) and gb.basis[-1] is gb.basis[len(gb.basis) - 1]
