"""Plane maps: properness, degree, branch loci, and Jacobian structure."""

import random
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobian_branch, resultant
from polymap import groebner, maps
from polymap.groebner import (ComputationBudget, ResourceBudgetExceeded,
                              buchberger, elimination_ideal, staircase_count,
                              under_budget)
from polymap.maps import (PlaneAutomorphism, PolyMap, _target_reduced,
                          _target_to, branch_ideal, branch_status, compose, critical_ideal,
                          _is_monic_in, integral_relation_check, is_proper,
                          make_family, topological_degree, verify_branch)
from polymap.numberfield import zeta
from polymap.parser import parse_map, parse_poly
from polymap.polyring import (CyclotomicField, MultiPoly, QQ, block_order, divides,
                              is_scalar_multiple, primitive_normalize,
                              squarefree_decomposition, substitute)
from polymap.refgroups import claimed_branch, default_table4_rows, quotient_map

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


def pmap(text):
    return PolyMap(*parse_map(text))


def _squarefree_part(p):
    return squarefree_decomposition(p)[0]


def _is_squarefree(p):
    return squarefree_decomposition(p)[1].keys() <= {1}


def test_polymap_basics():
    f = pmap("(x, y^3 + x*y)")
    assert f.f1 == X and f.f2 == Y ** 3 + X * Y
    assert f == pmap("x, y^3 + x*y")
    with pytest.raises(ValueError):
        PolyMap(parse_poly("u", variables=("u", "v")),
                parse_poly("v", variables=("u", "v")))


def test_families():
    assert make_family("whitney") == pmap("(x, y^3 + x*y)")
    assert make_family("power", d=4) == pmap("(x, y^4)")
    assert make_family("product", m=2, n=3) == pmap("(x^2, y^3)")
    assert make_family("pinch", d=4) == pmap("(x + y + x*y, x^3*y)")
    assert make_family("shifted_power", d=3, n=2) == pmap("(x, y^3 - 3*x^2*y)")
    q = parse_poly("y^3 - 2*x*y + 1")
    assert make_family("semi_separate", q=q) == PolyMap(X, q)
    with pytest.raises(ValueError):
        make_family("no-such-family")
    with pytest.raises(ValueError):
        make_family("pinch", d=1)


def test_semi_separate_needs_q_monic_in_y():
    # a unit leading coefficient counts as monic; an x-dependent one does not
    q = parse_poly("2*y^2 + x")
    assert make_family("semi_separate", q=q) == PolyMap(X, q)
    with pytest.raises(ValueError, match="monic in y"):
        make_family("semi_separate", q=parse_poly("x*y^2 + 1"))


def test_monic_in_y():
    assert _is_monic_in(parse_poly("y^3 - 2*x*y + x^2"), "y")
    assert not _is_monic_in(parse_poly("x*y^3 + y"), "y")


def test_properness_frozen():
    assert not is_proper(pmap("(x + x^2*y, y)"))
    assert is_proper(pmap("(x, y^2)"))
    assert is_proper(make_family("whitney"))
    assert is_proper(make_family("pinch", d=3))
    # a coordinate projection collapses fibers
    assert not is_proper(pmap("(x, x*y)"))
    # algebraically dependent components: the image is the curve s^3 = t^2
    with pytest.raises(ValueError):
        is_proper(pmap("(x^2, x^3)"))
    with pytest.raises(ValueError):
        topological_degree(pmap("(x + y, (x + y)^2)"))


def test_degree_frozen():
    assert topological_degree(pmap("(x, y^2)")) == 2
    assert topological_degree(make_family("whitney")) == 3
    assert topological_degree(make_family("product", m=2, n=3)) == 6
    for d in (3, 4, 5):
        assert topological_degree(make_family("pinch", d=d)) == d


def test_degree_counts_generic_fiber_of_non_proper_map():
    # x + x^2*t = s has two roots for t != 0; the fiber over t = 0 is smaller
    f = pmap("(x + x^2*y, y)")
    assert not is_proper(f)
    assert topological_degree(f) == 2


def test_degree_budget():
    with pytest.raises(ResourceBudgetExceeded), \
            under_budget(ComputationBudget(max_pair_reductions=1)):
        topological_degree(make_family("pinch", d=5))


def test_branch_whitney_frozen():
    gens = branch_ideal(make_family("whitney"))
    assert len(gens) == 1
    assert is_scalar_multiple(gens[0], parse_poly("4*x^3 + 27*y^2"))


def test_branch_degenerate_inputs():
    # automorphisms have empty critical sets: the unit ideal comes back
    gens = branch_ideal(pmap("(x + y, y)"))
    assert len(gens) == 1 and gens[0].is_constant()
    # identically vanishing Jacobians are rejected
    with pytest.raises(ValueError):
        branch_ideal(pmap("(x, x)"))


def test_branch_of_power_map():
    gens = branch_ideal(pmap("(x, y^3)"))
    # critical locus y = 0 maps onto the target's y = 0; elimination sees
    # the reduced image
    assert gens == [Y]


def test_branch_over_the_squarefree_part_equals_the_elimination_over_J_on_table4():
    # every quotient map is proper, so eliminating over F = sqf(J) gives
    # the generators of the elimination over J itself, G_21 and G_22
    # included; J carries each mirror e_H - 1 times, so on 30 rows J != F
    rows = default_table4_rows()
    assert len(rows) == 43 and {"G_21", "G_22"} <= {rec.label for rec in rows}
    repeated = 0
    for rec in rows:
        f = quotient_map(rec)
        repeated += not _is_squarefree(critical_ideal(f))
        assert branch_ideal(f) == jacobian_branch(f), rec.label
    assert repeated == 30


def test_branch_over_the_squarefree_part_equals_the_elimination_over_J_under_automorphisms():
    # proper maps whose Jacobians have repeated factors, composed on both
    # sides with an affine map and a quadratic shear: the oracle eliminates
    # the composite as given, branch_ideal its shear-stripped form over F.
    # (Larger bases such as Z_3xZ_3 are left out: eliminating most of their
    # composites as given stalls in one reduction, the ungraded-input defect.)
    rows = {rec.label: rec for rec in default_table4_rows()}
    bases = [make_family("power", d=3), make_family("power", d=4),
             quotient_map(rows["Z_2xZ_4"]), quotient_map(rows["Z_2xZ_3"])]
    rng = random.Random(7)
    for base in bases:
        assert not _is_squarefree(critical_ideal(base))
        for _ in range(4):
            f = compose(base, pre=_automorphism(rng), post=_automorphism(rng))
            assert branch_ideal(f) == jacobian_branch(f), f


def test_branch_of_a_collapsed_repeated_critical_curve_is_the_radical():
    # (x, x^2*y) collapses its critical line x = 0, where J = x^2, to the
    # origin: the branch ideal is the origin's, the radical of the
    # elimination over J
    f = pmap("(x, x^2*y)")
    assert branch_ideal(f) == [Y, X]
    assert jacobian_branch(f) == [Y, X ** 2]
    tiers = verify_branch(f, X)
    assert tiers["substitution_divisible"] and tiers["elimination"] == "fail"
    assert branch_status(tiers) == "fail"


def test_verify_branch_builds_the_squarefree_part_once(monkeypatch):
    # tier one and the elimination share F and its strata from one
    # decomposition of J, also when the map sheds a target shear first,
    # and tier two decomposes the claim
    calls = []
    real = maps.squarefree_decomposition
    monkeypatch.setattr(maps, "squarefree_decomposition",
                        lambda p: calls.append(p) or real(p))
    f = pmap("(x, y^3 + x^4)")
    claim = parse_poly("y - x^4")
    assert _target_reduced(f)[1]
    tiers = verify_branch(f, claim)
    assert branch_status(tiers) == "pass" and tiers["elimination"] == "pass"
    assert calls == [3 * Y ** 2, claim]


def _eliminated_over(monkeypatch):
    """The polynomials of the source plane that each branch elimination runs over."""
    over = []
    real = maps.elimination_ideal

    def recording(gens, *args):
        over.append(gens[0].restricted(("x", "y")))
        return real(gens, *args)
    monkeypatch.setattr(maps, "elimination_ideal", recording)
    return over


def _plain_branch(f):
    """One elimination over F = sqf(J), with no strata."""
    allv = ("x", "y", "s", "t")
    gens = [_squarefree_part(critical_ideal(f)).extended(allv),
            MultiPoly.variable("s", allv, f.field) - f.f1.extended(allv),
            MultiPoly.variable("t", allv, f.field) - f.f2.extended(allv)]
    return [q.rename(("x", "y")) for q in elimination_ideal(gens, ("x", "y"))]


@pytest.mark.parametrize("text, strata, fallback, want", [
    # J = 2*x^2*y: the line x = 0 collapses to the origin, whose ideal is
    # not principal, so the one elimination over F decides
    ("(x, x^2*y^2)", ["y", "x"], True, "y"),
    # J = x^2*(2*y - 1): the same, and the origin lies on the image parabola
    ("(x, x^2*y*(y-1))", ["2*y - 1", "x"], True, "x^2 + 4*y"),
    # pinch: J = x^2*(x - 3*y - 2*x*y), each stratum maps onto a curve, and
    # the branch curve is the lcm of the two
    ("(x+y+x*y, x^3*y)", ["x - 3*y - 2*x*y", "x"], False,
     "27*x^4*y - 4*x^3*y^2 + 6*x^2*y^2 - 192*x*y^2 + 27*y^3 - 256*y^2"),
    # J = y^2*(y - 1)*(5*y - 3): the lines y = 0 and y = 1 of two strata
    # both map onto t = 0, so the lcm is not the product
    ("(x, y^3*(y-1)^2)", ["(y - 1)*(5*y - 3)", "y"], False, "3125*y^2 - 108*y"),
], ids=["line-to-point", "line-to-point-on-parabola", "pinch", "shared-image"])
def test_branch_ideal_is_the_intersection_over_the_strata(monkeypatch, text, strata,
                                                         fallback, want):
    over = _eliminated_over(monkeypatch)
    f = pmap(text)
    assert branch_ideal(f) == [parse_poly(want)] == _plain_branch(f)
    F = _squarefree_part(critical_ideal(f))
    strata = [primitive_normalize(parse_poly(q)) for q in strata]
    assert over == strata + [F] * fallback


def test_g19_eliminates_once_per_stratum(monkeypatch):
    # J carries 30 mirrors once, 20 twice and 12 four times; the three
    # stratum bases are all the bases the row builds, its gcds included
    over = _eliminated_over(monkeypatch)
    bases = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *args: bases.append(args) or real(*args))
    rec = next(r for r in default_table4_rows() if r.label == "G_19")
    tiers = verify_branch(quotient_map(rec), claimed_branch(rec))
    assert branch_status(tiers) == "pass"
    assert [q.total_degree() for q in over] == [30, 20, 12] and len(bases) == 3


@pytest.mark.parametrize("label, text, want", [
    # J = 3*F^2 for G_4: its one stratum is F, eliminated once
    ("G_4", None, 1),
    # one basis per stratum, and the gcds of the decomposition build none
    ("G_19", None, 3),
    # J = x^2: the one stratum x is F, so its kernel, the origin's ideal,
    # is the answer with no second elimination
    (None, "(x, x^2*y)", 1),
    # J = 2*x^2*y: the strata y and x, and x's kernel is not principal,
    # so F is eliminated after them
    (None, "(x, x^2*y^2)", 3),
], ids=["G_4", "G_19", "collapsed-line", "line-to-point"])
def test_elimination_bases_per_map(monkeypatch, label, text, want):
    bases = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *args: bases.append(args) or real(*args))
    if label is None:
        f = pmap(text)
    else:
        f = quotient_map(next(r for r in default_table4_rows() if r.label == label))
    branch_ideal(f)
    assert len(bases) == want


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)], ids=["Q", "Q(zeta_3)"])
def test_homogeneous_branch_matches_the_plain_elimination(field):
    # branch_ideal, eliminating once per stratum of J, gives the generators
    # of the one elimination over the squarefree part of J
    rng = random.Random(7)
    coeffs = [0, 1, -1, 2, -3] + ([zeta(3), 1 - zeta(3) * 2] if field.is_cyclotomic else [])
    allv = ("x", "y", "s", "t")
    checked = 0
    while checked < 12:
        f = PolyMap(*(MultiPoly(("x", "y"), {(a, d - a): rng.choice(coeffs)
                                             for a in range(d + 1)}, field)
                      for d in (rng.randint(1, 4), rng.randint(1, 4))))
        J = critical_ideal(f)
        if not f.f1.terms or not f.f2.terms or not J.terms:
            continue
        gens = [_squarefree_part(J).extended(allv),
                MultiPoly.variable("s", allv, f.field) - f.f1.extended(allv),
                MultiPoly.variable("t", allv, f.field) - f.f2.extended(allv)]
        plain = elimination_ideal(gens, ("x", "y"))
        assert branch_ideal(f) == [q.rename(("x", "y")) for q in plain], f
        checked += 1


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)], ids=["Q", "Q(zeta_3)"])
def test_homogeneous_elimination_divides_the_iterated_resultant(field):
    # Res_y eliminates y from F and each graph generator, and Res_x x from
    # those two, so R = Res_x(Res_y(F, s - f1), Res_y(F, t - f2)) lies in
    # <F, s - f1, t - f2> and its generator h divides it.  Maps whose
    # ideal is not principal, and those where R cannot be formed this way
    # or is zero, are skipped.
    rng = random.Random(7)
    coeffs = [0, 1, -1, 2, -3] + ([zeta(3), 1 - zeta(3) * 2] if field.is_cyclotomic else [])
    allv = ("x", "y", "s", "t")
    checked = 0
    while checked < 6:
        f = PolyMap(*(MultiPoly(("x", "y"), {(a, d - a): rng.choice(coeffs)
                                             for a in range(d + 1)}, field)
                      for d in (rng.randint(1, 3), rng.randint(1, 3))))
        J = critical_ideal(f)
        if not f.f1.terms or not f.f2.terms or not J.terms:
            continue
        F = _squarefree_part(J).extended(allv)
        if F.degree_in("y") < 1:
            continue
        graph = [MultiPoly.variable(v, allv, field) - c.extended(allv)
                 for v, c in zip(("s", "t"), f.components())]
        gens = elimination_ideal([F, *graph], ("x", "y"))
        if len(gens) > 1:
            continue
        inner = [resultant(F, g, "y") for g in graph]
        if any(r.degree_in("x") < 1 for r in inner):
            continue
        R = resultant(*inner, "x")
        if not R.terms:
            continue
        (h,) = gens
        assert h.total_degree() > 0 and divides(h, R.restricted(("s", "t"))), f
        checked += 1


def test_verify_branch_tiers():
    f = make_family("whitney")
    good = verify_branch(f, parse_poly("4*x^3 + 27*y^2"))
    assert good["substitution_divisible"] and good["claimed_squarefree"]
    assert good["elimination"] == "pass" and branch_status(good) == "pass"
    # scalar multiples are accepted
    scaled = verify_branch(f, parse_poly("8*x^3 + 54*y^2"))
    assert branch_status(scaled) == "pass"
    # a wrong claim fails the divisibility certificate already, and the
    # elimination refutes it too
    bad = verify_branch(f, parse_poly("y"))
    assert not bad["substitution_divisible"] and bad["elimination"] == "fail"
    assert branch_status(bad) == "fail"
    # a non-squarefree claim fails tier two
    dup = verify_branch(f, parse_poly("(4*x^3 + 27*y^2)^2"))
    assert not dup["claimed_squarefree"] and branch_status(dup) == "fail"


def test_verify_branch_budget_status():
    f = make_family("pinch", d=5)
    claim = branch_ideal(f)[0]
    with under_budget(ComputationBudget(max_pair_reductions=2)):
        check = verify_branch(f, claim)
    assert check["elimination"] == "skipped-budget"
    # the cheap tiers pass, so the claim is skipped, not failed
    assert branch_status(check) == "skipped-budget"


def test_branch_report_shape():
    f = make_family("whitney")
    rep = verify_branch(f, parse_poly("4*x^3 + 27*y^2"))
    assert rep == {"substitution_divisible": True, "claimed_squarefree": True,
                   "elimination": "pass"}


def test_compose_with_automorphisms():
    f = make_family("power", d=2)
    phi = PlaneAutomorphism.linear(Fraction(1, 2), Fraction(1, 2),
                                   Fraction(1, 2), Fraction(-1, 2))
    psi = PlaneAutomorphism(
        (parse_poly("x^2 + 2*x - y"), parse_poly("x^2 - y")),
        (parse_poly("1/2*x - 1/2*y"),
         parse_poly("1/4*x^2 - 1/2*x*y + 1/4*y^2 - y")))
    assert compose(f, pre=phi, post=psi) == make_family("pinch", d=2)


def test_automorphism_validation():
    with pytest.raises(ValueError):
        PlaneAutomorphism((X, Y), (Y, X + 1))
    with pytest.raises(ValueError):
        PlaneAutomorphism.linear(1, 1, 1, 1)  # determinant zero
    t = PlaneAutomorphism.triangular(parse_poly("x^2"), lower=True)
    inv = PlaneAutomorphism(t.inverse, t.forward)
    assert PolyMap(*t.then(inv).forward) == PolyMap(X, Y)


def test_triangular_and_translation():
    t = PlaneAutomorphism.triangular(parse_poly("x^3 - 1"), lower=True)
    f = PolyMap(*t.forward)
    assert f.f1 == X and f.f2 == Y + X ** 3 - 1
    u = PlaneAutomorphism.triangular(parse_poly("y^2"))
    assert u.forward[0] == X + Y ** 2
    s = PlaneAutomorphism((X + 2, Y - 1), (X - 2, Y + 1))
    g = PolyMap(*s.forward)
    assert g.f1 == X + 2 and g.f2 == Y - 1


def test_integral_relations_frozen():
    d = 3
    f = make_family("pinch", d=d)
    uvars = ("u", "s", "t")
    relx = parse_poly(f"u^{d} - s*u^{d-1} + t*u + t", variables=uvars)
    rely = parse_poly(f"u*(s - u)^{d-1} - t*(1 + u)^{d-1}", variables=uvars)
    assert integral_relation_check(f, X, relx)
    assert integral_relation_check(f, Y, rely)
    # x does not satisfy the y relation
    assert not integral_relation_check(f, X, rely)


def test_integral_relation_requires_constant_lead():
    f = make_family("pinch", d=3)
    bad = parse_poly("s*u^2 - t", variables=("u", "s", "t"))
    with pytest.raises(ValueError):
        integral_relation_check(f, X, bad)


def test_monic_rule_is_shared():
    # one top term in the main variable, free of the others, any scalar lead
    assert _is_monic_in(parse_poly("2*y^2 + x"), "y")
    assert not _is_monic_in(parse_poly("y^2 + x*y^2"), "y")
    f = make_family("pinch", d=3)
    uvars = ("u", "s", "t")
    # twice the monic relation of x is still accepted
    twice = parse_poly("2*u^3 - 2*s*u^2 + 2*t*u + 2*t", variables=uvars)
    assert integral_relation_check(f, X, twice)
    with pytest.raises(ValueError, match="not monic"):
        integral_relation_check(f, X, parse_poly("u^2 + s*u^2", variables=uvars))


def _random_linear_autos(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
        if a * d - b * c != 0:
            break
    lin = PlaneAutomorphism.linear(a, b, c, d)
    tri = PlaneAutomorphism.triangular(
        MultiPoly(("x", "y"),
                  {(k, 0): Fraction(rng.randint(-3, 3)) for k in range(3)},
                  QQ), lower=True)
    return lin.then(tri)


def test_equivalence_preserves_properness_and_degree():
    import random
    rng = random.Random(11)
    f = make_family("whitney")
    for _ in range(5):
        phi = _random_linear_autos(rng)
        psi = _random_linear_autos(rng)
        g = compose(f, pre=phi, post=psi)
        assert is_proper(g)
        assert topological_degree(g) == 3


def test_left_composition_transports_branch():
    # postcomposing acts on the target: branch(psi . f) = branch(f) pulled
    # back along psi^{-1}; verify by substituting the inverse components
    import random
    rng = random.Random(23)
    f = make_family("whitney")
    base = branch_ideal(f)[0]
    for _ in range(3):
        psi = _random_linear_autos(rng)
        g = compose(f, post=psi)
        moved = branch_ideal(g)[0]
        u, v = psi.inverse
        transported = substitute(base, {"x": u, "y": v})
        assert is_scalar_multiple(moved, transported)


coef = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), coef)
def test_shifted_power_family_is_proper(d, n, c):
    f = make_family("shifted_power", d=d + 1, n=n)
    assert is_proper(f)
    assert topological_degree(f) == d + 1


# ---------------------------------------------------------------------------
# target-side shears: every answer is the unreduced map's

def _automorphism(rng, shear_degree=2):
    """A linear map with entries in [-3, 3], then the lower shear
    (x, y + p(x)) with deg p <= shear_degree and coefficients in [-2, 2]."""
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c != 0:
            break
    lin = PlaneAutomorphism.linear(a, b, c, d)
    shear = MultiPoly(("x", "y"), {(k, 0): Fraction(rng.randint(-2, 2))
                                   for k in range(shear_degree + 1)}, QQ)
    return lin.then(PlaneAutomorphism.triangular(shear, lower=True))


ALL_VARS = ("x", "y", "s", "t")


def _unreduced_graph(f):
    return [MultiPoly.variable(v, ALL_VARS, f.field) - c.extended(ALL_VARS)
            for v, c in zip(("s", "t"), f.components())]


def _unreduced_tiers(f, claim, branch):
    J = critical_ideal(f)
    pullback = substitute(claim, {"x": f.f1, "y": f.f2})
    principal = len(branch) == 1 and is_scalar_multiple(branch[0],
                                                        primitive_normalize(claim))
    return {"substitution_divisible": divides(_squarefree_part(J), pullback),
            "claimed_squarefree": _is_squarefree(claim),
            "elimination": "pass" if principal else "fail"}


SHEARED_BASES = [make_family("whitney"), make_family("pinch", d=3),
                 make_family("shifted_power", d=3, n=1),
                 make_family("product", m=2, n=3),
                 pmap("(x, y^3 + zeta(6)*x*y)")]


@pytest.mark.parametrize("base", SHEARED_BASES,
                         ids=["whitney", "pinch3", "shifted_power31", "product23",
                              "zeta6"])
def test_stripped_shears_give_the_unreduced_answers(base):
    # each answer equals the one built from the unreduced graph generators
    # by the engine directly.  (shifted_power(3, 2) is not among the bases:
    # most of its unreduced eliminations stall in one reduction, the
    # ungraded-input defect that the shears' removal sidesteps.)
    f = compose(base, pre=_automorphism(random.Random(1)),
                post=_automorphism(random.Random(2)))
    leads = buchberger(_unreduced_graph(f),
                       block_order(ALL_VARS, ("x", "y"))).leads
    assert is_proper(f) == all(any(e[i] and not any(e[:i] + e[i + 1:]) for e in leads)
                               for i in range(2))
    assert topological_degree(f) == staircase_count([e[:2] for e in leads])
    branch = jacobian_branch(f)
    assert branch_ideal(f) == branch
    claim = branch[0]
    for c in (claim, claim + X.in_field(claim.field)):
        assert verify_branch(f, c) == _unreduced_tiers(f, c, branch)


def test_stripped_shears_transport_a_non_principal_branch_ideal():
    # (x, x*y) contracts its critical line to a point; after the shear
    # (s + t^2, t + 1) the moved generators are reduced again in k[s, t]
    f = pmap("(x + x^2*y^2, x*y + 1)")
    assert [c.total_degree() for c in _target_reduced(f)[0].components()] == [2, 1]
    gens = branch_ideal(f)
    assert gens == jacobian_branch(f) and len(gens) == 2
    claim = parse_poly("x")
    assert verify_branch(f, claim) == _unreduced_tiers(f, claim, gens)


def _assert_transports(f, g, steps):
    # to . f = g, back . g = f, and to . back is the identity, with back
    # the steps undone in reverse order
    to = _target_to(steps, f.field)
    back = _target_to([(hi, k, -c) for hi, k, c in reversed(steps)], f.field)
    assert tuple(substitute(c, {"x": f.f1, "y": f.f2}) for c in to) == g.components()
    assert tuple(substitute(c, {"x": g.f1, "y": g.f2}) for c in back) == f.components()
    assert tuple(substitute(c, {"x": back[0], "y": back[1]}) for c in to) == (X, Y)


def test_target_reduction_records_both_ways():
    f = compose(make_family("whitney"), pre=_automorphism(random.Random(3)),
                post=_automorphism(random.Random(4)))
    g, steps = _target_reduced(f)
    assert steps
    assert max(c.total_degree() for c in g.components()) < max(
        c.total_degree() for c in f.components())
    _assert_transports(f, g, steps)


def test_target_reduction_undoes_three_shears():
    # (x^2 + y, y^3 + x) admits no step (3 is no multiple of 2); three
    # target shears, each on the other component, come off one per step,
    # the last one first
    base = pmap("(x^2 + y, y^3 + x)")
    post = (PlaneAutomorphism.triangular(X**2, lower=True)
            .then(PlaneAutomorphism.triangular(Y**2))
            .then(PlaneAutomorphism.triangular(2 * X**3, lower=True)))
    f = compose(base, post=post)
    assert [c.total_degree() for c in f.components()] == [8, 24]
    g, steps = _target_reduced(f)
    assert g == base
    assert [(hi, k) for hi, k, _ in steps] == [(1, 3), (0, 2), (1, 2)]
    _assert_transports(f, g, steps)


def _readme_example_maps():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
    found = []
    for line in section.splitlines():
        if not line.startswith("    polymap "):
            continue
        command, *words = shlex.split(line)[1:]
        if command in ("proper", "degree", "branch", "distinguish"):
            for word in words:
                if word.startswith("--"):
                    break
                found.append(pmap(word))
        elif command == "family":
            name, flag, value = words
            found.append(make_family(name, **{flag[2:]: int(value)}))
    return found


def test_target_reduction_leaves_irreducible_maps_alone():
    examples = _readme_example_maps()
    assert len(examples) == 10
    for f in [quotient_map(rec) for rec in default_table4_rows()] + examples:
        g, steps = _target_reduced(f)
        assert g is f and steps == [], f


def test_branch_of_sheared_pinch_finishes_under_budget():
    # pinch(4) after an affine map and before a quadratic shear: once the
    # elimination of such a map ran past 30 s in one reduction (the pair
    # budget does not bound it); with the shear stripped each draw takes
    # milliseconds
    rng = random.Random(5)
    base = make_family("pinch", d=4)
    for _ in range(6):
        pre, post = _automorphism(rng, 0), _automorphism(rng)
        unsheared = branch_ideal(compose(base, pre=pre))
        with under_budget(ComputationBudget(1000)):
            gens = branch_ideal(compose(base, pre=pre, post=post))
        u, v = post.inverse
        moved = substitute(unsheared[0], {"x": u, "y": v})
        assert len(unsheared) == 1 and len(gens) == 1
        assert is_scalar_multiple(gens[0], moved)
