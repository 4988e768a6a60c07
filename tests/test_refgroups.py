"""Reflection group catalog: enumeration, invariants, branch verification."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest

from polymap import groebner, maps, refgroups
from polymap.groebner import ResourceBudgetExceeded, buchberger
from polymap.maps import (branch_status, critical_ideal, is_proper, topological_degree,
                          verify_branch)
from polymap.numberfield import embed, zeta
from polymap.parser import parse_poly
from polymap.polyring import (CyclotomicField, MultiPoly, common_field, hessian_det,
                              is_scalar_multiple, jacobian_det,
                              squarefree_decomposition, substitute)
from polymap.refgroups import (Matrix2, basic_invariants, build_group,
                               claimed_branch, classes_of_degree, cyclic_group,
                               default_table4_rows, enumerate_group,
                               exceptional_group, fingerprint,
                               imprimitive_group, invariant_seed, is_invariant,
                               parse_group_spec, product_group, quotient_map,
                               verify_presentation, verify_table4_row)

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))

# Shephard-Todd numbers 4..22 with their orders and invariant degrees
EXCEPTIONAL_TABLE = {
    4: (24, (4, 6)), 5: (72, (6, 12)), 6: (48, (4, 12)), 7: (144, (12, 12)),
    8: (96, (8, 12)), 9: (192, (8, 24)), 10: (288, (12, 24)),
    11: (576, (24, 24)), 12: (48, (6, 8)), 13: (96, (8, 12)),
    14: (144, (6, 24)), 15: (288, (12, 24)), 16: (600, (20, 30)),
    17: (1200, (20, 60)), 18: (1800, (30, 60)), 19: (3600, (60, 60)),
    20: (360, (12, 30)), 21: (720, (12, 60)), 22: (240, (12, 20)),
}

# fingerprints of G_4..G_22: order, center order, element-order histogram
EXCEPTIONAL_FINGERPRINTS = {
    4: (24, 2, {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}),
    5: (72, 6, {1: 1, 2: 1, 3: 26, 4: 6, 6: 26, 12: 12}),
    6: (48, 4, {1: 1, 2: 7, 3: 8, 4: 8, 6: 8, 12: 16}),
    7: (144, 12, {1: 1, 2: 7, 3: 26, 4: 8, 6: 38, 12: 64}),
    8: (96, 4, {1: 1, 2: 7, 3: 8, 4: 32, 6: 8, 8: 24, 12: 16}),
    9: (192, 8, {1: 1, 2: 19, 3: 8, 4: 44, 6: 8, 8: 64, 12: 16, 24: 32}),
    10: (288, 12, {1: 1, 2: 7, 3: 26, 4: 32, 6: 38, 8: 24, 12: 112,
                   24: 48}),
    11: (576, 24, {1: 1, 2: 19, 3: 26, 4: 44, 6: 62, 8: 64, 12: 136,
                   24: 224}),
    12: (48, 2, {1: 1, 2: 13, 3: 8, 4: 6, 6: 8, 8: 12}),
    13: (96, 4, {1: 1, 2: 19, 3: 8, 4: 20, 6: 8, 8: 24, 12: 16}),
    14: (144, 6, {1: 1, 2: 13, 3: 26, 4: 6, 6: 50, 8: 12, 12: 12, 24: 24}),
    15: (288, 12, {1: 1, 2: 19, 3: 26, 4: 20, 6: 62, 8: 24, 12: 88,
                   24: 48}),
    16: (600, 10, {1: 1, 2: 1, 3: 20, 4: 30, 5: 124, 6: 20, 10: 124,
                   15: 80, 20: 120, 30: 80}),
    17: (1200, 20, {1: 1, 2: 31, 3: 20, 4: 32, 5: 124, 6: 20, 10: 244,
                    12: 40, 15: 80, 20: 368, 30: 80, 60: 160}),
    18: (1800, 30, {1: 1, 2: 1, 3: 62, 4: 30, 5: 124, 6: 62, 10: 124,
                    12: 60, 15: 488, 20: 120, 30: 488, 60: 240}),
    19: (3600, 60, {1: 1, 2: 31, 3: 62, 4: 32, 5: 124, 6: 122, 10: 244,
                    12: 184, 15: 488, 20: 368, 30: 728, 60: 1216}),
    20: (360, 6, {1: 1, 2: 1, 3: 62, 4: 30, 5: 24, 6: 62, 10: 24, 12: 60,
                  15: 48, 30: 48}),
    21: (720, 12, {1: 1, 2: 31, 3: 62, 4: 32, 5: 24, 6: 122, 10: 24,
                   12: 184, 15: 48, 20: 48, 30: 48, 60: 96}),
    22: (240, 4, {1: 1, 2: 31, 3: 20, 4: 32, 5: 24, 6: 20, 10: 24, 12: 40,
                  20: 48}),
}


def test_matrix_arithmetic():
    i = Matrix2.identity(4)
    d = Matrix2.diagonal(zeta(4), zeta(4).inverse())
    assert d ** 4 == i
    assert d ** 2 != i
    assert d.det() == zeta(4).one(4)
    g = exceptional_group(16).generators[0]
    assert g ** 0 == Matrix2.identity(60)
    product = Matrix2.identity(60)
    for e in range(1, 8):
        product = product * g
        assert g ** e == product
    with pytest.raises(ValueError):
        g ** -1


def test_cyclic_and_product_records():
    g = cyclic_group(5)
    assert g.expected_order == 5 and g.degrees == (1, 5)
    assert len(enumerate_group(g)) == 5
    h = product_group(2, 3)
    assert h.expected_order == 6 and h.degrees == (2, 3)
    assert len(enumerate_group(h)) == 6


def test_imprimitive_records():
    g = imprimitive_group(6, 2)
    assert g.expected_order == 36 and g.degrees == (6, 6)
    assert len(enumerate_group(g)) == 36
    h = imprimitive_group(4, 1)
    assert h.expected_order == 32 and h.degrees == (8, 4)
    assert len(enumerate_group(h)) == 32


def test_exceptional_catalog_orders():
    for no, (order, degrees) in EXCEPTIONAL_TABLE.items():
        rec = exceptional_group(no)
        assert rec.expected_order == order, no
        assert rec.degrees == degrees, no


def test_small_exceptional_enumeration():
    for no in (4, 5, 6, 12, 13, 22):
        rec = exceptional_group(no)
        assert len(enumerate_group(rec)) == rec.expected_order


def test_presentations_hold():
    for no in EXCEPTIONAL_TABLE:
        assert verify_presentation(exceptional_group(no)), no


def test_perturbed_presentations_fail():
    # S^2, T^3 and (ST)^p are Z^k1, Z^k2, Z^k3 with Z of order k, and ST
    # is not scalar: an exponent off by one breaks a relation, and Z^k = 1
    # fails for k = 7, which divides neither conductor (24 and 60)
    for no in EXCEPTIONAL_TABLE:
        rec = exceptional_group(no)
        pres = rec.presentation
        wrong = [replace(pres, **{name: getattr(pres, name) + d})
                 for name in ("k1", "k2", "k3", "power") for d in (-1, 1)]
        wrong.append(replace(pres, k=7))
        for bad in wrong:
            assert not verify_presentation(replace(rec, presentation=bad)), (no, bad)


def test_presentation_of_a_non_exceptional_group_raises():
    with pytest.raises(ValueError, match="exceptional groups only"):
        verify_presentation(cyclic_group(4))


def test_an_overshooting_closure_raises():
    # Z_6 recorded with order 2: the closure stops once it passes 4 elements
    with pytest.raises(RuntimeError,
                       match="closure of Z_6 exceeded twice the expected order 2"):
        enumerate_group(replace(cyclic_group(6), expected_order=2))


def test_center_order_equals_presentation_k():
    # each exceptional group is irreducible, so by Schur's lemma its center
    # is its scalar matrices: a second count, independent of commutation
    for no in EXCEPTIONAL_TABLE:
        rec = exceptional_group(no)
        els = enumerate_group(rec)
        scalars = sum(1 for g in els if not g.b and not g.c and g.a == g.d)
        assert fingerprint(els)["center_order"] == scalars, no
        assert scalars == rec.presentation.k, no
        assert 2 * rec.presentation.k < rec.expected_order


def test_exceptional_fingerprints_frozen():
    for no, (order, center, histogram) in EXCEPTIONAL_FINGERPRINTS.items():
        fp = fingerprint(enumerate_group(exceptional_group(no)))
        assert fp == {"order": order, "center_order": center,
                      "order_histogram": histogram}, no
        assert list(fp["order_histogram"]) == sorted(histogram), no


@pytest.mark.parametrize("spec", ["G4", "G16", "G19", "G(6,2,2)", "G(3,1,2)",
                                  "Z2xZ3"])
def test_step_tables_name_the_exact_products(spec):
    rec = parse_group_spec(spec)
    els = enumerate_group(rec)
    elements = list(els)
    assert len(els._step) == len(rec.generators)
    for g, step in zip(rec.generators, els._step):
        assert len(step) == len(elements)
        for m, j in zip(elements, step):
            assert elements[j] == m * g


def test_pair_closure_matches_the_exact_matrix_closure():
    # the exact closure of the full generators, as the base closure runs
    # it, must leave the same Cayley graph as the closure over pairs
    # (b, j) on the binary polyhedral base
    for no in EXCEPTIONAL_TABLE:
        rec = exceptional_group(no)
        exact = refgroups._Base(rec.generators, rec.conductor, rec.label,
                                rec.expected_order)
        els = enumerate_group(rec)
        assert els._step == exact._step, no
        assert els._parent == exact._parent, no
        assert els._gen == exact._gen, no


def test_generators_off_the_base_group_are_rejected():
    # 2·S is no root of unity times S1 (its closure is infinite); T and
    # diag(s11, s11) are no scalar multiples of S1 = diag(i, -i) at all,
    # though s11 is S's first entry
    rec = exceptional_group(4)
    s, t = rec.generators
    for gens in ((s.scaled(2), t), (t, t), (Matrix2.diagonal(s.a, s.a), t)):
        with pytest.raises(ValueError, match="G_4"):
            enumerate_group(replace(rec, generators=gens))


@pytest.mark.parametrize("spec", ["G4", "G5", "G8", "G12", "G(6,2,2)",
                                  "G(8,4,2)", "G(3,1,2)", "Z2xZ3", "G(2,2,2)",
                                  "Z_1", "Z_1xZ_1"])
def test_fingerprint_matches_per_element_oracles(spec):
    els = enumerate_group(parse_group_spec(spec))
    elements = list(els)
    one = elements[0]
    assert one == Matrix2.identity(one.conductor)
    histogram = {}
    for g in elements:
        k = next(k for k in range(1, len(elements) + 1) if g ** k == one)
        histogram[k] = histogram.get(k, 0) + 1
    center = sum(1 for m in elements
                 if all(m * g == g * m for g in elements))
    fp = fingerprint(els)
    assert fp["order_histogram"] == histogram
    assert fp["center_order"] == center
    if spec in ("Z2xZ3", "G(2,2,2)", "Z_1", "Z_1xZ_1"):
        # abelian and reducible: the whole group is central
        assert center == len(elements)


def test_conjugate_imprimitive_groups_share_fingerprints():
    a = fingerprint(enumerate_group(imprimitive_group(2, 1)))
    b = fingerprint(enumerate_group(imprimitive_group(4, 4)))
    assert a == b


def test_involution_counts():
    def involutions(record):
        els = list(enumerate_group(record))
        one = Matrix2.identity(els[0].conductor)
        return sum(1 for g in els if g * g == one != g)

    # m even, p odd: m + 3 involutions
    for m, p in ((2, 1), (4, 1), (6, 1), (6, 3), (8, 1)):
        count = involutions(imprimitive_group(m, p))
        assert count == m + 3, (m, p)
    # G(2m, 4p, 2): 2m + 3 when 4 | m, else 2m + 1
    for m, p in ((2, 1), (4, 1), (6, 1), (8, 1), (8, 2)):
        count = involutions(imprimitive_group(2 * m, 4 * p))
        want = 2 * m + 3 if m % 4 == 0 else 2 * m + 1
        assert count == want, (m, p)


def test_parse_group_spec():
    assert parse_group_spec("G4") == exceptional_group(4)
    assert parse_group_spec("G(6,2,2)") == imprimitive_group(6, 2)
    assert parse_group_spec("Z_5") == cyclic_group(5)
    assert parse_group_spec("Z2xZ3") == product_group(2, 3)
    assert parse_group_spec("cyclic(7)") == cyclic_group(7)
    assert parse_group_spec("imprimitive(8, 2)") == imprimitive_group(8, 2)
    with pytest.raises(ValueError):
        parse_group_spec("H17")


def test_build_group_validation():
    with pytest.raises(ValueError):
        build_group("exceptional", 23)
    with pytest.raises(ValueError, match="p [|] m"):
        build_group("imprimitive", 6, 4)
    for m, p in ((0, 1), (2, 0), (-2, 1)):
        with pytest.raises(ValueError, match="m, p >= 1"):
            build_group("imprimitive", m, p)
    with pytest.raises(ValueError):
        build_group("cyclic", 0)
    # a spec of the wrong arity is unreadable, not a TypeError
    with pytest.raises(ValueError, match="cyclic group takes 1 parameter, got 2"):
        parse_group_spec("cyclic(1,2)")


def test_seed_invariance():
    seeds = {"a4": 4, "b6": 4, "c8": 8, "d12": 8,
             "e12": 22, "f20": 22, "g30": 16}
    for name, no in seeds.items():
        assert is_invariant(exceptional_group(no), invariant_seed(name)), name
    # coordinates themselves are not invariant
    assert not is_invariant(exceptional_group(4), X)


def test_hessian_jacobian_reconstructions():
    a4 = invariant_seed("a4")
    b6 = invariant_seed("b6")
    assert is_scalar_multiple(jacobian_det(a4, hessian_det(a4)), b6)
    assert is_scalar_multiple(hessian_det(b6), invariant_seed("c8"))
    assert is_scalar_multiple(jacobian_det(b6, invariant_seed("c8")),
                              invariant_seed("d12"))
    e12 = invariant_seed("e12")
    assert is_scalar_multiple(hessian_det(e12), invariant_seed("f20"))
    assert is_scalar_multiple(jacobian_det(e12, invariant_seed("f20")),
                              invariant_seed("g30"))


# every (family, seed) pair that an exceptional row reads
FAMILY_SEEDS = [("A4", "a4"), ("A4", "b6"), ("S4", "b6"), ("S4", "c8"),
                ("S4", "d12"), ("A5", "e12"), ("A5", "f20"), ("A5", "g30")]


def _substituted_scalars(family, seed_name):
    """Oracle: the multipliers of S1 and T1 on a seed, by substituting each
    base matrix into the seed and reading the ratio off one term."""
    seed = invariant_seed(seed_name)
    fld = common_field(CyclotomicField(refgroups._base_matrices(family)[0].conductor),
                       seed.field)
    seed = seed.in_field(fld)
    out = []
    for g in refgroups._base_matrices(family):
        moved = substitute(seed, refgroups._action_images(g.embed(fld.conductor), fld))
        exps = next(iter(seed.terms))
        ratio = moved.coeff(exps) * seed.coeff(exps).inverse()
        assert moved == seed * ratio, (family, seed_name)
        out.append(embed(ratio, refgroups._FAMILY_CONDUCTOR[family]))
    return tuple(out)


@pytest.mark.parametrize("family, seed_name", FAMILY_SEEDS)
def test_seed_multipliers_match_substitution(family, seed_name):
    assert refgroups._base_seed_scalars(family, seed_name) == \
        _substituted_scalars(family, seed_name)


def _random_form(rng, degree):
    return MultiPoly(("x", "y"), {(i, degree - i): rng.randint(-9, 9)
                                  for i in range(degree + 1)})


def test_hessian_and_jacobian_are_covariant():
    rng = random.Random(26)
    for _ in range(3):
        while True:
            a, b, c, d = (Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for _ in range(4))
            if a * d - b * c:
                break
        images = {"x": X * a + Y * b, "y": X * c + Y * d}
        det = a * d - b * c
        f, h = _random_form(rng, 5), _random_form(rng, 4)
        fg, hg = substitute(f, images), substitute(h, images)
        assert hessian_det(fg) == substitute(hessian_det(f), images) * det ** 2
        assert jacobian_det(fg, hg) == substitute(jacobian_det(f, h), images) * det


@pytest.fixture
def cold_invariant_caches():
    # basic_invariants keys its cache on the compared fields of a record,
    # so a record with corrupted generators would hit a warm entry
    caches = (refgroups.invariant_seed, refgroups._base_seed_scalars,
              refgroups.basic_invariants)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("seed_name, text", [
    # c8 with one coefficient changed: still of degree 8, not Hess(b6)
    ("c8", "x^8 + 15*x^4*y^4 + y^8"),
    # g30 replaced by e12^2*b6, also of degree 30: not Jac(e12, f20)
    ("g30", "(x^11*y + 11*x^6*y^6 - x*y^11)^2*(x^5*y - x*y^5)"),
], ids=["c8", "g30"])
def test_a_seed_that_is_not_its_covariant_raises(cold_invariant_caches, monkeypatch,
                                                 seed_name, text):
    monkeypatch.setitem(refgroups._SEEDS, seed_name, text)
    family = "S4" if seed_name == "c8" else "A5"
    with pytest.raises(ArithmeticError, match="not a multiple"):
        refgroups._base_seed_scalars(family, seed_name)


def test_a_seed_that_is_not_semi_invariant_raises(cold_invariant_caches, monkeypatch):
    # a4 without its y^4 term is no eigenvector of T1
    monkeypatch.setitem(refgroups._SEEDS, "a4", "x^4 + (4*zeta(6) - 2)*x^2*y^2")
    with pytest.raises(ArithmeticError,
                       match="a4 is not semi-invariant under the A4 base group"):
        refgroups._base_seed_scalars("A4", "a4")


@pytest.mark.parametrize("no, pair, message", [
    # G_5 fixes a4^3 but scales a4 by a cube root of unity
    (5, ("b6", 1, "a4", 1), "a4^1 is not G_5-invariant"),
    (4, ("a4", 1, "a4", 1), "G_4 invariants are dependent"),
    # b6^2 is G_4-invariant, but of degree 12, not 6
    (4, ("a4", 1, "b6", 2), "G_4 degrees do not multiply to |G|"),
], ids=["not-invariant", "dependent", "degrees"])
def test_a_corrupted_invariant_pair_raises(cold_invariant_caches, monkeypatch,
                                           no, pair, message):
    monkeypatch.setitem(refgroups._PAIRS, no, pair)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        basic_invariants(exceptional_group(no))


def test_a_component_off_the_generators_raises(cold_invariant_caches):
    # diag(zeta_3, 1) moves the x of Z_3's pair (x, y^3)
    rec = replace(cyclic_group(3), generators=(Matrix2.diagonal(zeta(3), 1),))
    with pytest.raises(ArithmeticError, match="component not Z_3-invariant"):
        basic_invariants(rec)


def test_basic_invariants_structure():
    assert basic_invariants(cyclic_group(4)) == (X, Y ** 4)
    assert basic_invariants(product_group(3, 4)) == (X ** 3, Y ** 4)
    p1, p2 = basic_invariants(imprimitive_group(6, 2))
    assert p1 == (X * Y) ** 3 and p2 == X ** 6 + Y ** 6
    for no in (4, 12, 20):
        rec = exceptional_group(no)
        q1, q2 = basic_invariants(rec)
        assert (q1.total_degree(), q2.total_degree()) == rec.degrees
        assert q1.total_degree() * q2.total_degree() == rec.expected_order
        assert jacobian_det(q1, q2).terms


def test_quotient_map_degree():
    # C^2 -> C^2/G is proper of degree |G|: an oracle independent of the basis
    for record in default_table4_rows():
        f = quotient_map(record)
        assert is_proper(f), record.label
        assert topological_degree(f) == record.expected_order, record.label


def test_claimed_branch_frozen():
    assert claimed_branch(cyclic_group(5)) == Y
    assert claimed_branch(product_group(2, 3)) == X * Y
    assert claimed_branch(imprimitive_group(4, 4)) == Y ** 2 - X ** 4 * 4
    assert claimed_branch(imprimitive_group(6, 2)) == \
        X * (Y ** 2 - X ** 2 * 4)
    assert claimed_branch(exceptional_group(4)) == \
        parse_poly("x^3 + (-24*zeta(6) + 12)*y^2")
    # the trivial quotient is the identity map, branched nowhere
    assert claimed_branch(cyclic_group(1)) == MultiPoly.constant(1, ("x", "y"))
    assert claimed_branch(product_group(1, 1)) == MultiPoly.constant(1, ("x", "y"))


def test_table4_cheap_tiers_build_no_basis(monkeypatch):
    # the slate is over Q and Q(zeta_6), and every gcd its cheap tiers take
    # has a monomial operand once monomial contents are out, is a unit by
    # the images, or is lifted in one variable or homogeneous in two, so
    # none reaches the engine; the elimination, which does, is stopped
    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was built")

    def stop(*args):
        raise ResourceBudgetExceeded("elimination stopped")
    monkeypatch.setattr(groebner, "buchberger", refuse)
    monkeypatch.setattr(maps, "_eliminated_branch", stop)
    jacobians = {}
    for rec in default_table4_rows():
        f = quotient_map(rec)
        tiers = verify_branch(f, claimed_branch(rec))
        assert tiers["substitution_divisible"] and tiers["claimed_squarefree"], rec.label
        assert tiers["elimination"] == "skipped-budget", rec.label
        jacobians[rec.label] = critical_ideal(f)
    assert len(jacobians) == 43
    assert squarefree_decomposition(jacobians["G_19"])[0] == parse_poly(
        "x^61*y + 305*x^56*y^6 - 125294*x^51*y^11 + 1125145*x^46*y^16"
        " + 23226665*x^41*y^21 - 55707274*x^36*y^26 - 55707274*x^26*y^36"
        " - 23226665*x^21*y^41 + 1125145*x^16*y^46 + 125294*x^11*y^51"
        " + 305*x^6*y^56 - x*y^61")


def test_verify_table4_full_rows():
    for spec in ("Z_3", "G(3,3,2)", "G4", "Z_1", "Z_1xZ_1"):
        report = verify_table4_row(parse_group_spec(spec))
        assert report["ok"] and report["tiers"]["elimination"] == "pass", spec
    # "full" is the one tier; any other is refused before any work
    assert verify_table4_row(parse_group_spec("Z_3"), tier="full")["ok"]
    for tier in ("divisibility", None):
        with pytest.raises(ValueError):
            verify_table4_row(parse_group_spec("Z_3"), tier=tier)


def _full_tier_bases(monkeypatch):
    """(generators, basis) of every basis the check builds over all 43 rows."""
    bases = []

    def recording(generators, *args):
        basis = buchberger(generators, *args)
        bases.append((generators, basis))
        return basis

    monkeypatch.setattr(groebner, "buchberger", recording)
    rows = default_table4_rows()
    for rec in rows:
        report = verify_table4_row(rec)
        assert report["ok"] and report["tiers"]["elimination"] == "pass", rec.label
    assert len(rows) == 43
    return bases


def test_engine_work_over_every_table4_row(monkeypatch):
    # the engine's counters are deterministic, so this pins the work of the
    # whole check, G_21 and G_22 included: a change to pair selection
    # or the pair criteria shows here.  A row eliminates once per
    # multiplicity stratum of its Jacobian: 19 rows have two or more (G_11
    # and G_19 three), so 43 rows build 64 bases
    bases = [basis for _, basis in _full_tier_bases(monkeypatch)]
    assert len(bases) == 64
    total = {key: sum(b.stats[key] for b in bases)
             for key in ("pair_reductions", "zero_reductions")}
    assert total == {"pair_reductions": 957, "zero_reductions": 509}
    assert max(len(b.leads) for b in bases) == 64


def _standard_by_enumeration(leads, weights, degree):
    """Monomials x^a y^b s^c t^e of weighted degree `degree` under weights
    (1, 1, w_s, w_t) that no lead divides."""
    _, _, ws, wt = weights
    count = 0
    for c in range(degree // ws + 1):
        for e in range((degree - ws * c) // wt + 1):
            r = degree - ws * c - wt * e
            below = [(la, lb) for la, lb, lc, le in leads if lc <= c and le <= e]
            count += sum(not any(la <= a and lb <= r - a for la, lb in below)
                         for a in range(r + 1))
    return count


def test_full_tier_bases_have_the_hilbert_function_of_their_stratum(monkeypatch):
    # each basis is of <P, s - g1, t - g2> for a stratum P of the Jacobian
    # of a map whose components are homogeneous of degrees d1 and d2.
    # Graded by (1, 1, d1, d2), its quotient is k[x, y]/(P), so in every
    # weighted degree D the leads leave min(D + 1, deg P) standard monomials
    bases = _full_tier_bases(monkeypatch)
    assert len(bases) == 64
    for (P, *graph), basis in bases:
        d1, d2 = (max(sum(e[:2]) for e in g.terms) for g in graph)
        weights = (1, 1, d1, d2)
        top = max(sum(map(mul, weights, lead)) for lead in basis.leads)
        for D in range(top + 1):
            assert (_standard_by_enumeration(basis.leads, weights, D)
                    == min(D + 1, P.total_degree())), (P, D)


def test_corrected_constants_pass_and_printed_variants_fail():
    # three catalog rows circulate with misprinted branch constants; the
    # forms used here are the ones certified by pullback divisibility
    corrected = {
        5: "y*(x^2 + (1/18*zeta(6) - 1/36)*y)",
        6: "y*(x^3 + (-24*zeta(6) + 12)*y)",
        7: "x*y*(x + (1/18*zeta(6) - 1/36)*y)",
    }
    misprinted = {
        5: "y*(x^2 + (-1/18*zeta(6) + 1/36)*y)",
        6: "y*(x^3 + (-24*zeta(6) + 12)*y^2)",
        7: "x*y*(x + (-1/18*zeta(6) + 1/36)*y)",
    }
    for no, text in corrected.items():
        rec = exceptional_group(no)
        assert claimed_branch(rec) == parse_poly(text)
        f = quotient_map(rec)
        good = verify_branch(f, parse_poly(text))
        assert good["substitution_divisible"] and branch_status(good) == "pass", no
        bad = verify_branch(f, parse_poly(misprinted[no]))
        assert not bad["substitution_divisible"] and bad["elimination"] == "fail", no


def test_default_slate_shape():
    rows = default_table4_rows()
    assert len(rows) == 43
    kinds = [r.kind for r in rows]
    assert kinds.count("cyclic") == 5
    assert kinds.count("product") == 6
    assert kinds.count("imprimitive") == 13
    assert kinds.count("exceptional") == 19


def test_classes_of_degree_frozen():
    two = classes_of_degree(2)
    assert len(two) == 1 and two[0] == cyclic_group(2)
    seven = classes_of_degree(7)
    assert len(seven) == 1 and seven[0] == cyclic_group(7)
    # G(4,4,2) is conjugate to G(2,1,2) and is not listed again
    assert [r.label for r in classes_of_degree(8)] == ["Z_8", "Z_2xZ_4", "G(2,1,2)"]
    labels = [r.label for r in classes_of_degree(24)]
    assert labels == ["Z_24", "Z_2xZ_12", "Z_3xZ_8", "Z_4xZ_6",
                      "G(6,3,2)", "G(12,12,2)", "G_4"]
    with pytest.raises(ValueError, match="the census starts at degree 2"):
        classes_of_degree(1)


def test_classes_orders_match_request():
    for d in (4, 6, 36, 48, 96, 100):
        for rec in classes_of_degree(d):
            assert rec.expected_order == d, (d, rec.label)
