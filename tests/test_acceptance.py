"""End-to-end acceptance slate.

Each criterion prints exactly one PASS/FAIL line; an assert follows the
print so pytest sees the same verdict.  Budgets and tolerances are pinned
here and nowhere else.
"""

import random
import time
from fractions import Fraction

from oracles import resultant
from polymap.curves import (CONIC_TWO_POINTS, LINE, classify_low_degree_curve,
                            distinguish_by_milnor, milnor_at_origin)
from polymap.groebner import elimination_ideal
from polymap.maps import (PlaneAutomorphism, PolyMap, branch_ideal, compose,
                          critical_ideal, integral_relation_check, is_proper,
                          make_family, topological_degree)
from polymap.parser import format_poly, parse_map, parse_poly
from polymap.polyring import (MultiPoly, QQ, divides, hessian_det,
                              is_scalar_multiple, jacobian_det, substitute)
from polymap.refgroups import (basic_invariants, claimed_branch,
                               classes_of_degree, cyclic_group,
                               default_table4_rows, enumerate_group,
                               exceptional_group, fingerprint, invariant_seed,
                               is_invariant, quotient_map, verify_presentation,
                               verify_table4_row)

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))

EXPECTED_EXCEPTIONAL_ORDERS = (24, 72, 48, 144, 96, 192, 288, 576, 48, 96,
                               144, 288, 600, 1200, 1800, 3600, 360, 720, 240)

# every row, these exceptional groups included, must pass the elimination
# tier; a literal set, read as such by the benchmark
MANDATED_EXCEPTIONALS = {4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                         18, 19, 20, 21, 22}


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _pmap(text):
    return PolyMap(*parse_map(text))


def test_acceptance_01_properness():
    started = time.monotonic()
    ok = not is_proper(_pmap("(x + x^2*y, y)"))
    ok = ok and is_proper(_pmap("(x, y^2)"))
    ok = ok and is_proper(make_family("whitney"))
    for d in (3, 4, 5):
        for n in (1, 2, 3, 4):
            ok = ok and is_proper(make_family("shifted_power", d=d, n=n))
    for d in (2, 3, 4, 5):
        ok = ok and is_proper(make_family("pinch", d=d))
    elapsed = time.monotonic() - started
    _report(1, "properness", ok and elapsed < 5.0)


def test_acceptance_02_topological_degree():
    ok = topological_degree(_pmap("(x, y^2)")) == 2
    for d in (3, 4, 5):
        ok = ok and topological_degree(make_family("pinch", d=d)) == d
    started = time.monotonic()
    got = topological_degree(quotient_map(exceptional_group(4)))
    ok = ok and got == 24
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    _report(2, f"topological-degree (degree={got})", ok)


def test_acceptance_03_branch_loci():
    whitney = branch_ideal(make_family("whitney"))
    ok = len(whitney) == 1 and is_scalar_multiple(
        whitney[0], parse_poly("4*s^3 + 27*t^2", variables=("s", "t")))

    # cubic semi-separate maps: the branch curve is the vanishing of the
    # y-discriminant, rendered integrally after clearing the /27
    rng = random.Random(31415)

    def draw():
        return MultiPoly(("x", "y"),
                         {(k, 0): Fraction(rng.randint(-5, 5))
                          for k in range(3)}, QQ)

    done = 0
    while done < 3:
        p, q = draw(), draw()
        disc = q * q + p * p * p * Fraction(4, 27)
        if not p.terms or not disc.terms:
            continue  # degenerate draw: the discriminant locus is non-reduced
        f = PolyMap(X, Y ** 3 + p * Y + q)
        gens = branch_ideal(f)
        ps, qs = p.rename(("s", "t")), q.rename(("s", "t"))
        t_var = MultiPoly.variable("t", ("s", "t"))
        target = t_var ** 2 - qs * t_var * 2 + qs * qs + ps ** 3 * Fraction(4, 27)
        ok = ok and len(gens) == 1 and is_scalar_multiple(gens[0], target)
        done += 1

    quartic = quotient_map(exceptional_group(4))
    gens = branch_ideal(quartic)
    claim = parse_poly("x^3 + (-24*zeta(6) + 12)*y^2").rename(("s", "t"))
    ok = ok and len(gens) == 1 and is_scalar_multiple(
        gens[0], claim.in_field(gens[0].field))
    _report(3, "branch-loci", ok)


def test_acceptance_04_milnor_and_certificates():
    ok = True
    for d in range(2, 6):
        for n in range(2, 6):
            ok = ok and milnor_at_origin(Y ** d - X ** n) == (d - 1) * (n - 1)
    for d in (3, 4, 5):
        # one total per map: n = 2, 3, 4 give pairwise different totals
        maps = [make_family("shifted_power", d=d, n=n) for n in range(2, 5)]
        ok = ok and distinguish_by_milnor(*maps) == [(d - 2) * (n - 1)
                                                     for n in range(2, 5)]
    _report(4, "milnor-certificates", ok)


def test_acceptance_05_degree_d_family_package():
    ok = True
    for d in (3, 4, 5):
        f = make_family("pinch", d=d)
        h2 = parse_poly(f"(2 - {d})*x*y + x - ({d} - 1)*y")
        ok = ok and critical_ideal(f) == X ** (d - 2) * h2
        uvars = ("u", "s", "t")
        relx = parse_poly(f"u^{d} - s*u^{d-1} + t*u + t", variables=uvars)
        rely = parse_poly(f"u*(s - u)^{d-1} - t*(1 + u)^{d-1}",
                          variables=uvars)
        ok = ok and integral_relation_check(f, X, relx)
        ok = ok and integral_relation_check(f, Y, rely)
        ok = ok and classify_low_degree_curve(h2) == CONIC_TWO_POINTS
        ok = ok and classify_low_degree_curve(X) == LINE
    phi1 = PlaneAutomorphism.linear(Fraction(1, 2), Fraction(1, 2),
                                    Fraction(1, 2), Fraction(-1, 2))
    phi2 = PlaneAutomorphism(
        (parse_poly("x^2 + 2*x - y"), parse_poly("x^2 - y")),
        (parse_poly("1/2*x - 1/2*y"),
         parse_poly("1/4*x^2 - 1/2*x*y + 1/4*y^2 - y")))
    composed = compose(make_family("power", d=2), pre=phi1, post=phi2)
    ok = ok and composed == make_family("pinch", d=2)
    _report(5, "degree-d-family", ok)


def test_acceptance_06_group_catalog():
    started = time.monotonic()
    ok = True
    for no, want in zip(range(4, 23), EXPECTED_EXCEPTIONAL_ORDERS):
        rec = exceptional_group(no)
        els = enumerate_group(rec)
        fp = fingerprint(els)
        ok = ok and len(els) == want == rec.expected_order
        ok = ok and verify_presentation(rec)
        ok = ok and fp["center_order"] == rec.presentation.k
        ok = ok and 2 * rec.presentation.k < rec.expected_order
    elapsed = time.monotonic() - started
    _report(6, f"group-catalog ({elapsed:.1f}s)", ok and elapsed < 180.0)


def test_acceptance_07_involution_counts():
    from polymap.refgroups import Matrix2, imprimitive_group

    def involutions(record):
        els = list(enumerate_group(record))
        one = Matrix2.identity(els[0].conductor)
        return sum(1 for g in els if g * g == one != g)

    ok = True
    for m, p in ((2, 1), (4, 1), (6, 1), (6, 3), (8, 1)):
        count = involutions(imprimitive_group(m, p))
        ok = ok and count == m + 3
    for m, p in ((2, 1), (4, 1), (6, 1), (8, 1), (8, 2)):
        count = involutions(imprimitive_group(2 * m, 4 * p))
        want = 2 * m + 3 if m % 4 == 0 else 2 * m + 1
        ok = ok and count == want
    _report(7, "involution-counts", ok)


def test_acceptance_08_invariant_theory():
    a4, b6 = invariant_seed("a4"), invariant_seed("b6")
    c8, d12 = invariant_seed("c8"), invariant_seed("d12")
    e12, f20, g30 = (invariant_seed(s) for s in ("e12", "f20", "g30"))
    ok = is_scalar_multiple(jacobian_det(a4, hessian_det(a4)), b6)
    ok = ok and is_scalar_multiple(hessian_det(b6), c8)
    ok = ok and is_scalar_multiple(jacobian_det(b6, c8), d12)
    ok = ok and is_scalar_multiple(hessian_det(e12), f20)
    ok = ok and is_scalar_multiple(jacobian_det(e12, f20), g30)
    homes = {"a4": 4, "b6": 4, "c8": 8, "d12": 8,
             "e12": 22, "f20": 22, "g30": 16}
    for seed, no in homes.items():
        ok = ok and is_invariant(exceptional_group(no), invariant_seed(seed))
    for rec in default_table4_rows():
        p1, p2 = basic_invariants(rec)
        ok = ok and p1.total_degree() * p2.total_degree() == \
            rec.expected_order
    _report(8, "invariant-theory", ok)


def test_acceptance_09_branch_table():
    ok = True
    exceptional = set()
    for rec in default_table4_rows():
        if rec.kind == "exceptional":
            exceptional.add(rec.params[0])
        tiers = verify_table4_row(rec)["tiers"]
        ok = ok and tiers["substitution_divisible"] and \
            tiers["claimed_squarefree"] and tiers["elimination"] == "pass"
    ok = ok and exceptional == MANDATED_EXCEPTIONALS
    _report(9, "branch-table", ok)


def test_acceptance_10_degree_census():
    two = classes_of_degree(2)
    ok = len(two) == 1 and two[0] == cyclic_group(2)
    for d in range(2, 101):
        records = classes_of_degree(d)
        ok = ok and isinstance(records, list)
        ok = ok and all(r.expected_order == d for r in records)
        ok = ok and len(records) == len({r.label for r in records})
    _report(10, "degree-census", ok)


def _random_automorphism(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c != 0:
            break
    lin = PlaneAutomorphism.linear(a, b, c, d)
    shear = MultiPoly(("x", "y"),
                      {(k, 0): Fraction(rng.randint(-2, 2)) for k in range(3)},
                      QQ)
    tri = PlaneAutomorphism.triangular(shear, lower=True)
    return lin.then(tri)


def _suite_polynomials():
    polys = [parse_poly(t) for t in
             ("x", "y", "x + x^2*y", "y^2", "4*x^3 + 27*y^2",
              "x^3 + (-24*zeta(6) + 12)*y^2")]
    for name, kwargs in (("whitney", {}), ("power", {"d": 2}),
                         ("product", {"m": 2, "n": 3}), ("pinch", {"d": 3}),
                         ("pinch", {"d": 5}),
                         ("shifted_power", {"d": 4, "n": 3}),
                         ("semi_separate",
                          {"q": parse_poly("y^3 - 2*x*y + x^2 + 1")})):
        polys.extend(make_family(name, **kwargs).components())
    for d in (3, 4, 5):
        uvars = ("u", "s", "t")
        polys.append(parse_poly(f"u^{d} - s*u^{d-1} + t*u + t",
                                variables=uvars))
        polys.append(parse_poly(f"u*(s - u)^{d-1} - t*(1 + u)^{d-1}",
                                variables=uvars))
    for rec in default_table4_rows():
        polys.append(claimed_branch(rec))
        polys.extend(basic_invariants(rec))
    for seed in ("a4", "b6", "c8", "d12", "e12", "f20", "g30"):
        polys.append(invariant_seed(seed))
    return polys


def test_acceptance_11_property_suites():
    rng = random.Random(2026)

    def rand_poly():
        n = rng.randint(1, 4)
        terms = {(rng.randint(0, 3), rng.randint(0, 3)):
                 Fraction(rng.randint(-6, 6)) for _ in range(n)}
        return MultiPoly(("x", "y"), terms, QQ)

    ok = True
    done = 0
    while done < 50:
        a, b = rand_poly(), rand_poly()
        if a.degree_in("y") < 1 or b.degree_in("y") < 1:
            continue
        r = resultant(a, b, "y")
        if not r.terms:
            continue  # shared factor: resultant theory says nothing sharp
        out = elimination_ideal([a, b], ("y",))
        ok = ok and len(out) == 1 and out[0].terms
        ok = ok and divides(out[0].extended(("x", "y")), r)
        done += 1

    f = make_family("whitney")
    base = branch_ideal(f)[0].rename(("x", "y"))
    rng2 = random.Random(7)
    for _ in range(20):
        pre, post = _random_automorphism(rng2), _random_automorphism(rng2)
        g = compose(f, pre=pre, post=post)
        ok = ok and is_proper(g)
        ok = ok and topological_degree(g) == 3
        moved = branch_ideal(g)[0].rename(("x", "y"))
        u, v = post.inverse
        ok = ok and is_scalar_multiple(moved, substitute(base, {"x": u, "y": v}))

    for p in _suite_polynomials():
        back = parse_poly(format_poly(p), variables=p.vars, field=p.field)
        ok = ok and back == p
    _report(11, "property-suites", ok)
