"""Sparse polynomial arithmetic over the rationals and cyclotomic fields."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import Lex, resultant, sylvester_matrix
from polymap import groebner, polyring
from polymap.numberfield import CycloNumber, totient, zeta
from polymap.parser import parse_poly
from polymap.polyring import (BlockOrder, CyclotomicField, DegRevLex,
                              ExactDivisionError, MultiPoly,
                              QQ, RingMismatch, _product, block_order, common_field,
                              derivative, divides, exact_div,
                              gcd_poly, hessian_det, is_scalar_multiple,
                              jacobian_det, monic, primitive_normalize,
                              squarefree_decomposition, substitute)
from polymap.refgroups import default_table4_rows, quotient_map

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))


def test_ring_arithmetic():
    assert (X + Y) ** 2 == X ** 2 + X * Y * 2 + Y ** 2
    assert (X - Y) * (X + Y) == X ** 2 - Y ** 2
    p = X ** 3 - Y
    zero = MultiPoly.zero(("x", "y"))
    assert p - p == zero
    assert p * zero == zero
    assert (p * 1) == p and (p * 0).is_constant()
    q = X * 2 - Y + 1
    assert q ** 0 == MultiPoly.constant(1, ("x", "y"))
    product = q ** 0
    for e in range(1, 10):
        product = product * q
        assert q ** e == product
    with pytest.raises(ValueError):
        q ** -1


def test_degrees():
    p = parse_poly("x^3*y + x*y^2 + 7")
    assert p.total_degree() == 4
    assert p.degree_in("x") == 3 and p.degree_in("y") == 2
    assert p.coeff((3, 1)) == 1 and p.coeff((0, 0)) == 7


def test_leading_terms_by_order():
    p = parse_poly("x^2 + x*y^2 + y^3")
    assert p.leading(Lex())[0] == (2, 0)
    # degrevlex prefers higher total degree, then later-variable deficit
    assert p.leading(DegRevLex())[0] == (1, 2)


def test_block_order_eliminates_front_vars():
    order = block_order(("x", "y", "s", "t"), ("x", "y"))
    assert isinstance(order, BlockOrder)
    p = parse_poly("x + s^5", variables=("x", "y", "s", "t"))
    assert p.leading(order)[0] == (1, 0, 0, 0)


def test_derivative_product_rule():
    p = parse_poly("x^2*y + 3*y")
    q = parse_poly("x*y - 1")
    lhs = derivative(p * q, "x")
    rhs = derivative(p, "x") * q + p * derivative(q, "x")
    assert lhs == rhs


def test_substitute_and_evaluate():
    p = parse_poly("x^2 + y")
    q = substitute(p, {"x": Y, "y": X * Y})
    assert q == Y ** 2 + X * Y
    point = {"x": MultiPoly.constant(2, p.vars), "y": MultiPoly.constant(3, p.vars)}
    assert substitute(p, point).constant_value() == 7


def test_jacobian_and_hessian():
    assert jacobian_det(X, Y ** 2) == Y * 2
    assert jacobian_det(parse_poly("x + y + x*y"), parse_poly("x^2*y")) == \
        parse_poly("x^2 - x^2*y - 2*x*y")
    assert hessian_det(X ** 3 + Y ** 3) == X * Y * 36


def test_resultant_linear_case():
    # res_y(f, y - g) is f with y := g, up to sign
    f = parse_poly("y^2 - x")
    assert is_scalar_multiple(resultant(f, Y - X, "y"), parse_poly("x^2 - x"))


def test_resultant_discriminant_of_cubic():
    f = parse_poly("y^3 + x*y + x")   # cubic in y with parameters in x
    r = resultant(f, derivative(f, "y"), "y")
    assert is_scalar_multiple(r, parse_poly("4*x^3 + 27*x^2"))


def test_resultant_vanishes_iff_common_factor():
    h = X + Y
    a = h * parse_poly("y^2 + 1")
    b = h * parse_poly("y - 3")
    assert not resultant(a, b, "y").terms
    # coprime inputs give a nonzero resultant
    assert resultant(parse_poly("y^2 + 1"), parse_poly("y - 3"), "y").terms


def test_sylvester_matrix_shape():
    a = parse_poly("y^2 + x")
    b = parse_poly("y^3 - x*y + 1")
    m = sylvester_matrix(a, b, "y")
    assert len(m) == 5 and all(len(row) == 5 for row in m)


def test_gcd():
    a = (X + Y) ** 2 * (X - Y)
    b = (X + Y) * (X ** 2 + 1)
    g = gcd_poly(a, b)
    assert is_scalar_multiple(g, X + Y)
    assert gcd_poly(X ** 2, Y ** 2).is_constant()
    # the monomial content comes out first; G_15's claim is x*y*(y + 108*x^2)
    p = parse_poly("x*y*(y + 108*x^2)")
    assert gcd_poly(p, derivative(p, "x")) == Y and gcd_poly(p, X ** 3 * Y ** 2) == X * Y
    # homogeneous inputs sharing a power of y, which setting y = 1 would lose
    assert gcd_poly(Y ** 2 * (X + Y), X * Y ** 3 * (X - Y) * (X + Y)) == Y ** 2 * (X + Y)


def test_exact_division():
    a = (X ** 2 - Y ** 2) * (X + Y * 3)
    assert exact_div(a, X + Y * 3) == X ** 2 - Y ** 2
    with pytest.raises(ExactDivisionError):
        exact_div(X ** 2 + Y, X + 1)
    assert divides(X + Y, X ** 2 - Y ** 2)
    assert not divides(X + Y, X ** 2 + Y ** 2)


def _squarefree_part(p):
    return squarefree_decomposition(p)[0]


def _is_squarefree(p):
    return squarefree_decomposition(p)[1].keys() <= {1}


def test_squarefree_part():
    p = (X + Y) ** 3 * (X - Y) ** 2 * (X + 1)
    assert is_scalar_multiple(_squarefree_part(p),
                              (X + Y) * (X - Y) * (X + 1))
    assert is_scalar_multiple(_squarefree_part(X ** 2), X)
    assert _squarefree_part(X ** 3 * Y * (Y + 1) ** 2) == X * Y * (Y + 1)
    assert _is_squarefree(parse_poly("x*y*(y + 108*x^2)"))
    assert not _is_squarefree(X ** 2 * Y)


def test_normalizations():
    p = parse_poly("2/3*x^2 + 4/3*y")
    prim = primitive_normalize(p)
    assert prim == parse_poly("x^2 + 2*y")
    assert monic(p).leading(DegRevLex())[1] == 1


def test_cyclotomic_coefficients():
    fld = CyclotomicField(4)
    i = fld.coerce(zeta(4))
    p = MultiPoly(("x", "y"), {(1, 0): i}, fld)
    assert p * p == MultiPoly(("x", "y"), {(2, 0): fld.coerce(-1)}, fld)
    # mixing fields without lifting is an error
    with pytest.raises(RingMismatch):
        p + X
    lifted = X.in_field(fld)
    assert (p + lifted).degree_in("x") == 1


def test_common_field():
    f3 = CyclotomicField(3)
    f4 = CyclotomicField(4)
    assert common_field(QQ, QQ) is QQ
    assert common_field(f3, QQ).conductor == 3
    assert common_field(f3, f4).conductor == 12


def test_pseudo_remainder():
    a = parse_poly("y^3 + x")
    b = parse_poly("2*y - x")
    r = _pseudo_rem(a, b, "y")
    assert r.degree_in("y") == 0
    # remainder must vanish exactly when b | a; here it does not
    assert r.terms


def test_rename_and_restrict():
    p = parse_poly("x^2 + y")
    q = p.rename(("s", "t"))
    assert q.vars == ("s", "t") and q.degree_in("s") == 2
    ext = p.extended(("x", "y", "z"))
    assert ext.vars == ("x", "y", "z")
    back = ext.restricted(("x", "y"))
    assert back == p


coef = st.fractions(min_value=-9, max_value=9, max_denominator=4)
expo = st.tuples(st.integers(0, 4), st.integers(0, 4))


def polys(max_terms=5):
    return st.dictionaries(expo, coef, min_size=0, max_size=max_terms).map(
        lambda d: MultiPoly(("x", "y"), d, QQ))


@settings(max_examples=50, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@settings(max_examples=50, deadline=None)
@given(polys(3), polys(3))
def test_degree_of_product(a, b):
    if not a.terms or not b.terms:
        return
    assert (a * b).total_degree() == a.total_degree() + b.total_degree()


@settings(max_examples=40, deadline=None)
@given(polys(3), polys(2))
def test_substitution_composes(p, q):
    # substituting then substituting equals substituting the composite
    inner = {"x": q, "y": X}
    outer = {"x": X + Y, "y": Y}
    lhs = substitute(substitute(p, inner), outer)
    rhs = substitute(p, {k: substitute(v, outer) for k, v in inner.items()})
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys(3), polys(3))
def test_divides_after_multiplying(a, b):
    if not a.terms or not b.terms:
        return
    assert divides(a, a * b)
    assert exact_div(a * b, a) == b


@settings(max_examples=30, deadline=None)
@given(polys(3), polys(3))
def test_resultant_zero_for_shared_factor(a, b):
    # a common nonconstant factor forces the resultant in y to vanish
    if not a.terms or not b.terms:
        return
    h = Y - X
    r = resultant(a * h, b * h, "y")
    assert not r.terms


# ---------------------------------------------------------------------------
# substitute against a term-by-term oracle

def _term_by_term(p, images):
    """p at the images, one term and one factor at a time."""
    target_vars = next(iter(images.values())).vars if images else p.vars
    field = p.field
    for img in images.values():
        field = common_field(field, img.field)
    total = MultiPoly.zero(target_vars, field)
    for exps, coeff in p.terms.items():
        term = MultiPoly.constant(coeff, target_vars, field)
        for v, e in zip(p.vars, exps):
            base = (images[v].in_field(field) if v in images
                    else MultiPoly.variable(v, target_vars, field))
            for _ in range(e):
                term = term * base
        total = total + term
    return total


SUB_FIELDS = (QQ, CyclotomicField(3), CyclotomicField(5), CyclotomicField(12))
sub_rats = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _coefficients(field):
    if not field.is_cyclotomic:
        return sub_rats
    n = field.conductor
    return st.tuples(*[sub_rats] * totient(n)).map(lambda cs: CycloNumber(n, cs))


def _polys_over(field, variables, max_terms, max_exp):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    return st.dictionaries(exps, _coefficients(field), max_size=max_terms).map(
        lambda terms: MultiPoly(variables, terms, field))


@st.composite
def substitutions(draw):
    """(p, images) with p and each image over Q or one Q(zeta_N), N in {3, 5, 12}.

    p may be zero or constant; targets have two or three variables; a
    variable of p is left out of `images` only when the target ring has
    it; an image may be a constant, as a point evaluation passes them.
    """
    field = draw(st.sampled_from(SUB_FIELDS))
    source = draw(st.sampled_from((("x", "y"), ("x", "y", "z"))))
    target = draw(st.sampled_from((("x", "y"), ("x", "y", "z"), ("s", "t", "u"))))
    p_field = draw(st.sampled_from((QQ, field)))
    p = draw(st.one_of(_polys_over(p_field, source, 5, 3),
                       _polys_over(p_field, source, 1, 0)))
    # single-term images, as a monomial matrix gives; exponents of at most
    # one make two images collide often
    single = draw(st.booleans())
    images = {}
    for v in source:
        if v in target and draw(st.booleans()):
            continue
        image_field = draw(st.sampled_from((QQ, field)))
        if single:
            images[v] = draw(_single_terms(image_field, target))
        else:
            images[v] = draw(_polys_over(image_field, target, 3,
                                         draw(st.sampled_from((0, 2)))))
    return p, images


def _single_terms(field, variables):
    exps = st.tuples(*[st.integers(0, 1)] * len(variables))
    return st.tuples(exps, _coefficients(field).filter(bool)).map(
        lambda term: MultiPoly(variables, dict([term]), field))


_Z3 = CyclotomicField(3)


@settings(max_examples=120, deadline=None)
@given(substitutions())
# images that collide (x -> y, y -> y), and collisions that cancel
@example((X + Y * 2, {"x": Y, "y": Y}))
@example((X - Y, {"x": Y, "y": Y}))
@example((X ** 2 - Y ** 2, {"x": -Y}))
@example((X ** 3 * Y - Y ** 4, {"x": MultiPoly(("x", "y"), {(0, 1): zeta(3, 1)}, _Z3)}))
def test_substitute_matches_term_by_term(case):
    p, images = case
    # equality covers the target variables and field as well as the terms
    assert substitute(p, images) == _term_by_term(p, images)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUB_FIELDS).flatmap(
    lambda f: st.tuples(_polys_over(f, ("x", "y", "z"), 5, 3),
                        st.lists(_coefficients(f), min_size=3, max_size=3))))
def test_evaluate_matches_term_by_term(case):
    p, values = case
    point = dict(zip(p.vars, values))
    images = {v: MultiPoly.constant(c, p.vars, p.field) for v, c in point.items()}
    assert substitute(p, images).constant_value() == _term_by_term(p, images).constant_value()


@pytest.mark.parametrize("field", SUB_FIELDS)
def test_substitute_zero_and_constant(field):
    target = ("s", "t", "u")
    s = MultiPoly.variable("s", target, field)
    images = {"x": s + 2, "y": s * s}
    for p in (MultiPoly.zero(("x", "y")), MultiPoly.constant(Fraction(-3, 4), ("x", "y"))):
        got = substitute(p, images)
        assert got == _term_by_term(p, images)
        assert got.vars == target and got.field == field
    assert substitute(MultiPoly.zero(("x", "y")), {}) == MultiPoly.zero(("x", "y"))


# ---------------------------------------------------------------------------
# the product kernel against a schoolbook reference

def _schoolbook(a, b, field):
    """Terms of the product of two term dicts, one pair of terms at a time."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, field.zero) + ca * cb
    return {e: c for e, c in out.items() if c}


def _box(dims):
    return list(itertools.product(*map(range, dims)))


@st.composite
def _dims(draw, nvars, size=40):
    """Exponent box sides, one per variable, with at most `size` points."""
    dims = []
    for _ in range(nvars):
        dims.append(draw(st.integers(1, max(1, min(8, size)))))
        size //= dims[-1]
    return dims


kernel_rats = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200),
                        st.fractions(max_denominator=10 ** 6))


@st.composite
def _dense(draw, nvars, coefficients=kernel_rats, size=40):
    """A term dict filling most of a box, so that products with it are dense."""
    terms = {e: draw(st.one_of(coefficients, st.just(0)))
             for e in _box(draw(_dims(nvars, size)))}
    terms = {e: c for e, c in terms.items() if c}
    return terms or {(0,) * nvars: 1}


def _sparse(nvars):
    exps = st.tuples(*[st.integers(0, 8)] * nvars)
    return st.dictionaries(exps, kernel_rats.filter(bool), min_size=1, max_size=5)


@st.composite
def _at_the_bound(draw, nvars):
    """Full boxes whose coefficients are all ±M: a field's bound is reached."""
    dims_a = draw(_dims(nvars))
    dims_b = [draw(st.integers(1, d)) for d in dims_a]
    a, b = (dict.fromkeys(_box(dims), draw(st.sampled_from((1, -1)))
                          * draw(st.integers(1, 2 ** 200))) for dims in (dims_a, dims_b))
    return a, b


@st.composite
def kernel_products(draw):
    """(a, b) over Q in one to four variables, most of them dense."""
    nvars = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("dense", "sparse", "bound", "cancel", "single")))
    if kind == "bound":
        return draw(_at_the_bound(nvars))
    a = draw(_dense(nvars))
    if kind == "cancel":
        # a(x) * a(-x) is even in x, so every odd-x slot cancels to zero
        return a, {e: -c if e[0] % 2 else c for e, c in a.items()}
    if kind == "single":
        exps = draw(st.tuples(*[st.integers(0, 3)] * nvars))
        return a, {exps: draw(kernel_rats.filter(bool))}
    return a, draw(_dense(nvars) if kind == "dense" else _sparse(nvars))


def _assert_product_matches(a, b, nvars, field):
    got = _product(a, b, nvars, field)
    assert got == _schoolbook(a, b, field)
    assert got == _product(b, a, nvars, field)
    if not field.is_cyclotomic:
        assert all(type(c) is int or c.denominator != 1 for c in got.values())


@settings(max_examples=150, deadline=None)
@given(kernel_products())
def test_product_matches_schoolbook(case):
    a, b = case
    _assert_product_matches(a, b, len(next(iter(a))), QQ)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    *[_dense(n, _coefficients(CyclotomicField(12)), size=12)] * 2)))
def test_product_matches_schoolbook_over_cyclotomics(case):
    field = CyclotomicField(12)
    a, b = ({e: field.coerce(c) for e, c in t.items()} for t in case)
    _assert_product_matches(a, b, len(next(iter(a))), field)


def test_product_edge_cases(monkeypatch):
    dense = parse_poly("(3*x - 1/2*y + 5)^3")
    boxes = []     # the exponent box of each product on the Kronecker path
    kronecker = polyring._kronecker
    monkeypatch.setattr(polyring, "_kronecker",
                        lambda a, b, dims: boxes.append(dims) or kronecker(a, b, dims))
    _assert_product_matches(dense.terms, dense.terms, 2, QQ)
    assert boxes == [[7, 7]] * 2
    # sparse and of high degree, so it takes the schoolbook loop
    _assert_product_matches({(5000, 1): 1, (0, 0): 1}, dense.terms, 2, QQ)
    # the ring with no variables
    _assert_product_matches({(): Fraction(2, 3)}, {(): Fraction(3, 2)}, 0, QQ)
    assert _product({(): Fraction(2, 3)}, {(): Fraction(3, 2)}, 0, QQ) == {(): 1}
    # over Q(zeta_12) every product is schoolbook
    lifted = dense.in_field(CyclotomicField(12)).terms
    _assert_product_matches(lifted, lifted, 2, CyclotomicField(12))
    assert boxes == [[7, 7]] * 2


def test_rational_coefficients_are_canonical():
    p = parse_poly("1/2*x + 1/3") * parse_poly("2*y + 3")
    assert type(p.terms[(1, 1)]) is int and type(p.terms[(0, 0)]) is int
    q = parse_poly("1/2*x") + parse_poly("1/2*x")
    assert q.terms == {(1, 0): 1} and type(q.terms[(1, 0)]) is int
    r = parse_poly("1/2*x") - parse_poly("-1/2*x")
    assert type(r.terms[(1, 0)]) is int
    g = gcd_poly(parse_poly("2*x^2 - 2*y^2"), parse_poly("4*x + 4*y"))
    assert g.terms == {(1, 0): 1, (0, 1): 1}
    # x^0 slice of the pullback: 1/2 * 2y, which no later product touches
    pulled = substitute(parse_poly("x + 1/2*y"), {"y": 2 * Y})
    integral = MultiPoly(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(2)}, QQ,
                         _clean=True)
    for q in (g, pulled, monic(parse_poly("2*x + 4")), primitive_normalize(integral),
              exact_div(parse_poly("x^2 - 1/4"), parse_poly("2*x - 1"))):
        assert all(type(c) is int or c.denominator != 1 for c in q.terms.values()), q.terms
    assert pulled.terms == {(1, 0): 1, (0, 1): 1}


def test_small_products_take_the_schoolbook_loop(monkeypatch):
    boxes = []
    kronecker = polyring._kronecker
    monkeypatch.setattr(polyring, "_kronecker",
                        lambda a, b, dims: boxes.append(dims) or kronecker(a, b, dims))
    assert (X + 1) ** 2 == MultiPoly(("x", "y"), {(2, 0): 1, (1, 0): 2, (0, 0): 1})
    assert boxes == []      # 2 x 2 term pairs
    cube = (X + 1) ** 3
    assert cube * cube == (X + 1) ** 6 and boxes == [[7, 1]]    # 4 x 4 pairs


# ---------------------------------------------------------------------------
# gcds and squarefree parts against the subresultant PRS they replaced

_MODULUS = 2 ** 61 - 1


def _leading_in(p, name):
    d = p.degree_in(name)
    i = p.vars.index(name)
    terms = {e[:i] + (0,) + e[i + 1:]: c for e, c in p.terms.items() if e[i] == d}
    return d, MultiPoly(p.vars, terms, p.field)


def _pseudo_rem(a, b, name):
    """Pseudo-remainder of a by b in the named variable: lc(b)^(da-db+1)*a mod b."""
    db, lb = _leading_in(b, name)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    r = a
    da = a.degree_in(name)
    if da < db:
        return r
    e = da - db + 1
    while r.terms and r.degree_in(name) >= db:
        dr, lr = _leading_in(r, name)
        power = MultiPoly.monomial(1, tuple(int(v == name) * (dr - db) for v in a.vars),
                                   a.vars, a.field)
        r = lb * r - lr * power * b
        e -= 1
    if e > 0:
        r = (lb ** e) * r
    return r


def _content_primitive(p, name):
    """Content (gcd of coefficients) and primitive part of p in the named variable."""
    coeffs = list(oracles._as_univariate(p, name).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = _prs_gcd_poly(cont, c)
    if cont.is_constant():
        return MultiPoly.constant(1, p.vars, p.field), p
    return cont, exact_div(p, cont)


def _prs(a, b, name):
    """gcd of primitive inputs by the subresultant remainder sequence."""
    if a.degree_in(name) < b.degree_in(name):
        a, b = b, a
    one = MultiPoly.constant(1, a.vars, a.field)
    g = h = one
    while True:
        delta = a.degree_in(name) - b.degree_in(name)
        r = _pseudo_rem(a, b, name)
        if not r.terms:
            break
        if r.degree_in(name) == 0:
            return one
        a, b = b, exact_div(r, g * h ** delta)
        _, g = _leading_in(a, name)
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(g ** delta, h ** (delta - 1))
    return _content_primitive(b, name)[1]


def _prs_gcd_poly(a, b):
    """The monic gcd, recursive on the contents in the first variable used."""
    if not a.terms or not b.terms:
        return monic(a + b)
    if a.is_constant() or b.is_constant():
        return MultiPoly.constant(1, a.vars, a.field)
    name = next(v for v in a.vars if a.uses_variable(v) or b.uses_variable(v))
    if a.degree_in(name) == 0 or b.degree_in(name) == 0:
        # a common divisor is free of the variable one input is free of
        free, other = (a, b) if a.degree_in(name) == 0 else (b, a)
        return _prs_gcd_poly(free, _content_primitive(other, name)[0])
    (ca, pa), (cb, pb) = _content_primitive(a, name), _content_primitive(b, name)
    return monic(_prs_gcd_poly(ca, cb) * _prs(pa, pb, name))


def _prs_squarefree_part(p):
    """The squarefree part of the primitive part and, recursively, of the content."""
    if p.is_constant():
        return MultiPoly.constant(1, p.vars, p.field)
    name = next(v for v in p.vars if p.uses_variable(v))
    cont, prim = _content_primitive(p, name)
    g = _prs_gcd_poly(prim, derivative(prim, name))
    sf = exact_div(prim, g) * _prs_squarefree_part(cont)
    return primitive_normalize(sf)


def _engine_only(fn, *args):
    """fn(*args) with the modular image switched off, so every gcd takes the engine."""
    with mock.patch.object(polyring, "_modular_gcd", lambda a, b: None):
        return fn(*args)


def _form(draw, variables, field, homogeneous, top):
    """A random nonconstant factor of degree at most `top` with small coefficients."""
    n = len(variables)
    degree = draw(st.integers(1, top))
    exps = [e for e in itertools.product(range(degree + 1), repeat=n)
            if (sum(e) == degree if homogeneous else sum(e) <= degree)]
    rats = st.integers(-3, 3) if not field.is_cyclotomic else _coefficients(field)
    terms = {e: draw(rats) for e in exps}
    lead = max(exps, key=sum)
    terms[lead] = terms[lead] or field.one    # keeps the factor nonconstant
    return MultiPoly(variables, terms, field)


@st.composite
def gcd_inputs(draw):
    """(a, b): products of random factors with multiplicities, some factors shared."""
    kind = draw(st.sampled_from(("univariate", "homogeneous", "bivariate", "three",
                                 "zeta6-homogeneous", "zeta12", "monomial")))
    variables = {"univariate": ("x",), "three": ("x", "y", "z")}.get(kind, ("x", "y"))
    field = {"zeta6-homogeneous": CyclotomicField(6),
             "zeta12": CyclotomicField(12)}.get(kind, QQ)
    homogeneous = "homogeneous" in kind
    # the PRS reference is slow in three variables and over Q(zeta_12)
    small = kind in ("three", "zeta12")
    factors = [_form(draw, variables, field, homogeneous, 1 if small else 2)
               for _ in range(draw(st.integers(1, 2 if small else 4)))]
    products = []
    for _ in range(2):
        p = MultiPoly.constant(draw(st.sampled_from((1, -2, Fraction(3, 5)))),
                               variables, field)
        if kind == "monomial":
            # a shared monomial factor, as in x*y*(y + 108*x^2)
            p = p * X ** draw(st.integers(1, 2)) * Y ** draw(st.integers(0, 2))
        for f in factors:
            p = p * f ** draw(st.integers(0, 2))
        products.append(p)
    return products


@settings(max_examples=100, deadline=None)
@given(gcd_inputs())
def test_gcd_and_squarefree_match_the_prs(case):
    # as they run, and with every gcd taken by the engine
    a, b = case
    nonconstant = [p for p in (a, b) if not p.is_constant()]
    want = [_prs_gcd_poly(a, b)] + [_prs_squarefree_part(p) for p in nonconstant]
    for run in (lambda fn, *args: fn(*args), _engine_only):
        assert run(gcd_poly, a, b) == want[0]
        for p, sf in zip(nonconstant, want[1:]):
            F, strata = run(squarefree_decomposition, p)
            assert F == sf
            assert (strata.keys() <= {1}) == is_scalar_multiple(sf, p)


def _count_eliminations(monkeypatch):
    calls = []
    eliminate = groebner.elimination_ideal
    monkeypatch.setattr(groebner, "elimination_ideal",
                        lambda gens, names:
                        calls.append(names) or eliminate(gens, names))
    return calls


def test_gcd_falls_back_to_the_engine(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    # the leading coefficient vanishes mod the prime, so the image loses a degree
    assert gcd_poly((_MODULUS * X + 1) * (X + 2), (X + 2) * (X - 3)) == X + 2
    assert len(calls) == 1
    # a gcd coefficient above half the prime has no symmetric residue
    g = X + (_MODULUS // 2 + 5)
    assert gcd_poly(g * (X + 1), g * (X - 1)) == g and len(calls) == 2
    # the leading coefficient in x vanishes at the point the image sets y to
    h = X + Y + 1
    at = MultiPoly.constant(polyring._AT * 2 % _MODULUS, X.vars)
    assert gcd_poly(((Y - at) * X + 1) * h, h * (X - Y ** 2)) == h and len(calls) == 3
    # a denominator divisible by the prime is scaled away, not a fallback
    a = (X + 1) * (X - 1) * Fraction(1, _MODULUS)
    assert gcd_poly(a, (X + 1) * (X + 5)) == X + 1 and len(calls) == 3
    # Q(zeta_12) has no root of unity mod the prime
    x12 = X.in_field(CyclotomicField(12))
    z = x12 + zeta(12)
    assert gcd_poly(z * (x12 + 1), z * (x12 - 1)) == z and len(calls) == 4


def test_divisible_inputs_build_no_basis(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    h = X ** 2 + Y + 1
    # not homogeneous and not coprime, so the images cannot decide, but
    # one input divides the other either way round
    assert gcd_poly(h ** 2 * (X * Y - 3), h) == h
    assert gcd_poly(h * (X - Y ** 2), h * (X - Y ** 2) * (X * Y - 3)) == monic(h * (X - Y ** 2))
    assert calls == []


def test_engine_gcd_takes_a_variable_the_ring_lacks(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    t, u = (MultiPoly.variable(v, ("t", "t_")) for v in ("t", "t_"))
    h = t + u + 1
    # not homogeneous and not coprime, so the images cannot decide
    assert gcd_poly(h * (t - u ** 2), h ** 2 * (t * u - 3)) == h
    assert calls == [("t__",)]
    assert _squarefree_part(h ** 2 * (t * u - 3)) == primitive_normalize(h * (t * u - 3))


def test_budget_reaches_the_engine_gcd():
    # the images cannot decide the repeated part of this curve, so its
    # squarefree part builds a basis, and the ambient budget bounds it
    p = parse_poly("(x^2 - y^3 + x*y)^2*(1 + x + 2*y)")
    with pytest.raises(groebner.ResourceBudgetExceeded) as exc, \
            groebner.under_budget(groebner.ComputationBudget(max_pair_reductions=0)):
        squarefree_decomposition(p)
    assert exc.value.stats == {"pair_reductions": 0, "zero_reductions": 0,
                               "basis_size": 2}
    assert _squarefree_part(p) == primitive_normalize(
        parse_poly("(x^2 - y^3 + x*y)*(1 + x + 2*y)"))


def test_squarefree_part_of_a_constant_is_one():
    fld = CyclotomicField(3)
    c = MultiPoly.constant(zeta(3), ("x", "y"), fld)
    assert squarefree_decomposition(c) == (MultiPoly.constant(1, ("x", "y"), fld), {})
    with pytest.raises(ValueError):
        squarefree_decomposition(MultiPoly.zero(("x", "y"), fld))


def _check_decomposition(p, expected=None):
    """squarefree_decomposition(p) against its contract, and against the
    strata {k: P_k} p was built from, compared up to a unit."""
    F, strata = squarefree_decomposition(p)
    assert list(strata) == sorted(strata)
    one = MultiPoly.constant(1, p.vars, p.field)
    product, power = one, one
    for k, P in strata.items():
        assert not P.is_constant() and _is_squarefree(P)
        assert primitive_normalize(P) == P
        product, power = product * P, power * P ** k
    for (_, P), (_, Q) in itertools.combinations(strata.items(), 2):
        assert gcd_poly(P, Q).is_constant()
    assert primitive_normalize(product) == F
    assert is_scalar_multiple(power, p)
    if expected is not None:
        assert list(strata) == sorted(expected)
        assert all(is_scalar_multiple(strata[k], P) for k, P in expected.items())


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)], ids=["Q", "Q(zeta_3)"])
def test_squarefree_decomposition_of_known_products(field):
    # products c * prod(f^k) of random squarefree, pairwise coprime factors
    # of degree one or two, with known multiplicities; most repeated parts
    # take the engine's gcd, which is slow over Q(zeta_3), hence fewer cases
    rng = random.Random(11)
    coeffs = [0, 1, -1, 2, -3] + ([zeta(3), 1 - zeta(3) * 2] if field.is_cyclotomic else [])
    x, y = X.in_field(field), Y.in_field(field)
    checked = 0
    while checked < (10 if field.is_cyclotomic else 25):
        factors = []
        for _ in range(rng.randint(1, 4)):
            degree = rng.randint(1, 2)
            f = sum((x ** a * y ** b * rng.choice(coeffs)
                     for a in range(degree + 1) for b in range(degree + 1 - a)),
                    MultiPoly.zero(X.vars, field))
            factors.append(f)
        if (any(f.is_constant() or not _is_squarefree(f) for f in factors)
                or any(not gcd_poly(f, g).is_constant()
                       for f, g in itertools.combinations(factors, 2))):
            continue
        expected = {}
        p = MultiPoly.constant(rng.choice([Fraction(-3, 5), 7] + coeffs[5:]), X.vars, field)
        for f in factors:
            k = rng.randint(1, 3)
            expected[k] = expected.get(k, 1) * f
            p = p * f ** k
        _check_decomposition(p, expected)
        checked += 1


def test_squarefree_decomposition_of_fixed_inputs(monkeypatch):
    _check_decomposition(X ** 3 * Y * (Y + 1) ** 2, {1: Y, 2: Y + 1, 3: X})
    # c*F^k: each stratum below k is found by a division, with no gcd
    # past the repeated part's, one per variable
    calls = []
    real = polyring.gcd_poly
    monkeypatch.setattr(polyring, "gcd_poly", lambda a, b: calls.append(a) or real(a, b))
    F = X ** 2 + Y ** 3 + 1
    assert squarefree_decomposition(F ** 5 * 3) == (F, {5: F})
    assert len(calls) == 2


def test_squarefree_decomposition_of_g19():
    # the quotient map's Jacobian carries each mirror e_H - 1 times: the
    # 30 mirrors of order-2 reflections once, 20 of order 3 twice and 12
    # of order 5 four times
    rec = next(r for r in default_table4_rows() if r.label == "G_19")
    J = jacobian_det(*quotient_map(rec).components())
    F, strata = squarefree_decomposition(J)
    assert {k: P.total_degree() for k, P in strata.items()} == {1: 30, 2: 20, 4: 12}
    _check_decomposition(J)


def test_coprime_images_in_three_variables():
    Z = MultiPoly.variable("z", ("x", "y", "z"))
    x, y = (MultiPoly.variable(v, Z.vars) for v in "xy")
    # each image is coprime, and a factor free of one variable still shows in another
    assert gcd_poly(x * y + Z, x + y * Z ** 2 + 1) == 1
    assert gcd_poly(y * (x + Z), y * (x - Z)) == y
    assert _is_squarefree(y * (x + Z)) and not _is_squarefree(y ** 2 * (x + Z))


def test_exact_div_stops_at_a_fractional_quotient():
    with pytest.raises(ExactDivisionError, match="not an integer"):
        exact_div(X ** 2 + 1, 2 * X + 1)
    assert exact_div(parse_poly("x^2 - 1/4"), parse_poly("2*x - 1")) == parse_poly("1/2*x + 1/4")
    assert exact_div(parse_poly("6*x^2 + 3*x"), parse_poly("4*x + 2")) == parse_poly("3/2*x")
