"""Polynomial and map grammar: parsing and printing round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymap.numberfield import zeta
from polymap.parser import PolyParseError, format_map, format_poly, parse_map, parse_poly
from polymap.polyring import CyclotomicField, MultiPoly, QQ


def test_basic_terms():
    assert parse_poly("x") == MultiPoly.variable("x", ("x", "y"))
    assert parse_poly("x^2*y") == MultiPoly(("x", "y"), {(2, 1): Fraction(1)}, QQ)
    assert parse_poly("7") == MultiPoly(("x", "y"), {(0, 0): Fraction(7)}, QQ)
    assert parse_poly("-3/2*y") == MultiPoly(("x", "y"),
                                             {(0, 1): Fraction(-3, 2)}, QQ)


def test_precedence_and_grouping():
    assert parse_poly("-x^2") == -parse_poly("x^2")
    assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("2*(x - y)^2") == parse_poly("2*x^2 - 4*x*y + 2*y^2")
    assert parse_poly("x - y - y") == parse_poly("x - 2*y")
    # signs, products and powers of sums take the general product path
    for text, expanded in [("-(x - y)", "y - x"), ("- -(x + 1)", "x + 1"),
                           ("x*-(y - 1)", "x - x*y"), ("(x + 1)*(x - 1)", "x^2 - 1"),
                           ("-(x + y)^2", "-x^2 - 2*x*y - y^2"),
                           ("(x - y)^0 + (x - y)^1", "x - y + 1"),
                           ("(1/2*x + i)*(1/2*x - i)", "1/4*x^2 + 1"),
                           # a printed term right after "^" reads as pieces
                           ("x ^ 2*y^3", "x^2*y^3"), ("(x + 1)^2*y", "x^2*y + 2*x*y + y")]:
        assert parse_poly(text) == parse_poly(expanded, field=parse_poly(text).field)


def test_implicit_multiplication_is_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("2x")
    with pytest.raises(PolyParseError):
        parse_poly("x y")


# message and position of each malformed input, as the parser reports them
FROZEN_ERRORS = [
    ("x +", "unexpected end of input", 3),
    ("* x", "unexpected '*'", 0),
    ("x ^ y", "expected 'number', found 'y'", 4),
    ("(x", "expected ')', found ''", 2),
    ("x)", "unexpected ')'", 1),
    ("", "unexpected end of input", 0),
    ("x // y", "unexpected character '/'", 2),
    ("x + z", "unknown variable 'z'", 4),
    ("2x", "unexpected 'x'", 1),
    ("x^1/2", "exponent must be a nonnegative integer", 2),
    ("zeta(0)", "conductor must be positive", 5),
    ("zeta(3/2)", "conductor must be an integer", 5),
    ("1/0", "zero denominator", 0),
    # inputs that start like a printed term
    ("2*x^3 y", "unexpected 'y'", 6),
    ("x^2^3", "unexpected '^'", 3),
    ("3*x^1/2", "exponent must be a nonnegative integer", 4),
    ("1/00*x", "zero denominator", 0),
    ("2*xy", "unknown variable 'xy'", 2),
    ("2*x^3*z", "unknown variable 'z'", 6),
    ("2*x^3(", "unexpected '('", 5),
    ("2*x^3*", "unexpected end of input", 6),
    ("zeta(2*x)", "expected ')', found '*'", 6),
    ("x^2 3*x*y", "unexpected '3'", 4),
    ("1 x^2*y", "unexpected 'x'", 2),
]


def test_malformed_inputs():
    for text, message, position in FROZEN_ERRORS:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert (str(exc.value), exc.value.position) == (
            f"{message} (at position {position})", position)
    with pytest.raises(PolyParseError) as exc:
        parse_poly("zeta(5)*x", field=CyclotomicField(4))
    assert str(exc.value) == "zeta(5) does not lie in Q(zeta_4) (at position 0)"
    assert exc.value.position == 0


def test_division_not_supported():
    with pytest.raises(PolyParseError):
        parse_poly("x / y")
    # rational scalars are fine
    assert parse_poly("1/2*x").coeff((1, 0)) == Fraction(1, 2)


def test_cyclotomic_literals():
    p = parse_poly("zeta(3)*x")
    assert p.field.conductor == 3
    assert p.coeff((1, 0)) == p.field.coerce(zeta(3))
    q = parse_poly("i*y")
    assert q.field.conductor == 4
    assert q.coeff((0, 1)) == q.field.coerce(zeta(4))
    r = parse_poly("(4*zeta(6) - 2)*x^2*y^2 + x^4 + y^4")
    assert r.field.conductor == 6 and r.total_degree() == 4


def test_zeta_powers_in_literals():
    p = parse_poly("zeta(8)^2*x - i*x", variables=("x", "y"))
    # zeta(8)^2 is i, so the two terms cancel after lifting to conductor 8
    assert not p.terms


def test_custom_variables():
    p = parse_poly("u^2 - s*t", variables=("u", "s", "t"))
    assert p.vars == ("u", "s", "t")
    assert p.coeff((2, 0, 0)) == 1 and p.coeff((0, 1, 1)) == -1
    # i is zeta(4) even where it is named as a variable
    q = parse_poly("2*i*x", variables=("x", "i"))
    assert q.field.conductor == 4 and q.terms == {(1, 0): q.field.coerce(2 * zeta(4))}
    # a repeated name would leave an exponent's variable ambiguous
    for text in ("x^2", "x ^ 2"):
        with pytest.raises(ValueError, match="repeated variable name"):
            parse_poly(text, variables=("x", "x"))


def test_map_parsing_both_shapes():
    f1, f2 = parse_map("(x, y^3 + x*y)")
    g1, g2 = parse_map("x, y^3 + x*y")
    assert (f1, f2) == (g1, g2)
    h1, h2 = parse_map("(x^2 + y^2, (x^2 + y^2)^2 - 4*x^2*y^2)")
    assert h1 == parse_poly("x^2 + y^2")
    assert h2 == parse_poly("x^4 - 2*x^2*y^2 + y^4")


def test_map_parse_errors():
    for text in ("x", "x, y, x", "(x, y", "x,"):
        with pytest.raises(PolyParseError):
            parse_map(text)


def test_format_poly_frozen():
    assert format_poly(parse_poly("y^3 + x*y")) == "y^3 + x*y"
    assert format_poly(parse_poly("4*x^3 + 27*y^2")) == "4*x^3 + 27*y^2"
    assert format_poly(parse_poly("x - y")) == "x - y"
    assert format_poly(parse_poly("-x + 1/2")) == "-x + 1/2"
    assert format_poly(MultiPoly.zero(("x", "y"))) == "0"


def test_format_cyclotomic_frozen():
    p = parse_poly("x^3 + (-24*zeta(6) + 12)*y^2")
    assert format_poly(p) == "x^3 + (-24*zeta(6)+12)*y^2"
    assert parse_poly(format_poly(p)) == p


def test_format_map_frozen():
    f1, f2 = parse_map("(x + y + x*y, x^2*y)")
    assert format_map(f1, f2) == "(x*y + x + y, x^2*y)"


def test_infer_field():
    assert parse_poly("x^2 + y").field is QQ
    assert parse_poly("zeta(12)*x").field.conductor == 12
    assert parse_poly("i*x + zeta(3)").field.conductor == 12
    assert parse_poly("zeta(2)*x + y").field is QQ
    assert parse_poly("zeta(2)*x + y") == parse_poly("-x + y")
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x $ y")
    assert exc.value.position == 2


@pytest.mark.parametrize("text, conductor", [
    ("zeta(1)*x", None), ("zeta(2)*x + y", None),
    ("zeta(2)*zeta(3)*x", 6), ("i*zeta(2)", 4)])
def test_rational_roots_leave_the_field_alone(text, conductor):
    # zeta(1) and zeta(2) are rational, so on their own they keep Q
    p = parse_poly(text)
    assert p.field is QQ if conductor is None else p.field.conductor == conductor
    assert parse_poly(format_poly(p)) == p


def test_map_error_positions_count_from_the_full_text():
    with pytest.raises(PolyParseError) as exc:
        parse_map("(x, y + $)")
    assert exc.value.position == 8
    with pytest.raises(PolyParseError) as exc:
        parse_map("x^2, y + z")
    assert exc.value.position == 9


def test_map_with_a_stray_parenthesis_is_a_parse_error():
    for text in (")", "3 ) x", "(x), y)", "((x, y))"):
        with pytest.raises(PolyParseError):
            parse_map(text)
    with pytest.raises(PolyParseError) as exc:
        parse_map("(x), y)")
    assert str(exc.value) == "unexpected ')' (at position 6)"
    assert exc.value.position == 6


def test_map_leading_parenthesis_opens_the_first_component():
    f1, f2 = parse_map("(x + y)*x, y")
    assert (f1, f2) == (parse_poly("x^2 + x*y"), parse_poly("y"))


def test_zeta_zero_is_a_parse_error():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("x + zeta(0)")
    assert exc.value.position == 9


def test_a_sign_may_prefix_any_factor():
    assert parse_poly("+x") == parse_poly("x")
    assert parse_poly("x*-y") == parse_poly("-x*y")
    assert parse_poly("1 - +3") == parse_poly("-2")


FROZEN_SAMPLES = [
    "x", "y", "0", "-1", "x^4 + (4*zeta(6) - 2)*x^2*y^2 + y^4",
    "x^5*y - x*y^5", "y^2 - 4*x^3", "x*y*(x - y)", "1/18*zeta(6)*y - 1/36*y",
    "y^3 - 108*x^4", "(zeta(8) - zeta(8)^3)*x*y",
]


@pytest.mark.parametrize("text", FROZEN_SAMPLES)
def test_round_trip_frozen(text):
    p = parse_poly(text)
    assert parse_poly(format_poly(p)) == p


coef = st.fractions(min_value=-30, max_value=30, max_denominator=12)
expo = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(expo, coef, min_size=0, max_size=7))
def test_round_trip_random_rational(terms):
    p = MultiPoly(("x", "y"), terms, QQ)
    assert parse_poly(format_poly(p)) == p


def _spaced(text):
    return text.replace("*", " * ").replace("^", " ^ ")


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(expo, coef, min_size=0, max_size=7))
def test_spaced_operators_parse_alike(terms):
    # with spaces around "*" and "^" the grammar reads every printed term
    # but a lone variable piece by piece, which checks the term token
    p = MultiPoly(("x", "y"), terms, QQ)
    assert parse_poly(_spaced(format_poly(p))) == parse_poly(format_poly(p)) == p


@pytest.mark.parametrize("first, second", zip(FROZEN_SAMPLES, FROZEN_SAMPLES[1:]))
def test_map_round_trip_frozen(first, second):
    f1, f2 = parse_map(f"{first}, {second}")
    assert parse_map(format_map(f1, f2)) == (f1, f2)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(expo, coef, max_size=5), st.dictionaries(expo, coef, max_size=5))
def test_map_round_trip_random_rational(terms1, terms2):
    f1, f2 = (MultiPoly(("x", "y"), t, QQ) for t in (terms1, terms2))
    assert parse_map(format_map(f1, f2)) == (f1, f2)


# single-digit numbers keep every power small enough to expand quickly
TOKENS = [*"0123456789", "x", "y", "z", "i", "zeta",
          "+", "-", "*", "^", "(", ")", ",", "/", "$"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=16))
def test_any_token_sequence_parses_or_raises_parse_error(tokens):
    text = " ".join(tokens)
    for parse in (parse_poly, parse_map):
        try:
            parse(text)
        except PolyParseError:
            pass


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(expo, st.tuples(coef, coef), min_size=0, max_size=5))
def test_round_trip_random_cyclotomic(raw):
    fld = CyclotomicField(4)
    i = fld.coerce(zeta(4))
    terms = {e: fld.coerce(a) + i * b for e, (a, b) in raw.items()}
    p = MultiPoly(("x", "y"), terms, fld)
    # the printed form of 0 carries no field hint, so parse into the
    # declared field rather than relying on inference
    assert parse_poly(format_poly(p), field=fld) == p


@pytest.mark.parametrize("parse", [parse_poly, lambda text: parse_map(text + ", y")])
def test_deep_nesting_is_a_parse_error(parse):
    text = "(" * 1000 + "x" + ")" * 1000
    with pytest.raises(PolyParseError) as exc:
        parse(text)
    assert str(exc.value).startswith("expression nested too deeply")
    # the position is that of an opening parenthesis the parser reached
    assert 0 < exc.value.position < 1000


def test_a_long_run_of_signs_parses():
    x = parse_poly("x")
    assert parse_poly("-" * 1000 + "x") == x
    assert parse_poly("-" * 1001 + "x") == -x
    assert parse_map("+-" * 1000 + "x, y") == (x, parse_poly("y"))


def _canonical_over_q(p):
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in p.terms.values())


@pytest.mark.parametrize("text, terms", [
    ("1/2*x + 1/2*x", {(1, 0): 1}),
    ("(1/2)^2*4", {(0, 0): 1}),
    ("2/4*x*2", {(1, 0): 1}),
    ("x*(2/2)", {(1, 0): 1}),
    ("(1/2)^0*x", {(1, 0): 1}),
    ("3/2*y - 1/2*y + 1/3", {(0, 1): 1, (0, 0): Fraction(1, 3)}),
    ("-(1/3)*3*y", {(0, 1): -1}),
    ("(x + 1/2)^2*4", {(2, 0): 4, (1, 0): 4, (0, 0): 1}),
    ("(1/2*x + 1/2)*(2*x - 2)", {(2, 0): 1, (0, 0): -1}),
    # a zero coefficient gives no term
    ("0*x + y", {(0, 1): 1}),
    ("00*x", {}),
])
def test_integral_rational_coefficients_are_ints(text, terms):
    # MultiPoly equality cannot tell Fraction(2, 1) from 2; the types can
    p = parse_poly(text)
    assert p.terms == terms
    assert _canonical_over_q(p)


# random expression trees over Q(zeta_12), printed with the fewest
# parentheses the grammar allows; each node is (text, binding level, value)
Q12 = CyclotomicField(12)
SUM, PRODUCT, SIGNED, POWER, ATOM = range(5)


def _operand(node, level):
    text, own, _ = node
    return text if own >= level else f"({text})"


def _leaves():
    def number(q):
        return str(q), ATOM, MultiPoly.constant(q, ("x", "y"), Q12)

    def root(k):
        text = "i" if k == 4 else f"zeta({k})"
        return text, ATOM, MultiPoly.constant(zeta(k), ("x", "y"), Q12)

    # half the leaves are variables, so that few sums collapse to constants
    return st.one_of(
        st.sampled_from(["x", "y"]).map(
            lambda v: (v, ATOM, MultiPoly.variable(v, ("x", "y"), Q12))),
        st.one_of(st.fractions(min_value=0, max_value=5, max_denominator=4).map(number),
                  st.sampled_from([1, 2, 3, 4, 6, 12]).map(root)))


def _nodes(children):
    def binary(args):
        op, a, b = args
        if op == "*":
            text = f"{_operand(a, PRODUCT)}*{_operand(b, SIGNED)}"
            return text, PRODUCT, a[2] * b[2]
        text = f"{_operand(a, SUM)} {op} {_operand(b, PRODUCT)}"
        return text, SUM, a[2] + b[2] if op == "+" else a[2] - b[2]

    def signed(args):
        sign, a = args
        return f"{sign}{_operand(a, POWER)}", SIGNED, -a[2] if sign == "-" else a[2]

    def power(args):
        a, n = args
        return f"{_operand(a, ATOM)}^{n}", POWER, a[2] ** n

    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(binary),
        st.tuples(st.sampled_from("+-"), children).map(signed),
        st.tuples(children, st.integers(0, 3)).map(power))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaves(), _nodes, max_leaves=8))
def test_parse_matches_an_expression_tree(node):
    text, _, value = node
    assert parse_poly(text, field=Q12) == value
    inferred = parse_poly(text)
    assert inferred.in_field(Q12) == value
    assert inferred.field.is_cyclotomic or _canonical_over_q(inferred)
