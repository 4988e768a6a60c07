"""Plain-text polynomial syntax: parsing and round-trippable formatting.

The grammar is deliberately small.  Multiplication and powers are
explicit (`*`, `^`), division appears only inside rational literals
(`3/4`), `zeta(n)` is the principal n-th root of unity and `i` is
shorthand for `zeta(4)`.  Power binds tighter than `*`, which binds
tighter than `+`/`-`; unary minus binds looser than `^`, so `-x^2`
reads as `-(x^2)`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .numberfield import CycloNumber, common_conductor
from .polyring import CyclotomicField, MultiPoly, QQ, DegRevLex

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^(),]))")

_ORDER = DegRevLex()


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise PolyParseError(f"unexpected character {text[at]!r}", at)
            number, name, op = m.groups()
            start = m.end() - len(m.group().lstrip())
            if number is not None:
                self.items.append(("number", number, start))
            elif name is not None:
                self.items.append(("name", name, start))
            else:
                self.items.append((op, op, start))
            pos = m.end()
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


def _scan_conductors(text: str) -> list[int]:
    out = []
    for m in re.finditer(r"\bzeta\s*\(\s*(\d+)\s*\)", text):
        out.append(int(m.group(1)))
    if re.search(r"\bi\b", text):
        out.append(4)
    return out


def infer_field(text: str):
    """Coefficient field implied by the constants in the text (Q by default)."""
    conductors = _scan_conductors(text)
    if not conductors:
        return QQ
    n = 1
    for c in conductors:
        n = common_conductor(n, c)
    return CyclotomicField(n)


class _Parser:
    def __init__(self, text, variables, field):
        self.toks = _Tokens(text)
        self.vars = tuple(variables)
        self.field = field

    def parse(self) -> MultiPoly:
        p = self.expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected {tok[1]!r}", tok[2])
        return p

    def expr(self) -> MultiPoly:
        sign = 1
        tok = self.toks.peek()
        if tok[0] in ("+", "-"):
            self.toks.next()
            sign = -1 if tok[0] == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            tok = self.toks.peek()
            if tok[0] == "+":
                self.toks.next()
                p = p + self.term()
            elif tok[0] == "-":
                self.toks.next()
                p = p - self.term()
            else:
                return p

    def term(self) -> MultiPoly:
        p = self.factor()
        while self.toks.peek()[0] == "*":
            self.toks.next()
            p = p * self.factor()
        return p

    def factor(self) -> MultiPoly:
        tok = self.toks.peek()
        if tok[0] == "-":
            self.toks.next()
            return -self.factor()
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            tok = self.toks.expect("number")
            if "/" in tok[1]:
                raise PolyParseError("exponent must be a nonnegative integer", tok[2])
            return base ** int(tok[1])
        return base

    def atom(self) -> MultiPoly:
        tok = self.toks.next()
        kind, text, pos = tok
        if kind == "number":
            if "/" in text:
                num, den = text.split("/")
                if int(den) == 0:
                    raise PolyParseError("zero denominator", pos)
                value = Fraction(int(num), int(den))
            else:
                value = int(text)
            return MultiPoly.constant(value, self.vars, self.field)
        if kind == "name":
            if text == "zeta":
                self.toks.expect("(")
                ntok = self.toks.expect("number")
                if "/" in ntok[1]:
                    raise PolyParseError("conductor must be an integer", ntok[2])
                n = int(ntok[1])
                if n < 1:
                    raise PolyParseError("conductor must be positive", ntok[2])
                self.toks.expect(")")
                return self._root_constant(n, pos)
            if text == "i":
                return self._root_constant(4, pos)
            if text in self.vars:
                return MultiPoly.variable(text, self.vars, self.field)
            raise PolyParseError(f"unknown variable {text!r}", pos)
        if kind == "(":
            p = self.expr()
            self.toks.expect(")")
            return p
        raise PolyParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def _root_constant(self, n: int, pos: int) -> MultiPoly:
        from .numberfield import zeta
        z = zeta(n)
        if z.is_rational():
            return MultiPoly.constant(z.rational_value(), self.vars, self.field)
        if not self.field.is_cyclotomic:
            raise PolyParseError("root of unity in a rational-coefficient context", pos)
        if self.field.conductor % n != 0:
            raise PolyParseError(
                f"zeta({n}) does not lie in Q(zeta_{self.field.conductor})", pos)
        return MultiPoly.constant(z, self.vars, self.field)


def parse_poly(text: str, variables=("x", "y"), field=None) -> MultiPoly:
    """Parse a polynomial; the field defaults to the one implied by the constants."""
    if field is None:
        field = infer_field(text)
    return _Parser(text, variables, field).parse()


def _split_pair(text: str):
    text = text.strip()
    inner = text[1:-1] if text.startswith("(") and text.endswith(")") else text
    depth = 0
    for k, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                # the outer parens were not a wrapper after all
                return _split_pair(f"({text})")
        elif ch == "," and depth == 0:
            return inner[:k], inner[k + 1:]
    raise PolyParseError("expected a top-level comma between components", len(text))


def parse_map(text: str, variables=("x", "y")):
    """Parse a pair `(expr, expr)` into two polynomials over a shared field."""
    first, second = _split_pair(text)
    field = infer_field(text)
    return (_Parser(first, variables, field).parse(),
            _Parser(second, variables, field).parse())


# ---------------------------------------------------------------------------
# formatting

def _format_rational(q) -> str:
    return str(q)


def format_cyclo(c: CycloNumber) -> str:
    """Cyclotomic constant as a zeta-expression, descending powers."""
    if not c:
        return "0"
    if c.is_rational():
        return _format_rational(c.rational_value())
    n = c.conductor
    coeffs = c.coeffs
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        q = coeffs[k]
        if not q:
            continue
        if k == 0:
            body = _format_rational(abs(Fraction(q)))
        else:
            zpow = f"zeta({n})" if k == 1 else f"zeta({n})^{k}"
            mag = abs(Fraction(q))
            body = zpow if mag == 1 else f"{_format_rational(mag)}*{zpow}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if q > 0 else f"-{body}")
    return "".join(parts)


def _monomial_text(exps, variables) -> str:
    pieces = []
    for v, e in zip(variables, exps):
        if e == 1:
            pieces.append(v)
        elif e > 1:
            pieces.append(f"{v}^{e}")
    return "*".join(pieces)


def format_poly(p: MultiPoly) -> str:
    """Canonical text form: degrevlex-descending terms; parses back to p."""
    if not p.terms:
        return "0"
    out = []
    for exps, coeff in p.sorted_terms(_ORDER):
        mono = _monomial_text(exps, p.vars)
        if isinstance(coeff, CycloNumber) and not coeff.is_rational():
            body = f"({format_cyclo(coeff)})"
            if mono:
                body = f"{body}*{mono}"
            out.append(("+", body))
            continue
        q = coeff.rational_value() if isinstance(coeff, CycloNumber) else Fraction(coeff)
        sign = "+" if q >= 0 else "-"
        mag = abs(q)
        if not mono:
            body = _format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_rational(mag)}*{mono}"
        out.append((sign, body))
    sign0, body0 = out[0]
    text = body0 if sign0 == "+" else f"-{body0}"
    for sign, body in out[1:]:
        text += f" {sign} {body}"
    return text


def format_map(f1: MultiPoly, f2: MultiPoly) -> str:
    return f"({format_poly(f1)}, {format_poly(f2)})"
