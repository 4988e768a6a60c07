"""Plain-text polynomial syntax: parsing and round-trippable formatting.

The grammar is deliberately small.  Multiplication and powers are
explicit (`*`, `^`), division appears only inside rational literals
(`3/4`), `zeta(n)` is the principal n-th root of unity and `i` is
shorthand for `zeta(4)`.  Power binds tighter than `*`, which binds
tighter than `+`/`-`; a sign binds looser than `^`, so `-x^2` reads
as `-(x^2)`.  A map is two polynomials separated by a comma, with or
without one pair of parentheses around them.

Each text is tokenized, the field is read off the tokens and one
recursive-descent parser walks them, so every error position counts
from the start of the text.  A printed term over the parser's
variables, such as `11664*x^5*y`, is one token that the grammar reads
as one factor; any other text goes through the grammar's small tokens.
Each grammar rule returns a fresh term dict {exponents: coefficient}
that its caller owns: a sum merges its terms into the first one's dict
in place, and products and powers go through `MultiPoly` arithmetic.
Each component becomes one `MultiPoly` at the end.  Nesting deeper
than the interpreter's stack is a parse error at the token reached.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .numberfield import CycloNumber, zeta
from .polyring import CyclotomicField, MultiPoly, QQ, DegRevLex

# the last alternative catches any character outside the grammar
_TOKENS = (r"(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
           r"|(?P<op>[-+*^(),])|(?P<bad>\S)")
# a printed term, [coef*]v^e*...: a coefficient without leading zeros
# (so never 0) and names with integer exponents, not followed by what
# would join its last piece to a longer token or raise it to a power
_FACTOR = r"[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?"
_TERM = (r"(?P<term>(?:[1-9]\d*(?:/[1-9]\d*)?\*)?" + _FACTOR + r"(?:\*" + _FACTOR + r")*"
         r"(?![A-Za-z_\d/]|\s*\^))")
_PLAIN = re.compile(r"\s*(?:" + _TOKENS + ")")
_TERMS = re.compile(r"\s*(?:" + _TERM + "|" + _TOKENS + ")")

_ORDER = DegRevLex()


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str, variables=None, offset=0) -> list:
    """(kind, text, position) triples; an operator's kind is the operator.

    Given the parser's variables, a printed term over them is one
    (term, text of its first piece, position, (exponents, coefficient))
    token.  A term right after `^` or `zeta(`, where only a number may
    stand, or with a name that is no variable, is split into the
    general grammar's tokens instead.
    """
    tokens = []
    for m in (_PLAIN if variables is None else _TERMS).finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        start = m.start(kind) + offset
        if kind == "term":
            last = tokens[-1][0] if tokens else None
            if last == "^" or last == "(" and len(tokens) > 1 and tokens[-2][1] == "zeta":
                term = None   # only a number may stand here
            else:
                term = _read_term(value, variables)
            if term is None:
                tokens += _tokenize(value, offset=start)
            else:
                tokens.append(("term", value.partition("*")[0].partition("^")[0],
                               start, term))
            continue
        if kind == "bad":
            raise PolyParseError(f"unexpected character {value!r}", start)
        tokens.append((value if kind == "op" else kind, value, start))
    return tokens


def _read_term(text: str, variables):
    """(exponents, coefficient) of a printed term, or None if a name in
    it is not one of the variables (`i` and `zeta` never are)."""
    pieces = text.split("*")
    coeff = 1
    if pieces[0][0].isdigit():
        first = pieces.pop(0)
        coeff = Fraction(first) if "/" in first else int(first)
    exps = [0] * len(variables)
    for piece in pieces:
        name, _, e = piece.partition("^")
        if name == "i" or name == "zeta" or name not in variables:
            return None
        exps[variables.index(name)] += int(e) if e else 1
    return tuple(exps), coeff


def _field_of(tokens):
    """Q, or Q(zeta_n) for n the lcm of the conductors of every `zeta(k)` and `i`.

    Q(zeta_1) and Q(zeta_2) are Q: their roots, 1 and -1, are rational.
    """
    n = 1
    for k, tok in enumerate(tokens):
        value = tok[1]
        c = None
        if value == "i":
            c = 4
        elif value == "zeta" and [t[0] for t in tokens[k + 1:k + 4]] == ["(", "number", ")"]:
            # a zero or fractional conductor is left for the parser to report
            c = int(tokens[k + 2][1]) if tokens[k + 2][1].isdigit() else None
        if c:
            n = lcm(n, c)
    return QQ if n <= 2 else CyclotomicField(n)


class _Parser:
    def __init__(self, text, variables, field):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"repeated variable name in {self.vars}")
        self.toks = _tokenize(text, self.vars)
        self.field = _field_of(self.toks) if field is None else field
        self.toks.append(("end", "", len(text)))
        self.pos = 0
        self.const_exps = (0,) * len(self.vars)
        self.units = {v: tuple(int(w == v) for w in self.vars) for v in self.vars}
        self.one = self.field.one

    def expect(self, kind):
        tok = self.toks[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def finish(self):
        tok = self.toks[self.pos]
        if tok[0] != "end":
            raise PolyParseError(f"unexpected {tok[1]!r}", tok[2])

    def poly(self) -> MultiPoly:
        p = self.component()
        self.finish()
        return p

    def pair(self):
        # a leading "(" wraps the pair only when a "," follows the
        # expression it opens; otherwise it belongs to the first component
        wrapped = self.toks[self.pos][0] == "("
        if wrapped:
            self.pos = 1
            first = self.component()
            wrapped = self.toks[self.pos][0] == ","
        if not wrapped:
            self.pos = 0
            first = self.component()
        self.expect(",")
        second = self.component()
        if wrapped:
            self.expect(")")
        self.finish()
        return first, second

    def component(self) -> MultiPoly:
        try:
            terms = self.expr()
        except RecursionError:
            raise PolyParseError("expression nested too deeply",
                                 self.toks[self.pos][2]) from None
        return self.wrap(terms)

    def expr(self) -> dict:
        p = self.term()
        while True:
            op = self.toks[self.pos][0]
            if op != "+" and op != "-":
                return p
            self.pos += 1
            for e, c in self.term().items():
                prior = p.get(e)
                if prior is None:
                    p[e] = -c if op == "-" else c
                else:
                    c = prior - c if op == "-" else prior + c
                    if c:
                        p[e] = self.field.coerce(c)
                    else:
                        del p[e]

    def term(self) -> dict:
        p = self.factor()
        while self.toks[self.pos][0] == "*":
            self.pos += 1
            p = (self.wrap(p) * self.wrap(self.factor())).terms
        return p

    def factor(self) -> dict:
        negate = False
        while (op := self.toks[self.pos][0]) == "-" or op == "+":
            self.pos += 1
            negate ^= op == "-"
        p = self.power()
        if negate:
            for e, c in p.items():
                p[e] = -c
        return p

    def power(self) -> dict:
        base = self.atom()
        if self.toks[self.pos][0] != "^":
            return base
        self.pos += 1
        tok = self.expect("number")
        if "/" in tok[1]:
            raise PolyParseError("exponent must be a nonnegative integer", tok[2])
        return (self.wrap(base) ** int(tok[1])).terms

    def atom(self) -> dict:
        tok = self.toks[self.pos]
        self.pos += 1
        if tok[0] == "term":
            exps, coeff = tok[3]
            return {exps: self.field.coerce(coeff)}
        kind, text, pos = tok
        if kind == "number":
            try:
                value = Fraction(text) if "/" in text else int(text)
            except ZeroDivisionError:
                raise PolyParseError("zero denominator", pos) from None
            return self.constant(value)
        if kind == "name":
            if text == "zeta":
                self.expect("(")
                ntok = self.expect("number")
                if "/" in ntok[1]:
                    raise PolyParseError("conductor must be an integer", ntok[2])
                n = int(ntok[1])
                if n < 1:
                    raise PolyParseError("conductor must be positive", ntok[2])
                self.expect(")")
                return self._root_constant(n, pos)
            if text == "i":
                return self._root_constant(4, pos)
            if text in self.units:
                return {self.units[text]: self.one}
            raise PolyParseError(f"unknown variable {text!r}", pos)
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise PolyParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def constant(self, value) -> dict:
        value = self.field.coerce(value)
        return {self.const_exps: value} if value else {}

    def wrap(self, terms: dict) -> MultiPoly:
        return MultiPoly(self.vars, terms, self.field, _clean=True)

    def _root_constant(self, n: int, pos: int) -> dict:
        z = zeta(n)
        if z.is_rational():
            return self.constant(z.rational_value())
        if not self.field.is_cyclotomic:
            raise PolyParseError("root of unity in a rational-coefficient context", pos)
        if self.field.conductor % n != 0:
            raise PolyParseError(
                f"zeta({n}) does not lie in Q(zeta_{self.field.conductor})", pos)
        return self.constant(z)


def parse_poly(text: str, variables=("x", "y"), field=None) -> MultiPoly:
    """Parse a polynomial; the field defaults to the one implied by the constants."""
    return _Parser(text, variables, field).poly()


def parse_map(text: str, variables=("x", "y")):
    """Parse `(expr, expr)` or `expr, expr` into two polynomials over a shared field."""
    return _Parser(text, variables, None).pair()


# ---------------------------------------------------------------------------
# formatting

def format_cyclo(c: CycloNumber) -> str:
    """Cyclotomic constant as a zeta-expression, descending powers."""
    if c.is_rational():
        return str(c.rational_value())
    n = c.conductor
    text = ""
    for k, q in reversed(list(enumerate(c.coeffs))):
        if not q:
            continue
        mag = abs(q)
        zpow = "" if k == 0 else f"zeta({n})" if k == 1 else f"zeta({n})^{k}"
        body = str(mag) if not zpow else zpow if mag == 1 else f"{mag}*{zpow}"
        text += ("+" if q > 0 else "-") + body
    return text.removeprefix("+")


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
    text = ""
    for exps, coeff in p.sorted_terms(_ORDER):
        mono = _monomial_text(exps, p.vars)
        if isinstance(coeff, CycloNumber) and not coeff.is_rational():
            sign, body = "+", f"({format_cyclo(coeff)})" + (f"*{mono}" if mono else "")
        else:
            q = coeff.rational_value() if isinstance(coeff, CycloNumber) else coeff
            mag = abs(q)
            sign = "+" if q >= 0 else "-"
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        text += f" {sign} {body}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def format_map(f1: MultiPoly, f2: MultiPoly) -> str:
    return f"({format_poly(f1)}, {format_poly(f2)})"
