"""Global Groebner bases under an ambient computation budget.

There is one engine: Buchberger's algorithm with the Gebauer-Moeller
pair criteria, its pairs in a heap from which pruned ones are dropped
as they come up.  When the generators are homogeneous for some positive
integer weights w, the next pair is the one whose lcm has the smallest
w-degree, ties broken by the active order; for a w-homogeneous ideal
that w-degree is the pair's sugar (Giovini, Mora, Niesi, Robbiano,
Traverso, "One sugar cube, please", ISSAC 1991).  Otherwise selection is
the normal strategy: the smallest lcm in the active order.

Each new basis element costs one pass of bookkeeping: the pair update
prunes the old pairs in place and hands back only the new ones to push,
and the live elements stay sorted by lead, a new one inserted by
bisection.

Reduction is one division loop for both coefficient fields, against
basis elements that are canonical: primitive integer polynomials with a
positive leading coefficient over Q, monic over Q(zeta_N).  Over Q it is
fraction-free, so the partial remainder stays in integers; over
Q(zeta_N) a step takes no inverse.  Either way the remainder is returned
up to a nonzero factor, which the callers normalize (`_reduce_terms`).

Inside the engine a monomial is one int, in the layout of Monagan &
Pearce ("Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Each exponent gets a field of 15 value
bits under one guard bit, so a product is an int sum, a quotient an int
difference, and divisibility, lcm and coprimality take a few int
operations on all fields at once (`_Packing`).  Every order of
`polyring` has a key linear in the exponents, so the key is one int
too: a dot product with one column per variable, memoized per
monomial.  The division loop keeps the partial remainder's monomials
in a heap on their negated keys and skips the ones that cancelled
when they come up, instead of scanning for the largest at each step
(Monagan & Pearce, "Sparse polynomial division using a heap", JSC
2011).  A sum of two valid monomials cannot carry past a guard bit, so
an exponent that outgrows its field shows as a set guard bit when the
new monomial first gets its key, and an input exponent that does not
fit is caught when it is packed; either way the fields widen and the
computation starts over (`_packed`), so no exponent ever wraps.
Polynomials enter the engine as MultiPolys with tuple exponents.  A
basis leaves it packed: each element becomes a MultiPoly when it is
first read, and each basis element's leading exponent comes with the
basis (`IdealBasis.leads`), so a caller that reads only the leads
decodes nothing.

`buchberger` returns the minimal basis: the leading monomials, which
fix the staircase, are those of the reduced basis, but no tail is
reduced.  A caller that prints the basis reduces what it prints with
`interreduce`; `elimination_ideal` reduces only its eliminants.

The budget is ambient, so no function takes one: inside `under_budget`
every basis, the gcd fallback of `polyring` included, checks it before
each pair reduction.  Exceeding the limit raises ResourceBudgetExceeded,
whose stats say how far the computation got; the command line sets the
budget once per command and reports a stop as "skipped-budget".
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field as dataclass_field
from heapq import heapify, heappop, heappush
from operator import mul

from .polyring import (DegRevLex, MonomialOrder, MultiPoly, block_order, field_inverse,
                       integral_terms, primitive_normalize)


class ResourceBudgetExceeded(RuntimeError):
    """A computation hit its pair-reduction budget before finishing.

    `stats` holds the engine's counters at the moment of the stop: the
    pairs reduced so far and the size of the live basis.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}

    @property
    def details(self) -> dict:
        """The report of a skip: the limit hit, then the engine's counters."""
        return {"limit": str(self), **self.stats}


@dataclass
class ComputationBudget:
    """Limits for each basis computation; None means unlimited.

    One budget bounds every basis built under it (`under_budget`), each
    counting from zero and stopping before its (max_pair_reductions +
    1)-th pair reduction.
    """

    max_pair_reductions: int | None = None

    def check_pairs(self, stats):
        """Raise before a pair reduction that would go over the limit."""
        if (self.max_pair_reductions is not None
                and stats["pair_reductions"] >= self.max_pair_reductions):
            raise ResourceBudgetExceeded(
                f"pair-reduction budget {self.max_pair_reductions} exceeded", dict(stats))


_BUDGET = ContextVar("budget", default=ComputationBudget())


@contextmanager
def under_budget(budget: ComputationBudget | None):
    """Bound every basis built in the block by `budget` (None: unlimited)."""
    token = _BUDGET.set(budget or ComputationBudget())
    try:
        yield
    finally:
        _BUDGET.reset(token)


@dataclass
class IdealBasis:
    """A computed Groebner basis, never empty, the leading exponent of
    each basis element in basis order, and run statistics.

    `buchberger` gives the minimal basis, smallest lead first, each
    element primitive over Q and monic over Q(zeta_N); `interreduce`
    turns it into the reduced basis with the same leads.  The engine's
    bases are sequences that turn an element into a MultiPoly when it
    is first read, so a caller of `leads` alone decodes nothing.
    """

    order: MonomialOrder
    basis: Sequence
    leads: list
    stats: dict = dataclass_field(default_factory=dict)

    @property
    def vars(self):
        return self.basis[0].vars


class _Decoded(Sequence):
    """Basis elements kept as packed term dicts, each decoded into a
    MultiPoly of the ring of `ring` the first time it is read.

    It keeps the packing's field layout, not the packing, so the
    packing's key memo goes when the run that built it returns.
    """

    __slots__ = ("_terms", "_polys", "_vars", "_field", "_offsets", "_mask")

    def __init__(self, terms, ring, packing):
        self._terms = terms
        self._polys = [None] * len(terms)
        self._vars, self._field = ring.vars, ring.field
        self._offsets, self._mask = packing.offsets, packing.mask

    def __len__(self):
        return len(self._terms)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        p = self._polys[k]
        if p is None:
            offsets, mask = self._offsets, self._mask
            p = self._polys[k] = MultiPoly(
                self._vars, {tuple((m >> o) & mask for o in offsets): c
                             for m, c in self._terms[k].items()},
                self._field, _clean=True)
        return p

    def __eq__(self, other):
        return list(self) == other

    def __repr__(self):
        return repr(list(self))


class _ExponentOverflow(ArithmeticError):
    """An exponent outgrew its packed field; `_packed` widens and starts over."""


class _Packing:
    """Exponent vectors packed into one int, and the order as an int key.

    Variable i owns the `bits`-bit field at offset i * (bits + 1); the bit
    just above it is the field's guard bit, clear in every valid
    monomial.  Product and quotient are `+` and `-`, and a divides b
    when subtracting a from b with every guard bit set borrows from no
    guard.  The order key is linear in the exponents, so it is the dot
    product of the exponents with one int column per variable, read off
    `order.key` at the unit vectors: each key row becomes one
    signed digit of the int, wide enough that comparing ints compares
    the key tuples.  `negkey` memoizes the negated key of each monomial
    it sees and refuses one with a guard bit set.
    """

    __slots__ = ("bits", "offsets", "mask", "guard", "negkey")

    def __init__(self, nvars, order, bits):
        self.bits = bits
        self.offsets = offsets = tuple(range(0, nvars * (bits + 1), bits + 1))
        self.mask = mask = (1 << bits) - 1
        self.guard = guard = sum(1 << (o + bits) for o in offsets)
        columns = [order.key(tuple(int(i == j) for j in range(nvars)))
                   for i in range(nvars)]
        rows = len(order.key((0,) * nvars))
        norm = max((sum(abs(col[k]) for col in columns) for k in range(rows)), default=0)
        # one digit holds a row's value on any valid monomial with room
        # for the sign, and a difference of two such values
        digit = bits + 1 + norm.bit_length()
        negcols = tuple((o, -sum(v << (digit * (rows - 1 - k)) for k, v in enumerate(col)))
                        for o, col in zip(offsets, columns))
        memo = {}

        def negkey(m):
            k = memo.get(m)
            if k is None:
                if m & guard:
                    raise _ExponentOverflow(m)
                k = memo[m] = sum(c * ((m >> o) & mask) for o, c in negcols)
            return k

        self.negkey = negkey

    def pack(self, exps):
        if max(exps, default=0) > self.mask:
            raise _ExponentOverflow(exps)
        return sum(e << o for e, o in zip(exps, self.offsets))

    def unpack(self, m):
        mask = self.mask
        return tuple((m >> o) & mask for o in self.offsets)

    def divides(self, a, b):
        guard = self.guard
        return ((b | guard) - a) & guard == guard

    def lcm(self, a, b):
        # the guard bits where a's field is at least b's, spread to field masks
        ge = ((a | self.guard) - b) & self.guard
        fields = ge - (ge >> self.bits)
        return b ^ ((a ^ b) & fields)


def _packed(run, nvars, order):
    """run(packing) with fields wide enough for every exponent it meets.

    Fields start at 15 bits.  An exponent that does not fit, at packing
    time or as a new product, raises _ExponentOverflow; the width then
    doubles (plus one) and `run` starts over, so nothing ever wraps.
    """
    bits = 15
    while True:
        try:
            return run(_Packing(nvars, order, bits))
        except _ExponentOverflow:
            bits = 2 * bits + 1


class _Entry:
    """A basis element in the form the division loop reads: packed terms,
    made canonical here (`_normalized`), and the leading term."""

    __slots__ = ("terms", "lead_exp", "lead_coeff", "index", "retired")

    def __init__(self, terms, lead, index, field):
        self.terms = terms = _normalized(terms, lead, field)
        self.lead_exp = lead
        self.lead_coeff = terms[lead]
        self.index = index
        self.retired = False


def _pack_terms(p: MultiPoly, packing):
    """(terms, lead): p's terms with packed monomials, over Q the least
    integral multiple (`integral_terms`), and the leading monomial."""
    terms = p.terms if p.field.is_cyclotomic else integral_terms(p.terms)[0]
    pack = packing.pack
    terms = {pack(e): c for e, c in terms.items()}
    return terms, min(terms, key=packing.negkey)


def _normalized(terms, lead, field):
    """The canonical multiple of packed terms: over Q, where they are
    integers, primitive with a positive leading coefficient, as
    `primitive_normalize` gives; monic over Q(zeta_N)."""
    c = terms[lead]
    if field.is_cyclotomic:
        inv = field_inverse(c)
        return {m: v * inv for m, v in terms.items()}
    content = math.gcd(*terms.values())
    if c < 0:
        content = -content
    if content == 1:
        return terms
    return {m: v // content for m, v in terms.items()}


def _reduce_terms(hterms, entries, packing, field):
    """Full division of a packed term dict, integral over Q, by canonical
    entries.

    Returns the remainder up to a nonzero factor, its terms from the
    leading term down.  The partial remainder's monomials wait in a heap
    on their negated keys; a monomial that cancels stays there and is
    skipped when it comes up.  Over Q the division is fraction-free, as
    in Bareiss elimination: a step with leading coefficient c against a
    reducer's leading coefficient lc > 0 multiplies the partial
    remainder, and the terms already moved to the remainder, by
    lc/gcd(c, lc) and subtracts c/gcd(c, lc) times the reducer.  Over
    Q(zeta_N) every reducer is monic, so a step subtracts c times it.
    """
    integral = not field.is_cyclotomic
    negkey = packing.negkey
    guard = packing.guard
    leads = [(g.lead_exp, g) for g in entries]
    heap = [(negkey(e), e) for e in hterms]
    heapify(heap)
    out = {}
    while heap:
        e = heappop(heap)[1]
        c = hterms.pop(e, None)
        if c is None:
            continue
        eg = e | guard
        for lead, red in leads:
            if (eg - lead) & guard == guard:
                break
        else:
            out[e] = c
            continue
        factor = c
        if integral:
            lc = red.lead_coeff
            g = math.gcd(c, lc)
            mult = lc // g
            factor = c // g
            if mult != 1:
                for k in hterms:
                    hterms[k] *= mult
                for k in out:
                    out[k] *= mult
        shift = e - lead
        for ge, gc in red.terms.items():
            if ge == lead:
                continue
            ne = ge + shift
            cur = hterms.get(ne)
            delta = factor * gc
            if cur is None:
                hterms[ne] = -delta
                heappush(heap, (negkey(ne), ne))
            else:
                cur = cur - delta
                if cur:
                    hterms[ne] = cur
                else:
                    del hterms[ne]
    return out


def _spoly_terms(f: _Entry, g: _Entry, lcm):
    """S-polynomial as a raw packed term dict, cross-scaled to avoid inverses."""
    sf = lcm - f.lead_exp
    sg = lcm - g.lead_exp
    cf, cg = f.lead_coeff, g.lead_coeff
    terms = {}
    for e, c in f.terms.items():
        if e != f.lead_exp:
            terms[e + sf] = c * cg
    for e, c in g.terms.items():
        if e == g.lead_exp:
            continue
        ne = e + sg
        cur = terms.get(ne)
        delta = c * cf
        if cur is None:
            terms[ne] = -delta
        else:
            cur = cur - delta
            if cur:
                terms[ne] = cur
            else:
                del terms[ne]
    return terms


def _gm_update(pairs, entries, active, new: _Entry, packing):
    """Gebauer-Moeller update of the pair set for a freshly added element.

    `active` holds the live entries other than `new`.  Prunes the old
    pairs in `pairs` in place, adds the new ones, and returns those.
    """
    t = new.index
    lead = new.lead_exp
    guard = packing.guard
    lcm_of = packing.lcm
    # candidate pairs with the new element, from the live entries
    fresh = {g.index: lcm_of(g.lead_exp, lead) for g in active}

    def lcm_with_new(i):
        # a member of an old pair may be retired
        lcm = fresh.get(i)
        return lcm_of(entries[i].lead_exp, lead) if lcm is None else lcm

    # prune old pairs strictly dominated by the new element
    dead = [ij for ij, lcm in pairs.items()
            if ((lcm | guard) - lead) & guard == guard
            and lcm_with_new(ij[0]) != lcm and lcm_with_new(ij[1]) != lcm]
    for ij in dead:
        del pairs[ij]
    # drop candidates whose lcm is a proper multiple of another candidate's
    # lcm; a proper divisor of a packed monomial is a smaller int, so in
    # increasing order each lcm meets its divisors among the minimal ones
    minimal = []
    for lcm in sorted(set(fresh.values())):
        lg = lcm | guard
        for other in minimal:
            if (lg - other) & guard == guard:
                break
        else:
            minimal.append(lcm)
    minimal = set(minimal)
    # one representative per lcm class, the smallest index; a coprime
    # member kills its whole class, and coprime leads are those whose lcm
    # is their product
    classes = {}
    for i, lcm in fresh.items():
        if lcm in minimal:
            classes.setdefault(lcm, []).append(i)
    new_pairs = {}
    for lcm, members in classes.items():
        if any(lcm == entries[i].lead_exp + lead for i in members):
            continue
        new_pairs[(min(members), t)] = lcm
    pairs.update(new_pairs)
    return new_pairs


def _grading(gens):
    """Positive integer weights making every generator weighted-homogeneous, or None.

    The admissible weights form the kernel of the term-difference
    vectors.  Each row of their echelon form is pivoted on its last
    nonzero column, every other column weighs 1, and back substitution
    gives the pivot weights.  The answer is that kernel vector made
    primitive, or None when it is not positive; a kernel that is a line
    gives its positive generator.
    """
    n = len(gens[0].vars)
    diffs = []
    for g in gens:
        first, *rest = g.terms
        diffs.extend(tuple(x - y for x, y in zip(e, first)) for e in rest)
    if all(sum(d) == 0 for d in diffs):
        return (1,) * n
    # integer row echelon form, built one row at a time: pivot column -> row
    rows = {}
    for d in diffs:
        v = list(d)
        for col in sorted(rows, reverse=True):
            if v[col]:
                r = rows[col]
                a, b = r[col], v[col]
                v = [a * x - b * y for x, y in zip(v, r)]
        if not any(v):
            continue
        content = math.gcd(*v)
        rows[max(k for k, x in enumerate(v) if x)] = [x // content for x in v]
        if len(rows) == n:
            return None
    # each pivot row reads only earlier columns: solve them in order,
    # scaling the solution so far to keep it integral
    w = [0 if k in rows else 1 for k in range(n)]
    for col in sorted(rows):
        r = rows[col]
        rest = sum(r[k] * w[k] for k in range(col))
        g = math.gcd(rest, r[col])
        w = [x * (r[col] // g) for x in w]
        w[col] = -rest // g
    if all(x < 0 for x in w):
        w = [-x for x in w]
    if not all(x > 0 for x in w):
        return None
    content = math.gcd(*w)
    return tuple(x // content for x in w)


def buchberger(generators, order: MonomialOrder = None) -> IdealBasis:
    """Minimal Groebner basis of the generated ideal under a global monomial order.

    The leads are those of the reduced basis; `interreduce` gives the
    reduced basis itself.
    """
    if order is None:
        order = DegRevLex()
    budget = _BUDGET.get()
    gens = [g for g in generators if g.terms]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0]
    for g in gens[1:]:
        ring._same_ring(g)
    weights = _grading(gens)
    basis, leads, stats = _packed(
        lambda packing: _buchberger(gens, budget, weights, packing),
        len(ring.vars), order)
    return IdealBasis(order, basis, leads, stats=stats)


def _buchberger(gens, budget, weights, packing):
    """(minimal basis, leading exponents, stats) of the generators, under
    the packing's order."""
    negkey = packing.negkey
    divides = packing.divides
    unpack = packing.unpack
    field = gens[0].field
    # basis_size is the live basis at each budget check, so a stop
    # reports the basis as it stood
    stats = {"pair_reductions": 0, "zero_reductions": 0, "basis_size": 0}

    entries: list[_Entry] = []
    active: list[_Entry] = []     # the live entries, smallest lead first
    pairs: dict = {}
    # the smallest lcm comes first: by weighted degree when there is a
    # grading, then by the order, then by the pair; a popped pair that is
    # no longer in `pairs` was pruned
    queue = []

    def rank(e):
        return -negkey(e.lead_exp)

    def add(terms, lead):
        nonlocal active
        entry = _Entry(terms, lead, len(entries), field)
        entries.append(entry)
        # pairs are formed against the pre-retirement basis; only afterwards may
        # elements with now-redundant leading terms stop spawning future pairs
        for ij, lcm in _gm_update(pairs, entries, active, entry, packing).items():
            key = -negkey(lcm)
            heappush(queue, ((key,) if weights is None else
                             (sum(map(mul, weights, unpack(lcm))), key), ij))
        # a multiple of the new lead sorts after it
        at = bisect_left(active, -negkey(lead), key=rank)
        retired = [e for e in active[at:] if divides(lead, e.lead_exp)]
        if retired:
            for e in retired:
                e.retired = True
            active = [e for e in active if not e.retired]
        active.insert(at, entry)

    for terms, lead in sorted((_pack_terms(g, packing) for g in gens),
                              key=lambda tl: negkey(tl[1]), reverse=True):
        add(terms, lead)

    while queue:
        _, (i, j) = heappop(queue)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        stats["basis_size"] = len(active)
        budget.check_pairs(stats)
        stats["pair_reductions"] += 1
        rterms = _reduce_terms(_spoly_terms(entries[i], entries[j], lcm),
                                  active, packing, field)
        if rterms:
            add(rterms, next(iter(rterms)))
        else:
            stats["zero_reductions"] += 1

    kept = _minimal(active, packing)
    stats["basis_size"] = len(kept)
    return (_Decoded([e.terms for e in kept], gens[0], packing),
            [unpack(e.lead_exp) for e in kept], stats)


def _minimal(entries, packing):
    """The entries, sorted by leading monomial, whose lead no kept
    earlier lead divides."""
    kept = []
    for entry in entries:
        if not any(packing.divides(k.lead_exp, entry.lead_exp) for k in kept):
            kept.append(entry)
    return kept


def _interreduce(entries, ring, packing):
    """(reduced basis in the ring of `ring`, their leading exponents),
    from the entries of a minimal Groebner basis sorted by leading monomial.

    Each element is reduced by the others; its leading term is not
    divisible by theirs, so it stays, and the output keeps the order.
    """
    out = []
    for entry in entries:
        others = [k for k in entries if k is not entry]
        terms = _reduce_terms(dict(entry.terms), others, packing, ring.field)
        out.append(_normalized(terms, entry.lead_exp, ring.field))
    return _Decoded(out, ring, packing), [packing.unpack(k.lead_exp) for k in entries]


def _entries(basis: IdealBasis, packing):
    """The basis elements as packed entries, smallest lead first."""
    field = basis.basis[0].field
    entries = [_Entry(*_pack_terms(g, packing), i, field) for i, g in enumerate(basis.basis)]
    entries.sort(key=lambda e: packing.negkey(e.lead_exp), reverse=True)
    return entries


def interreduce(basis: IdealBasis) -> IdealBasis:
    """The reduced Groebner basis of a minimal basis's ideal: the same
    order, leads and stats, each element reduced by the others.

    The input must be minimal, as every basis `buchberger` returns is,
    and so is any subset of one, such as `elimination_ideal`'s eliminants.
    """
    reduced, leads = _packed(
        lambda packing: _interreduce(_entries(basis, packing), basis.basis[0], packing),
        len(basis.vars), basis.order)
    return IdealBasis(basis.order, reduced, leads, stats=dict(basis.stats))


def elimination_ideal(generators, eliminate) -> list:
    """Generators of the ideal's intersection with the subring without `eliminate`."""
    gens = [g for g in generators if g.terms]
    if not gens:
        raise ValueError("no nonzero generators")
    variables = gens[0].vars
    gb = buchberger(gens, block_order(variables, tuple(eliminate)))
    keep = tuple(v for v in variables if v not in eliminate)
    elim_idx = [variables.index(v) for v in eliminate]
    # the eliminated block comes first in the order, so an element whose
    # lead is free of it is free of it in every term
    free = [k for k, e in enumerate(gb.leads) if not any(e[i] for i in elim_idx)]
    basis = [gb.basis[k] for k in free]
    if len(basis) > 1:
        # a Groebner basis of the intersection; reduced among themselves,
        # these elements are its reduced basis
        basis = interreduce(IdealBasis(gb.order, basis, [gb.leads[k] for k in free])).basis
    return [primitive_normalize(g.restricted(keep)) for g in basis]


def staircase_count(leads):
    """Number of monomials x^a y^b outside the monomial ideal that the
    exponent pairs `leads` generate; math.inf if not finite.

    The minimal corners, sorted by a, have b falling; the monomials
    with a_i <= a < a_(i+1) are standard below b_i.  The count is finite
    when the first corner is a pure power of y and the last one of x.
    """
    corners = []
    for a, b in sorted(leads):
        if not corners or b < corners[-1][1]:
            corners.append((a, b))
    if not corners or corners[0][0] or corners[-1][1]:
        return math.inf
    return sum((a1 - a0) * b0 for (a0, b0), (a1, _) in zip(corners, corners[1:]))
