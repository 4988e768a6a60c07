"""Per-layer tracing of polymap from outside the package.

The tracer replaces every public function of each polymap module with a
timing wrapper, at every module namespace that binds it: `maps`,
`curves`, `refgroups` and `cli` import their helpers with
`from .x import y`, so patching only the defining module would miss
those calls.  The arithmetic hot spots `CycloNumber.__mul__` and
`MultiPoly.__mul__` (and `CycloNumber.inverse`) are wrapped on the
class.  `uninstall` puts every original back.

A wrapped call is a span.  Its self time is its duration minus the
part covered by wrapped calls made inside it.  Calls that cross a
layer boundary (the callee's module differs from the caller's) are
kept as individual spans in memory and written out by `dump_spans`.
Calls within one layer, and the coefficient arithmetic (`numberfield`
and `MultiPoly.__mul__`, called per coefficient or per term), are only
aggregated, which keeps memory bounded.
"""

from __future__ import annotations

import importlib
import json
import time
from fractions import Fraction

LAYERS = ("numberfield", "polyring", "parser", "groebner", "maps", "curves",
          "refgroups", "cli")

# (layer, class, methods) wrapped on the class itself; __rmul__ is the
# same function as __mul__ in both classes and shares its span name
CLASS_HOOKS = (
    ("numberfield", "CycloNumber", ("__mul__", "__rmul__", "inverse")),
    ("polyring", "MultiPoly", ("__mul__", "__rmul__")),
)
AGGREGATE_ONLY = {"polyring.MultiPoly.__mul__"}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.terms.values():
        for q in getattr(c, "coeffs", (c,)):
            q = Fraction(q)
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


class Tracer:
    """Wraps polymap's layers, records spans and work counters."""

    def __init__(self):
        self.stack = []      # open frames: [name, layer, start, child_s, span anchor]
        self.stats = {}      # span name -> [calls, self_s]
        self.spans = []      # (id, parent, job, name, start, end)
        self.counters = dict.fromkeys(
            ("pair_reductions", "zero_reductions", "basis_size_max",
             "coeff_bits_max", "mora_steps", "budget_exceeded",
             "degree_bases"), 0)
        self.job = None
        self._restore = []
        self._next_id = 1

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"polymap.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in _public_callables(mod):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", layer, fn)
        namespaces = [importlib.import_module("polymap")] + list(modules.values())
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        for layer, cls_name, methods in CLASS_HOOKS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                span = "__mul__" if meth == "__rmul__" else meth
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{span}", layer, fn))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, layer, fn):
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0])
        spans = self.spans
        clock = time.perf_counter
        keep = layer != "numberfield" and name not in AGGREGATE_ONLY
        post = {"groebner.buchberger": self._after_buchberger,
                "groebner.mora_standard_basis": self._after_mora}.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = 0
            if keep and (parent is None or parent[1] != layer):
                span_id = self._next_id
                self._next_id += 1
            # frame[4]: this span's id, or that of the nearest kept ancestor
            frame = [name, layer, clock(), 0.0,
                     span_id or (parent[4] if parent else 0)]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                dt = end - frame[2]
                stat[0] += 1
                stat[1] += dt - frame[3]
                if parent is not None:
                    parent[3] += dt
                if span_id:
                    spans.append((span_id, parent[4] if parent else 0, self.job,
                                  name, frame[2], end))
                if post is not None:
                    post(result, error)

        traced.__wrapped__ = fn
        return traced

    def _after_buchberger(self, basis, error):
        c = self.counters
        if any(f[0] == "maps.topological_degree" for f in self.stack):
            c["degree_bases"] += 1
        stats = basis.stats if basis is not None else getattr(error, "stats", None)
        if stats is None:
            return
        if error is not None:
            c["budget_exceeded"] += 1
        c["pair_reductions"] += stats.get("pair_reductions", 0)
        c["zero_reductions"] += stats.get("zero_reductions", 0)
        if basis is not None:
            c["basis_size_max"] = max(c["basis_size_max"], len(basis.basis))
            c["coeff_bits_max"] = max([c["coeff_bits_max"]] +
                                      [_coeff_bits(p) for p in basis.basis])

    def _after_mora(self, basis, error):
        stats = basis.stats if basis is not None else getattr(error, "stats", None)
        if stats is None:
            return
        if error is not None:
            self.counters["budget_exceeded"] += 1
        self.counters["mora_steps"] += stats.get("steps", 0)

    # -- results -----------------------------------------------------------

    def _self(self, *names):
        return sum(self.stats.get(n, (0, 0.0))[1] for n in names)

    def _calls(self, *names):
        return sum(self.stats.get(n, (0, 0.0))[0] for n in names)

    def layer_metrics(self) -> dict:
        """Per-layer counts (exact) and self times (seconds) of one run."""
        c = self.counters
        parser_names = [n for n in self.stats if n.startswith("parser.")]
        pairs = c["pair_reductions"]
        return {
            "numberfield.mul_calls": self._calls("numberfield.CycloNumber.__mul__"),
            "numberfield.mul_s": self._self("numberfield.CycloNumber.__mul__"),
            "numberfield.inverse_calls": self._calls("numberfield.CycloNumber.inverse"),
            "polyring.poly_mul_calls": self._calls("polyring.MultiPoly.__mul__"),
            "polyring.poly_mul_s": self._self("polyring.MultiPoly.__mul__"),
            "polyring.substitute_calls": self._calls("polyring.substitute"),
            "polyring.substitute_s": self._self("polyring.substitute"),
            "polyring.squarefree_s": self._self("polyring.squarefree_part",
                                                "polyring.divides"),
            "parser.calls": self._calls(*parser_names),
            "parser.self_s": self._self(*parser_names),
            "groebner.buchberger_calls": self._calls("groebner.buchberger"),
            "groebner.buchberger_s": self._self("groebner.buchberger"),
            "groebner.pair_reductions": pairs,
            "groebner.zero_reductions": c["zero_reductions"],
            "groebner.zero_frac": c["zero_reductions"] / pairs if pairs else 0.0,
            "groebner.basis_size_max": c["basis_size_max"],
            "groebner.coeff_bits_max": c["coeff_bits_max"],
            "groebner.budget_exceeded": c["budget_exceeded"],
            "groebner.mora_calls": self._calls("groebner.mora_standard_basis"),
            "groebner.mora_steps": c["mora_steps"],
            "groebner.mora_s": self._self("groebner.mora_standard_basis"),
            "maps.is_proper_s": self._self("maps.is_proper"),
            "maps.degree_s": self._self("maps.topological_degree"),
            "maps.degree_bases": c["degree_bases"],
            "maps.branch_ideal_s": self._self("maps.branch_ideal"),
            "maps.verify_branch_s": self._self("maps.verify_branch"),
            "curves.milnor_s": self._self("curves.milnor_at_origin"),
            "curves.distinguish_s": self._self("curves.distinguish_by_milnor"),
            "refgroups.enumerate_s": self._self("refgroups.enumerate_group"),
            "refgroups.fingerprint_s": self._self("refgroups.fingerprint"),
            "refgroups.presentation_s": self._self("refgroups.verify_presentation"),
            "refgroups.invariants_s": self._self("refgroups.basic_invariants"),
            "refgroups.row_s": self._self("refgroups.verify_table4_row"),
            "cli.main_calls": self._calls("cli.main"),
            "cli.self_s": self._self("cli.main"),
        }

    def dump_spans(self, path):
        """Write the kept spans as JSON lines, times relative to the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name,
                                     "start_s": round(start - origin, 9),
                                     "end_s": round(end - origin, 9)}) + "\n")
