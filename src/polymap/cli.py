"""Command-line surface for the plane-map toolkit.

Every subcommand produces a RunReport: a command echo plus a list of
named checks, each pass / fail / skipped-budget.  A subcommand whose
computation runs out of budget reports one skipped-budget check with
the limit hit and the engine's counters, and exits 0.  The JSON rendering is
deterministic (no timing, stable ordering) so golden tests can compare
bytes; the human rendering appends elapsed time.

argparse reads every map, polynomial, group spec, point and budget with
its reader, so handlers compute on the objects they are handed.  An
argument that cannot be read is a usage error (exit 2, with the reader's
message); exit 1 is left for a command that rejects what it read, or a
check that fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .curves import (CONIC_TWO_POINTS, classify_low_degree_curve,
                     distinguish_by_milnor, milnor_at_origin)
from .groebner import ComputationBudget, ResourceBudgetExceeded, under_budget
from .maps import (PlaneAutomorphism, PolyMap, branch_ideal, branch_status,
                   compose, critical_ideal, integral_relation_check, is_proper,
                   make_family, topological_degree, verify_branch)
from .parser import format_map, format_poly, parse_map, parse_poly
from .polyring import MultiPoly, substitute
from .refgroups import (basic_invariants, claimed_branch, classes_of_degree,
                        default_table4_rows, enumerate_group, fingerprint,
                        parse_group_spec, quotient_map, verify_presentation,
                        verify_table4_row)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped-budget"


@dataclass
class Check:
    name: str
    status: str
    details: dict = dc_field(default_factory=dict)


@dataclass
class RunReport:
    command: list
    checks: list
    elapsed: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if any(c.status == FAIL for c in self.checks) else 0

    def to_json(self) -> str:
        doc = {
            "schema": 2,
            "command": self.command,
            "checks": [{"name": c.name, "status": c.status,
                        "details": c.details} for c in self.checks],
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            detail = ", ".join(f"{k}={v}" for k, v in c.details.items())
            lines.append(f"{c.name}: {c.status}" + (f"  ({detail})" if detail else ""))
        lines.append(f"elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines)


def _render_map(f: PolyMap) -> str:
    return format_map(f.f1, f.f2)


def _argument(read):
    """An argparse type from a reader: its ValueError is a usage error."""
    def convert(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _pair_budget(text: str) -> ComputationBudget:
    """The pair-reduction budget of --budget or POLYMAP_BUDGET."""
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"must be a non-negative integer, got {text!r}")
    return ComputationBudget(max_pair_reductions=limit)


def _point(text: str) -> tuple:
    """The point (a, b) of `milnor --at`: two comma-separated rationals."""
    try:
        a, b = (Fraction(p.strip()) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expects two comma-separated rationals, got {text!r}") from None
    return a, b


# ---------------------------------------------------------------------------
# subcommand handlers; each returns [Check]

def _cmd_proper(args):
    ok = is_proper(args.map)
    return [Check("proper", PASS,
                  {"map": _render_map(args.map),
                   "result": "proper" if ok else "not proper"})]


def _cmd_degree(args):
    d = topological_degree(args.map)
    return [Check("degree", PASS,
                  {"map": _render_map(args.map), "degree": d})]


def _cmd_branch(args):
    f, claim = args.map, args.claimed
    if claim is None:
        gens = branch_ideal(f)
        return [Check("branch", PASS,
                      {"map": _render_map(f),
                       "generators": [format_poly(g) for g in gens]})]
    tiers = verify_branch(f, claim)
    return [Check("branch-claim", branch_status(tiers),
                  {"map": _render_map(f), "claimed": format_poly(claim), **tiers})]


def _cmd_milnor(args):
    F = args.poly
    if args.at is not None:
        a, b = args.at
        x = MultiPoly.variable("x", F.vars, F.field)
        y = MultiPoly.variable("y", F.vars, F.field)
        F = substitute(F, {"x": x + a, "y": y + b})
        if (0, 0) in F.terms:
            raise ValueError(f"curve does not pass through ({a}, {b})")
    mu = milnor_at_origin(F)
    return [Check("milnor", PASS,
                  {"curve": format_poly(F),
                   "milnor": "infinite" if mu == math.inf else mu,
                   "isolated": mu != math.inf})]


def _cmd_distinguish(args):
    first, second = distinguish_by_milnor(args.first, args.second)
    if first == second:
        details = {"certificate": None, "result": "inconclusive"}
    else:
        details = {"certificate": {"milnor_first": first,
                                   "milnor_second": second},
                   "result": "not equivalent"}
    return [Check("distinguish", PASS, details)]


def _cmd_family(args):
    # make_family reports a parameter left at None as missing
    params = {key: getattr(args, key) for key in ("d", "n", "m", "p", "q")}
    f = make_family(args.name, **params)
    details = {"map": _render_map(f),
               "jacobian": format_poly(critical_ideal(f)),
               "proper": is_proper(f)}
    return [Check(f"family:{args.name}", PASS, details)]


def _cmd_group(args):
    record = args.spec
    checks = []
    base = {"group": record.label, "order": record.expected_order,
            "degrees": list(record.degrees), "conductor": record.conductor}
    if record.gap_label:
        base["gap_label"] = record.gap_label
    if args.fingerprint or args.verify:
        # one closure serves both checks
        els = enumerate_group(record)
    if args.fingerprint:
        fp = fingerprint(els)
        ok = fp["order"] == record.expected_order
        checks.append(Check("fingerprint", PASS if ok else FAIL,
                            {**base, **fp,
                             "order_histogram": {str(k): v for k, v in
                                                 fp["order_histogram"].items()}}))
    if args.invariants:
        p1, p2 = basic_invariants(record)
        checks.append(Check("invariants", PASS,
                            {**base, "phi1": format_poly(p1),
                             "phi2": format_poly(p2)}))
    if args.quotient:
        f = quotient_map(record)
        checks.append(Check("quotient", PASS,
                            {**base, "map": _render_map(f),
                             "claimed_branch": format_poly(claimed_branch(record))}))
    if args.verify:
        ok = len(els) == record.expected_order
        details = {**base, "enumerated": len(els)}
        if record.kind == "exceptional":
            pres_ok = verify_presentation(record)
            details["presentation"] = pres_ok
            ok = ok and pres_ok
        checks.append(Check("verify", PASS if ok else FAIL, details))
    if not checks:
        checks.append(Check("group", PASS, base))
    return checks


def _cmd_classes(args):
    records = classes_of_degree(args.degree)
    return [Check("classes", PASS,
                  {"degree": args.degree,
                   "count": len(records),
                   "groups": [r.label for r in records]})]


def _row_identifier(record) -> str:
    kind = record.kind
    if kind == "cyclic":
        return f"f_{record.params[0]}"
    if kind == "product":
        return "f_{%d,%d}" % record.params
    if kind == "imprimitive":
        return "f_{%d,%d,2}" % record.params
    return f"f~{record.params[0]}"


def _cmd_verify_table4(args):
    checks = []
    for record in default_table4_rows():
        report = verify_table4_row(record)
        checks.append(Check(_row_identifier(record), report["status"],
                            {"group": record.label, **report["tiers"]}))
    return checks


def _theorem_a_checks(d: int):
    checks = []
    f = make_family("pinch", d=d)
    J = critical_ideal(f)
    x = MultiPoly.variable("x", ("x", "y"))
    h2 = parse_poly(f"(2 - {d})*x*y + x - ({d} - 1)*y")
    ok = J == x**(d - 2) * h2
    checks.append(Check(f"jacobian-split(d={d})", PASS if ok else FAIL,
                        {"h1": "x", "h2": format_poly(h2)} if ok else
                        {"jacobian": format_poly(J)}))
    relx = parse_poly(f"u^{d} - s*u^{d-1} + t*u + t", variables=("u", "s", "t"))
    rely = parse_poly(f"u*(s - u)^{d-1} - t*(1 + u)^{d-1}",
                      variables=("u", "s", "t"))
    y = MultiPoly.variable("y", ("x", "y"))
    ok_x = integral_relation_check(f, x, relx)
    ok_y = integral_relation_check(f, y, rely)
    checks.append(Check(f"integral-relations(d={d})",
                        PASS if ok_x and ok_y else FAIL,
                        {"x_relation": ok_x, "y_relation": ok_y}))
    kind = classify_low_degree_curve(h2)
    checks.append(Check(f"critical-components(d={d})",
                        PASS if kind == CONIC_TWO_POINTS else FAIL,
                        {"h2_class": kind,
                         "h1_class": classify_low_degree_curve(x)}))
    return checks


def _cmd_verify_theorem_a(args):
    if args.d is not None and args.d < 3:
        raise ValueError("verify-theorem-a needs d >= 3")
    checks = []
    for d in [3, 4, 5] if args.d is None else [args.d]:
        checks.extend(_theorem_a_checks(d))
    # the degree-2 remark: conjugating (x, y^2) into the family shape
    half = Fraction(1, 2)
    phi1 = PlaneAutomorphism.linear(half, half, half, -half)
    phi2 = PlaneAutomorphism(
        (parse_poly("x^2 + 2*x - y"), parse_poly("x^2 - y")),
        (parse_poly("1/2*x - 1/2*y"),
         parse_poly("1/4*x^2 - 1/2*x*y + 1/4*y^2 - y")))
    composed = compose(make_family("power", d=2), pre=phi1, post=phi2)
    expect = PolyMap(parse_poly("x + y + x*y"), parse_poly("x*y"))
    checks.append(Check("degree-2-remark", PASS if composed == expect else FAIL,
                        {"composite": _render_map(composed)}))
    return checks


def _cmd_verify_theorem_b(args):
    if args.n_max < 1:
        raise ValueError("verify-theorem-b needs --n-max >= 1")
    d = args.d
    maps = {n: make_family("shifted_power", d=d, n=n) for n in range(1, args.n_max + 1)}
    checks = []
    for n, f in maps.items():
        mu = milnor_at_origin(critical_ideal(f))
        expected = (d - 2) * (n - 1)
        checks.append(Check(f"milnor(d={d},n={n})",
                            PASS if mu == expected else FAIL,
                            {"milnor": mu, "expected": expected}))
    # one total per map, and none when there is no pair to compare
    ns = range(2, args.n_max + 1)
    totals = dict(zip(ns, distinguish_by_milnor(*(maps[n] for n in ns))
                      if len(ns) > 1 else []))
    for n in ns:
        for m in range(n + 1, args.n_max + 1):
            checks.append(Check(f"distinguish(d={d},n={n},m={m})",
                                PASS if totals[n] != totals[m] else FAIL,
                                {"milnor_first": totals[n],
                                 "milnor_second": totals[m]}))
    return checks


# ---------------------------------------------------------------------------
# argument plumbing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh namespace per call
    top = argparse.ArgumentParser(
        prog="polymap",
        description="Proper polynomial self-maps of the plane: properness, "
                    "degree, branch loci, Milnor numbers, and the reflection "
                    "group catalog.")
    top.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = top.add_subparsers(dest="command", metavar="command")

    plane_map = _argument(lambda text: PolyMap(*parse_map(text)))
    poly = _argument(parse_poly)

    def common(p, budget=True):
        # accepted after the subcommand too; SUPPRESS keeps a pre-subcommand
        # --json from being clobbered by the subparser default
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        if budget:
            p.add_argument("--budget", type=_argument(_pair_budget), default=None,
                           help="bound on Groebner pair reductions")

    p = sub.add_parser("proper", help="decide properness of a map")
    p.add_argument("map", type=plane_map)
    common(p)
    p.set_defaults(handler=_cmd_proper)

    p = sub.add_parser("degree", help="topological degree of a proper map")
    p.add_argument("map", type=plane_map)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: the degree is exact")
    common(p)
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("branch", help="branch locus generators of a map")
    p.add_argument("map", type=plane_map)
    p.add_argument("--claimed", type=poly, default=None,
                   help="verify this claimed branch curve instead; attach a "
                        "curve that starts with '-' as --claimed=-x+y")
    common(p)
    p.set_defaults(handler=_cmd_branch)

    p = sub.add_parser("milnor", help="Milnor number of a curve at a point")
    p.add_argument("poly", type=poly)
    p.add_argument("--at", type=_argument(_point), default=None, metavar="a,b",
                   help="evaluate at (a, b) instead of the origin; attach a "
                        "point that starts with '-' as --at=-1,2")
    common(p)
    p.set_defaults(handler=_cmd_milnor)

    p = sub.add_parser("distinguish",
                       help="non-equivalence certificate from Milnor numbers")
    p.add_argument("first", type=plane_map)
    p.add_argument("second", type=plane_map)
    common(p)
    p.set_defaults(handler=_cmd_distinguish)

    p = sub.add_parser("family", help="build a named family map")
    p.add_argument("name")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--p", type=poly, default=None, help="polynomial parameter")
    p.add_argument("--q", type=poly, default=None, help="polynomial parameter")
    common(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("group", help="inspect a reflection-group catalog entry")
    p.add_argument("spec", type=_argument(parse_group_spec),
                   help="e.g. G4, G(6,2,2), Z_5, Z_2xZ_3")
    p.add_argument("--fingerprint", action="store_true")
    p.add_argument("--invariants", action="store_true")
    p.add_argument("--quotient", action="store_true")
    p.add_argument("--verify", action="store_true")
    common(p, budget=False)
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("classes", help="equivalence classes of a given degree")
    p.add_argument("--degree", type=int, required=True)
    common(p, budget=False)
    p.set_defaults(handler=_cmd_classes)

    p = sub.add_parser("verify-table4",
                       help="check the claimed branch curves of the catalog")
    common(p)
    p.set_defaults(handler=_cmd_verify_table4)

    p = sub.add_parser("verify-theorem-a",
                       help="pinch-family structure checks")
    p.add_argument("--d", type=int, default=None)
    common(p, budget=False)
    p.set_defaults(handler=_cmd_verify_theorem_a)

    p = sub.add_parser("verify-theorem-b",
                       help="Milnor-number separation of the shifted powers")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n-max", type=int, default=4)
    common(p)
    p.set_defaults(handler=_cmd_verify_theorem_b)

    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        return 2
    # read per call, never at parser build time, so a changed environment counts
    env = os.environ.get("POLYMAP_BUDGET")
    if env and "budget" in vars(args) and args.budget is None:
        try:
            args.budget = _pair_budget(env)
        except ValueError as exc:
            print(f"polymap: POLYMAP_BUDGET {exc}", file=sys.stderr)
            return 2
    started = time.time()
    try:
        # the one place a budget is set: every basis the handler builds,
        # at any depth, counts against it
        with under_budget(getattr(args, "budget", None)):
            checks = args.handler(args)
    except ResourceBudgetExceeded as exc:
        checks = [Check(args.command, SKIPPED, exc.details)]
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"polymap: {exc}", file=sys.stderr)
        return 1
    report = RunReport(command=["polymap"] + argv, checks=checks,
                       elapsed=time.time() - started)
    try:
        print(report.to_json() if args.json else report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; with stdout on the null device
        # the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
