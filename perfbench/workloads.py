"""The benchmark's three workloads: job lists with independent checks.

A job is one Table 4 row, one catalog group, or one CLI request.  Each
job returns an outcome; `check` compares it with an answer known from
how the input was built, never with a second run of the engine under
test.  An outcome is one of "ok", "skipped" (the engine reported
skipped-budget where that is allowed) or "failed" (wrong answer, fail
status, nonzero exit, exception or SystemExit).

Every workload calls polymap through module attributes
(`refgroups.verify_table4_row`, `cli.main`, ...) so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from polymap import cli, maps, parser, refgroups
from polymap.polyring import QQ, MultiPoly, substitute

OK, SKIPPED, FAILED = "ok", "skipped", "failed"

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Rows left out of table4-full: each takes about 20 s to exhaust the stock
# pair budget and end skipped-budget, and together they do not fit one
# run of the benchmark.  See NOTES.md.
TABLE4_LEFT_OUT = ("G_21", "G_22")


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]   # outcome -> (status, verdict text)


def _acceptance_constant(name):
    """A literal constant of the acceptance slate, read without importing it."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {ACCEPTANCE}")


# FIXED_ORDER.  table4-full and catalog run their jobs in slate order
# whatever the seed.  The first job of each group family pays for the
# family's cached data (`_base_matrices`, `_base_seed_scalars`, up to 2.4 s
# for the A5 family), so permuting the jobs moved that cost between jobs:
# the work stayed the same, but the latency percentiles depended on the
# seed (job_tail spread 0.39 over four seeds on table4-full).

# ---------------------------------------------------------------------------
# table4-full

def table4_jobs(seed: int) -> list:
    """The Table 4 rows in slate order; the seed is not used (see FIXED_ORDER)."""
    mandated = set(_acceptance_constant("MANDATED_EXCEPTIONALS"))
    jobs = []
    for rec in refgroups.default_table4_rows():
        if rec.label in TABLE4_LEFT_OUT:
            continue
        must_pass = rec.kind != "exceptional" or rec.params[0] in mandated

        def run(rec=rec):
            return refgroups.verify_table4_row(rec, tier="full")

        def check(row, must_pass=must_pass):
            status = row["tiers"]["elimination"]
            verdict = f"{status} ok={row['ok']}"
            if row["ok"] and status == "pass":
                return OK, verdict
            if row["ok"] and status == "skipped-budget" and not must_pass:
                return SKIPPED, verdict
            return FAILED, verdict

        jobs.append(Job(rec.label, "row", run, check))
    return jobs


# ---------------------------------------------------------------------------
# catalog

def catalog_jobs(seed: int) -> list:
    """Groups, then rows, in catalog order; the seed is not used (see FIXED_ORDER)."""
    orders = _acceptance_constant("EXPECTED_EXCEPTIONAL_ORDERS")
    jobs = []
    for no in range(4, 23):
        rec = refgroups.exceptional_group(no)
        want = orders[no - 4]

        def run(rec=rec):
            els = refgroups.enumerate_group(rec)
            return len(els), refgroups.fingerprint(els), refgroups.verify_presentation(rec)

        def check(out, rec=rec, want=want):
            size, fp, presented = out
            d1, d2 = rec.degrees
            good = (size == fp["order"] == want == rec.expected_order
                    and fp["center_order"] == rec.presentation.k
                    and presented and d1 * d2 == want)
            return (OK if good else FAILED), json.dumps([size, fp, presented],
                                                        sort_keys=True)

        jobs.append(Job(rec.label, "group", run, check))
    for rec in refgroups.default_table4_rows():
        def run(rec=rec):
            return refgroups.basic_invariants(rec), refgroups.claimed_branch(rec)

        def check(out, rec=rec):
            (p1, p2), claim = out
            degrees = (p1.total_degree(), p2.total_degree())
            good = (degrees[0] * degrees[1] == rec.expected_order
                    and sorted(degrees) == sorted(rec.degrees)
                    and claim.total_degree() >= 1)
            text = " ; ".join(parser.format_poly(p) for p in (p1, p2, claim))
            return (OK if good else FAILED), text

        jobs.append(Job(f"inv:{rec.label}", "invariants", run, check))
    return jobs


# ---------------------------------------------------------------------------
# cli-mix
#
# Input regime.  Maps are make_family bases composed with random plane
# automorphisms: a linear map with entries in [-3, 3] followed by a lower
# triangular shear (x, y + a + b*x + c*x^2) with a, b, c in [-2, 2], the
# construction of acceptance criterion 11.
#   proper, degree: base in BASES, random automorphism on both sides.
#   branch:  base in BRANCH_BASES, pre-composed with an affine map (shear of
#            degree 0) and post-composed with a full random automorphism.
#            pinch bases are excluded: branch on pinch(4) composed with an
#            affine map and then a quadratic shear spends more than 20 s in
#            a single reduction even under --budget 1000, because the pair
#            budget does not bound one reduction.  That is a known defect
#            (see NOTES.md), not a silent exclusion.
#   milnor:  y^d - x^m + c*x^m*y^d, d in [2, 6], m in [2, 7], c a nonzero
#            rational; semi-quasihomogeneous, so mu = (d-1)(m-1).
#   distinguish: post-composed shifted_power(d, n) against
#            shifted_power(d, n'), n != n'; certificate (d-2)(n-1) against
#            (d-2)(n'-1).

X = MultiPoly.variable("x", ("x", "y"))
Y = MultiPoly.variable("y", ("x", "y"))

# (family, params, topological degree)
BASES = (
    ("whitney", {}, 3),
    ("power", {"d": 2}, 2), ("power", {"d": 3}, 3), ("power", {"d": 4}, 4),
    ("product", {"m": 2, "n": 2}, 4), ("product", {"m": 2, "n": 3}, 6),
    ("pinch", {"d": 3}, 3), ("pinch", {"d": 4}, 4),
    ("shifted_power", {"d": 3, "n": 1}, 3), ("shifted_power", {"d": 3, "n": 2}, 3),
    ("shifted_power", {"d": 4, "n": 1}, 4),
)


def _branch_curve(name, params):
    """Branch curve of a base map in target coordinates, from its geometry."""
    if name == "whitney":
        return X**3 * 4 + Y**2 * 27
    if name == "power":
        return Y
    if name == "product":
        return X * Y
    if name == "shifted_power":
        # critical curve y^(d-1) = x^n maps to t = (1-d) s^n y
        d, n = params["d"], params["n"]
        return Y**(d - 1) - X**(n * d) * (1 - d)**(d - 1)
    raise ValueError(f"no branch curve recorded for {name}")


BRANCH_BASES = tuple(b for b in BASES if b[0] != "pinch")

# Requests per repetition, in a fixed proportion.  The requests are drawn
# once from REQUEST_SEED and the workload seed only permutes their order:
# the cost of a branch or proper request varies tenfold with the
# automorphism drawn, so drawing new inputs per seed made one repetition's
# wall time vary threefold between seeds.
REQUEST_SEED = 2026
MIX = (("proper", 30), ("degree", 24), ("branch", 18), ("milnor", 30),
       ("distinguish", 18))
BRANCH_BUDGET = 1000


def random_automorphism(rng, shear_degree=2):
    while True:
        a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c != 0:
            break
    lin = maps.PlaneAutomorphism.linear(a, b, c, d)
    shear = MultiPoly(("x", "y"), {(k, 0): Fraction(rng.randint(-2, 2))
                                   for k in range(shear_degree + 1)}, QQ)
    return lin.then(maps.PlaneAutomorphism.triangular(shear, lower=True))


def _map_text(f):
    return parser.format_map(f.f1, f.f2)


def _request(kind, rng):
    """(argv, expected details) for one request of the given kind."""
    if kind in ("proper", "degree", "branch"):
        pool = BRANCH_BASES if kind == "branch" else BASES
        name, params, degree = pool[rng.randrange(len(pool))]
        base = maps.make_family(name, **params)
        pre = random_automorphism(rng, 0 if kind == "branch" else 2)
        post = random_automorphism(rng)
        text = _map_text(maps.compose(base, pre=pre, post=post))
        if kind == "proper":
            return ["proper", text], {"result": "proper"}
        if kind == "degree":
            return ["degree", text, "--seed", str(rng.randrange(10))], {"degree": degree}
        u, v = post.inverse
        claim = substitute(_branch_curve(name, params), {"x": u, "y": v})
        # --claimed=TEXT: a claim starting with "-" would be read as an option
        return (["branch", text, f"--claimed={parser.format_poly(claim)}",
                 "--budget", str(BRANCH_BUDGET)],
                {"substitution_divisible": True, "claimed_squarefree": True,
                 "elimination": "pass"})
    if kind == "milnor":
        d, m = rng.randint(2, 6), rng.randint(2, 7)
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        sign = "-" if c < 0 else "+"
        return (["milnor", f"y^{d} - x^{m} {sign} {abs(c)}*x^{m}*y^{d}"],
                {"milnor": (d - 1) * (m - 1), "isolated": True})
    if kind == "distinguish":
        d = rng.randint(3, 5)
        n1, n2 = rng.sample(range(1, 5), 2)
        pair = [_map_text(maps.compose(maps.make_family("shifted_power", d=d, n=n),
                                       post=random_automorphism(rng)))
                for n in (n1, n2)]
        return (["distinguish", *pair],
                {"certificate": {"milnor_first": (d - 2) * (n1 - 1),
                                 "milnor_second": (d - 2) * (n2 - 1)},
                 "result": "not equivalent"})
    raise ValueError(kind)


def _call_cli(argv):
    """One request through cli.main in-process; stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--json"])
        except SystemExit as exc:   # argparse usage errors end here
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


def climix_jobs(seed: int) -> list:
    rng = random.Random(REQUEST_SEED)
    kinds = [k for k, count in MIX for _ in range(count)]
    requests = [(f"{i:03d}:{kind}", kind) + _request(kind, rng)
                for i, kind in enumerate(kinds)]
    random.Random(seed).shuffle(requests)
    jobs = []
    for job_id, kind, argv, want in requests:

        def run(argv=argv):
            return _call_cli(argv)

        def check(out, want=want):
            code, stdout, stderr = out
            if code != 0:
                return FAILED, f"exit={code} {stderr.strip()}"
            check0 = json.loads(stdout)["checks"][0]
            details = check0["details"]
            if check0["status"] == "skipped-budget":
                return SKIPPED, stdout
            good = check0["status"] == "pass" and all(
                details.get(k) == v for k, v in want.items())
            return (OK if good else FAILED), stdout

        jobs.append(Job(job_id, kind, run, check))
    return jobs


WORKLOADS = {
    "table4-full": table4_jobs,
    "catalog": catalog_jobs,
    "cli-mix": climix_jobs,
}
