"""Command-line surface: reports, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from polymap import cli, curves, groebner, maps
from polymap.cli import main
from polymap.polyring import MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_branch_example(capsys):
    code, out, _ = run(capsys, "branch", "(x, y^3+x*y)")
    assert code == 0
    assert "4*x^3 + 27*y^2" in out


def test_proper_example(capsys):
    code, out, _ = run(capsys, "proper", "(x+x^2*y, y)")
    assert code == 0
    assert "not proper" in out


def test_proper_positive(capsys):
    code, out, _ = run(capsys, "proper", "(x, y^2)")
    assert code == 0 and "not proper" not in out


def test_degree_command(capsys):
    code, out, _ = run(capsys, "degree", "(x, y^2)", "--seed", "3")
    assert code == 0 and "degree=2" in out


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_malformed_budget_flag_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["degree", "(x, y^2)", "--budget", value])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


# one call of every subcommand that takes --budget
BUDGETED = [("proper", "(x, y^2)"), ("degree", "(x, y^2)"),
            ("branch", "(x, y^3+x*y)"), ("milnor", "x^4 + x^2*y + y^4"),
            ("distinguish", "(x, y^3 - 3*x^2*y)", "(x, y^3 - 3*x^3*y)"),
            ("family", "pinch", "--d", "3"), ("verify-table4",),
            ("verify-theorem-b", "--n-max", "2")]


@pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
def test_malformed_budget_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("POLYMAP_BUDGET", value)
    for argv in BUDGETED:
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("polymap: POLYMAP_BUDGET must be a non-negative")


def test_budget_subcommands_cover_the_parser():
    # BUDGETED names exactly the subcommands that declare --budget
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    takes = {name for name, p in sub.choices.items()
             if "--budget" in p._option_string_actions}
    assert takes == {argv[0] for argv in BUDGETED}


def test_parser_is_built_once_and_reads_environment_per_call(capsys, monkeypatch):
    cli._build_parser.cache_clear()
    monkeypatch.setenv("POLYMAP_BUDGET", "1")
    code, out, _ = run(capsys, "degree", "(x+y+x*y, x^3*y)")
    assert code == 0 and "skipped-budget" in out
    monkeypatch.delenv("POLYMAP_BUDGET")
    code, out, _ = run(capsys, "degree", "(x+y+x*y, x^3*y)")
    assert code == 0 and "degree: pass" in out and "degree=4" in out
    monkeypatch.setenv("POLYMAP_BUDGET", "abc")
    code, out, err = run(capsys, "degree", "(x+y+x*y, x^3*y)")
    assert code == 2 and not out and err.startswith("polymap: POLYMAP_BUDGET")
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [("verify-theorem-a", "--d", "3"),
                                  ("group", "G4", "--verify"),
                                  ("classes", "--degree", "4")],
                         ids=lambda argv: argv[0])
def test_subcommand_without_a_basis_takes_no_budget(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", "1"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, missing", [
    (("power",), "d"),
    (("product", "--m", "2"), "n"),
    (("pinch",), "d"),
    (("shifted_power", "--d", "3"), "n"),
    (("semi_separate",), "q"),
    (("separate", "--p", "x^2"), "q"),
])
def test_family_missing_parameter_exits_one(capsys, argv, missing):
    code, out, err = run(capsys, "family", *argv)
    assert code == 1 and not out
    assert err == f"polymap: {argv[0]} family needs parameter {missing}\n"


@pytest.mark.parametrize("argv, extra", [
    (("whitney", "--d", "7", "--q", "x"), "d"),
    (("power", "--d", "2", "--n", "3"), "n"),
    (("product", "--m", "2", "--n", "3", "--d", "4"), "d"),
    (("pinch", "--d", "3", "--q", "y"), "q"),
    (("shifted_power", "--d", "3", "--n", "2", "--m", "4"), "m"),
    (("semi_separate", "--q", "y^2", "--p", "x"), "p"),
    (("separate", "--p", "x^2", "--q", "y^3", "--d", "2"), "d"),
])
def test_family_rejects_a_parameter_it_does_not_take(capsys, argv, extra):
    code, out, err = run(capsys, "family", *argv)
    assert code == 1 and not out
    assert err == f"polymap: {argv[0]} family takes no parameter {extra}\n"


def test_computation_failure_exits_one(capsys):
    code, _, err = run(capsys, "milnor", "y^2 - x^3 + 1")
    assert code == 1 and err.strip()


def test_parse_failure_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["proper", "(x + , y)"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: polymap proper")
    assert err.endswith("argument map: unexpected ',' (at position 5)\n")


# every argument read by a reader, with an unreadable value and the
# reader's message, position included
UNREADABLE = [
    (("proper", "(x +"), "map: unexpected end of input (at position 4)"),
    (("degree", "(x, y^)"), "map: expected 'number', found ')' (at position 6)"),
    (("branch", "(x, z)"), "map: unknown variable 'z' (at position 4)"),
    (("branch", "(x, y^3 + x*y)", "--claimed", "x +"),
     "--claimed: unexpected end of input (at position 3)"),
    (("milnor", "y^2 - x^"), "poly: expected 'number', found '' (at position 8)"),
    (("distinguish", "(x,", "(x, y)"), "first: unexpected end of input (at position 3)"),
    (("distinguish", "(x, y)", "(x,"), "second: unexpected end of input (at position 3)"),
    (("family", "separate", "--p", "x^", "--q", "y"),
     "--p: expected 'number', found '' (at position 2)"),
    (("family", "separate", "--p", "x", "--q", "y +"),
     "--q: unexpected end of input (at position 3)"),
    (("group", "H17"), "spec: could not read group spec 'H17'"),
    (("group", "G23"), "spec: exceptional groups are numbered 4 through 22"),
    (("group", "G(0,1,2)"), "spec: imprimitive group needs m, p >= 1"),
]


@pytest.mark.parametrize("argv, message", UNREADABLE,
                         ids=[" ".join(argv) for argv, _ in UNREADABLE])
def test_unreadable_argument_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage: polymap " + argv[0])
    assert err.endswith(f"error: argument {message}\n")


# readable input that a command rejects: exit 1 with the command's message
REJECTED = [
    (("family", "whitney", "--d", "7"), "whitney family takes no parameter d"),
    (("verify-theorem-a", "--d", "2"), "verify-theorem-a needs d >= 3"),
    (("verify-theorem-b", "--n-max", "0"), "verify-theorem-b needs --n-max >= 1"),
    (("classes", "--degree", "1"), "the census starts at degree 2"),
    (("milnor", "x^2+y^2", "--at=1,0"), "curve does not pass through (1, 0)"),
    (("proper", "(x, x)"), "map is not dominant (algebraically dependent components)"),
    (("milnor", "0"), "the zero polynomial defines no curve"),
    (("milnor", "0", "--at", "1,1"), "the zero polynomial defines no curve"),
    (("branch", "(x^2, y^2)", "--claimed", "0"), "claimed branch curve is the zero polynomial"),
]


@pytest.mark.parametrize("argv, message", REJECTED,
                         ids=[" ".join(argv) for argv, _ in REJECTED])
def test_rejected_input_exits_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out
    assert err == f"polymap: {message}\n"


def test_milnor_at_smooth_point_needs_no_pair(capsys, monkeypatch):
    # a unit among the partials settles mu = 0 at once, with no basis, so
    # even a zero budget in the environment lets milnor finish
    monkeypatch.setenv("POLYMAP_BUDGET", "0")
    curve = ("-5*x^5*y^5 - 1/2*x^3*y^5 - 4/3*x^2*y^6 + 1/3*x^2*y^3"
             " + 5/3*x^4 + 5/2*y")
    code, out, _ = run(capsys, "milnor", curve, "--json")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["status"] == "pass" and check["details"]["milnor"] == 0


def test_milnor_with_translation(capsys):
    code, out, _ = run(capsys, "milnor", "(y-1)^2 - (x-2)^3", "--at", "2,1")
    assert code == 0 and "milnor=2" in out


def test_milnor_off_the_curve_names_the_point(capsys):
    code, out, err = run(capsys, "milnor", "x^2+y^2", "--at=1,0")
    assert code == 1 and not out
    assert err == "polymap: curve does not pass through (1, 0)\n"


def test_milnor_at_negative_coordinate(capsys):
    # a value that starts with "-" must be attached with "=", or argparse
    # reads it as an option
    code, out, _ = run(capsys, "milnor", "(y-2)^2 - (x+1)^3", "--at=-1,2", "--json")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["status"] == "pass" and check["details"]["milnor"] == 2


@pytest.mark.parametrize("point", ["a,b", "1", "1,2,3"])
def test_malformed_milnor_point_is_usage_error(capsys, point):
    with pytest.raises(SystemExit) as exc:
        main(["milnor", "y^2 - x^3", "--at", point])
    assert exc.value.code == 2
    assert "--at" in capsys.readouterr().err


def test_milnor_non_isolated(capsys):
    code, out, _ = run(capsys, "milnor", "y^2")
    assert code == 0 and "infinite" in out


def test_distinguish_command(capsys):
    code, out, _ = run(capsys, "distinguish",
                       "(x, y^3 - 3*x^2*y)", "(x, y^3 - 3*x^3*y)")
    assert code == 0 and "not equivalent" in out


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "pinch", "--d", "3")
    assert code == 0 and "x*y + x + y" in out


def test_group_info(capsys):
    code, out, _ = run(capsys, "group", "G4")
    assert code == 0 and "order=24" in out


def test_group_verify(capsys):
    code, out, _ = run(capsys, "group", "G12", "--verify", "--fingerprint")
    assert code == 0
    assert "enumerated=48" in out


def test_group_closes_once_for_fingerprint_and_verify(capsys, monkeypatch):
    closed = []

    def counting(record, _real=cli.enumerate_group):
        closed.append(record.label)
        return _real(record)

    monkeypatch.setattr(cli, "enumerate_group", counting)
    code, out, _ = run(capsys, "--json", "group", "G12", "--fingerprint", "--verify")
    assert code == 0 and len(closed) == 1
    fp, verify = json.loads(out)["checks"]
    assert fp["details"]["order"] == verify["details"]["enumerated"] == 48


def test_group_invariants_and_quotient(capsys):
    code, out, _ = run(capsys, "group", "Z_3", "--invariants", "--quotient")
    assert code == 0 and "y^3" in out


def test_classes_command(capsys):
    code, out, _ = run(capsys, "classes", "--degree", "24")
    assert code == 0 and "G_4" in out and "count=7" in out


def test_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "degree", "(x, y^2)")
    doc = json.loads(out)
    assert code == 0
    assert list(doc) == ["schema", "command", "checks"] and doc["schema"] == 2
    assert doc["command"][0] == "polymap"
    assert doc["checks"][0]["status"] == "pass"
    assert "elapsed" not in out  # timing stays out of the JSON rendering


def test_json_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, "milnor", "y^2 - x^3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["checks"][0]["details"]["milnor"] == 2


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "--json", "verify-theorem-b",
                      "--d", "3", "--n-max", "3")
    _, second, _ = run(capsys, "--json", "verify-theorem-b",
                       "--d", "3", "--n-max", "3")
    assert first == second
    _, third, _ = run(capsys, "--json", "degree", "(x, y^2)", "--seed", "5")
    _, fourth, _ = run(capsys, "--json", "degree", "(x, y^2)", "--seed", "5")
    assert third == fourth


def test_verify_theorem_a(capsys):
    code, out, _ = run(capsys, "verify-theorem-a", "--d", "3")
    assert code == 0
    assert "jacobian-split(d=3): pass" in out
    assert "degree-2-remark: pass" in out


def test_verify_theorem_a_json_pinned(capsys):
    code, out, _ = run(capsys, "--json", "verify-theorem-a")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2 and "tier" not in doc
    expected = []
    for d, h2 in ((3, "-x*y + x - 2*y"), (4, "-2*x*y + x - 3*y"),
                  (5, "-3*x*y + x - 4*y")):
        expected += [
            (f"jacobian-split(d={d})", "pass", {"h1": "x", "h2": h2}),
            (f"integral-relations(d={d})", "pass",
             {"x_relation": True, "y_relation": True}),
            (f"critical-components(d={d})", "pass",
             {"h2_class": "conic-two-points-at-infinity", "h1_class": "line"}),
        ]
    expected.append(("degree-2-remark", "pass",
                     {"composite": "(x*y + x + y, x*y)"}))
    assert [(c["name"], c["status"], c["details"])
            for c in doc["checks"]] == expected


@pytest.mark.parametrize("d", ["0", "2"])
def test_verify_theorem_a_rejects_d_below_three(capsys, d):
    code, out, err = run(capsys, "verify-theorem-a", "--d", d)
    assert code == 1 and not out
    assert err == "polymap: verify-theorem-a needs d >= 3\n"


def test_verify_theorem_a_names_the_jacobian_on_failure(capsys, monkeypatch):
    # a Jacobian off the closed form x^(d-2) * H2 fails the split check
    monkeypatch.setattr(cli, "critical_ideal",
                        lambda f: MultiPoly.variable("y", ("x", "y")))
    code, out, _ = run(capsys, "--json", "verify-theorem-a", "--d", "3")
    assert code == 1
    split = json.loads(out)["checks"][0]
    assert split == {"name": "jacobian-split(d=3)", "status": "fail",
                     "details": {"jacobian": "y"}}


def test_verify_theorem_b_rejects_empty_range(capsys):
    code, out, err = run(capsys, "verify-theorem-b", "--n-max", "0")
    assert code == 1 and not out
    assert err == "polymap: verify-theorem-b needs --n-max >= 1\n"


def test_verify_theorem_b(capsys):
    code, out, _ = run(capsys, "--json", "verify-theorem-b",
                       "--d", "3", "--n-max", "4")
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert "distinguish(d=3,n=2,m=3)" in names
    assert all(c["status"] == "pass" for c in doc["checks"])
    # the three pairwise certificates carry mu in {1,2,3}
    mus = {c["details"]["milnor_first"] for c in doc["checks"]
           if c["name"].startswith("distinguish")}
    assert mus <= {1, 2, 3}


def test_verify_theorem_b_builds_each_maps_bases_once(capsys, monkeypatch):
    # a graph basis and a total-Milnor basis for each of the maps
    # n = 2..6; comparing their ten pairs builds nothing more
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return groebner.buchberger(*args, **kwargs)

    monkeypatch.setattr(maps, "buchberger", counted)
    monkeypatch.setattr(curves, "buchberger", counted)
    code, _, _ = run(capsys, "--json", "verify-theorem-b",
                     "--d", "3", "--n-max", "6")
    assert code == 0 and len(calls) == 10


def test_verify_theorem_b_reports_both_totals_of_a_failing_pair(capsys, monkeypatch):
    monkeypatch.setattr(cli, "distinguish_by_milnor",
                        lambda *maps: [1] * len(maps))
    code, out, _ = run(capsys, "--json", "verify-theorem-b", "--n-max", "3")
    assert code == 1
    assert json.loads(out)["checks"][-1] == {
        "name": "distinguish(d=3,n=2,m=3)", "status": "fail",
        "details": {"milnor_first": 1, "milnor_second": 1}}


def test_verify_table4_budget_zero_reports_the_certificates(capsys):
    # a zero budget stops every row's first elimination before its first
    # pair reduction, so each row reports the two cheap certificates alone
    code, out, _ = run(capsys, "verify-table4", "--budget", "0", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 43
    for c in checks:
        details = c["details"]
        assert c["status"] == details["elimination"] == "skipped-budget", c["name"]
        assert details["elimination_stop"]["pair_reductions"] == 0, c["name"]
        assert details["substitution_divisible"] is True, c["name"]
        assert details["claimed_squarefree"] is True, c["name"]
    names = [c["name"] for c in checks]
    assert "f_2" in names and "f_{2,2}" in names
    assert "f_{6,3,2}" in names and "f~4" in names


def test_budget_skip_reports_not_fail(capsys):
    code, out, _ = run(capsys, "degree", "(x+y+x*y, x^3*y)", "--budget", "1")
    assert code == 0 and "skipped-budget" in out


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("POLYMAP_BUDGET", "1")
    code, out, _ = run(capsys, "degree", "(x+y+x*y, x^3*y)")
    assert code == 0 and "skipped-budget" in out
    monkeypatch.delenv("POLYMAP_BUDGET")
    code, out, _ = run(capsys, "degree", "(x+y+x*y, x^3*y)")
    assert "degree=4" in out


@pytest.mark.parametrize("argv", [
    ("proper", "(x+y+x*y, x^3*y)", "--budget", "1"),
    ("family", "pinch", "--d", "5", "--budget", "1"),
])
def test_budget_skip_reports_progress(capsys, argv):
    code, out, _ = run(capsys, "--json", *argv)
    _, again, _ = run(capsys, "--json", *argv)
    assert code == 0 and out == again
    check = json.loads(out)["checks"][0]
    assert check["status"] == "skipped-budget"
    assert check["details"] == {"limit": "pair-reduction budget 1 exceeded",
                                "pair_reductions": 1, "zero_reductions": 0,
                                "basis_size": 2}


def test_elimination_skip_reports_progress(capsys):
    # the cheap tiers still pass; the skipped elimination says where it
    # stopped: in the first of the map's two stratum bases, over the simple
    # factor of J = x^3*(x - 4*y - 3*x*y)
    claim = ("256*x^5*y + 27*x^4*y^2 - 36*x^3*y^2 + 50*x^2*y^2 - 2500*x*y^2"
             " - 256*y^3 - 3125*y^2")
    argv = ("--json", "branch", "(x+y+x*y, x^4*y)", "--claimed", claim,
            "--budget", "2")
    code, out, _ = run(capsys, *argv)
    _, again, _ = run(capsys, *argv)
    assert code == 0 and out == again
    check = json.loads(out)["checks"][0]
    assert check["status"] == "skipped-budget"
    assert check["details"]["substitution_divisible"] is True
    assert check["details"]["claimed_squarefree"] is True
    assert check["details"]["elimination"] == "skipped-budget"
    assert check["details"]["elimination_stop"] == {
        "limit": "pair-reduction budget 2 exceeded",
        "pair_reductions": 2, "zero_reductions": 0, "basis_size": 2}


def test_homogeneous_elimination_skip_reports_progress(capsys):
    # J = 8*x*y*(x^4 - y^4) is squarefree, so the branch curve is one
    # elimination; it stops where budget 11 cuts it and finishes at 27
    argv = ("--json", "branch", "(x^4 + y^4, x^2*y^2)", "--claimed", "x^2*y - 4*y^3")
    code, out, _ = run(capsys, *argv, "--budget", "11")
    check = json.loads(out)["checks"][0]
    assert code == 0 and check["status"] == "skipped-budget"
    assert check["details"]["elimination_stop"] == {
        "limit": "pair-reduction budget 11 exceeded", "pair_reductions": 11,
        "zero_reductions": 2, "basis_size": 12}
    code, out, _ = run(capsys, *argv, "--budget", "26")
    assert code == 0 and json.loads(out)["checks"][0]["status"] == "skipped-budget"
    code, out, _ = run(capsys, *argv, "--budget", "27")
    assert code == 0 and json.loads(out)["checks"][0]["status"] == "pass"


def test_table4_budget_stops_are_frozen(capsys):
    # 31 of the rows stop at budget 3, each reporting the engine's counters
    # and live basis size at the stop, so any change to what the engine
    # does before its fourth pair reduction in a basis changes these bytes;
    # a row whose Jacobian has several multiplicity strata builds a basis
    # per stratum, each counting its pairs from zero
    code, out, _ = run(capsys, "verify-table4", "--budget", "3", "--json")
    assert code == 0 and out.count('"elimination_stop"') == 31
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f246679475839477f0efeaff65e43980d71aa5872820c3b99ddf1c1bcbf0cb0")


def test_table4_answers_are_frozen(capsys):
    # every row's verdict and tier report without a budget: a change to the
    # engine or to how a branch ideal is assembled must leave these bytes
    code, out, _ = run(capsys, "verify-table4", "--json")
    assert code == 0 and out.count('"elimination": "pass"') == 43
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ddd0a4e158c9e5a5ede3bbd27b12f5587de599fff2ddad79ed9112c5686d5489")


def test_budget_reaches_the_total_milnor_basis(capsys):
    # the first map's graph basis needs no pair reduction, so a zero budget
    # first runs out in the total-Milnor basis of its critical curve
    code, out, _ = run(capsys, "--json", "distinguish", "(x, y^4 - 4*x^2*y)",
                       "(x, y^4 - 4*x^3*y)", "--budget", "0")
    check = json.loads(out)["checks"][0]
    assert code == 0 and check["status"] == "skipped-budget"
    assert check["details"] == {"limit": "pair-reduction budget 0 exceeded",
                                "pair_reductions": 0, "zero_reductions": 0,
                                "basis_size": 3}


def test_milnor_reads_the_budget_environment(capsys, monkeypatch):
    # milnor's common-component gcd can build a basis, so POLYMAP_BUDGET
    # reaches it: a curve the modular gcd decides passes under any budget,
    # and a malformed value is a usage error
    monkeypatch.setenv("POLYMAP_BUDGET", "1")
    code, out, _ = run(capsys, "milnor", "x^4 + x^2*y + y^4")
    assert code == 0 and "milnor: pass" in out and "milnor=5" in out
    monkeypatch.setenv("POLYMAP_BUDGET", "abc")
    code, out, err = run(capsys, "milnor", "x^4 + x^2*y + y^4")
    assert code == 2 and not out and err.startswith("polymap: POLYMAP_BUDGET")


# a curve whose partials share a component that no modular image
# decides, so the common-component gcd builds the fallback basis
FALLBACK_CURVE = "(x^2 - y^3 + x*y)^2*(1 + x + 2*y)"


def test_budget_reaches_the_gcd_fallback_of_milnor(capsys):
    code, out, _ = run(capsys, "--json", "milnor", FALLBACK_CURVE, "--budget", "2")
    check = json.loads(out)["checks"][0]
    assert code == 0 and check["status"] == "skipped-budget"
    assert check["details"] == {"limit": "pair-reduction budget 2 exceeded",
                                "pair_reductions": 2, "zero_reductions": 0,
                                "basis_size": 4}
    code, out, _ = run(capsys, "--json", "milnor", FALLBACK_CURVE, "--budget", "3")
    check = json.loads(out)["checks"][0]
    assert code == 0 and check["status"] == "pass"
    assert check["details"]["milnor"] == "infinite"


@pytest.mark.parametrize("argv, code", [
    (("degree", "(x+y+x*y, x^3*y)", "--budget", "1"), 0),
    (("family", "whitney", "--d", "7", "--budget", "1"), 1),
], ids=["skipped", "rejected"])
def test_budget_ends_with_the_command(capsys, argv, code):
    # cli.main runs in-process many times over (the benchmark does), so
    # the budget of one command must not outlive it, however it ends;
    # pinch(4) is the skipped map, whose basis needs more than one pair
    assert run(capsys, *argv)[0] == code
    assert maps.topological_degree(maps.make_family("pinch", d=4)) == 4


def test_branch_with_claim(capsys):
    code, out, _ = run(capsys, "branch", "(x, y^3+x*y)",
                       "--claimed", "4*x^3 + 27*y^2")
    assert code == 0 and "branch-claim: pass" in out
    code, out, _ = run(capsys, "branch", "(x, y^3+x*y)", "--claimed", "y")
    assert code == 1 and "fail" in out


@pytest.mark.parametrize("argv, code", [
    (["--json", "degree", "(x, y)"], 0),
    (["branch", "(x, y^3+x*y)", "--claimed", "y"], 1)])
def test_a_closed_stdout_is_no_traceback(argv, code):
    # a reader that has gone away, as in `polymap ... | head -1`: the write
    # end of a pipe whose read end is closed fails on the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run([sys.executable, "-m", "polymap.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
