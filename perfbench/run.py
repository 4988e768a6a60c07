"""polymap benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {table4-full,catalog,cli-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a polymap checkout.  Every repetition runs in a
fresh interpreter (perfbench/worker.py, PYTHONPATH=src, one process, one
thread), because polymap's module-level caches are cold for every user
process; a second in-process repetition would time warm caches.

--trace 0 measures the end-to-end metrics: a few set-up probes, then
repetitions for about S seconds.  A repetition is never cut short, so a
workload whose single pass exceeds S runs exactly one pass.  Timed
metrics named *_ref_* and setup_s are scaled to a reference host speed
sampled during the run (hostspeed.py); the raw times are printed too.
--trace 1 runs one untraced repetition and then traced repetitions for
about S seconds, and reports the per-layer metrics; the tracing overhead
is the traced wall time minus the untraced one.

Every answer is checked (see workloads.py).  For one seed the per-job
verdicts must be byte-identical across repetitions, traced or not, and
the work counters identical across traced repetitions; otherwise the
run reports itself broken.  The human report goes to stdout, and the
last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("table4-full", "catalog", "cli-mix")
SETUP_PROBES = 8
TAIL_BEYOND = 10          # jobs beyond the tail percentile
DEADLINE_S = 170          # a run must end within 180 s

# per-layer metrics that are exact and must repeat; the rest are seconds
COUNTS = ("numberfield.mul_calls", "numberfield.inverse_calls",
          "polyring.poly_mul_calls", "polyring.substitute_calls", "parser.calls",
          "groebner.buchberger_calls", "groebner.pair_reductions",
          "groebner.zero_reductions", "groebner.basis_size_max",
          "groebner.budget_exceeded", "groebner.mora_calls",
          "groebner.mora_steps", "maps.degree_bases", "cli.main_calls")
UNITS = {"groebner.coeff_bits_max": "bits", "groebner.zero_frac": "ratio",
         **dict.fromkeys(COUNTS, "count")}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a worker crashed)."""


def _context() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


class Runner:
    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, *extra) -> tuple:
        """Run one worker; returns (its JSON document, seconds from spawn to exit, spawn time)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               self.workload, "--seed", str(self.seed), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {DEADLINE_S} s run limit") from exc
        took = time.monotonic() - spawned
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), took, spawned

    def repetitions(self, seconds, *extra) -> list:
        """Fresh-interpreter repetitions while the next one is projected to end within `seconds`."""
        reps, start, last = [], time.monotonic(), 0.0
        while not reps or time.monotonic() - start + last <= seconds:
            if reps and time.monotonic() + last > self.deadline:
                break
            doc, last, spawned = self.spawn(*extra)
            doc["setup_s"] = doc["ready"] - spawned
            reps.append(doc)
        return reps


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return lat[k], 100.0 * (k + 1) / n


def _check_determinism(reps, traced) -> list:
    problems = []
    if len({r["digest"] for r in reps}) > 1:
        problems.append("per-job verdicts differ between repetitions of one seed")
    counted = [r["layers"] for r in traced]
    for name in UNITS:
        if len({c[name] for c in counted}) > 1:
            problems.append(f"counter {name} differs between traced repetitions: "
                            f"{[c[name] for c in counted]}")
    return problems


def _job_summary(reps) -> dict:
    jobs = [j for r in reps for j in r["jobs"]]
    count = {s: sum(j["status"] == s for j in jobs) for s in ("ok", "skipped", "failed")}
    return {"attempted": len(jobs), **count, "examples": [
        f"{j['id']}: {j['verdict'][:300]}" for j in jobs if j["status"] == "failed"][:5]}


def end_to_end(runner, seconds):
    runner.spawn("--setup-only")     # fills the bytecode cache; not timed
    setups = []
    for _ in range(SETUP_PROBES):
        doc, _, spawned = runner.spawn("--setup-only")
        setups.append((doc["ready"] - spawned, doc["setup_speed"]))
    reps = runner.repetitions(seconds)
    setups += [(r["setup_s"], r["setup_speed"]) for r in reps]
    # each job's latency is its median over the repetitions; p50 and tail
    # are taken over those per-job medians
    by_job = {}
    for r in reps:
        for j in r["jobs"]:
            by_job.setdefault(j["id"], []).append((j["latency_s"], j["latency_ref_s"]))
    raw = [statistics.median(t for t, _ in v) for v in by_job.values()]
    ref = [statistics.median(t for _, t in v) for v in by_job.values()]
    tail_raw, pct = _tail(raw)
    tail_ref, _ = _tail(ref)
    summary = _job_summary(reps)
    n = summary["attempted"]

    def med(key):
        return statistics.median(r[key] for r in reps)

    metrics = {
        "wall_ref_s": (statistics.median(r["wall_s"] * r["speed"] for r in reps), "s"),
        "setup_s": (statistics.median(t * f for t, f in setups), "s"),
        "completed_frac": (summary["ok"] / n, "ratio"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    report = {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "job_p50_ref_ms": (statistics.median(ref) * 1e3, "ms"),
        "job_tail_ref_ms": (tail_ref * 1e3, "ms"),
        "job_p50_ms": (statistics.median(raw) * 1e3, "ms"),
        "job_tail_ms": (tail_raw * 1e3, "ms"),
        "setup_raw_s": (statistics.median(t for t, _ in setups), "s"),
        "skipped_frac": (summary["skipped"] / n, "ratio"),
        "failed_frac": (summary["failed"] / n, "ratio"),
        "host_speed": (med("speed"), "ratio"),
    }
    notes = [f"repetitions: {len(reps)} of {len(reps[0]['jobs'])} jobs each, "
             f"fresh interpreter each; set-up probes: {SETUP_PROBES}",
             f"job latency: each job's median over the repetitions; the tail is "
             f"p{pct:.1f} of {len(ref)} jobs ({TAIL_BEYOND} jobs beyond it)",
             "*_ref_* and setup_s are at the reference host speed (measured "
             "time x sampled host_speed, see hostspeed.py); the rest are raw"]
    return metrics, report, notes, reps, []


def per_layer(runner, seconds):
    plain, _, spawned = runner.spawn()
    plain["setup_s"] = plain["ready"] - spawned
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.workload}-seed{runner.seed}.jsonl"
    traced = runner.repetitions(seconds, "--trace", "--spans", str(spans))
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        if name in UNITS:     # exact, checked equal across repetitions
            value = layers[0][name]
        else:                 # seconds, at the reference host speed
            value = statistics.median(r["layers"][name] * r["speed"] for r in traced)
        metrics[name] = (value, UNITS.get(name, "s"))
    traced_wall = statistics.median(r["wall_s"] * r["speed"] for r in traced)
    plain_wall = plain["wall_s"] * plain["speed"]
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    notes = [f"traced repetitions: {len(traced)} after one untraced repetition; "
             f"wall at reference speed: untraced {plain_wall:.3f} s, "
             f"traced {traced_wall:.3f} s",
             f"spans of the last traced repetition: {spans.relative_to(ROOT)} "
             f"({traced[-1].get('spans', 0)} spans)"]
    return metrics, {}, notes, [plain] + traced, traced


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (ROOT / "src" / "polymap" / "__init__.py",
                 ROOT / "tests" / "test_acceptance.py"):
        if not need.is_file():
            print(f"perfbench: {need.relative_to(ROOT)} not found; run from the "
                  f"root of a polymap checkout", file=sys.stderr)
            return 2

    runner = Runner(args.workload, args.seed, started)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, report, notes, reps, traced = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = _job_summary(reps)
    problems = _check_determinism(reps, traced)

    ctx = _context()
    print(f"polymap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"context: nproc={ctx['nproc']} python={ctx['python']} cpu={ctx['cpu']}")
    for line in notes:
        print(line)
    print(f"jobs: {summary['attempted']} attempted, {summary['ok']} ok, "
          f"{summary['skipped']} skipped-budget, {summary['failed']} failed")
    for line in summary["examples"]:
        print(f"FAILED {line}")
    for line in problems:
        print(f"BROKEN {line}")
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{name:28s} {value:.6g} {unit}")
    result = {
        "correct": summary["failed"] == 0 and not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
