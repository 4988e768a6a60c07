"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
                                [--spans FILE]

run.py starts this with PYTHONPATH=src.  Set-up is `import polymap` plus
input generation; the worker reports the monotonic time at which it was
done, less the time it spent sampling the host speed, so the parent can
measure set-up from before the interpreter started.  It then runs every
job once, in order, while hostspeed.HostSpeed samples the host's speed,
and prints one JSON object on its last stdout line.  Times exclude the
sampler's own time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

from hostspeed import HostSpeed
from tracer import Tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    # set-up is scaled by the host speed sampled just before and just after it
    speed = HostSpeed()
    before = speed.burst()
    burst_s = speed.spent
    import workloads            # imports polymap: part of the set-up
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic() - burst_s
    setup_speed = (before + speed.burst()) / 2
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_speed": setup_speed}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outcomes = []
    spent0 = speed.spent
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with speed:
            for job in jobs:
                if tracer is not None:
                    tracer.job = job.id
                t, sampled = time.perf_counter(), speed.spent
                try:
                    out, error = job.run(), None
                except Exception as exc:   # a job that raises is a failed job
                    out, error = None, f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                outcomes.append((job, t, end, end - t - (speed.spent - sampled),
                                 out, error))
    finally:
        # the sampler's own time is not the workload's
        sampler = speed.spent - spent0
        wall_end = time.perf_counter()
        wall = wall_end - wall0 - sampler
        cpu = time.process_time() - cpu0 - sampler
        if tracer is not None:
            tracer.uninstall()

    results = []
    for job, start, end, latency, out, error in outcomes:
        if error is None:
            try:
                status, verdict = job.check(out)
            except Exception as exc:   # malformed output
                status, verdict = "failed", f"check raised {type(exc).__name__}: {exc}"
        else:
            status, verdict = "failed", error
        results.append({"id": job.id, "kind": job.kind, "latency_s": latency,
                        "latency_ref_s": latency * speed.factor(start, end),
                        "status": status, "verdict": verdict})
    digest = hashlib.sha256()
    for r in sorted(results, key=lambda r: r["id"]):
        digest.update(f"{r['id']}\t{r['status']}\t{r['verdict']}\n".encode())
    doc = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed": speed.factor(wall0, wall_end),
        "setup_speed": setup_speed,
        "sampler_s": sampler,
        "digest": digest.hexdigest(),
        "jobs": results,
    }
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump_spans(args.spans)
            doc["spans"] = len(tracer.spans)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
