"""Run one workload in this (fresh) process and print its result document as
one JSON line. Started by run.py with the BLAS/OpenMP threads pinned to 1.

  python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]
"""
import time

_STARTED = time.perf_counter()  # set-up is timed from before the package (and numpy) load

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail(latencies_ms) -> dict:
    """Latency at the highest percentile with at least ten samples above it.
    Runs with fewer than twenty samples have none; they report the median
    and say so through ``samples_above``."""
    values = sorted(latencies_ms)
    n = len(values)
    if not n:  # every operation was refused
        return {"percentile": 50.0, "samples": 0, "samples_above": 0, "value": 0.0}
    p = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100.0) >= 10), 50.0)
    return {"percentile": p, "samples": n, "samples_above": int(n * (1 - p / 100.0)), "value": percentile(values, p)}


def run_pass(ops, refusals, tracer=None) -> dict:
    """One closed-loop pass over the operations: time each one, then
    (untimed) check its output and keep its record."""
    latencies, records = [], []
    busy_ns = 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i)
        start = time.perf_counter_ns()
        refused = None
        try:
            outcome = op.run()
        except refusals as exc:
            refused = type(exc).__name__
        elapsed = time.perf_counter_ns() - start
        if tracer:
            tracer.end_op()
        busy_ns += elapsed
        if refused:
            records.append({"refused": refused, "digest": f"refused:{refused}"})
            continue
        latencies.append(elapsed / 1e6)
        records.append(op.check(outcome))
    return {"latencies_ms": latencies, "records": records, "busy_s": busy_ns / 1e9}


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quality(records) -> dict:
    """Output-quality figures; each is 0 where the workload has no such stage."""
    done = [r for r in records if "refused" not in r]
    compiled = [c for r in done for c in r.get("compiles", [r]) if "swaps" in c]
    scheduled = [r for r in done if "batches" in r]
    batches = sum(r["batches"] for r in scheduled)
    return {
        "fail_share": (len(records) - len(done)) / len(records),
        "swaps_mean": mean(r["swaps"] for r in compiled),
        "post_gates_mean": mean(r["post_gates"] for r in compiled),
        "depth_mean": mean(r["depth"] for r in compiled),
        "verified_share": mean(r["verified"] for r in compiled),
        "trf": sum(r["jobs"] for r in scheduled) / batches if batches else 0.0,
        "violation_mean": mean(v for r in scheduled for v in r["violations"]),
        "success_mean": mean(s for r in done for s in r.get("success", ())),
    }


def summarize(result: dict) -> dict:
    lat = result["latencies_ms"]
    records = result["records"]
    return {
        "attempted": len(records),
        "failed": sum("refused" in r for r in records),
        "refusals": sorted({r["refused"] for r in records if "refused" in r}),
        "ops_per_s": len(lat) / result["busy_s"],
        "op_p50_ms": statistics.median(lat) if lat else 0.0,
        "op_tail": tail(lat),
        "busy_s": result["busy_s"],
        "digest": hashlib.sha256("\n".join(r["digest"] for r in records).encode()).hexdigest(),
        "op_digests": [r["digest"] for r in records],
        "quality": quality(records),
    }


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    import workloads
    from checks import CheckFailed

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # around set-up too, for circuit.parse_s
    workload = workloads.build(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.uninstall()

    try:
        run_pass(workload.warmup, workloads.REFUSALS)
        plain = summarize(run_pass(workload.ops, workloads.REFUSALS))
        doc = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops": len(workload.ops),
            "warmup_ops": len(workload.warmup),
            "env": environment(args.seed),
            "setup_s": setup_s,
            "untraced": plain,
        }
        if tracer:
            tracer.install()
            traced = summarize(run_pass(workload.ops, workloads.REFUSALS, tracer))
            tracer.uninstall()
            if traced["digest"] != plain["digest"]:
                raise CheckFailed("traced pass produced different output than the untraced pass")
            coverage = tracer.coverage()
            if coverage["ops_not_covered"]:
                raise CheckFailed(f"span self times do not sum to op time for ops {coverage['ops_not_covered']}")
            overhead = traced["busy_s"] / plain["busy_s"] - 1.0
            layers = tracer.layer_metrics(overhead)
            shares = {k: v for k, v in layers.items() if k.startswith("share.")}
            doc.update(
                traced=traced,
                coverage=coverage,
                per_layer=layers,
                dominant_layer=max(shares, key=shares.get).split(".", 1)[1],
                counters=tracer.counters(),
                missing_sites=tracer.missing,
            )
            if args.trace_file:
                tracer.write(args.trace_file)
    except CheckFailed as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 3
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
