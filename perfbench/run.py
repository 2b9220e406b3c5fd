"""qmultiprog benchmark: four seeded closed-loop workloads over the
partition / route / schedule / simulate pipeline.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in fresh worker processes
with BLAS/OpenMP pinned to one thread. With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` the worker also runs
the same operation list under the outside-in tracer and the line carries the
per-layer metrics. The full result document (digests, quality figures,
environment, coverage) goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("route_deep", "schedule_grid", "compile_small", "noisy_estimate")
SETUP_RUNS = 5  # set-ups timed per run, each in a fresh process; the median is reported
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
QUALITY = {
    "fail_share": "ratio",
    "swaps_mean": "count",
    "post_gates_mean": "count",
    "depth_mean": "count",
    "verified_share": "ratio",
    "trf": "jobs/batch",
    "violation_mean": "ratio",
    "success_mean": "prob",
}
LAYER_UNITS = {"_s": "s", "_calls": "count", "_share": "ratio", "_bytes": "B"}


def layer_unit(name: str) -> str:
    if name.startswith("share.") or name in ("routing.swap_yield", "scheduler.admit_ratio", "trace.overhead"):
        return "ratio"
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def worker(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its result document."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(Path("src").resolve()), str(HERE)]),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/qmultiprog/__init__.py").is_file():
        print("error: run from the repository root (src/qmultiprog not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    if not args.trace:
        setups = [worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    doc = worker(args, ["--trace-file", str(out / f"{stem}.spans.jsonl")] if args.trace else [], deadline)
    setups.append(doc["setup_s"])
    doc["setup_runs_s"] = setups
    (out / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))

    plain = doc["untraced"]
    if args.trace:
        values = dict(doc["per_layer"])
        values.update(plain["quality"])
        metrics = {k: {"value": v, "unit": QUALITY.get(k) or layer_unit(k)} for k, v in values.items()}
        print(f"# dominant layer {doc['dominant_layer']}, residual {doc['coverage']['residual_share']:.4f}, "
              f"overhead {values['trace.overhead']:.3f}, digest {plain['digest'][:16]}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain["ops_per_s"],
            "op_p50_ms": plain["op_p50_ms"],
            "op_tail_ms": plain["op_tail"]["value"],
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        t = plain["op_tail"]
        print(f"# {plain['attempted']} ops, tail p{t['percentile']} with {t['samples_above']} of {t['samples']} above, "
              f"refused {plain['failed']}, digest {plain['digest'][:16]}")
    print(json.dumps({"correct": True, "attempted": plain["attempted"], "failed": plain["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
