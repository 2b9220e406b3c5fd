"""Repeat check: two traced runs of one workload and seed must agree exactly
on every count, quality figure and output digest.

  python3 perfbench/repeat.py --workload W --seed N --seconds S

Run from the repository root; exits 1 and lists the differences otherwise.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(args) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
    ]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    doc = json.loads((HERE / "out" / f"{args.workload}-seed{args.seed}-trace1.json").read_text())
    return {
        "counters": doc["counters"],
        "quality": doc["untraced"]["quality"],
        "digest": doc["untraced"]["digest"],
        "traced_digest": doc["traced"]["digest"],
        "attempted": doc["untraced"]["attempted"],
        "failed": doc["untraced"]["failed"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args(argv)
    first, second = traced_run(args), traced_run(args)
    diffs = [k for k in first if first[k] != second[k]]
    for k in diffs:
        print(f"differs: {k}: {first[k]} != {second[k]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "identical": not diffs, "digest": first["digest"]}))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
