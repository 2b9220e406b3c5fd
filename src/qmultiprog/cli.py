"""Command-line entry point tying the pipeline together.

Subcommands: compile (partition + route + verify one workload), bench
(policy-comparison grid over a workload manifest), schedule (queue batching),
tree (dendrogram dump), simulate (exact output distribution).

Every compile is verified by the certificate that ``routing.decompose``
checks as it replays the schedule, at any chip size; ``--statevector`` adds
the exact simulation of ``sim.verify_equivalence``, within ``--cap``.

Exit codes: 0 success, 2 usage error, 3 parse error, 4 partition/routing
failure, 5 equivalence-check failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .circuit import QasmError, QuantumProgram, parse_program_file, serialize_program
from .hardware import Backend, load_backend_file, random_backend
from .partition import (
    DEFAULT_OMEGA,
    PartitionError,
    build_hierarchy_tree,
    check_omega,
    frp_partition,
    hierarchy_tree,
    partition_qubits,
)
from .routing import (
    RoutingError,
    UnroutableProgramError,
    baseline_route,
    decompose,
    mapping_from_partition,
    xswap_route,
)
from .scheduler import (
    DEFAULT_EPSILON,
    DEFAULT_LOOKAHEAD,
    DEFAULT_MAX_COLOCATE,
    Job,
    epst,
    schedule_tasks,
    trf,
)
from .sim import DEFAULT_QUBIT_CAP, QubitCapExceeded, output_distribution, verify_equivalence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PARTITION = 4
EXIT_EQUIV = 5

POLICIES = ("baseline", "cdap-only", "xswap-only", "cdap-xswap", "independent")


def compile_workload(
    programs: list[QuantumProgram],
    backend: Backend,
    policy: str,
    omega: float = DEFAULT_OMEGA,
    cap: int = DEFAULT_QUBIT_CAP,
    statevector: bool = False,
) -> dict:
    """Run one workload through partition, routing and decomposition.
    Returns report + artifacts.

    Every policy compiles a list of runs on the same chip: a joint policy is
    one run of all its programs, ``independent`` one cdap-xswap run per
    program. The report combines the runs. ``decompose`` certifies each run
    equivalent to its programs or raises RoutingError, so the report's
    equivalence reads method ``certificate``, passed, with total variation 0.
    With ``statevector`` each run is also simulated by ``verify_equivalence``
    (method ``statevector``, the largest simulated total variation); a run
    whose programs or light cone exceed ``cap`` then raises QubitCapExceeded.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    check_omega(omega)
    if not programs:
        raise PartitionError("no programs to partition")
    started = time.perf_counter()
    runs = [[p] for p in programs] if policy == "independent" else [programs]
    run_policy = "cdap-xswap" if policy == "independent" else policy
    tree = None if run_policy in ("baseline", "xswap-only") else hierarchy_tree(backend, omega)
    route = xswap_route if run_policy in ("xswap-only", "cdap-xswap") else baseline_route
    per_program, compiled, schedules, verdicts = [], [], [], []
    for run in runs:
        partition = frp_partition(run, backend) if tree is None else partition_qubits(tree, run, backend)
        if partition.unassigned:
            names = ", ".join(p.name for p in partition.unassigned)
            raise PartitionError(f"no region found for: {names}")
        mapping = mapping_from_partition(partition, run, backend.n_qubits)
        schedule = route(run, mapping, backend)
        circuits = decompose(schedule)
        for i, (program, stats) in enumerate(zip(run, circuits.stats["per_program"])):
            region = sorted(schedule.initial.region(i))
            per_program.append(
                {
                    **stats,
                    "n_qubits": program.n_qubits,
                    "region": region,
                    "initial_layout": {str(k): v for k, v in sorted(schedule.initial.sigmas[i].items())},
                    "final_layout": {str(k): v for k, v in sorted(schedule.final.sigmas[i].items())},
                    "epst": epst(program, region, backend),
                }
            )
        if statevector:
            layouts = [dict(s) for s in schedule.final.sigmas]
            verdicts.append(verify_equivalence(run, circuits.combined, layouts, limit=cap))
        compiled.append(circuits)
        schedules.append(schedule)
    run_stats = [c.stats for c in compiled]
    combined = {key: sum(s[key] for s in run_stats) for key in ("swaps", "added_cnots", "post_gates")}
    classes = run_stats[0]["swap_classes"]
    combined["swap_classes"] = {c: sum(s["swap_classes"][c] for s in run_stats) for c in classes}
    combined["depth"] = max(s["depth"] for s in run_stats)
    equivalence = {"method": "certificate", "checked": True, "passed": True, "total_variation": 0.0}
    if statevector:
        equivalence.update(
            method="statevector",
            passed=all(ok for ok, _ in verdicts),
            total_variation=max(tv for _, tv in verdicts),
        )
    report = {
        "policy": policy,
        "backend": backend.name,
        "omega": omega,
        "programs": per_program,
        "combined": combined,
        "equivalence": equivalence,
        "compile_seconds": time.perf_counter() - started,
    }
    return {"report": report, "compiled": [c.combined for c in compiled], "schedules": schedules}


def _backend_file(args) -> Backend:
    """The --backend file; a missing option is a usage error."""
    if not args.backend:
        raise ValueError("--backend is required")
    return load_backend_file(args.backend)


def _redraw(backend: Backend, seed: int | None) -> Backend:
    """The backend with its calibration redrawn from ``seed``; itself for None."""
    if seed is None:
        return backend
    return random_backend(backend.graph, backend.calib, seed, name=f"{backend.name}#seed{seed}")


def _load_backend_arg(args) -> Backend:
    return _redraw(_backend_file(args), args.seed)


def _json(doc: dict) -> str:
    """A report as strict JSON: a NaN or infinity is refused, not written."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _emit(doc: dict, args, text_renderer=None):
    if args.format == "text" and text_renderer is not None:
        print(text_renderer(doc))
    else:
        print(_json(doc))


def _write(out_dir: str | None, name: str, content: str) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(content)


def _compile_text(report: dict) -> str:
    lines = [
        f"policy {report['policy']} on {report['backend']} "
        f"({report['compile_seconds']:.3f}s)"
    ]
    for p in report["programs"]:
        lines.append(
            f"  {p['name']:20s} region={p['region']} swaps={p['swaps']} "
            f"gates {p['original_gates']}->{p['post_gates']} epst={p['epst']:.4f}"
        )
    c = report["combined"]
    lines.append(
        f"  combined: swaps={c['swaps']} added_cnots={c['added_cnots']} "
        f"post_gates={c['post_gates']} depth={c['depth']}"
    )
    eq = report["equivalence"]
    lines.append(f"  equivalence: passed={eq['passed']} by {eq['method']} tv={eq['total_variation']:.2e}")
    return "\n".join(lines)


def cmd_compile(args) -> int:
    backend = _load_backend_arg(args)
    programs = [parse_program_file(f) for f in args.programs]
    if args.out is not None and args.policy == "independent":
        # One circuit per run, named after its program: a shared name would overwrite.
        first: dict[str, str] = {}
        for path, prog in zip(args.programs, programs):
            if prog.name in first:
                print(
                    f"error: {first[prog.name]} and {path} would both be written as "
                    f"compiled_{prog.name}.qasm; rename one",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            first[prog.name] = path
    result = compile_workload(
        programs, backend, args.policy, omega=args.omega, cap=args.cap, statevector=args.statevector
    )
    report = result["report"]
    if len(result["compiled"]) == 1:
        _write(args.out, "compiled.qasm", serialize_program(result["compiled"][0]))
    else:
        for prog, circ in zip(programs, result["compiled"]):
            _write(args.out, f"compiled_{prog.name}.qasm", serialize_program(circ))
    layout_doc = {
        "programs": [
            {
                "name": p["name"],
                "initial_layout": p["initial_layout"],
                "final_layout": p["final_layout"],
            }
            for p in report["programs"]
        ]
    }
    _write(args.out, "layout.json", _json(layout_doc))
    _write(args.out, "report.json", _json(report))
    _emit(report, args, _compile_text)
    if not report["equivalence"]["passed"]:
        return EXIT_EQUIV
    return EXIT_OK


def _read_manifest(path: str) -> list[list[str]]:
    """The manifest's comma-separated file lists, one per line; blank lines
    and ``#`` comments are skipped. A line that names no file, and a
    manifest with no line left, are refused."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = [tok.strip() for tok in line.split(",") if tok.strip()]
        if not row:
            raise ValueError(f"manifest {path} lists no programs on line {lineno}")
        rows.append(row)
    if not rows:
        raise ValueError(f"manifest {path} lists no programs")
    return rows


def _bench_text(doc: dict) -> str:
    header = f"{'workload':28s} {'policy':12s} {'seed':>5s} {'swaps':>6s} {'post':>6s} {'sum':>6s}"
    lines = [header, "-" * len(header)]
    for cell in doc["cells"]:
        seed = "-" if cell["seed"] is None else str(cell["seed"])
        if cell["ok"]:
            lines.append(
                f"{cell['workload']:28s} {cell['policy']:12s} {seed:>5s} "
                f"{cell['swaps']:>6d} {cell['post_gates']:>6d} {cell['sum_gates']:>6d}"
            )
        else:
            lines.append(f"{cell['workload']:28s} {cell['policy']:12s} {seed:>5s}  FAILED: {cell['error']}")
    lines.append("")
    for policy, agg in sorted(doc["by_policy"].items()):
        lines.append(
            f"mean[{policy}]: swaps={agg['mean_swaps']:.2f} post_gates={agg['mean_post_gates']:.2f} "
            f"cells={agg['cells']}"
        )
    for pair, delta in sorted(doc["policy_deltas"].items()):
        lines.append(f"delta[{pair}]: swaps={delta['swaps']:+.2f} post_gates={delta['post_gates']:+.2f}")
    return "\n".join(lines)


def cmd_bench(args) -> int:
    base = _backend_file(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    for i, p in enumerate(policies):
        if p not in POLICIES:
            raise ValueError(f"unknown policy {p!r}")
        if p in policies[:i]:
            raise ValueError(f"--policies lists {p} twice")
    seeds: list[int | None] = (
        [int(s) for s in args.seeds.split(",") if s.strip()] if args.seeds else [None]
    )
    workloads = _read_manifest(args.manifest)
    # An empty grid is a usage error, not an empty table.
    if not policies:
        print("error: --policies lists no policy", file=sys.stderr)
        return EXIT_USAGE
    if not seeds:
        print("error: --seeds lists no seed", file=sys.stderr)
        return EXIT_USAGE
    cells = []
    for files in workloads:
        programs = [parse_program_file(f) for f in files]
        label = "+".join(p.name for p in programs)
        for seed in seeds:
            backend = _redraw(base, seed)
            for policy in policies:
                cell = {"workload": label, "policy": policy, "seed": seed}
                try:
                    result = compile_workload(
                        programs, backend, policy, omega=args.omega, cap=args.cap, statevector=args.statevector
                    )
                    cell.update(
                        ok=True,
                        swaps=result["report"]["combined"]["swaps"],
                        post_gates=result["report"]["combined"]["post_gates"],
                        sum_gates=sum(p.gate_count for p in programs),
                        equivalent=result["report"]["equivalence"]["passed"],
                    )
                except (PartitionError, UnroutableProgramError) as exc:
                    cell.update(ok=False, error=str(exc))
                cells.append(cell)
    ok = [c for c in cells if c["ok"]]
    by_policy: dict[str, dict] = {}
    for policy in policies:
        good = [c for c in ok if c["policy"] == policy]
        if good:
            by_policy[policy] = {
                "mean_swaps": sum(c["swaps"] for c in good) / len(good),
                "mean_post_gates": sum(c["post_gates"] for c in good) / len(good),
                "cells": len(good),
            }
    deltas = {}
    for i, a in enumerate(policies):
        for b in policies[i + 1 :]:
            common = [
                (ca, cb)
                for ca in ok
                if ca["policy"] == a
                for cb in ok
                if cb["policy"] == b and (cb["workload"], cb["seed"]) == (ca["workload"], ca["seed"])
            ]
            if common:
                deltas[f"{a}-vs-{b}"] = {
                    "swaps": sum(ca["swaps"] - cb["swaps"] for ca, cb in common) / len(common),
                    "post_gates": sum(ca["post_gates"] - cb["post_gates"] for ca, cb in common)
                    / len(common),
                }
    doc = {"backend": base.name, "cells": cells, "by_policy": by_policy, "policy_deltas": deltas}
    _write(args.out, "bench.json", _json(doc))
    _write(args.out, "bench.txt", _bench_text(doc))
    _emit(doc, args, _bench_text)
    return EXIT_OK


def _schedule_text(doc: dict) -> str:
    lines = [f"queue of {doc['jobs']} jobs -> {len(doc['batches'])} batches, trf={doc['trf']:.4f}"]
    for i, batch in enumerate(doc["batches"]):
        members = ", ".join(
            f"{j['name']} (ind={j['ind_epst']}, co={j['co_epst']}, viol={j['violation']})"
            for j in batch["jobs"]
        )
        lines.append(f"  batch {i}: {members}")
    return "\n".join(lines)


def cmd_schedule(args) -> int:
    backend = _load_backend_arg(args)
    files = [f for row in _read_manifest(args.manifest) for f in row]
    queue = [Job(id=i, program=parse_program_file(f)) for i, f in enumerate(files)]
    tree = build_hierarchy_tree(backend, args.omega)
    batches = schedule_tasks(
        queue,
        tree,
        backend,
        epsilon=args.epsilon,
        lookahead=args.lookahead,
        max_colocate=args.max_colocate,
    )
    doc = {
        "backend": backend.name,
        "epsilon": args.epsilon,
        "lookahead": args.lookahead,
        "max_colocate": args.max_colocate,
        "jobs": len(queue),
        "trf": trf(batches),
        "batches": [
            {
                "jobs": [
                    {
                        "name": j.program.name,
                        "status": j.status,
                        "ind_epst": j.ind_epst,
                        "co_epst": j.co_epst,
                        "violation": b.decision_record.get(j.id),
                    }
                    for j in b.jobs
                ]
            }
            for b in batches
        ],
    }
    _write(args.out, "schedule.json", _json(doc))
    _emit(doc, args, _schedule_text)
    return EXIT_OK


def _tree_doc(tree) -> dict:
    nodes = tree.nodes()
    ids = {id(n): i for i, n in enumerate(nodes)}
    return {
        "omega": tree.omega,
        "nodes": [
            {
                "id": ids[id(n)],
                "qubits": sorted(n.qubits),
                "children": None if n.is_leaf else [ids[id(n.left)], ids[id(n.right)]],
                "merge_step": n.merge_step,
                "reward": n.reward,
            }
            for n in nodes
        ],
        "root": ids[id(tree.root)],
    }


def _tree_dot(doc: dict) -> str:
    lines = ["digraph dendrogram {"]
    for node in doc["nodes"]:
        label = ",".join(str(q) for q in node["qubits"])
        extra = "" if node["merge_step"] is None else f"\\nstep {node['merge_step']}"
        lines.append(f'  n{node["id"]} [label="{{{label}}}{extra}"];')
    for node in doc["nodes"]:
        if node["children"]:
            for child in node["children"]:
                lines.append(f"  n{node['id']} -> n{child};")
    lines.append("}")
    return "\n".join(lines)


def _tree_text(doc: dict) -> str:
    merges = sorted(
        (n for n in doc["nodes"] if n["merge_step"] is not None), key=lambda n: n["merge_step"]
    )
    lines = [f"dendrogram at omega={doc['omega']}"]
    for n in merges:
        lines.append(f"  step {n['merge_step']}: {n['qubits']} (reward {n['reward']:.6f})")
    return "\n".join(lines)


def cmd_tree(args) -> int:
    if args.dot and args.out is None:
        print("error: --dot writes tree.dot into the --out directory; give --out too", file=sys.stderr)
        return EXIT_USAGE
    backend = _load_backend_arg(args)
    tree = build_hierarchy_tree(backend, args.omega)
    doc = _tree_doc(tree)
    _write(args.out, "tree.json", _json(doc))
    if args.dot:
        _write(args.out, "tree.dot", _tree_dot(doc))
    _emit(doc, args, _tree_text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    program = parse_program_file(args.circuit)
    dist = output_distribution(program, cap=args.cap)
    doc = {"circuit": program.name, "n_qubits": program.n_qubits, "distribution": dist}
    _write(args.out, "distribution.json", _json(doc))
    _emit(
        doc,
        args,
        lambda d: "\n".join(f"{k}  {v:.6f}" for k, v in sorted(d["distribution"].items())),
    )
    return EXIT_OK


def qubit_count(text: str) -> int:
    """The ``--cap`` type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_OPTIONS = {
    "--backend": dict(help="backend description file"),
    "--omega": dict(type=float, default=DEFAULT_OMEGA, help="partition reward weight (finite, non-negative)"),
    "--seed": dict(
        type=int,
        default=None,
        help="redraw the calibration uniformly within the backend's observed ranges",
    ),
    "--out": dict(default=None, help="directory for artifacts"),
    "--format": dict(choices=("doc", "text"), default="text"),
    "--cap": dict(
        type=qubit_count,
        default=DEFAULT_QUBIT_CAP,
        help="simulation qubit cap (at least 1); compile and bench apply it only with --statevector",
    ),
    "--statevector": dict(
        action="store_true",
        help="also check equivalence by exact simulation, within --cap (a wider register is a usage error)",
    ),
}


def _add_options(sub: argparse.ArgumentParser, *names: str):
    """Give a subcommand the shared options it reads, and no others."""
    for name in names:
        sub.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmultiprog", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compile", allow_abbrev=False, help="compile a workload of programs onto one chip")
    p.add_argument("programs", nargs="+", help="program source files")
    p.add_argument("--policy", choices=POLICIES, default="cdap-xswap")
    _add_options(p, "--backend", "--omega", "--seed", "--out", "--format", "--cap", "--statevector")
    p.set_defaults(func=cmd_compile)

    p = subs.add_parser("bench", allow_abbrev=False, help="policy comparison over a workload manifest")
    p.add_argument("manifest", help="file with one comma-separated workload per line")
    p.add_argument("--policies", default="baseline,cdap-xswap")
    p.add_argument("--seeds", default=None, help="comma-separated calibration seeds")
    _add_options(p, "--backend", "--omega", "--out", "--format", "--cap", "--statevector")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("schedule", allow_abbrev=False, help="batch a queue of program files")
    p.add_argument("manifest", help="file listing program files in queue order")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--lookahead", type=int, default=DEFAULT_LOOKAHEAD)
    p.add_argument("--max-colocate", type=int, default=DEFAULT_MAX_COLOCATE)
    _add_options(p, "--backend", "--omega", "--seed", "--out", "--format")
    p.set_defaults(func=cmd_schedule)

    p = subs.add_parser("tree", allow_abbrev=False, help="dump the partition dendrogram of a backend")
    p.add_argument("--dot", action="store_true", help="also write Graphviz text to --out")
    _add_options(p, "--backend", "--omega", "--seed", "--out", "--format")
    p.set_defaults(func=cmd_tree)

    p = subs.add_parser("simulate", allow_abbrev=False, help="exact output distribution of a circuit")
    p.add_argument("circuit", help="program source file")
    _add_options(p, "--out", "--format", "--cap")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QasmError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PartitionError, UnroutableProgramError) as exc:
        print(f"partition failure: {exc}", file=sys.stderr)
        return EXIT_PARTITION
    except RoutingError as exc:
        print(f"equivalence-check failure: {exc}", file=sys.stderr)
        return EXIT_EQUIV
    except (ValueError, QubitCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
