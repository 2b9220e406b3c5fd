"""Command-line entry point tying the pipeline together.

Subcommands: compile (partition + route + verify one workload), bench
(policy-comparison grid over a workload manifest), schedule (queue batching),
tree (dendrogram dump), simulate (exact output distribution).

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
    frp_partition,
    partition_qubits,
)
from .routing import (
    UnroutableProgramError,
    baseline_route,
    decompose,
    mapping_from_partition,
    verify_equivalence,
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
from .sim import DEFAULT_QUBIT_CAP, QubitCapExceeded, output_distribution

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PARTITION = 4
EXIT_EQUIV = 5

POLICIES = ("baseline", "cdap-only", "xswap-only", "cdap-xswap", "independent")


def _partition_for(policy: str, programs, backend: Backend, omega: float):
    if policy in ("baseline", "xswap-only"):
        return frp_partition(programs, backend)
    tree = build_hierarchy_tree(backend, omega)
    return partition_qubits(tree, programs, backend)


def _router_for(policy: str):
    return xswap_route if policy in ("xswap-only", "cdap-xswap") else baseline_route


def compile_workload(
    programs: list[QuantumProgram],
    backend: Backend,
    policy: str,
    omega: float = DEFAULT_OMEGA,
    cap: int = DEFAULT_QUBIT_CAP,
) -> dict:
    """Run one workload through partition, routing, decomposition and (when
    small enough) the equivalence oracle. Returns report + artifacts."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    started = time.perf_counter()
    if policy == "independent":
        sub = [
            compile_workload([p], backend, "cdap-xswap", omega=omega, cap=cap) for p in programs
        ]
        checked = all(s["report"]["equivalence"]["checked"] for s in sub)
        report = {
            "policy": policy,
            "backend": backend.name,
            "omega": omega,
            "programs": [s["report"]["programs"][0] for s in sub],
            "combined": {
                "swaps": sum(s["report"]["combined"]["swaps"] for s in sub),
                "added_cnots": sum(s["report"]["combined"]["added_cnots"] for s in sub),
                "post_gates": sum(s["report"]["combined"]["post_gates"] for s in sub),
                "depth": max(s["report"]["combined"]["depth"] for s in sub),
            },
            "equivalence": {
                "checked": checked,
                "passed": (
                    all(bool(s["report"]["equivalence"]["passed"]) for s in sub) if checked else None
                ),
                "total_variation": max(
                    (s["report"]["equivalence"]["total_variation"] or 0.0) for s in sub
                )
                if checked
                else None,
            },
            "compile_seconds": time.perf_counter() - started,
        }
        return {"report": report, "compiled": [s["compiled"][0] for s in sub], "schedules": [s["schedules"][0] for s in sub]}

    partition = _partition_for(policy, programs, backend, omega)
    if partition.unassigned:
        names = ", ".join(p.name for p in partition.unassigned)
        raise PartitionError(f"no region found for: {names}")
    mapping = mapping_from_partition(partition, programs, backend.n_qubits)
    schedule = _router_for(policy)(programs, mapping, backend)
    compiled = decompose(schedule)
    per_program = []
    for i, program in enumerate(programs):
        region = sorted(schedule.initial.region(i))
        stats = compiled.stats["per_program"][i]
        per_program.append(
            {
                "name": program.name,
                "n_qubits": program.n_qubits,
                "region": region,
                "initial_layout": {str(k): v for k, v in sorted(schedule.initial.sigmas[i].items())},
                "final_layout": {str(k): v for k, v in sorted(schedule.final.sigmas[i].items())},
                "swaps": stats["swaps"],
                "added_cnots": stats["added_cnots"],
                "original_gates": stats["original_gates"],
                "post_gates": stats["post_gates"],
                "epst": epst(program, region, backend),
            }
        )
    equivalence = {"checked": False, "passed": None, "total_variation": None}
    if backend.n_qubits <= cap:
        layouts = [dict(s) for s in schedule.final.sigmas]
        ok, tv = verify_equivalence(programs, compiled.combined, layouts, limit=cap)
        equivalence = {"checked": True, "passed": ok, "total_variation": tv}
    report = {
        "policy": policy,
        "backend": backend.name,
        "omega": omega,
        "programs": per_program,
        "combined": {
            "swaps": compiled.stats["swaps"],
            "swap_classes": compiled.stats["swap_classes"],
            "added_cnots": compiled.stats["added_cnots"],
            "post_gates": compiled.stats["post_gates"],
            "depth": compiled.stats["depth"],
        },
        "equivalence": equivalence,
        "compile_seconds": time.perf_counter() - started,
    }
    return {"report": report, "compiled": [compiled.combined], "schedules": [schedule]}


def _load_backend_arg(args) -> Backend:
    if not args.backend:
        print("error: --backend is required", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    backend = load_backend_file(args.backend)
    seed = args.seed
    if seed is not None:
        backend = random_backend(backend.graph, backend.calib, seed, name=f"{backend.name}#seed{seed}")
    return backend


def _emit(doc: dict, args, text_renderer=None):
    if args.format == "text" and text_renderer is not None:
        print(text_renderer(doc))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


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
    lines.append(
        "  equivalence: "
        + ("skipped (over qubit cap)" if not eq["checked"] else f"passed={eq['passed']} tv={eq['total_variation']:.2e}")
    )
    return "\n".join(lines)


def cmd_compile(args) -> int:
    backend = _load_backend_arg(args)
    programs = [parse_program_file(f) for f in args.programs]
    result = compile_workload(programs, backend, args.policy, omega=args.omega, cap=args.cap)
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
    _write(args.out, "layout.json", json.dumps(layout_doc, indent=2, sort_keys=True))
    _write(args.out, "report.json", json.dumps(report, indent=2, sort_keys=True))
    _emit(report, args, _compile_text)
    if report["equivalence"]["checked"] and not report["equivalence"]["passed"]:
        return EXIT_EQUIV
    return EXIT_OK


def _read_manifest(path: str) -> list[list[str]]:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([tok.strip() for tok in line.split(",") if tok.strip()])
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
    if not args.backend:
        print("error: --backend is required", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    base = load_backend_file(args.backend)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    for p in policies:
        if p not in POLICIES:
            raise ValueError(f"unknown policy {p!r}")
    seeds: list[int | None] = (
        [int(s) for s in args.seeds.split(",") if s.strip()] if args.seeds else [None]
    )
    workloads = _read_manifest(args.manifest)
    cells = []
    for files in workloads:
        programs = [parse_program_file(f) for f in files]
        label = "+".join(p.name for p in programs)
        for seed in seeds:
            backend = (
                random_backend(base.graph, base.calib, seed, name=f"{base.name}#seed{seed}")
                if seed is not None
                else base
            )
            for policy in policies:
                cell = {"workload": label, "policy": policy, "seed": seed}
                try:
                    result = compile_workload(programs, backend, policy, omega=args.omega, cap=args.cap)
                    cell.update(
                        ok=True,
                        swaps=result["report"]["combined"]["swaps"],
                        post_gates=result["report"]["combined"]["post_gates"],
                        sum_gates=sum(p.gate_count for p in programs),
                        equivalent=result["report"]["equivalence"]["passed"],
                    )
                except (PartitionError, UnroutableProgramError, QubitCapExceeded) as exc:
                    cell.update(ok=False, error=str(exc))
                cells.append(cell)
    by_policy: dict[str, dict] = {}
    for policy in policies:
        good = [c for c in cells if c["policy"] == policy and c["ok"]]
        if good:
            by_policy[policy] = {
                "mean_swaps": sum(c["swaps"] for c in good) / len(good),
                "mean_post_gates": sum(c["post_gates"] for c in good) / len(good),
                "cells": len(good),
            }
    # Successful cells by (workload, seed) and policy, in cell order.
    ok_cells: dict[tuple, dict[str, list[dict]]] = {}
    for c in cells:
        if c["ok"]:
            ok_cells.setdefault((c["workload"], c["seed"]), {}).setdefault(c["policy"], []).append(c)
    deltas = {}
    for i, a in enumerate(policies):
        for b in policies[i + 1 :]:
            common = [
                (ca, cb)
                for ca in cells
                if ca["ok"] and ca["policy"] == a
                for cb in ok_cells[ca["workload"], ca["seed"]].get(b, ())
            ]
            if common:
                deltas[f"{a}-vs-{b}"] = {
                    "swaps": sum(ca["swaps"] - cb["swaps"] for ca, cb in common) / len(common),
                    "post_gates": sum(ca["post_gates"] - cb["post_gates"] for ca, cb in common)
                    / len(common),
                }
    doc = {"backend": base.name, "cells": cells, "by_policy": by_policy, "policy_deltas": deltas}
    _write(args.out, "bench.json", json.dumps(doc, indent=2, sort_keys=True))
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
    rows = _read_manifest(args.manifest)
    files = [f for row in rows for f in row]
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
    _write(args.out, "schedule.json", json.dumps(doc, indent=2, sort_keys=True))
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
    backend = _load_backend_arg(args)
    tree = build_hierarchy_tree(backend, args.omega)
    doc = _tree_doc(tree)
    _write(args.out, "tree.json", json.dumps(doc, indent=2, sort_keys=True))
    if args.dot:
        _write(args.out, "tree.dot", _tree_dot(doc))
    _emit(doc, args, _tree_text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    program = parse_program_file(args.circuit)
    dist = output_distribution(program, cap=args.cap)
    doc = {"circuit": program.name, "n_qubits": program.n_qubits, "distribution": dist}
    _write(args.out, "distribution.json", json.dumps(doc, indent=2, sort_keys=True))
    _emit(
        doc,
        args,
        lambda d: "\n".join(f"{k}  {v:.6f}" for k, v in sorted(d["distribution"].items())),
    )
    return EXIT_OK


_OPTIONS = {
    "--backend": dict(help="backend description file"),
    "--omega": dict(type=float, default=DEFAULT_OMEGA, help="partition reward weight"),
    "--seed": dict(
        type=int,
        default=None,
        help="redraw the calibration uniformly within the backend's observed ranges",
    ),
    "--out": dict(default=None, help="directory for artifacts"),
    "--format": dict(choices=("doc", "text"), default="text"),
    "--cap": dict(type=int, default=DEFAULT_QUBIT_CAP, help="simulation qubit cap"),
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
    _add_options(p, "--backend", "--omega", "--seed", "--out", "--format", "--cap")
    p.set_defaults(func=cmd_compile)

    p = subs.add_parser("bench", allow_abbrev=False, help="policy comparison over a workload manifest")
    p.add_argument("manifest", help="file with one comma-separated workload per line")
    p.add_argument("--policies", default="baseline,cdap-xswap")
    p.add_argument("--seeds", default=None, help="comma-separated calibration seeds")
    _add_options(p, "--backend", "--omega", "--out", "--format", "--cap")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("schedule", allow_abbrev=False, help="batch a queue of program files")
    p.add_argument("manifest", help="file listing program files in queue order")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--lookahead", type=int, default=DEFAULT_LOOKAHEAD)
    p.add_argument("--max-colocate", type=int, default=DEFAULT_MAX_COLOCATE)
    _add_options(p, "--backend", "--omega", "--seed", "--out", "--format")
    p.set_defaults(func=cmd_schedule)

    p = subs.add_parser("tree", allow_abbrev=False, help="dump the partition dendrogram of a backend")
    p.add_argument("--dot", action="store_true", help="also write Graphviz text")
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QasmError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PartitionError, UnroutableProgramError) as exc:
        print(f"partition failure: {exc}", file=sys.stderr)
        return EXIT_PARTITION
    except (ValueError, QubitCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
