"""Outside-in tracer: wraps the package's functions at the module attributes
the pipeline calls through, without touching the package's source.

Each wrapped call opens a frame; on return its duration and self time (its
duration minus that of the wrapped calls inside it) are recorded. Ordinary
sites keep one span per call (id, parent, operation, name, start, end, self).
Hot sites, called thousands of times per operation, keep only a call count
plus total and self time. The benchmark opens one root span per operation,
whose self time is the part of the operation no wrapped call accounts for.
Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from itertools import count

# (module, attribute the pipeline calls through, span name, hot, counter).
# The span name's prefix is the layer (module) the time is charged to.
SITES = (
    ("cli", "compile_workload", "cli.compile", False, None),
    ("cli", "build_hierarchy_tree", "partition.tree", False, None),
    ("partition", "build_hierarchy_tree", "partition.tree", False, None),
    ("partition", "merge_reward", "partition.merge_reward", True, None),
    ("cli", "partition_qubits", "partition.partition", False, None),
    ("scheduler", "partition_qubits", "partition.partition", False, "scheduler.trials"),
    ("cli", "frp_partition", "partition.frp", False, None),
    ("partition", "allocate", "partition.allocate", False, None),
    ("partition", "shortest_paths", "hardware.shortest_paths", False, None),
    ("routing", "shortest_paths", "hardware.shortest_paths", False, None),
    ("cli", "xswap_route", "routing.xswap", False, None),
    ("cli", "baseline_route", "routing.baseline", False, None),
    ("routing", "obtain_swaps", "routing.obtain_swaps", True, None),
    ("routing", "swap_score", "routing.swap_score", True, None),
    ("routing", "front_layer", "circuit.front_layer", True, None),
    ("routing", "ready_gates", "circuit.ready_gates", True, None),
    ("routing", "critical_gates", "circuit.critical_gates", True, None),
    ("routing", "build_dag", "circuit.build_dag", False, None),
    ("cli", "decompose", "routing.decompose", False, None),
    ("cli", "verify_equivalence", "routing.verify", False, None),
    ("circuit", "parse_program", "circuit.parse", False, None),
    ("scheduler", "schedule_tasks", "scheduler.schedule", False, None),
    ("scheduler", "independent_epst", "scheduler.independent_epst", False, None),
    ("sim", "distribution_vector", "sim.statevector", False, None),
    ("sim", "marginal_distribution", "sim.marginal", False, None),
    ("sim", "noisy_output_distribution", "sim.density", False, None),
    ("sim", "noisy_success_probability", "sim.noisy", False, None),
    ("sim", "apply_gate", "sim.apply_gate", True, None),
)

LAYERS = ("circuit", "hardware", "partition", "routing", "scheduler", "sim", "cli")
ROOT = "bench.op"
SETUP_OP = -1
# Results kept (by reference, not copied) for counters derived after the run.
KEEP_RESULTS = ("routing.xswap", "partition.partition", "partition.frp", "scheduler.schedule")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns, outermost_ns]
        self.counts: Counter = Counter()
        self.results: dict[str, list] = defaultdict(list)
        self.op_self: Counter = Counter()
        self.op_duration: dict[int, int] = {}
        self.density_bytes = 0
        self.missing: list[str] = []
        self.op = SETUP_OP
        self._op_start = 0
        self._stack: list[list] = []
        self._ids = count()
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self):
        for module_name, attr, name, hot, counter in SITES:
            module = importlib.import_module(f"qmultiprog.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, hot, counter))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, hot: bool, counter: str | None):
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close
        keep = name in KEEP_RESULTS

        def wrapper(*args, **kwargs):
            label = name
            if name == "sim.noisy":  # the two estimators are different kernels
                label = "sim.sampled" if kwargs.get("mode") == "sampled" else "sim.noisy.exact"
            if counter:
                self.counts[counter] += 1
            if label == "sim.density":
                self.density_bytes = max(self.density_bytes, 16 * 4 ** args[0].n_qubits)
            elif label == "sim.sampled":
                self.counts["sim.shots"] += kwargs["shots"]
            frame = [label, next(self._ids), stack[-1][1] if stack else None, 0, hot]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(start, clock())
            if keep:
                self.results[label].append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, start: int, end: int):
        label, sid, parent, child_ns, hot = self._stack.pop()
        duration = end - start
        own = duration - child_ns
        outer = True
        if self._stack:
            self._stack[-1][3] += duration
            outer = not any(f[0] == label for f in self._stack)
        self.op_self[self.op] += own
        agg = self.agg.get(label)
        if agg is None:
            agg = self.agg[label] = [0, 0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += own
        if outer:
            agg[3] += duration
        if not hot:
            self.spans.append((sid, parent, self.op, label, start, end, own))

    # -- operations ---------------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self._stack.append([ROOT, next(self._ids), None, 0, False])
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> int:
        end = time.perf_counter_ns()
        start = self._op_start
        self._close(start, end)
        self.op_duration[self.op] = end - start
        self.op = SETUP_OP
        return end - start

    def coverage(self) -> dict:
        """Per operation, the self times of all its spans must sum to its
        traced duration; the root's self time is the unattributed residual."""
        bad = [op for op, d in self.op_duration.items() if self.op_self[op] != d]
        residual = sum(s[6] for s in self.spans if s[3] == ROOT)
        total = sum(self.op_duration.values())
        return {
            "ops": len(self.op_duration),
            "ops_not_covered": bad,
            "residual_s": residual / 1e9,
            "residual_share": residual / total if total else 0.0,
        }

    # -- derived metrics ------------------------------------------------------------

    def _s(self, name: str, field: int = 1) -> float:
        return self.agg.get(name, [0, 0, 0, 0])[field] / 1e9

    def _calls(self, *names: str) -> int:
        return sum(self.agg.get(n, [0])[0] for n in names)

    def layer_metrics(self, overhead: float) -> dict[str, float]:
        frontier = ("circuit.front_layer", "circuit.ready_gates", "circuit.critical_gates")
        partitions = self.results["partition.partition"] + self.results["partition.frp"]
        submitted = sum(len(p.assignments) + len(p.unassigned) for p in partitions)
        unplaced = sum(len(p.unassigned) for p in partitions)
        candidates = self._calls("routing.swap_score")
        xswaps = sum(s.swap_count for s in self.results["routing.xswap"])
        trials = self.counts["scheduler.trials"]
        admitted = sum(len(b.jobs) - 1 for bs in self.results["scheduler.schedule"] for b in bs)
        setup_parse = sum(s[5] - s[4] for s in self.spans if s[3] == "circuit.parse" and s[2] == SETUP_OP)
        m = {
            "circuit.parse_s": setup_parse / 1e9,
            "circuit.frontier_s": sum(self._s(n) for n in frontier),
            "circuit.frontier_calls": self._calls(*frontier),
            "circuit.build_dag_s": self._s("circuit.build_dag"),
            "hardware.shortest_paths_s": self._s("hardware.shortest_paths", 3),
            "hardware.shortest_paths_calls": self._calls("hardware.shortest_paths"),
            "partition.tree_s": self._s("partition.tree", 3),
            "partition.tree_calls": self._calls("partition.tree"),
            "partition.merge_reward_calls": self._calls("partition.merge_reward"),
            "partition.partition_s": self._s("partition.partition", 3),
            "partition.partition_calls": self._calls("partition.partition"),
            "partition.allocate_s": self._s("partition.allocate", 3),
            "partition.allocate_calls": self._calls("partition.allocate"),
            "partition.frp_s": self._s("partition.frp", 3),
            "partition.unplaced_share": unplaced / submitted if submitted else 0.0,
            "routing.xswap_s": self._s("routing.xswap", 3),
            "routing.baseline_s": self._s("routing.baseline", 3),
            "routing.steps": self._calls("routing.obtain_swaps"),
            "routing.candidates_scored": candidates,
            "routing.swap_yield": xswaps / candidates if candidates else 0.0,
            "routing.decompose_s": self._s("routing.decompose", 3),
            "routing.verify_s": self._s("routing.verify", 3),
            "scheduler.schedule_s": self._s("scheduler.schedule", 2),
            "scheduler.trials": trials,
            "scheduler.solo_estimates": self._calls("scheduler.independent_epst"),
            "scheduler.admit_ratio": admitted / trials if trials else 0.0,
            "sim.statevector_s": self._s("sim.statevector", 3),
            "sim.marginal_s": self._s("sim.marginal", 3),
            "sim.density_s": self._s("sim.density", 3),
            "sim.density_bytes": self.density_bytes,
            "sim.sampled_s": self._s("sim.sampled", 3),
            "sim.shots": self.counts["sim.shots"],
            "sim.gates_applied": self._calls("sim.apply_gate"),
            "cli.compile_s": self._s("cli.compile", 3),
            "cli.self_s": self._s("cli.compile", 2),
            "trace.overhead": overhead,
        }
        m.update(self.layer_shares())
        m["trace.residual_share"] = self.coverage()["residual_share"]
        return m

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer over all operations' traced time."""
        total = sum(self.op_duration.values())
        own: Counter = Counter()
        for name, (_, _, self_ns, _) in self.agg.items():
            own[name.split(".")[0]] += self_ns
        for s in self.spans:  # set-up spans (parsing) lie outside every operation
            if s[2] == SETUP_OP:
                own[s[3].split(".")[0]] -= s[6]
        return {f"share.{layer}": own[layer] / total if total else 0.0 for layer in LAYERS}

    def counters(self) -> dict[str, int]:
        """Everything counted (not timed): identical across runs of a seed."""
        out = {name: agg[0] for name, agg in sorted(self.agg.items())}
        out.update(sorted(self.counts.items()))
        out["sim.density_bytes"] = self.density_bytes
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, (calls, total, own, _) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls, "total_ns": total, "self_ns": own}) + "\n")
            for sid, parent, op, name, start, end, own in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "op": op, "name": name, "start_ns": start, "end_ns": end, "self_ns": own})
                    + "\n"
                )
