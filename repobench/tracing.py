"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer, times every call, and
folds each span into per-name totals as it closes: calls, busy seconds
(span durations) and self seconds (duration minus the time covered by
wrapped calls made inside it).  The totals stay in memory and are written
with the run's record.  Nothing here changes an argument, a return value or
a random draw, so traced outputs equal untraced ones (``selftest.py``
checks it).

Functions the fast swarm imports by name are patched in the namespace that
looks them up.  ``neighbor_sets_to_csr`` is therefore counted only where
the swarm engine re-freezes its CSR after a membership change; the call
inside ``build_neighbor_csr`` at set-up is part of that function's time.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

# (metric prefix, module, attribute path) -- the attribute is replaced in
# that module, on the class when the path has a dot.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("fast.swarm.init", "repro.bittorrent.fast.swarm", "FastSwarmSimulator.__init__"),
    ("fast.swarm.run", "repro.bittorrent.fast.swarm", "FastSwarmSimulator.run"),
    ("fast.swarm.materialize_peers", "repro.bittorrent.fast.swarm", "FastSwarmSimulator.materialize_peers"),
    ("fast.bitfields.wanted_bytes", "repro.bittorrent.fast.bitfields", "BitfieldMatrix.wanted_bytes"),
    ("fast.bitfields.indices", "repro.bittorrent.fast.bitfields", "BitfieldMatrix.indices"),
    ("fast.bitfields.edge_interest", "repro.bittorrent.fast.bitfields", "BitfieldMatrix.edge_interest"),
    ("fast.bitfields.availability", "repro.bittorrent.fast.bitfields", "BitfieldMatrix.availability"),
    ("fast.bitfields.fill", "repro.bittorrent.fast.bitfields", "BitfieldMatrix.fill"),
    ("fast.bitfields.to_bitfield", "repro.bittorrent.fast.bitfields", "BitfieldMatrix.to_bitfield"),
    ("fast.choking.batched_regular_slots", "repro.bittorrent.fast.swarm", "batched_regular_slots"),
    ("fast.choking.leecher_unchoke", "repro.bittorrent.fast.choking", "FastChokerState.leecher_unchoke"),
    ("fast.choking.seed_unchoke", "repro.bittorrent.fast.choking", "FastChokerState.seed_unchoke"),
    ("fast.tracker.announce", "repro.bittorrent.fast.tracker", "FastTracker.announce"),
    ("fast.tracker.build_neighbor_csr", "repro.bittorrent.fast.swarm", "build_neighbor_csr"),
    ("fast.tracker.neighbor_sets_to_csr", "repro.bittorrent.fast.swarm", "neighbor_sets_to_csr"),
    ("faults.dropped_pairs", "repro.bittorrent.faults", "FaultRuntime.dropped_pairs"),
    ("faults.select_crash_victims", "repro.bittorrent.faults", "FaultRuntime.select_crash_victims"),
    ("faults.announces_due", "repro.bittorrent.faults", "FaultRuntime.announces_due"),
    ("resilience.sample_pools", "repro.bittorrent.fast.swarm", "sample_pools"),
    ("telemetry.observe_round", "repro.bittorrent.telemetry", "SwarmObserver.observe_round"),
    ("telemetry.finish", "repro.bittorrent.telemetry", "SwarmObserver.finish"),
    ("swarm.stratification_index", "repro.bittorrent.swarm", "stratification_index"),
    ("graphs.erdos_renyi", "repro.core.acceptance", "AcceptanceGraph.erdos_renyi"),
    ("core.fast.PeerArrays.build", "repro.core.fast.arrays", "PeerArrays.build"),
    ("core.fast.fast_stable_table", "repro.core.fast.dynamics", "fast_stable_table"),
    ("core.fast.best_blocking_mate", "repro.core.fast.engine", "FastMatching.best_blocking_mate"),
    ("core.fast.apply_initiative", "repro.core.fast.engine", "FastMatching.apply_initiative"),
    ("core.fast.disorder", "repro.core.fast.engine", "FastMatching.disorder"),
    ("core.fast.run", "repro.core.fast.dynamics", "FastConvergenceSimulator.run"),
    ("stratification.sigma_sweep", "repro.stratification.phase_transition", "sigma_sweep"),
    ("sim.parallel.run_sweep", "repro.stratification.phase_transition", "run_sweep"),
    ("stratification.analyze_complete_matching", "repro.stratification.phase_transition", "analyze_complete_matching"),
    ("stratification.complete_graph_stable_matching", "repro.stratification.clustering", "complete_graph_stable_matching"),
)

# Spans whose self time is reported: the Python loops that own their layer.
SELF_TIMED = ("fast.swarm.run", "core.fast.run", "sim.parallel.run_sweep")

# Counts the workloads add from their results (see workloads.counts()).
COUNTS = (
    "fast.swarm.peer_rounds",
    "fast.swarm.pieces_acquired",
    "scenarios.arrivals",
    "scenarios.departures",
    "resilience.failover_announces",
    "resilience.pex_introductions",
    "resilience.pex_bootstraps",
    "resilience.evictions",
    "resilience.purges",
    "graphs.edges",
)
RATIOS = ("fast.swarm.pieces_per_acquire", "graphs.edges_per_s", "core.fast.active_ratio")


class Tracer:
    """Collects calls, busy and self seconds per wrapped function."""

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {
            prefix: [0, 0.0, 0.0] for prefix, _, _ in TARGETS
        }
        self._child_time: List[float] = []

    def wrap(self, prefix: str, fn: Callable) -> Callable:
        totals = self.totals[prefix]
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - inner

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for prefix, (calls, busy, self_s) in self.totals.items():
            out[f"{prefix}.calls"] = calls
            if prefix in SELF_TIMED:
                out[f"{prefix}.self_s"] = self_s
            else:
                out[f"{prefix}.busy_s"] = busy
        return out


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    installed = []
    try:
        for prefix, module_name, path in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(prefix, original.__func__))
            else:
                patched = tracer.wrap(prefix, original)
            setattr(owner, attr, patched)
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_acquire")):
        return "ratio"
    return "count"


def metric_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = list(Tracer().metrics())
    return names + list(COUNTS) + list(RATIOS) + ["trace.overhead_s"]


# Which layers each workload must exercise, and which it must leave idle.
SWARM_LAYERS = tuple(p for p, _, _ in TARGETS if p.startswith(("fast.", "swarm.")))
CONTROL_LAYERS = (
    "fast.tracker.neighbor_sets_to_csr",
    "faults.dropped_pairs",
    "faults.select_crash_victims",
    "faults.announces_due",
    "resilience.sample_pools",
    "telemetry.observe_round",
    "telemetry.finish",
)
MODEL_LAYERS = tuple(
    p for p, _, _ in TARGETS if p.startswith(("graphs.", "core.", "stratification.", "sim."))
)
CONTROL_COUNTS = (
    "scenarios.arrivals",
    "scenarios.departures",
    "resilience.failover_announces",
    "resilience.pex_introductions",
    "resilience.pex_bootstraps",
    "resilience.evictions",
    "resilience.purges",
)


def exercise_failures(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Violations of the layers a workload was chosen to run (or to skip)."""
    failures = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    calls = lambda prefix: metrics[f"{prefix}.calls"]  # noqa: E731
    if workload.startswith("swarm-"):
        need(calls("fast.swarm.run") > 0, "swarm run not called")
        need(calls("fast.bitfields.indices") > 0, "no piece acquisitions")
        need(calls("fast.choking.batched_regular_slots") > 0, "no rechoke")
        need(calls("swarm.stratification_index") > 0, "no stratification analysis")
        for prefix in MODEL_LAYERS:
            need(calls(prefix) == 0, f"swarm workload called {prefix}")
    if workload.startswith("swarm-static"):
        for prefix in CONTROL_LAYERS:
            need(calls(prefix) == 0, f"static swarm called {prefix}")
        for name in CONTROL_COUNTS:
            need(metrics[name] == 0, f"static swarm has {name}={metrics[name]}")
    if workload.startswith("swarm-churn"):
        need(calls("fast.tracker.neighbor_sets_to_csr") >= 1, "no CSR re-freeze")
        need(calls("telemetry.observe_round") > 0, "observer never ran")
        need(calls("faults.dropped_pairs") > 0, "fault filter never ran")
        need(calls("resilience.sample_pools") > 0, "PEX never sampled")
        for name in ("scenarios.arrivals", "resilience.pex_introductions", "resilience.evictions"):
            need(metrics[name] > 0, f"churn swarm has {name}=0")
    if workload.startswith("paper-model"):
        for prefix in SWARM_LAYERS + CONTROL_LAYERS:
            need(calls(prefix) == 0, f"model workload called {prefix}")
        need(calls("core.fast.run") > 0, "convergence run not called")
        need(calls("stratification.sigma_sweep") > 0, "sigma sweep not called")
    return failures
