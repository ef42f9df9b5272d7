"""The benchmark's three workloads: inputs, timed phases and output checks.

Every workload is generated in-process from the ``--seed`` argument, runs
single-threaded and starts no process.  One *operation* is ``setup()``
(timed as ``setup_s``) followed by ``execute()`` (timed as ``wall_s``);
``check()`` then validates the user-facing output outside the timed region.

Why these workloads:

* ``swarm-static-5k`` -- the repo's swarm gate (5k leechers, 300 pieces,
  rarest-first, 30% bootstrap, at most 10 rounds).  Nearly all its time is
  the fast data plane (interest, choking, piece acquisition) and membership
  never changes, so control-plane layers must show zero calls.
* ``swarm-churn-outage-2k`` -- the same swarm shape with 500 pieces, Poisson
  arrivals (leechers/50 per round), linger-2 departures, tracker outages,
  a mass crash, multi-tracker failover, PEX and keepalive eviction, and an
  observer.  Membership changes every round, so CSR re-freeze, announces,
  PEX, eviction and telemetry all carry load.  At 5k leechers one operation
  ran 17 s on the tuning VM, too long for several operations per run, so
  the leecher count is 2k (about 6.5 s per operation).
* ``paper-model-10k`` -- the paper's model: ER acceptance graph G(10k, d=50),
  best-mate convergence from empty for 8 base units, and the Figure 6
  sigma sweep.  It exercises graphs, the fast matching engine and
  stratification, and no swarm code.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.bittorrent import swarm as swarm_mod
from repro.bittorrent.fast import FastSwarmSimulator
from repro.bittorrent.scenarios import ScenarioSchedule
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator
from repro.bittorrent.telemetry import ObserverConfig, SwarmObserver
from repro.core.acceptance import AcceptanceGraph
from repro.core.dynamics import ConvergenceSimulator
from repro.core.fast import FastConvergenceSimulator
from repro.core.peer import PeerPopulation
from repro.sim import streams
from repro.sim.random_source import RandomSource
from repro.stratification import phase_transition
from repro.stratification.clustering import constant_matching_cluster_size

FAULTS = "outage:3+2/all,outage:6+3/1,crash:50@4~3"
RESILIENCE = "trackers:3,pex:8,keepalive:2"
RESILIENCE_COUNTERS = (
    "failover_announces",
    "pex_introductions",
    "pex_bootstraps",
    "evictions",
    "purges",
)


def _swarm_config(leechers: int, piece_count: int, churn: bool) -> SwarmConfig:
    return SwarmConfig(
        leechers=leechers,
        seeds=max(3, leechers // 2_000),
        piece_count=piece_count,
        rounds=10,
        start_completion=0.3,
        seed_upload_kbps=5_000.0,
        announce_size=20,
        faults=FAULTS if churn else None,
        resilience=RESILIENCE if churn else None,
    )


class SwarmWorkload:
    """A fast-engine swarm run plus its stratification index."""

    step_metric = "peer_rounds_per_s"
    setup_reps = 2  # swarm set-up is short; two samples per operation

    def __init__(self, name: str, seed: int, leechers: int, churn: bool) -> None:
        self.name = name
        self.seed = seed
        self.leechers = leechers
        self.churn = churn
        self.config = _swarm_config(leechers, 500 if churn else 300, churn)

    def _scenario(self, leechers: int) -> ScenarioSchedule:
        if not self.churn:
            return ScenarioSchedule()
        # An explicit schedule: the "poisson" preset's 2 arrivals per round
        # is negligible at this size.
        return ScenarioSchedule(
            arrivals="poisson",
            arrival_rate=leechers / 50,
            departure="linger",
            linger_rounds=2,
        )

    def _observer(self):
        return SwarmObserver(ObserverConfig(poll_budget=500)) if self.churn else None

    def describe(self) -> Dict[str, object]:
        return {
            "engine": "fast",
            "leechers": self.config.leechers,
            "seeds": self.config.seeds,
            "piece_count": self.config.piece_count,
            "rounds": self.config.rounds,
            "start_completion": self.config.start_completion,
            "faults": self.config.faults,
            "resilience": self.config.resilience,
            "scenario": repr(self._scenario(self.leechers)),
            "observer_poll_budget": 500 if self.churn else None,
            "simulator_seed": self.seed,
        }

    def setup(self) -> FastSwarmSimulator:
        return FastSwarmSimulator(
            self.config,
            seed=self.seed,
            scenario=self._scenario(self.leechers),
            observer=self._observer(),
        )

    def execute(self, sim: FastSwarmSimulator, clock) -> Tuple[object, Tuple[float, float]]:
        """Run and analyse; returns (output, ``clock()`` around ``run()``)."""
        start = clock()
        result = sim.run()
        window = (start, clock())
        return (result, swarm_mod.stratification_index(result)), window

    def check(self, sim: FastSwarmSimulator, output) -> List[str]:
        result, index = output
        failures = []
        peers = list(result.peers.values())
        uploaded = math.fsum(p.uploaded_kbit for p in peers)
        downloaded = math.fsum(p.downloaded_kbit for p in peers)
        if not abs(uploaded - downloaded) <= 1e-9 * max(abs(uploaded), 1.0):
            failures.append(f"uploaded {uploaded!r} != downloaded {downloaded!r}")
        piece_count = self.config.piece_count
        incomplete = [
            p.peer_id
            for p in peers
            if p.completed_round is not None and p.bitfield.count() != piece_count
        ]
        if incomplete:
            failures.append(
                f"{len(incomplete)} completed peers lack pieces (first: {incomplete[0]})"
            )
        finishers = sum(
            1 for p in peers if not p.is_seed and p.completed_round is not None
        )
        if result.completed != finishers:
            failures.append(
                f"completed={result.completed} but {finishers} peers have completed_round"
            )
        if not -1.0 <= index <= 1.0:
            failures.append(f"stratification index {index!r} outside [-1, 1]")
        return failures

    def steps(self, output) -> int:
        """Peer-rounds: rounds in which a leecher was live and downloading.

        A leecher counts from round ``max(1, arrival_round)`` through its
        ``completed_round``, the round before its ``departed_round``
        (crashes record a departure too) or the last round run, whichever
        comes first.  Completed peers and seeds are left out: they make a
        swarm's last, nearly idle round worth thousands of peer-rounds, and
        whether a seed's swarm needs that round would then swing the rate.
        """
        result, _ = output
        total = 0
        for p in result.peers.values():
            if p.is_seed:
                continue
            end = result.rounds_run
            if p.departed_round is not None:
                end = min(end, p.departed_round - 1)
            if p.completed_round is not None:
                end = min(end, p.completed_round)
            total += max(0, end - max(1, p.arrival_round) + 1)
        return total

    def counts(self, sim: FastSwarmSimulator, output, before: int) -> Dict[str, float]:
        """Per-layer counts taken from the result and the engine's arrays."""
        result, _ = output
        stats = result.resilience
        counts = {
            "scenarios.arrivals": result.arrivals,
            "scenarios.departures": result.departures,
            "fast.swarm.peer_rounds": self.steps(output),
            "fast.swarm.pieces_acquired": int(sim.bitfields.have_count.sum()) - before,
        }
        for counter in RESILIENCE_COUNTERS:
            counts[f"resilience.{counter}"] = getattr(stats, counter) if stats else 0
        return counts

    def pieces_held(self, sim: FastSwarmSimulator) -> int:
        return int(sim.bitfields.have_count.sum())

    def small_checksum(self, engine: str) -> Tuple:
        """A scaled-down copy of this workload (100 leechers) on ``engine``."""
        leechers = 100
        result = SwarmSimulator(
            _swarm_config(leechers, self.config.piece_count, self.churn),
            seed=self.seed,
            engine=engine,
            scenario=self._scenario(leechers),
            observer=self._observer(),
        ).run()
        return self.fingerprint((result, swarm_mod.stratification_index(result)))

    def fingerprint(self, output) -> Tuple:
        """Everything the user sees of one operation, for identity checks."""
        result, index = output
        return (
            index,
            result.completed,
            result.rounds_run,
            result.arrivals,
            result.departures,
            tuple(
                (p.peer_id, p.uploaded_kbit, p.downloaded_kbit, p.completed_round,
                 p.departed_round, p.bitfield.count())
                for p in result.peers.values()
            ),
            tuple(sorted(result.tft_reciprocal_rounds.items())),
            repr(result.resilience),
            None if result.observed is None else (
                result.observed.reported_downloads(), result.observed.peers_observed
            ),
        )


class ModelWorkload:
    """Best-mate convergence on G(n, d) plus the Figure 6 sigma sweep."""

    step_metric = "initiatives_per_s"
    setup_reps = 1  # graph generation dominates; one sample per operation
    n = 10_000
    expected_degree = 50.0
    slots = 1
    base_units = 8.0
    sweep_n = 20_000
    sweep_b_mean = 6.0
    sweep_sigmas = (0, 0.5, 1, 2)
    sweep_reps = 2

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed

    def describe(self) -> Dict[str, object]:
        return {
            "engine": "fast",
            "n": self.n,
            "expected_degree": self.expected_degree,
            "slots": self.slots,
            "strategy": "best-mate",
            "base_units": self.base_units,
            "sweep": {
                "n": self.sweep_n,
                "b_mean": self.sweep_b_mean,
                "sigmas": list(self.sweep_sigmas),
                "repetitions": self.sweep_reps,
                "workers": 1,
                "cache": None,
            },
            "simulator_seed": self.seed,
        }

    def _acceptance(self, n: int) -> AcceptanceGraph:
        population = PeerPopulation.ranked(n, slots=self.slots)
        return AcceptanceGraph.erdos_renyi(
            population,
            expected_degree=self.expected_degree,
            rng=RandomSource(self.seed).stream(streams.GRAPH),
        )

    def setup(self) -> FastConvergenceSimulator:
        return FastConvergenceSimulator(
            self._acceptance(self.n), "best-mate", RandomSource(self.seed)
        )

    def _sweep(self, n: int, engine: str):
        return phase_transition.sigma_sweep(
            n,
            self.sweep_b_mean,
            self.sweep_sigmas,
            repetitions=self.sweep_reps,
            seed=self.seed,
            engine=engine,
            workers=1,
            cache=None,
        )

    def execute(self, sim: FastConvergenceSimulator, clock) -> Tuple[object, Tuple[float, float]]:
        """Converge and sweep; returns (output, ``clock()`` around the run)."""
        start = clock()
        result = sim.run(max_base_units=self.base_units, stop_when_stable=False)
        window = (start, clock())
        return (result, self._sweep(self.sweep_n, "fast")), window

    def check(self, sim: FastConvergenceSimulator, output) -> List[str]:
        result, points = output
        failures = []
        expected = int(round(self.base_units * self.n))
        if result.initiatives != expected:
            failures.append(f"{result.initiatives} initiatives, expected {expected}")
        if not 0 <= result.active_initiatives <= result.initiatives:
            failures.append(f"active initiatives {result.active_initiatives} out of range")
        matching = result.final_matching
        graph = sim.acceptance.graph
        over = [p for p in matching.peer_ids() if matching.degree(p) > matching.capacity(p)]
        if over:
            failures.append(f"{len(over)} peers exceed their slot budget (first: {over[0]})")
        off_graph = [pair for pair in matching.pairs() if not graph.has_edge(*pair)]
        if off_graph:
            failures.append(f"{len(off_graph)} matched pairs are not acceptance edges")
        zero = next((p for p in points if p.sigma == 0.0), None)
        size = constant_matching_cluster_size(int(self.sweep_b_mean))
        mean_size = self.sweep_n / math.ceil(self.sweep_n / size)
        if zero is None:
            failures.append("sigma sweep lacks the sigma=0 point")
        else:
            if zero.largest_cluster != size:
                failures.append(f"sigma=0 largest cluster {zero.largest_cluster}, expected {size}")
            if not math.isclose(zero.mean_cluster_size, mean_size, rel_tol=1e-12):
                failures.append(
                    f"sigma=0 mean cluster {zero.mean_cluster_size!r}, expected {mean_size!r}"
                )
        if len(points) != len(self.sweep_sigmas):
            failures.append(f"{len(points)} sweep points, expected {len(self.sweep_sigmas)}")
        return failures

    def steps(self, output) -> int:
        result, _ = output
        return result.initiatives

    def counts(self, sim: FastConvergenceSimulator, output, before: int) -> Dict[str, float]:
        result, _ = output
        return {
            "graphs.edges": sim.acceptance.graph.edge_count,
            "core.fast.active_ratio": result.active_initiatives / result.initiatives,
        }

    def pieces_held(self, sim) -> int:
        return 0

    def small_checksum(self, engine: str) -> Tuple:
        """A scaled-down copy (n=1000 model, n=2000 sweep) on ``engine``."""
        result = ConvergenceSimulator(
            self._acceptance(1_000), strategy="best-mate", source=RandomSource(self.seed), engine=engine
        ).run(max_base_units=self.base_units, stop_when_stable=False)
        return self.fingerprint((result, self._sweep(2_000, engine)))

    def fingerprint(self, output) -> Tuple:
        result, points = output
        return (
            tuple(result.trajectory.values),
            result.initiatives,
            result.active_initiatives,
            tuple(sorted(result.final_matching.pairs())),
            tuple(repr(point) for point in points),
        )


WORKLOADS = ("swarm-static-5k", "swarm-churn-outage-2k", "paper-model-10k")


def make_workload(name: str, seed: int):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "swarm-static-5k":
        return SwarmWorkload(name, seed, leechers=5_000, churn=False)
    if name == "swarm-churn-outage-2k":
        return SwarmWorkload(name, seed, leechers=2_000, churn=True)
    if name == "paper-model-10k":
        return ModelWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r} (available: {', '.join(WORKLOADS)})")
