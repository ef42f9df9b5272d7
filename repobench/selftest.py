"""Self-test: the benchmark's checks bite and its tracing is invisible.

    python3 repobench/selftest.py

Uses scaled-down copies of the workloads (a few seconds each) and exits
non-zero on the first property that does not hold:

* a deliberately perturbed output -- one piece cleared from a completed
  peer, a volume that breaks upload/download conservation, a wrong
  completion count, a sigma=0 cluster of the wrong size -- is reported as
  a failed operation;
* two seeds give different inputs, and one seed gives the same inputs twice;
* outputs with tracing on equal outputs with tracing off;
* the layer-exercise conditions reject a static swarm that re-froze its
  CSR and a churn swarm that never did.
"""

from __future__ import annotations

import copy
import dataclasses
from contextlib import nullcontext
import time

import run

run.import_library()

from repro.bittorrent.pieces import Bitfield  # noqa: E402
from tracing import Tracer, exercise_failures, metric_names, traced  # noqa: E402
from workloads import ModelWorkload, SwarmWorkload  # noqa: E402


class SmallModel(ModelWorkload):
    n = 1_000
    sweep_n = 2_000


def _small(kind: str, seed: int):
    if kind == "static":
        return SwarmWorkload("swarm-static-5k", seed, leechers=300, churn=False)
    if kind == "churn":
        return SwarmWorkload("swarm-churn-outage-2k", seed, leechers=300, churn=True)
    return SmallModel("paper-model-10k", seed)


def _execute(workload, tracer=None):
    context = traced(tracer) if tracer is not None else nullcontext()
    with context:
        sim = workload.setup()
        output, _ = workload.execute(sim, time.perf_counter)
    return sim, output


def _expect(condition: bool, message: str, errors: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        errors.append(message)


def _first_finisher(result):
    return next(p for p in result.peers.values() if not p.is_seed and p.completed_round)


class ClearsOnePiece(SwarmWorkload):
    """Clears one piece of a completed peer after ``run()``."""

    def execute(self, sim, clock):
        output, window = super().execute(sim, clock)
        pieces = self.config.piece_count
        _first_finisher(output[0]).bitfield = Bitfield.from_indices(pieces, range(1, pieces))
        return output, window


def _swarm_perturbations(sim, output, workload, errors) -> None:
    finisher = _first_finisher(output[0])
    cleared = ClearsOnePiece(workload.name, workload.seed, workload.leechers, workload.churn)
    op = run.run_op(cleared)
    _expect(bool(op["failures"]), "one piece cleared after run() makes a failed operation", errors)

    skewed = copy.deepcopy(output)
    skewed[0].peers[finisher.peer_id].downloaded_kbit += 1.0
    _expect(bool(workload.check(sim, skewed)), "upload/download imbalance fails the check", errors)

    miscount = copy.deepcopy(output)
    miscount[0].completed += 1
    _expect(bool(workload.check(sim, miscount)), "wrong completion count fails the check", errors)


def _model_perturbations(sim, output, workload, errors) -> None:
    result, points = output
    wrong_cluster = [dataclasses.replace(points[0], largest_cluster=8.0)] + points[1:]
    _expect(bool(workload.check(sim, (result, wrong_cluster))), "wrong sigma=0 cluster size fails the check", errors)
    short = dataclasses.replace(result, initiatives=result.initiatives - 1)
    _expect(bool(workload.check(sim, (short, points))), "missing initiative fails the check", errors)


def _inputs(workload):
    sim = workload.setup()
    if isinstance(workload, SwarmWorkload):
        return tuple(sim.uploads)
    return tuple(sorted(sim.acceptance.graph.edges()))


def main() -> int:
    errors: list = []
    for kind in ("static", "churn", "model"):
        workload = _small(kind, seed=1)
        sim, output = _execute(workload)
        _expect(not workload.check(sim, output), f"{kind}: unperturbed output passes", errors)
        if kind == "model":
            _model_perturbations(sim, output, workload, errors)
        else:
            _swarm_perturbations(sim, output, workload, errors)

        _expect(_inputs(_small(kind, 1)) != _inputs(_small(kind, 2)), f"{kind}: seeds 1 and 2 give different inputs", errors)
        _expect(_inputs(_small(kind, 1)) == _inputs(_small(kind, 1)), f"{kind}: seed 1 gives the same inputs twice", errors)

        tracer = Tracer()
        _, traced_output = _execute(_small(kind, 1), tracer)
        _expect(
            workload.fingerprint(traced_output) == workload.fingerprint(output),
            f"{kind}: traced output equals untraced output",
            errors,
        )
        _expect(sum(tracer.metrics().values()) > 0, f"{kind}: tracer recorded calls", errors)

    layers = {name: 0 for name in metric_names()}
    refrozen = dict(layers, **{"fast.tracker.neighbor_sets_to_csr.calls": 1})
    _expect(
        any("neighbor_sets_to_csr" in f for f in exercise_failures("swarm-static-5k", refrozen)),
        "static swarm with a CSR re-freeze fails the layer conditions",
        errors,
    )
    _expect(
        any("re-freeze" in f for f in exercise_failures("swarm-churn-outage-2k", layers)),
        "churn swarm without a CSR re-freeze fails the layer conditions",
        errors,
    )
    print(f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
