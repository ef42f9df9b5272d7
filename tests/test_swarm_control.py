"""The swarm control plane both engines share.

Membership, faults, resilience and the round loop live once, in
:class:`repro.bittorrent.control.SwarmControl`; the engines only add their
data planes and membership primitives.  These tests pin that split: the
control-plane steps are inherited, never overridden, the facade builds one
engine, and the control plane's own bookkeeping (the early-exit counter)
matches a from-scratch recount on both engines.
"""

from __future__ import annotations

import pytest

from repro.bittorrent import faults
from repro.bittorrent.control import SwarmControl
from repro.bittorrent.fast.swarm import FastSwarmSimulator
from repro.bittorrent.scenarios import ScenarioSchedule
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator

CONTROL_STEPS = (
    "_process_membership",
    "_announce_or_queue",
    "_arrive",
    "_admit",
    "_build_population",
    "_process_rejoins",
    "_crash",
    "_process_crashes",
    "_process_pending_announces",
    "_depart",
    "_complete",
    "_pex_bootstrap",
    "_pex_round",
    "_filter_faulty_transfers",
    "_record_reciprocal_tft",
    "_filter_contacts",
    "_finished",
)

CHURN = dict(
    leechers=14,
    seeds=1,
    piece_count=30,
    rounds=25,
    start_completion=0.3,
    announce_size=5,
    behaviors="freeriders",
    faults="outage:3+2/all,crash:4@5~3,loss:0.05",
    resilience="trackers:2,pex:3,keepalive:2",
)
SCENARIO = ScenarioSchedule(
    arrivals="poisson", arrival_rate=1.5, departure="linger", linger_rounds=1
)


@pytest.mark.parametrize("step", CONTROL_STEPS)
def test_control_plane_steps_are_written_once(step):
    shared = SwarmControl.__dict__[step]
    assert getattr(SwarmSimulator, step) is shared
    assert getattr(FastSwarmSimulator, step) is shared


def test_round_loop_is_shared():
    # FastSwarmSimulator.run stays in its own class body (the per-layer
    # tracer of repobench/ wraps it there) and only delegates.
    assert SwarmSimulator.run is SwarmControl.run
    assert FastSwarmSimulator.run.__code__.co_names == ("super", "run")


def test_fast_facade_builds_one_engine(monkeypatch):
    built = []
    original = faults.FaultRuntime.__init__

    def counting(self, schedule):
        built.append(schedule)
        original(self, schedule)

    monkeypatch.setattr(faults.FaultRuntime, "__init__", counting)
    simulator = SwarmSimulator(SwarmConfig(**CHURN), seed=3, engine="fast")
    assert isinstance(simulator, FastSwarmSimulator)
    assert len(built) == 1


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_early_exit_counter_matches_a_recount(engine):
    """``_incomplete`` equals the present downloaders still missing pieces."""
    simulator = SwarmSimulator(
        SwarmConfig(**CHURN), seed=11, engine=engine, scenario=SCENARIO
    )
    checked = []
    finished = simulator._finished

    def recount(round_index):
        waiting = [
            pid
            for pid in simulator.present_pids()
            if simulator.profiles[pid - 1].downloads
            and simulator.progress(pid) != 1.0
        ]
        assert simulator._incomplete == len(waiting), round_index
        checked.append(round_index)
        return finished(round_index)

    simulator._finished = recount
    result = simulator.run()
    assert checked and result.departures > 0 and result.arrivals > 0


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_crashed_finishers_depart_when_they_rejoin(engine):
    """Departure buckets agree with the scan rule ``should_depart``.

    Finishers crash in round 8, before their departure round, and rejoin
    in round 14, after it: they must leave in their rejoin round, so no
    present leecher is ever overdue and nobody leaves before its round.
    """
    scenario = ScenarioSchedule(departure="linger", linger_rounds=2)
    config = SwarmConfig(
        leechers=20,
        seeds=1,
        piece_count=300,
        rounds=40,
        seed_upload_kbps=500.0,
        announce_size=6,
        faults="crash:15@8~6",
    )
    result = SwarmSimulator(config, seed=0, engine=engine, scenario=scenario).run()
    rejoined = [
        p
        for p in result.leechers()
        if p.completed_round is not None
        and p.completed_round < 8
        and p.departed_round == 14
    ]
    assert rejoined, "no finisher crashed and rejoined past its departure round"
    for peer in result.leechers():
        if peer.departed_round is None:
            assert not scenario.should_depart(peer.completed_round, result.rounds_run)
        elif peer.completed_round is not None:
            assert peer.departed_round >= peer.completed_round + 1 + 2
