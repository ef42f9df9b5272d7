"""Piece acquisition of the fast swarm engine against a per-piece oracle.

``FastSwarmSimulator._acquire_pieces`` turns one transfer's credit into
pieces in a handful of numpy calls: it plans the pick bounds tier by tier,
draws them in one call, takes whole tiers (and a whole wanted set) without
replaying their picks, and pops only inside a last, partly taken tier.
The oracle below is the reference engine's loop -- one
``make_selector(policy).select`` call per piece on the live wanted set --
run on a twin generator.  Every path must give the same pieces, the same
leftover credit and leave the generator in the same state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.bittorrent.fast.swarm import FastSwarmSimulator
from repro.bittorrent.piece_selection import make_selector
from repro.bittorrent.swarm import SwarmConfig

POLICIES = ("rarest-first", "random", "sequential")
PIECES = 48
RECEIVER, SENDER = 0, 1


def _simulator(policy: str) -> FastSwarmSimulator:
    config = SwarmConfig(
        leechers=3, seeds=1, piece_count=PIECES, rounds=1, piece_selection=policy
    )
    return FastSwarmSimulator(config, seed=0)


def _arrange(
    sim: FastSwarmSimulator, held: Sequence[int], offered: Sequence[int], avail: Sequence[int]
) -> np.ndarray:
    """Give the receiver ``held`` and the sender ``offered``; set availability."""
    bitfields = sim.bitfields
    for row, pieces in ((RECEIVER, held), (SENDER, offered)):
        bitfields.packed[row] = 0
        bitfields.have_count[row] = 0
        bitfields.fill(row, pieces)
    sim.counts[:] = np.asarray(avail, dtype=np.int64)
    return bitfields.wanted_bytes(SENDER, RECEIVER)


def _oracle(
    policy: str,
    wanted: Sequence[int],
    avail: Sequence[int],
    credit: float,
    piece_size: float,
    rng: np.random.Generator,
    reveal_limit: Optional[int],
) -> Tuple[List[int], float]:
    """The reference engine's per-piece loop (``SwarmSimulator._apply_round``)."""
    selector = make_selector(policy)
    live = set(wanted)
    availability = list(avail)
    taken: List[int] = []
    while credit >= piece_size:
        if reveal_limit is not None and len(taken) >= reveal_limit:
            break
        if not live:
            break
        piece = selector.select(live, availability, rng)
        assert piece is not None
        live.discard(piece)
        availability[piece] += 1
        credit -= piece_size
        taken.append(piece)
    return taken, credit


def _check(
    policy: str,
    held: Sequence[int],
    offered: Sequence[int],
    avail: Sequence[int],
    picks: float,
    reveal_limit: Optional[int] = None,
    seed: int = 7,
) -> List[int]:
    """Run both sides on twin generators; return the oracle's pieces."""
    sim = _simulator(policy)
    wanted_bytes = _arrange(sim, held, offered, avail)
    wanted = sorted(set(offered) - set(held))
    piece_size = sim.config.piece_size_kbit
    credit = picks * piece_size + 0.25
    row_before = sim.bitfields.packed[RECEIVER].copy()
    have_before = int(sim.bitfields.have_count[RECEIVER])
    counts_before = sim.counts.copy()

    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    left, gained = sim._acquire_pieces(RECEIVER, wanted_bytes, credit, rng, reveal_limit)
    taken, oracle_left = _oracle(
        policy, wanted, counts_before.tolist(), credit, piece_size, twin, reveal_limit
    )

    assert gained == len(taken)
    assert left == oracle_left
    assert rng.bit_generator.state == twin.bit_generator.state
    expected_row = set(sim.bitfields.indices(row_before).tolist()) | set(taken)
    assert set(sim.bitfields.indices(sim.bitfields.packed[RECEIVER]).tolist()) == expected_row
    assert int(sim.bitfields.have_count[RECEIVER]) == have_before + len(taken)
    expected_counts = counts_before.copy()
    expected_counts[taken] += 1
    assert np.array_equal(sim.counts, expected_counts)
    return taken


# Availability levels of the crafted wanted set: tiers of 3, 5 and 7 pieces
# at levels 1, 2 and 4, interleaved so no tier is a contiguous index run.
OFFERED = list(range(0, 30, 2))  # 15 wanted pieces
HELD = list(range(1, PIECES, 4))  # odd pieces only: disjoint from OFFERED
LEVELS = [1, 2, 4, 2, 4, 1, 4, 2, 4, 4, 2, 1, 4, 2, 4]


def _avail() -> List[int]:
    avail = [3] * PIECES
    for piece, level in zip(OFFERED, LEVELS):
        avail[piece] = level
    return avail


@pytest.mark.parametrize("policy", POLICIES)
class TestAcquisitionPaths:
    def test_single_pick(self, policy):
        # One pick out of a three-piece rarest tier (a partial tier).
        taken = _check(policy, HELD, OFFERED, _avail(), picks=1)
        assert len(taken) == 1

    def test_whole_tiers_then_partial_tier(self, policy):
        # 3 + 5 picks empty the two rarest tiers; 2 more split the third.
        taken = _check(policy, HELD, OFFERED, _avail(), picks=10)
        assert len(taken) == 10
        if policy == "rarest-first":
            rarest = {p for p, level in zip(OFFERED, LEVELS) if level < 4}
            assert rarest <= set(taken)

    def test_whole_wanted_set(self, policy):
        taken = _check(policy, HELD, OFFERED, _avail(), picks=40)
        assert sorted(taken) == OFFERED

    def test_exact_whole_wanted_set(self, policy):
        # Credit for exactly the wanted set: the credit loop ends on both
        # bounds at once.
        taken = _check(policy, HELD, OFFERED, _avail(), picks=len(OFFERED))
        assert sorted(taken) == OFFERED

    def test_reveal_limit_caps_picks(self, policy):
        # A super seed's reveal_limit stops the picks inside the middle tier.
        taken = _check(policy, HELD, OFFERED, _avail(), picks=40, reveal_limit=6)
        assert len(taken) == 6

    def test_credit_below_one_piece(self, policy):
        assert _check(policy, HELD, OFFERED, _avail(), picks=0) == []

    def test_random_states(self, policy):
        # Random wanted sets, availabilities, credits and caps, including
        # every-tier-whole and single-piece wanted sets.
        gen = np.random.default_rng(2024)
        for case in range(60):
            offered = np.flatnonzero(gen.random(PIECES) < gen.uniform(0.05, 0.9)).tolist()
            held = np.flatnonzero(gen.random(PIECES) < 0.3).tolist()
            if not set(offered) - set(held):
                continue
            avail = gen.integers(0, int(gen.integers(1, 6)), size=PIECES).tolist()
            picks = float(gen.integers(0, PIECES))
            reveal = None if gen.random() < 0.7 else int(gen.integers(1, 8))
            _check(policy, held, offered, avail, picks, reveal_limit=reveal, seed=case)
