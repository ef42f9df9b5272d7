"""A round-based BitTorrent swarm simulator.

The simulator exercises, end to end, the mechanism that the paper models
analytically: peers discover each other through a tracker, exchange pieces
under the Tit-for-Tat choking policy with rarest-first piece selection, and
-- once content availability stops being the bottleneck -- sort themselves
into bandwidth strata.

One simulation *round* represents one rechoke period (10 seconds of real
BitTorrent time).  In each round every peer:

1. recomputes its unchoked set from what it received during the previous
   round (Tit-for-Tat + optimistic unchoke),
2. splits its upload capacity evenly across its unchoked, interested
   neighbors, and
3. the receiving side accumulates the transferred volume and converts it
   into pieces chosen rarest-first from the sender's bitfield.

All volumes are measured in **kilobits** (so that upload capacities in kbps
convert directly: one round moves ``upload_kbps * round_seconds`` kilobits).

The output records per-peer download rates and the realised collaboration
graph, from which :func:`stratification_index` measures how strongly peers
pair with partners of similar bandwidth rank -- the empirical counterpart of
the matching model's stratification result.

Like :class:`repro.core.dynamics.ConvergenceSimulator`, the simulator takes
an ``engine`` switch: ``"reference"`` (this module, dictionaries and sets,
the correctness oracle) or ``"fast"`` (the packed-bit array engine in
:mod:`repro.bittorrent.fast`).  Both engines subclass
:class:`~repro.bittorrent.control.SwarmControl`, which runs membership,
faults, resilience and the round loop once for both; this module holds
only the reference data plane.  The engines produce bit-identical
:class:`SwarmResult`\\ s for the same seed; the contract is enforced by
``tests/test_swarm_engine_equivalence.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bittorrent.bandwidth import BandwidthDistribution
from repro.bittorrent.choking import SeedChoker, TitForTatChoker
from repro.bittorrent.control import (
    SwarmConfig,
    SwarmControl,
    SwarmPeer,
    SwarmResult,
    Transfer,
)
from repro.bittorrent.pieces import Bitfield
from repro.bittorrent.piece_selection import PieceSelector, make_selector, piece_availability
from repro.bittorrent.scenarios import ScenarioSchedule
from repro.bittorrent.telemetry import ObserverConfig, SwarmObserver
from repro.bittorrent.tracker import Tracker
from repro.core.exceptions import validate_engine

__all__ = ["SwarmConfig", "SwarmPeer", "SwarmResult", "SwarmSimulator", "stratification_index"]


class SwarmSimulator(SwarmControl):
    """Drives a round-based Tit-for-Tat swarm.

    Parameters
    ----------
    config:
        Swarm parameters.
    bandwidths:
        Explicit leecher upload capacities (kbps); sampled from
        ``distribution`` when omitted.
    distribution:
        Bandwidth distribution to sample from (Saroiu-style by default).
    seed:
        Master seed of the shared :class:`~repro.sim.random_source.RandomSource`.
    engine:
        ``"reference"`` (default) for this dictionary implementation,
        ``"fast"`` for the packed-bit array engine: the constructor then
        returns a :class:`~repro.bittorrent.fast.swarm.FastSwarmSimulator`.
        Both are bit-identical for the same seed.
    scenario:
        Membership dynamics: a
        :class:`~repro.bittorrent.scenarios.ScenarioSchedule`, a preset
        name (``"static"``, ``"poisson"``, ``"flashcrowd"``,
        ``"seed-linger"``) or ``None`` for the fixed population the paper
        assumes.  Scenarios are bit-identical across engines too.
    observer:
        A :class:`~repro.bittorrent.telemetry.SwarmObserver` (or an
        :class:`~repro.bittorrent.telemetry.ObserverConfig` to build one)
        that measures the run the way a real scrape-and-poll study would;
        its record lands in ``SwarmResult.observed``.  Observation never
        changes the simulation -- results stay bit-identical to the
        unobserved run on both engines.
    """

    def __new__(cls, *args: Any, engine: str = "reference", **kwargs: Any) -> Any:
        # engine="fast" constructs the array engine instead: it shares the
        # SwarmControl surface and returns bit-identical results.
        if engine == "fast":
            from repro.bittorrent.fast.swarm import FastSwarmSimulator

            return FastSwarmSimulator(*args, **kwargs)
        return super().__new__(cls)

    def __init__(
        self,
        config: SwarmConfig,
        *,
        bandwidths: Optional[Sequence[float]] = None,
        distribution: Optional[BandwidthDistribution] = None,
        seed: int = 0,
        engine: str = "reference",
        scenario: "ScenarioSchedule | str | None" = None,
        observer: "SwarmObserver | ObserverConfig | None" = None,
    ) -> None:
        validate_engine(engine)
        self.selector: PieceSelector = make_selector(config.piece_selection)
        self.tracker = Tracker(announce_size=config.announce_size)
        self.peers: Dict[int, SwarmPeer] = {}
        self._chokers: Dict[int, TitForTatChoker | SeedChoker] = {}
        super().__init__(
            config,
            bandwidths=bandwidths,
            distribution=distribution,
            seed=seed,
            scenario=scenario,
            observer=observer,
        )

    # -- membership primitives ------------------------------------------------------

    def _new_choker(self) -> TitForTatChoker:
        config = self.config
        return TitForTatChoker(
            regular_slots=config.regular_slots,
            optimistic_slots=config.optimistic_slots,
            optimistic_period=config.optimistic_period,
        )

    def _add_peers(
        self,
        first: int,
        uploads: Sequence[float],
        pieces: Sequence[Optional[np.ndarray]],
        arrival_round: int,
    ) -> None:
        piece_count = self.config.piece_count
        for pid, upload, held in zip(range(first, first + len(uploads)), uploads, pieces):
            if held is None:
                bitfield = Bitfield.complete(piece_count)
                self._chokers[pid] = SeedChoker(slots=self.config.seed_slots)
            else:
                bitfield = Bitfield.from_indices(piece_count, held.tolist())
                self._chokers[pid] = self._new_choker()
            self.peers[pid] = SwarmPeer(
                peer_id=pid,
                upload_kbps=upload,
                is_seed=held is None,
                bitfield=bitfield,
                arrival_round=arrival_round,
                behavior=self.profiles[pid - 1].name,
                locality_group=self.locality_groups[pid - 1],
            )

    def _remove(self, pid: int, crash: bool) -> SwarmPeer:
        peer = self.peers.pop(pid)
        for other in peer.neighbors:
            if other in self.peers:
                self.peers[other].neighbors.discard(pid)
        del self._chokers[pid]
        if crash:
            peer.neighbors = set()
            peer.partial_kbit = {}
            peer.received_last_round = {}
        return peer

    def _restore(self, pid: int, peer: SwarmPeer) -> None:
        self.peers[pid] = peer
        # Ascending-pid iteration keeps the rechoke's draw order.
        self.peers = dict(sorted(self.peers.items()))
        self._chokers[pid] = self._new_choker()

    def connect(self, a: int, b: int) -> bool:
        neighbors = self.peers[a].neighbors
        if b in neighbors:
            return False
        neighbors.add(b)
        self.peers[b].neighbors.add(a)
        return True

    def neighbors(self, pid: int) -> List[int]:
        return sorted(self.peers[pid].neighbors)

    def present(self, pid: int) -> bool:
        return pid in self.peers

    def present_pids(self) -> List[int]:
        return list(self.peers)

    def progress(self, pid: int) -> Optional[float]:
        peer = self.peers.get(pid)
        if peer is None:
            return None
        return peer.bitfield.count() / self.config.piece_count

    def materialize_peers(self) -> Dict[int, SwarmPeer]:
        peers = dict(self._departed)
        peers.update(self.peers)
        return dict(sorted(peers.items()))

    # -- data plane ------------------------------------------------------------------

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[List[Transfer], Set[Tuple[int, int]]]:
        """Decide unchokes and the kilobits each peer pushes to each partner.

        Returns the planned transfers and the set of directed (sender,
        target) pairs granted a *regular* Tit-for-Tat slot this round.
        """
        config = self.config
        profiles = self.profiles
        transfers: List[Transfer] = []
        regular_pairs: Set[Tuple[int, int]] = set()
        for peer in self.peers.values():
            profile = profiles[peer.peer_id - 1]
            if not profile.unchokes:
                # BitThief never reciprocates: skipped before the choker,
                # so no stream draw is consumed (the fast engine skips the
                # same owners in the same ascending order).
                continue
            interested = [
                other
                for other in sorted(peer.neighbors)
                if not self.peers[other].is_seed
                and profiles[other - 1].downloads
                and self.peers[other].bitfield.is_interested_in(peer.bitfield)
            ]
            if not interested:
                continue
            decision = self._chokers[peer.peer_id].select_unchoked(
                peer.peer_id, interested, peer.received_last_round, rng
            )
            unchoked = decision.all
            if not unchoked:
                continue
            for target in decision.regular:
                regular_pairs.add((peer.peer_id, target))
            budget_kbit = peer.upload_kbps * config.round_seconds
            if profile.upload_factor != 1.0:
                # The != 1.0 guard keeps the float sequence of standard
                # peers byte-identical to the behavior-free code path.
                budget_kbit *= profile.upload_factor
            share = budget_kbit / len(unchoked)
            for target in unchoked:
                transfers.append((peer.peer_id, target, share))
        return transfers, regular_pairs

    def _apply_round(
        self,
        transfers: List[Transfer],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
    ) -> None:
        """Turn planned transfers into pieces."""
        availability = piece_availability(
            (peer.bitfield for peer in self.peers.values()), self.config.piece_count
        )
        received_now: Dict[int, Dict[int, float]] = {pid: {} for pid in self.peers}

        for sender_id, receiver_id, volume_kbit in transfers:
            sender = self.peers[sender_id]
            receiver = self.peers[receiver_id]
            wanted = receiver.bitfield.interesting_pieces(sender.bitfield)
            if not wanted:
                continue
            sender.uploaded_kbit += volume_kbit
            receiver.downloaded_kbit += volume_kbit
            received_now[receiver_id][sender_id] = (
                received_now[receiver_id].get(sender_id, 0.0) + volume_kbit
            )
            key = (min(sender_id, receiver_id), max(sender_id, receiver_id))
            collaboration[key] = collaboration.get(key, 0.0) + volume_kbit

            # Convert the received volume into whole pieces, rarest first.
            # A super-seeding sender reveals at most reveal_limit pieces
            # per transfer; the unconverted credit carries over as usual.
            reveal_limit = self.profiles[sender_id - 1].reveal_limit
            taken = 0
            credit = receiver.partial_kbit.get(sender_id, 0.0) + volume_kbit
            while credit >= self.config.piece_size_kbit:
                if reveal_limit is not None and taken >= reveal_limit:
                    break
                wanted = receiver.bitfield.interesting_pieces(sender.bitfield)
                if not wanted:
                    break
                piece = self.selector.select(wanted, availability, rng)
                if piece is None:
                    break
                receiver.bitfield.add(piece)
                availability[piece] += 1
                credit -= self.config.piece_size_kbit
                taken += 1
                if receiver.bitfield.is_complete() and receiver.completed_round is None:
                    receiver.completed_round = round_index
                    self._complete(receiver_id, round_index)
            receiver.partial_kbit[sender_id] = credit

        for pid, received in sorted(received_now.items()):
            self.peers[pid].received_last_round = received


def stratification_index(
    result: SwarmResult,
    *,
    use_tft_pairs: bool = True,
    behaviors: Optional[Sequence[str]] = None,
) -> float:
    """Correlation between a leecher's bandwidth rank and its partners' ranks.

    For every leecher we compute the weighted average bandwidth rank of the
    peers it collaborated with, then return the Pearson correlation between
    the leecher's own rank and that average.  Values close to 1 mean peers
    overwhelmingly exchanged with peers of similar bandwidth -- the
    stratification the paper predicts; values near 0 mean bandwidth played
    no role in partner selection.

    Parameters
    ----------
    use_tft_pairs:
        When true (default) only *reciprocated Tit-for-Tat* pairs are
        counted, weighted by the number of rounds the reciprocity lasted --
        the empirical counterpart of the matching model.  When false, every
        transferred kilobit counts, which also includes optimistic-unchoke
        altruism and therefore underestimates stratification.
    behaviors:
        When given, restrict the index to leechers whose
        :attr:`~SwarmPeer.behavior` is in this set -- e.g.
        ``behaviors=["standard"]`` asks whether the *obedient* peers still
        stratify among themselves despite the deviants around them.
    """
    leechers = result.leechers()
    if behaviors is not None:
        allowed = frozenset(behaviors)
        leechers = [peer for peer in leechers if peer.behavior in allowed]
    if len(leechers) < 3:
        raise ValueError("need at least three leechers to measure stratification")
    order = sorted(leechers, key=lambda peer: -peer.upload_kbps)
    rank = {peer.peer_id: index + 1 for index, peer in enumerate(order)}
    weights = (
        result.tft_reciprocal_rounds if use_tft_pairs else result.collaboration_volume
    )

    own_ranks: List[float] = []
    partner_ranks: List[float] = []
    for peer in leechers:
        total = 0.0
        weighted = 0.0
        for (a, b), weight in weights.items():
            if a == peer.peer_id and b in rank:
                weighted += weight * rank[b]
                total += weight
            elif b == peer.peer_id and a in rank:
                weighted += weight * rank[a]
                total += weight
        if total > 0:
            own_ranks.append(float(rank[peer.peer_id]))
            partner_ranks.append(weighted / total)
    if len(own_ranks) < 3:
        return 0.0
    matrix = np.corrcoef(np.asarray(own_ranks), np.asarray(partner_ranks))
    return float(matrix[0, 1])
