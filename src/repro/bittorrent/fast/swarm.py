"""The vectorized swarm engine (``engine="fast"``).

:class:`FastSwarmSimulator` replays :class:`repro.bittorrent.swarm.
SwarmSimulator` round for round on flat arrays:

* every bitfield lives in one packed-bit ``uint8`` matrix
  (:class:`~repro.bittorrent.fast.bitfields.BitfieldMatrix`), so interest
  tests are byte-wise ``AND``/``NOT`` over tracker edges instead of Python
  set differences;
* piece availability is one integer vector maintained incrementally, and
  rarest-first sorts a transfer's wanted pieces into rarity tiers once,
  with one bounded draw for all of its picks;
* the Tit-for-Tat slots of all peers are ranked in a single
  :func:`numpy.lexsort` over the received-volume edge array
  (:func:`~repro.bittorrent.fast.choking.batched_regular_slots`);
* tracker announces are array-backed
  (:class:`~repro.bittorrent.fast.tracker.FastTracker`).

Membership, faults, resilience and the round loop live in the shared
control plane (:class:`~repro.bittorrent.control.SwarmControl`); this
module is the array data plane plus the membership primitives the control
plane calls.  Dynamic membership breaks the fixed-width assumption the
arrays were born with, so membership is two-tier: the *live adjacency* is
a list of Python neighbor sets mutated by the primitives, and the *CSR
edge arrays* the vectorized passes run over are a frozen snapshot of it,
re-frozen (``_rebuild_csr``) only when a primitive has marked it dirty.
Peer rows grow geometrically (:meth:`BitfieldMatrix.add_peers`) and are
tombstoned via an ``alive`` mask on departure -- ids are never reused, so
departed peers keep their row and their frozen statistics for the final
result.

The engine is *bit-identical* to the reference simulator: its data plane
consumes the shared :class:`~repro.sim.random_source.RandomSource` streams
draw for draw (same shuffles, same ``choice`` calls, in the same order),
and the float accounting applies the same IEEE operations in the same
sequence.  ``tests/test_swarm_engine_equivalence.py``
enforces the contract -- under churn too; the speedup (>= 5x at 5k
leechers, gated by ``benchmarks/bench_swarm_scaling.py`` and
``benchmarks/bench_scenarios.py``) comes purely from replacing per-piece
Python set algebra with vectorized passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bittorrent.bandwidth import BandwidthDistribution
from repro.bittorrent.control import (
    SwarmConfig,
    SwarmControl,
    SwarmPeer,
    SwarmResult,
    Transfer,
)
from repro.bittorrent.fast.bitfields import BitfieldMatrix
from repro.bittorrent.fast.choking import FastChokerState, batched_regular_slots
from repro.bittorrent.fast.tracker import (
    FastTracker,
    build_neighbor_csr,
    neighbor_sets_to_csr,
)
from repro.bittorrent.piece_selection import make_selector
from repro.bittorrent.resilience import sample_pools
from repro.bittorrent.scenarios import ScenarioSchedule
from repro.bittorrent.telemetry import ObserverConfig, SwarmObserver
from repro.sim import streams

__all__ = ["FastSwarmSimulator"]


class FastSwarmSimulator(SwarmControl):
    """Array-backed round simulator; see the module docstring.

    Constructed with the same signature as the reference simulator (minus
    ``engine``); normally reached through
    ``SwarmSimulator(config, engine="fast")``.  ``__init__``, ``run`` and
    ``materialize_peers`` stay in this class body, where the per-layer
    tracer of ``repobench/`` wraps them.
    """

    tracker: FastTracker

    def __init__(
        self,
        config: SwarmConfig,
        *,
        bandwidths: Optional[Sequence[float]] = None,
        distribution: Optional[BandwidthDistribution] = None,
        seed: int = 0,
        scenario: "ScenarioSchedule | str | None" = None,
        observer: "SwarmObserver | ObserverConfig | None" = None,
    ) -> None:
        if not isinstance(config, SwarmConfig):
            raise TypeError("config must be a SwarmConfig")
        make_selector(config.piece_selection)  # validate the policy name
        # Empty data-plane storage (dense index i = pid - 1); the control
        # plane fills it through _add_peers.
        self.tracker = FastTracker(announce_size=config.announce_size)
        self.chokers = FastChokerState(
            regular_slots=config.regular_slots,
            optimistic_slots=config.optimistic_slots,
            optimistic_period=config.optimistic_period,
            seed_slots=config.seed_slots,
        )
        self.bitfields = BitfieldMatrix(config.leechers + config.seeds, config.piece_count)
        self.counts = np.zeros(config.piece_count, dtype=np.int64)
        self.alive = np.zeros(0, dtype=bool)
        self.is_seed = np.zeros(0, dtype=bool)
        self.can_download = np.zeros(0, dtype=bool)
        self.uploads: List[float] = []
        self.upload_factor: List[float] = []
        self.reveal_limit: List[Optional[int]] = []
        self.downloaded: List[float] = []
        self.uploaded: List[float] = []
        self.completed_round: List[Optional[int]] = []
        self.arrival_round: List[int] = []
        # The neighbor sets are the *live* adjacency; the CSR arrays are its
        # frozen snapshot for the vectorized passes, re-frozen when dirty.
        self.neighbor_sets: List[Set[int]] = []
        self._csr_dirty = True
        # partial[receiver][sender] = kilobits short of the next whole piece
        # (dense indices) -- the array mirror of SwarmPeer.partial_kbit.
        self.partial: Dict[int, Dict[int, float]] = {}
        self._last_received: Dict[int, Dict[int, float]] = {}
        super().__init__(
            config,
            bandwidths=bandwidths,
            distribution=distribution,
            seed=seed,
            scenario=scenario,
            observer=observer,
        )

    def run(self) -> SwarmResult:
        """Run the configured rounds; returns a reference ``SwarmResult``."""
        return super().run()

    @property
    def peers(self) -> Dict[int, SwarmPeer]:
        """A fresh snapshot of the present peers, like the reference ``peers``."""
        return {
            i + 1: self._materialize_one(i) for i in np.flatnonzero(self.alive).tolist()
        }

    # -- membership primitives ------------------------------------------------------

    def _add_peers(
        self,
        first: int,
        uploads: Sequence[float],
        pieces: Sequence[Optional[np.ndarray]],
        arrival_round: int,
    ) -> None:
        count = len(uploads)
        base = first - 1
        grow = base + count - self.bitfields.n_peers
        if grow > 0:
            self.bitfields.add_peers(grow)
        profiles = self.profiles[base:]
        self.alive = np.concatenate([self.alive, np.ones(count, dtype=bool)])
        self.is_seed = np.concatenate(
            [self.is_seed, np.array([held is None for held in pieces], dtype=bool)]
        )
        self.can_download = np.concatenate(
            [self.can_download, np.array([p.downloads for p in profiles], dtype=bool)]
        )
        self.uploads.extend(uploads)
        self.upload_factor.extend(p.upload_factor for p in profiles)
        self.reveal_limit.extend(p.reveal_limit for p in profiles)
        self.downloaded.extend([0.0] * count)
        self.uploaded.extend([0.0] * count)
        self.completed_round.extend([None] * count)
        self.arrival_round.extend([arrival_round] * count)
        self.neighbor_sets.extend(set() for _ in range(count))
        for i, held in enumerate(pieces, start=base):
            if held is None:
                self.bitfields.set_complete(i)
            elif held.size:
                self.bitfields.fill(i, held)
        self.counts += self.bitfields.availability(base, base + count)
        self._csr_dirty = True

    def _remove(self, pid: int, crash: bool) -> SwarmPeer:
        i = pid - 1
        # A departure keeps its final state; a crash snapshots after the scrub.
        kept = None if crash else self._materialize_one(i)
        self.alive[i] = False
        self.counts -= self.bitfields.unpack_row(i)
        for j in self.neighbor_sets[i]:
            self.neighbor_sets[j].discard(i)
        self.neighbor_sets[i] = set()
        self.partial.pop(i, None)
        self._last_received.pop(pid, None)
        self.chokers.drop(pid)
        self._csr_dirty = True
        return kept if kept is not None else self._materialize_one(i)

    def _restore(self, pid: int, peer: SwarmPeer) -> None:
        # The dense row (bitfield, statistics, behavior) survived the crash.
        i = pid - 1
        self.alive[i] = True
        self.counts += self.bitfields.unpack_row(i)

    def connect(self, a: int, b: int) -> bool:
        i, j = a - 1, b - 1
        if j in self.neighbor_sets[i]:
            return False
        self.neighbor_sets[i].add(j)
        self.neighbor_sets[j].add(i)
        self._csr_dirty = True
        return True

    def neighbors(self, pid: int) -> List[int]:
        return sorted(j + 1 for j in self.neighbor_sets[pid - 1])

    def present(self, pid: int) -> bool:
        return bool(self.alive[pid - 1])

    def present_pids(self) -> List[int]:
        pids: List[int] = (np.flatnonzero(self.alive) + 1).tolist()
        return pids

    def progress(self, pid: int) -> Optional[float]:
        if not self.alive[pid - 1]:
            return None
        return int(self.bitfields.have_count[pid - 1]) / self.config.piece_count

    def _announce_population(self) -> None:
        self.indptr, self.adj, self.neighbor_sets = build_neighbor_csr(
            self.n_total,
            self.tracker,
            self.source.stream(streams.TRACKER),
            contact_filter=self._filter_contacts if self._behaviors_active else None,
        )
        self._freeze_edges()
        self._csr_dirty = False

    def _sample_pex(self, pools: Sequence[Sequence[int]]) -> List[List[int]]:
        # The base class's draw, repeated so that sample_pools resolves
        # through this module's globals (where repobench/ traces it).
        return sample_pools(
            pools, self.resilience.pex_sample, self.source.stream(streams.PEX_GOSSIP)
        )

    # -- data plane ------------------------------------------------------------------

    def _freeze_edges(self) -> None:
        """Derive the per-edge arrays from the current (indptr, adj) CSR."""
        n = self.n_total
        self.edge_peer = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.indptr)
        )
        self.adj_pid = self.adj + 1
        # Globally sorted (owner, partner) key: CSR segments are peer-ordered
        # and id-sorted inside, so one searchsorted resolves any edge slot.
        self._key_mult = n
        self.edge_key = self.edge_peer * n + self.adj
        # An unchoke target must be a non-seed that actually downloads
        # (partial seeds never request); frozen with the CSR since the
        # download flag only changes when membership does.
        self.adj_target = ~self.is_seed[self.adj]
        if self._behaviors_active:
            self.adj_target &= self.can_download[self.adj]
        self.recv_edge = np.zeros(self.adj.shape[0], dtype=np.float64)

    def _rebuild_csr(self) -> None:
        """Re-freeze the live adjacency after the primitives changed it.

        Departed peers have empty segments (their sets were scrubbed), new
        arrivals bring their announce edges in; last round's received
        volumes are re-projected onto the new edge layout so the coming
        rechoke sees exactly what the reference chokers see.
        """
        self.indptr, self.adj = neighbor_sets_to_csr(self.neighbor_sets)
        self._freeze_edges()
        self._project_received()
        self._csr_dirty = False

    def _interest_pass(self) -> np.ndarray:
        """Directed per-edge interest: is the partner an unchoke target?

        Edge (p -> q) is set when q is a non-seed that misses a piece p
        holds -- the reference's ``is_interested_in`` test, vectorized.
        Completed sources (seeds included) short-circuit to "q incomplete",
        so late rounds cost almost nothing.
        """
        piece_count = self.config.piece_count
        have = self.bitfields.have_count
        candidate = self.adj_target & (have[self.adj] < piece_count)
        interested = np.zeros(self.adj.shape[0], dtype=bool)
        src_complete = have[self.edge_peer] == piece_count
        interested[candidate & src_complete] = True
        rest = np.flatnonzero(candidate & ~src_complete)
        if rest.size:
            interested[rest] = self.bitfields.edge_interest(
                self.edge_peer[rest], self.adj[rest]
            )
        return interested

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[List[Transfer], Set[Tuple[int, int]]]:
        """Decide unchokes; returns the transfers and regular pid pairs."""
        if self._csr_dirty:
            self._rebuild_csr()
        config = self.config
        interested = self._interest_pass()
        regular_map = batched_regular_slots(
            self.edge_peer,
            self.adj_pid,
            self.recv_edge,
            interested,
            config.regular_slots,
        )
        transfers: List[Transfer] = []
        regular_pairs: Set[Tuple[int, int]] = set()
        round_seconds = config.round_seconds
        # One vectorized pass finds the peers with at least one interested
        # edge and their per-peer candidate lists; the Python loop below
        # then only visits *active* peers, in the same ascending dense-id
        # order as iterating every row, so the shared random stream is
        # consumed draw for draw as before.
        active_edges = np.flatnonzero(interested)
        if active_edges.size == 0:
            return transfers, regular_pairs
        owners = self.edge_peer.take(active_edges)  # ascending (CSR order)
        partner_ids = self.adj_pid.take(active_edges).tolist()
        starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]]).tolist()
        ends = starts[1:] + [owners.size]
        owner_at = owners[starts].tolist()
        is_seed = self.is_seed
        uploads = self.uploads
        profiles = self.profiles
        upload_factor = self.upload_factor
        for i, lo, hi in zip(owner_at, starts, ends):
            if not profiles[i].unchokes:
                # Never-upload owners are skipped before any choker call,
                # exactly where the reference skips them, so the shared
                # stream stays aligned.
                continue
            pid = i + 1
            interested_ids = partner_ids[lo:hi]
            if is_seed[i]:
                regular: List[int] = []
                unchoked = self.chokers.seed_unchoke(interested_ids, rng)
            else:
                regular, optimistic = self.chokers.leecher_unchoke(
                    pid, interested_ids, regular_map.get(i, []), rng
                )
                unchoked = regular + optimistic
            if not unchoked:
                continue
            for target in regular:
                regular_pairs.add((pid, target))
            budget_kbit = uploads[i] * round_seconds
            factor = upload_factor[i]
            if factor != 1.0:
                # Guarded multiply: standard peers keep the exact float
                # sequence of the behavior-free code path.
                budget_kbit *= factor
            share = budget_kbit / len(unchoked)
            for target in unchoked:
                transfers.append((pid, target, share))
        return transfers, regular_pairs

    def _acquire_pieces(
        self,
        receiver: int,
        wanted_bytes: np.ndarray,
        credit: float,
        rng: np.random.Generator,
        reveal_limit: Optional[int] = None,
    ) -> Tuple[float, int]:
        """Convert ``credit`` kilobits into pieces; returns (credit, gained).

        ``wanted_bytes`` is the packed mask of pieces the sender has and
        the receiver misses.  The reference loop re-picks from the live
        wanted set each piece, but within one transfer the availability of
        the *remaining* wanted pieces never changes (only the chosen
        piece's count moves, and it leaves the set).  The picks therefore
        run through fixed *tiers*: rarest-first sorts the wanted pieces
        into rarity tiers once and empties them in order; random is one
        tier of every wanted piece; sequential takes the lowest indices.

        The bound of pick ``k`` is the end of its tier minus ``k``, so the
        whole bound sequence is known before any pick, and one
        ``Generator.integers(0, bounds_array)`` call (a scalar call for a
        single pick) consumes the stream exactly as the reference
        selectors' per-piece draws do.  Only the *outcome* of the draws
        needs per-piece work, and only in the last tier when it is taken
        partly: every earlier tier is taken whole whatever the draws were,
        so it joins the result as a slice, and a transfer that takes the
        receiver's entire wanted set ORs ``wanted_bytes`` into its row
        without building a piece list at all.
        """
        piece_size = self.config.piece_size_kbit
        policy = self.config.piece_selection
        wanted_idx = self.bitfields.indices(wanted_bytes)
        total = wanted_idx.shape[0]

        # The pick count replays the reference control flow exactly --
        # subtract-while-credit-covers-a-piece -- because repeated float
        # subtraction is not generally the same as one floor division.
        # ``remaining`` is the credit after those subtractions, i.e. the
        # exact float the reference loop would leave behind.  A sender's
        # reveal_limit (super-seeding) caps the subtraction count too, so
        # the leftover credit matches the reference's capped loop.
        cap = total if reveal_limit is None else min(total, reveal_limit)
        remaining = credit
        max_picks = 0
        while remaining >= piece_size and max_picks < cap:
            remaining -= piece_size
            max_picks += 1
        if max_picks == 0:
            return credit, 0

        queue = wanted_idx  # the wanted pieces in tier order
        if policy != "sequential":  # sequential draws nothing
            if policy == "rarest-first":
                avail = self.counts.take(wanted_idx)
                # ``wanted_idx`` is ascending, so a stable sort on
                # availability alone equals the reference
                # lexsort((piece, avail)) ordering.
                order = avail.argsort(kind="stable")
                queue = wanted_idx.take(order)
                levels = avail.take(order)
                ends = levels.searchsorted(levels[:max_picks], side="right")
            else:  # random: one tier holding every wanted piece
                ends = np.full(max_picks, total)
            bounds = ends - np.arange(max_picks)
            if max_picks == 1:
                draws = [rng.integers(0, bounds[0])]
            else:
                draws = rng.integers(0, bounds).tolist()
            last_end = int(ends[-1])
            if last_end > max_picks:
                # The last tier is taken partly: replay its pops, and write
                # the picks over its head so queue[:max_picks] is the result.
                last_start = int(ends.searchsorted(last_end))
                tier = queue[last_start:last_end].tolist()
                queue[last_start:max_picks] = [
                    tier.pop(draw) for draw in draws[last_start:]
                ]

        bitfields = self.bitfields
        if max_picks == total:
            bitfields.packed[receiver] |= wanted_bytes
            self.counts[wanted_idx] += 1
        else:
            taken = np.zeros(self.config.piece_count, dtype=np.uint8)
            taken[queue[:max_picks]] = 1
            bitfields.packed[receiver] |= np.packbits(taken)
            self.counts += taken
        bitfields.have_count[receiver] += max_picks
        return remaining, max_picks

    def _apply_round(
        self,
        transfers: List[Transfer],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
    ) -> None:
        """Turn transfers into pieces."""
        config = self.config
        piece_size = config.piece_size_kbit
        piece_count = config.piece_count
        bitfields = self.bitfields
        have = bitfields.have_count
        no_pieces = bytes(bitfields.n_bytes)
        partial = self.partial
        uploaded = self.uploaded
        downloaded = self.downloaded
        received_now: Dict[int, Dict[int, float]] = {}

        for sender_pid, receiver_pid, volume_kbit in transfers:
            sender = sender_pid - 1
            receiver = receiver_pid - 1
            if have[receiver] == piece_count:
                continue  # a complete receiver wants nothing
            # A complete sender always has something an incomplete receiver
            # misses, so the byte-mask test (and its allocation) is only
            # needed for partially-complete senders.
            if have[sender] == piece_count:
                wanted_bytes = None
            else:
                wanted_bytes = bitfields.wanted_bytes(sender, receiver)
                if wanted_bytes.tobytes() == no_pieces:
                    continue
            uploaded[sender] += volume_kbit
            downloaded[receiver] += volume_kbit
            by_sender = received_now.setdefault(receiver_pid, {})
            by_sender[sender_pid] = by_sender.get(sender_pid, 0.0) + volume_kbit
            key = (
                (sender_pid, receiver_pid)
                if sender < receiver
                else (receiver_pid, sender_pid)
            )
            collaboration[key] = collaboration.get(key, 0.0) + volume_kbit

            partial_r = partial.setdefault(receiver, {})
            credit = partial_r.get(sender, 0.0) + volume_kbit
            if credit >= piece_size:
                if wanted_bytes is None:
                    wanted_bytes = bitfields.wanted_bytes(sender, receiver)
                credit, gained = self._acquire_pieces(
                    receiver, wanted_bytes, credit, rng, self.reveal_limit[sender]
                )
                if (
                    gained
                    and have[receiver] == piece_count
                    and self.completed_round[receiver] is None
                ):
                    self.completed_round[receiver] = round_index
                    self._complete(receiver_pid, round_index)
            partial_r[sender] = credit

        self._store_received(received_now)

    def _store_received(self, received_now: Dict[int, Dict[int, float]]) -> None:
        """Record this round's receipts and project them onto the edges."""
        self._last_received = received_now
        self._project_received()

    def _project_received(self) -> None:
        """Scatter ``_last_received`` onto the current edge array.

        Under churn the edge layout may have just been re-frozen, so every
        (receiver, sender) pair is resolved against the live edge keys and
        pairs whose edge disappeared (a departed partner) are dropped --
        the reference chokers never look those up either.
        """
        self.recv_edge.fill(0.0)
        if not self._last_received or self.edge_key.size == 0:
            return
        receivers: List[int] = []
        senders: List[int] = []
        volumes: List[float] = []
        for receiver_pid, by_sender in self._last_received.items():
            for sender_pid, volume in by_sender.items():
                receivers.append(receiver_pid - 1)
                senders.append(sender_pid - 1)
                volumes.append(volume)
        keys = (
            np.asarray(receivers, dtype=np.int64) * self._key_mult
            + np.asarray(senders, dtype=np.int64)
        )
        positions = np.searchsorted(self.edge_key, keys)
        in_range = positions < self.edge_key.size
        positions = np.where(in_range, positions, 0)
        valid = in_range & (self.edge_key[positions] == keys)
        self.recv_edge[positions[valid]] = np.asarray(volumes, dtype=np.float64)[valid]

    # -- materialization ----------------------------------------------------------

    def _materialize_one(self, i: int) -> SwarmPeer:
        """Rebuild one dense row as a reference ``SwarmPeer`` snapshot."""
        pid = i + 1
        return SwarmPeer(
            peer_id=pid,
            upload_kbps=self.uploads[i],
            is_seed=bool(self.is_seed[i]),
            bitfield=self.bitfields.to_bitfield(i),
            neighbors={j + 1 for j in self.neighbor_sets[i]},
            downloaded_kbit=self.downloaded[i],
            uploaded_kbit=self.uploaded[i],
            partial_kbit={
                sender + 1: credit
                for sender, credit in self.partial.get(i, {}).items()
            },
            received_last_round=dict(self._last_received.get(pid, {})),
            completed_round=self.completed_round[i],
            arrival_round=self.arrival_round[i],
            behavior=self.profiles[i].name,
            locality_group=self.locality_groups[i],
        )

    def materialize_peers(self) -> Dict[int, SwarmPeer]:
        """Rebuild reference ``SwarmPeer`` objects from the arrays.

        Each call returns a fresh snapshot of the *current* simulation
        state (initial population before :meth:`run`, final state after):
        the present peers of :attr:`peers` plus the departed and crashed
        ones, frozen at the round they left.  This is the ``peers`` of the
        returned result; ``SwarmSimulator.peers`` in fast mode is
        :attr:`peers`, present peers only.
        """
        peers: Dict[int, SwarmPeer] = dict(self._departed)
        peers.update(self.peers)
        return dict(sorted(peers.items()))
