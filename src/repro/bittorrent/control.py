"""The swarm model and the control plane both swarm engines share.

This module holds the swarm's public model (:class:`SwarmConfig`,
:class:`SwarmPeer`, :class:`SwarmResult`) and :class:`SwarmControl`, the
base class of the reference engine
(:class:`~repro.bittorrent.swarm.SwarmSimulator`, dictionaries and sets,
the correctness oracle) and of the array engine
(:class:`~repro.bittorrent.fast.swarm.FastSwarmSimulator`).

The control plane is everything the two engines must do alike, draw for
draw, so it is written once here:

* the behavior, fault and resilience gates derived from the config;
* the initial population and every arrival wave -- capacities, behaviors,
  locality groups, tracker-select preferences, bootstrap pieces;
* the per-round membership protocol pinned in ``docs/faults.md``
  (:meth:`SwarmControl._process_membership`): announces and queued
  retries, departures, crashes, rejoins, eviction purges and partition
  sides;
* PEX bootstrap and gossip, the transfer-loss filter, the reciprocal
  Tit-for-Tat count, the early exit, the round loop and the result.

Each engine keeps its data plane -- interest, rechoke, piece acquisition,
transfer accounting, materialization -- and provides the primitives the
control plane calls with 1-based peer ids (pids, never reused):
``_add_peers``, ``_remove``, ``_restore``, ``connect``, ``neighbors``,
``present``, ``present_pids`` and ``progress`` for membership, and
``_announce_population``, ``_plan_round``, ``_apply_round``,
``_sample_pex`` and ``materialize_peers`` for the round itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bittorrent.bandwidth import BandwidthDistribution, saroiu_like_distribution
from repro.bittorrent.behaviors import (
    BehaviorMix,
    BehaviorProfile,
    bootstrap_piece_count,
    filter_contacts,
    profile_for,
    resolve_behavior_mix,
)
from repro.bittorrent.faults import FaultRuntime, FaultSchedule, resolve_faults
from repro.bittorrent.pieces import Bitfield
from repro.bittorrent.resilience import (
    ResiliencePolicy,
    ResilienceRuntime,
    ResilienceStats,
    resolve_resilience,
    sample_pools,
)
from repro.bittorrent.scenarios import ScenarioSchedule, resolve_scenario
from repro.bittorrent.telemetry import (
    ObservedSwarm,
    ObserverConfig,
    SwarmObserver,
    SwarmView,
    resolve_observer,
)
from repro.sim import streams
from repro.sim.random_source import RandomSource

if TYPE_CHECKING:
    from repro.bittorrent.fast.tracker import FastTracker
    from repro.bittorrent.tracker import Tracker

__all__ = ["SwarmConfig", "SwarmControl", "SwarmPeer", "SwarmResult"]

#: One directed transfer of a round: (sender pid, receiver pid, kilobits).
Transfer = Tuple[int, int, float]


@dataclass
class SwarmConfig:
    """Parameters of a swarm simulation.

    Attributes
    ----------
    leechers:
        Number of downloading peers.
    seeds:
        Number of initial seeds.
    piece_count:
        Number of pieces in the torrent.
    piece_size_kbit:
        Piece size in kilobits.
    regular_slots:
        Tit-for-Tat slots per leecher (the paper's b0, default 3).
    optimistic_slots:
        Optimistic unchoke slots per leecher (default 1).
    seed_slots:
        Upload slots of each seed.
    announce_size:
        Tracker announce size (expected acceptance degree d).
    rounds:
        Number of rechoke rounds to simulate.
    round_seconds:
        Real-time duration of one round (used to convert kbps to
        kilobits per round).
    piece_selection:
        Piece selection policy name.
    start_completion:
        Fraction of pieces each leecher already holds at start.  A non-zero
        value puts the swarm directly in the post flash-crowd regime that
        the paper analyses.
    seed_upload_kbps:
        Upload capacity of seeds.
    warmup_rounds:
        Rounds excluded from the reciprocal-TFT statistics (the initial
        discovery phase, where unchokes are still mostly optimistic).
    optimistic_period:
        Rechoke rounds an optimistic unchoke is kept before rotation
        (BitTorrent uses 3 x 10 s, so the default is 3 rounds).
    behaviors:
        Client-behavior mix of the population (a
        :class:`~repro.bittorrent.behaviors.BehaviorMix`, a preset name /
        spec string, or ``None`` for the paper's homogeneous obedient
        clients).  Behaviors are bit-identical across engines.
    faults:
        Fault schedule of the run (a
        :class:`~repro.bittorrent.faults.FaultSchedule`, a preset name /
        spec string, or ``None`` for the paper's failure-free setting):
        tracker outages, transfer loss, peer crashes and network
        partitions.  Faults are bit-identical across engines, and a
        trivial schedule leaves the run draw-for-draw identical to a
        fault-free one.
    resilience:
        Client-side defenses against the fault layer (a
        :class:`~repro.bittorrent.resilience.ResiliencePolicy`, a preset
        name / spec string, or ``None`` for the paper's defenseless
        clients): multi-tracker failover, peer-exchange gossip during
        total outages, and dead-neighbor eviction with stale-registration
        purging.  Resilience is bit-identical across engines, and the
        trivial default draws nothing and changes nothing.
    """

    leechers: int = 60
    seeds: int = 2
    piece_count: int = 800
    piece_size_kbit: float = 256.0
    regular_slots: int = 3
    optimistic_slots: int = 1
    seed_slots: int = 4
    announce_size: int = 20
    rounds: int = 60
    round_seconds: float = 10.0
    piece_selection: str = "rarest-first"
    start_completion: float = 0.3
    seed_upload_kbps: float = 5000.0
    warmup_rounds: int = 5
    optimistic_period: int = 3
    behaviors: "BehaviorMix | str | None" = None
    faults: "FaultSchedule | str | None" = None
    resilience: "ResiliencePolicy | str | None" = None

    def __post_init__(self) -> None:
        if self.leechers <= 1:
            raise ValueError("need at least two leechers")
        if self.seeds < 0:
            raise ValueError("seeds cannot be negative")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not 0.0 <= self.start_completion < 1.0:
            raise ValueError("start_completion must be in [0, 1)")
        if self.warmup_rounds < 0:
            raise ValueError("warmup_rounds cannot be negative")
        if self.optimistic_period <= 0:
            raise ValueError("optimistic_period must be positive")
        if self.behaviors is not None:
            self.behaviors = resolve_behavior_mix(self.behaviors)
        if self.faults is not None:
            self.faults = resolve_faults(self.faults)
        if self.resilience is not None:
            self.resilience = resolve_resilience(self.resilience)


@dataclass
class SwarmPeer:
    """Dynamic state of one peer in the swarm (volumes in kilobits).

    ``arrival_round`` is 0 for the initial population and the join round
    for scenario arrivals; ``departed_round`` is set when a scenario
    departure policy removes the peer from the swarm (its statistics are
    frozen at that point but still reported in the result).

    ``behavior`` names the peer's assigned
    :class:`~repro.bittorrent.behaviors.BehaviorProfile` and
    ``locality_group`` its locality group (-1 when the mix has no
    locality-biased behavior and groups were never drawn).
    """

    peer_id: int
    upload_kbps: float
    is_seed: bool
    bitfield: Bitfield
    neighbors: Set[int] = field(default_factory=set)
    downloaded_kbit: float = 0.0
    uploaded_kbit: float = 0.0
    partial_kbit: Dict[int, float] = field(default_factory=dict)
    received_last_round: Dict[int, float] = field(default_factory=dict)
    completed_round: Optional[int] = None
    arrival_round: int = 0
    departed_round: Optional[int] = None
    behavior: str = "standard"
    locality_group: int = -1

    def download_rate_kbps(self, rounds: int, round_seconds: float) -> float:
        """Average download rate over the peer's time in the swarm.

        A peer joining at the start of round ``r`` participates in rounds
        ``r..horizon`` inclusive -- ``horizon - r + 1`` rounds (the initial
        population, ``arrival_round == 0``, participates from round 1).
        """
        horizon = (self.completed_round if self.completed_round is not None else rounds)
        active_since = max(1, self.arrival_round)
        horizon = max(1, horizon - active_since + 1)
        return self.downloaded_kbit / (horizon * round_seconds)


@dataclass
class SwarmResult:
    """Outcome of a swarm simulation.

    ``collaboration_volume`` records every kilobit moved between a pair;
    ``tft_reciprocal_rounds`` counts, per pair of leechers, the rounds in
    which *both* sides granted the other a regular (Tit-for-Tat) slot --
    the empirical analogue of a matched pair in the paper's model.

    Under a dynamic :class:`~repro.bittorrent.scenarios.ScenarioSchedule`,
    ``peers`` contains departed peers too (with ``departed_round`` set and
    their statistics frozen at departure); ``arrivals`` / ``departures``
    count the membership events over the whole run.

    ``observed`` carries the measurement campaign of an attached
    :class:`~repro.bittorrent.telemetry.SwarmObserver` (``None`` when the
    run was unobserved); every other field is bit-identical with or
    without observation.

    ``resilience`` carries the failover / PEX / eviction counters of a
    non-trivial :class:`~repro.bittorrent.resilience.ResiliencePolicy`
    (``None`` -- and absent from serialized traces -- for the defenseless
    default, so pre-resilience result payloads are unchanged).
    """

    config: SwarmConfig
    peers: Dict[int, SwarmPeer]
    collaboration_volume: Dict[Tuple[int, int], float]
    tft_reciprocal_rounds: Dict[Tuple[int, int], float]
    completed: int
    rounds_run: int
    arrivals: int = 0
    departures: int = 0
    observed: Optional[ObservedSwarm] = None
    resilience: Optional[ResilienceStats] = None

    def leechers(self) -> List[SwarmPeer]:
        """All non-seed peers (departed ones included)."""
        return [peer for peer in self.peers.values() if not peer.is_seed]

    def present_peers(self) -> List[SwarmPeer]:
        """Peers still in the swarm at the end of the run."""
        return [peer for peer in self.peers.values() if peer.departed_round is None]

    def download_rates(self) -> Dict[int, float]:
        """Average download rate (kbps) per leecher."""
        return {
            peer.peer_id: peer.download_rate_kbps(self.rounds_run, self.config.round_seconds)
            for peer in self.leechers()
        }

    def share_ratios(self) -> Dict[int, float]:
        """Downloaded / uploaded volume per leecher (the BitTorrent share ratio)."""
        ratios = {}
        for peer in self.leechers():
            uploaded = max(peer.uploaded_kbit, 1e-9)
            ratios[peer.peer_id] = peer.downloaded_kbit / uploaded
        return ratios


class SwarmControl:
    """The round loop and membership protocol shared by both engines.

    Subclasses set up their empty data-plane storage and ``tracker``, then
    call ``super().__init__``, which derives the gates and builds the
    initial population through the engine primitives.  See the module
    docstring for the split.
    """

    tracker: "Tracker | FastTracker"

    def __init__(
        self,
        config: SwarmConfig,
        *,
        bandwidths: Optional[Sequence[float]],
        distribution: Optional[BandwidthDistribution],
        seed: int,
        scenario: "ScenarioSchedule | str | None",
        observer: "SwarmObserver | ObserverConfig | None",
    ) -> None:
        self.config = config
        self.scenario = resolve_scenario(scenario)
        self.observer = resolve_observer(observer)
        self.source = RandomSource(seed)
        # The behavior layer: the swarm's mix, the (possibly overriding)
        # arrival mix, and two flags that gate every behavior branch.  A
        # trivial mix keeps the run draw-for-draw identical to a
        # behavior-free one.
        self.behaviors = resolve_behavior_mix(config.behaviors)
        self._arrival_mix: BehaviorMix = (
            self.scenario.behaviors
            if self.scenario.behaviors is not None
            else self.behaviors
        )
        self._behaviors_active = not (
            self.behaviors.is_trivial and self._arrival_mix.is_trivial
        )
        self._locality_on = (
            self.behaviors.uses_locality or self._arrival_mix.uses_locality
        )
        # The fault layer: one pid-level runtime per run.  A trivial
        # schedule keeps every fault branch off (and every fault-* stream
        # untouched), so fault-free runs stay draw-for-draw identical to
        # pre-fault-layer ones.
        self.faults = resolve_faults(config.faults)
        self._faults = FaultRuntime(self.faults)
        self._faults_active = self._faults.active
        self.tracker_available = True
        # The resilience layer has the same shape (its runtime also checks
        # the schedule's replica targets against the announce list); the
        # trivial default draws nothing.
        self.resilience = resolve_resilience(config.resilience)
        self._resilience = ResilienceRuntime(self.resilience, self.faults)
        self._resilience_active = self._resilience.active
        # Per-peer identity, indexed by pid - 1 and kept for departed and
        # crashed peers too (a crashed peer's id can still show up in
        # tracker contacts).
        self.profiles: List[BehaviorProfile] = []
        self.locality_groups: List[int] = []
        self.n_total = 0
        self._departed: Dict[int, SwarmPeer] = {}
        # Departure is deterministic at completion (round + 1 + linger), so
        # completions enqueue here and membership pops one round's bucket.
        self._depart_due: Dict[int, List[int]] = {}
        self._total_arrived = 0
        self._completed = 0
        # Present downloading leechers still missing pieces: the early exit
        # waits for this to reach zero.
        self._incomplete = 0
        self._build_population(bandwidths, distribution)

    # -- engine primitives ---------------------------------------------------------

    def _add_peers(
        self,
        first: int,
        uploads: Sequence[float],
        pieces: Sequence[Optional[np.ndarray]],
        arrival_round: int,
    ) -> None:
        """Store peers ``first, first + 1, ...``; ``pieces[k] is None`` is a seed.

        ``self.profiles`` and ``self.locality_groups`` already cover them.
        """
        raise NotImplementedError

    def _remove(self, pid: int, crash: bool) -> SwarmPeer:
        """Take ``pid`` out of the live swarm; return its frozen record.

        A departure keeps the peer's final state; a crash also loses its
        neighbors, partial piece credit and last-round receipts.
        """
        raise NotImplementedError

    def _restore(self, pid: int, peer: SwarmPeer) -> None:
        """Bring crashed ``pid`` back with its retained bitfield."""
        raise NotImplementedError

    def connect(self, a: int, b: int) -> bool:
        """Add the symmetric edge a--b; whether it is new."""
        raise NotImplementedError

    def neighbors(self, pid: int) -> List[int]:
        """The live neighbors of ``pid``, ascending."""
        raise NotImplementedError

    def present(self, pid: int) -> bool:
        """Whether ``pid`` is in the swarm (not departed, not crashed)."""
        raise NotImplementedError

    def present_pids(self) -> List[int]:
        """The pids in the swarm, ascending."""
        raise NotImplementedError

    def progress(self, pid: int) -> Optional[float]:
        """Fraction of the content ``pid`` holds; ``None`` when absent."""
        raise NotImplementedError

    def _plan_round(
        self, rng: np.random.Generator
    ) -> Tuple[List[Transfer], Set[Tuple[int, int]]]:
        """Unchoke decisions: the round's transfers and regular-slot pairs."""
        raise NotImplementedError

    def _apply_round(
        self,
        transfers: List[Transfer],
        collaboration: Dict[Tuple[int, int], float],
        rng: np.random.Generator,
        round_index: int,
    ) -> None:
        """Turn transfers into pieces, calling :meth:`_complete` per finisher."""
        raise NotImplementedError

    def materialize_peers(self) -> Dict[int, SwarmPeer]:
        """Every peer ever in the swarm, departed ones included, by pid."""
        raise NotImplementedError

    def _announce_population(self) -> None:
        """Announce the initial population in pid order and connect it."""
        rng = self.source.stream(streams.TRACKER)
        for pid in range(1, self.n_total + 1):
            contacts: Iterable[int] = self.tracker.announce(pid, rng)
            if self._behaviors_active:
                contacts = self._filter_contacts(pid, contacts)
            for other in contacts:
                self.connect(pid, int(other))

    def _sample_pex(self, pools: Sequence[Sequence[int]]) -> List[List[int]]:
        """One pinned ``pex-gossip`` batch: a bounded sample per pool."""
        return sample_pools(
            pools, self.resilience.pex_sample, self.source.stream(streams.PEX_GOSSIP)
        )

    # -- population ----------------------------------------------------------------

    def _build_population(
        self,
        bandwidths: Optional[Sequence[float]],
        distribution: Optional[BandwidthDistribution],
    ) -> None:
        """Draw, store and announce the initial leechers, then the seeds.

        Pinned order: one capacity batch, one behavior batch for the
        leechers, one locality-group batch for everybody (only when some
        behavior is locality-biased), one tracker-select batch (only with
        a replicated announce list), the leechers' bootstrap pieces, then
        one announce per peer in pid order.
        """
        config = self.config
        if bandwidths is not None:
            uploads = [float(x) for x in bandwidths]
            if len(uploads) != config.leechers:
                raise ValueError("bandwidths must have one entry per leecher")
        else:
            dist = distribution if distribution is not None else saroiu_like_distribution()
            sampled = dist.sample(config.leechers, self.source.stream(streams.BANDWIDTH))
            uploads = [float(x) for x in sampled]
        mix = self.behaviors
        behavior_rng = self.source.stream(streams.BEHAVIOR)
        names = mix.assign(config.leechers, behavior_rng)
        n = config.leechers + config.seeds
        groups = mix.assign_groups(n, behavior_rng) if self._locality_on else [-1] * n
        if self._resilience_active:
            self._resilience.assign_preferences(
                list(range(1, n + 1)), self.source.stream(streams.TRACKER_SELECT)
            )
        self._admit(
            uploads + [config.seed_upload_kbps] * config.seeds,
            names + [mix.seed_behavior] * config.seeds,
            groups,
            0,
            int(round(config.start_completion * config.piece_count)),
            seeds=config.seeds,
        )
        self._announce_population()
        for pid in range(1, n + 1):
            if self._resilience_active:
                # Construction precedes round 1, so no outage window covers
                # it: every announce lands on its preferred replica.
                self._resilience.record_announce(pid, 0)
            # Peers that join holding the full content announce as
            # seeders: scrape counts them, the snatch counter does not.
            if self.progress(pid) == 1.0:
                self.tracker.register_complete(pid)

    def _admit(
        self,
        uploads: Sequence[float],
        names: Sequence[str],
        groups: Sequence[int],
        arrival_round: int,
        start_pieces: int,
        seeds: int = 0,
    ) -> None:
        """Allocate pids for a wave, draw its bootstrap pieces, store it.

        The last ``seeds`` peers of the wave are seeds (complete, no draw);
        every leecher draws one ``bootstrap`` batch in pid order.
        """
        piece_count = self.config.piece_count
        first = self.n_total + 1
        profiles = [profile_for(name) for name in names]
        self.profiles.extend(profiles)
        self.locality_groups.extend(groups)
        self.n_total += len(profiles)
        bootstrap_rng = self.source.stream(streams.BOOTSTRAP)
        pieces: List[Optional[np.ndarray]] = []
        for profile in profiles[: len(profiles) - seeds]:
            count = bootstrap_piece_count(profile, start_pieces, piece_count)
            pieces.append(
                bootstrap_rng.choice(piece_count, size=count, replace=False)
                if count
                else np.empty(0, dtype=np.int64)
            )
            if count == piece_count:
                self._completed += 1  # born complete: start_completion rounds up
            elif profile.downloads:
                self._incomplete += 1
        pieces.extend([None] * seeds)
        self._add_peers(first, uploads, pieces, arrival_round)

    def _arrive(self, count: int, round_index: int) -> None:
        """Join one arrival wave of ``count`` fresh leechers.

        Pinned order: one capacity batch, one behavior batch, one
        locality-group batch (when locality is on), one tracker-select
        batch (the pids are allocated sequentially, so they are known
        before anybody announces), the bootstrap pieces, then one
        announce (or queued retry) per arrival in pid order.
        """
        capacities = self.scenario.sample_capacities(
            count, self.source.stream(streams.BANDWIDTH)
        )
        mix = self._arrival_mix
        behavior_rng = self.source.stream(streams.BEHAVIOR)
        names = mix.assign(count, behavior_rng)
        groups = mix.assign_groups(count, behavior_rng) if self._locality_on else [-1] * count
        pids = list(range(self.n_total + 1, self.n_total + 1 + count))
        if self._resilience_active:
            self._resilience.assign_preferences(
                pids, self.source.stream(streams.TRACKER_SELECT)
            )
        self._admit(
            [float(c) for c in capacities],
            names,
            groups,
            round_index,
            self.scenario.arrival_pieces(self.config.piece_count),
        )
        for pid in pids:
            self._announce_or_queue(pid, round_index)
        self._total_arrived += count

    def _filter_contacts(self, pid: int, contacts: Iterable[int]) -> List[int]:
        """Apply ``pid``'s locality / NAT edge behaviors to its contacts."""
        contact_list = [int(contact) for contact in contacts]
        return filter_contacts(
            self.profiles[pid - 1],
            self.locality_groups[pid - 1],
            contact_list,
            [self.locality_groups[contact - 1] for contact in contact_list],
            [self.profiles[contact - 1].nat_limited for contact in contact_list],
            self.source.stream(streams.BEHAVIOR),
        )

    def _waits_for(self, pid: int) -> bool:
        """Whether the early exit waits for present ``pid`` to finish."""
        return self.profiles[pid - 1].downloads and self.progress(pid) != 1.0

    # -- membership ----------------------------------------------------------------

    def _process_membership(self, round_index: int) -> None:
        """Apply one round's membership changes in the pinned order.

        Recovery flush of deferred tracker notifications, crash rejoins,
        keepalive evictions and purges, scenario departures, crash events,
        announce retries, arrivals, and finally partition sides for peers
        without one (``docs/faults.md``).  The fault and resilience steps
        only run when their layer is active.
        """
        scenario = self.scenario
        if self._faults_active:
            self._faults.begin_round(round_index)
            self.tracker_available = self._faults.tracker_up(
                round_index, self.resilience.trackers
            )
            if self.tracker_available:
                completions, departs = self._faults.drain_deferred()
                for pid in completions:
                    self.tracker.record_completion(pid)
                for pid in departs:
                    self.tracker.depart(pid)
            self._process_rejoins(round_index)
        if self._resilience_active:
            # Keepalive timeouts fire, then pending stale-registration
            # purges reach a reachable replica.  After the rejoin step, so
            # a peer that came back this round keeps its registration.
            self._resilience.begin_round(round_index)
            if self.tracker_available:
                for pid in self._resilience.drain_purges():
                    if self.present(pid):
                        continue  # rejoined: the registration is live again
                    if self.tracker.is_registered(pid):
                        self.tracker.depart(pid)
                        self._resilience.count_purge()
        if scenario.departure != "stay":
            # The presence filter and the dedupe only matter under crashes:
            # a victim's bucket entry must not fire while it is gone, and a
            # rejoiner's rescheduled entry can coexist with the original.
            due = self._depart_due.pop(round_index, [])
            for pid in sorted({pid for pid in due if self.present(pid)}):
                self._depart(pid, round_index)
        if self._faults_active:
            self._process_crashes(round_index)
            self._process_pending_announces(round_index)
        count = scenario.arrivals_for_round(
            round_index, self._total_arrived, self.source.stream(streams.SCENARIO)
        )
        if count > 0:
            self._arrive(count, round_index)
        if self._faults_active and self._faults.partition_active(round_index):
            self._faults.assign_missing_groups(
                round_index,
                self.present_pids(),
                self.source.stream(streams.FAULT_PARTITION),
            )

    def _leave(self, pid: int, round_index: int, crash: bool) -> None:
        """Freeze ``pid``'s record at ``round_index`` and drop it from the swarm."""
        if self._waits_for(pid):
            self._incomplete -= 1
        peer = self._remove(pid, crash)
        peer.departed_round = round_index
        self._departed[pid] = peer

    def _depart(self, pid: int, round_index: int) -> None:
        """A scenario departure: the peer leaves and tells the tracker."""
        self._leave(pid, round_index, crash=False)
        if self._faults_active and not self.tracker_available:
            # The stopped event cannot reach the tracker mid-outage; it is
            # delivered on recovery.
            self._faults.defer_depart(pid)
        else:
            self.tracker.depart(pid)

    def _announce_or_queue(self, pid: int, round_index: int) -> None:
        """Announce ``pid`` to the tracker, or queue a retry mid-outage.

        An announce consumes the tracker draw (plus the behavior filter
        batch when active) and connects symmetric edges; contacts that
        crashed since the tracker last heard from them are dropped (a dead
        peer does not answer a handshake).  During an outage nothing is
        drawn -- the announce retries with doubling backoff, and with PEX
        on the peer bootstraps from cached contacts meanwhile.
        """
        if not self.tracker_available:
            self._faults.queue_announce(pid, round_index)
            if self._resilience_active and self.resilience.pex:
                self._pex_bootstrap(pid)
            return
        contacts: Iterable[int] = self.tracker.announce(
            pid, self.source.stream(streams.TRACKER)
        )
        if self._resilience_active:
            self._resilience.record_announce(pid, round_index)
        if self._behaviors_active:
            contacts = self._filter_contacts(pid, contacts)
        for other in contacts:
            other = int(other)
            if self.present(other):  # else a stale tracker entry: a crashed peer
                self.connect(pid, other)

    def _process_rejoins(self, round_index: int) -> None:
        """Restore crashed peers whose rejoin falls due this round.

        The bitfield and download statistics survived the crash; neighbors,
        partial piece credit and choker state did not, so the peer comes
        back like a fresh arrival that happens to hold pieces.  A complete
        rejoiner re-enters the departure queue.
        """
        for pid in self._faults.rejoins_due(round_index):
            peer = self._departed.pop(pid)
            peer.departed_round = None
            if self._resilience_active:
                self._resilience.cancel_eviction(pid)
            self._restore(pid, peer)
            if self._waits_for(pid):
                self._incomplete += 1
            if self.scenario.departure != "stay" and peer.completed_round is not None:
                due = max(
                    round_index,
                    peer.completed_round + 1 + self.scenario.effective_linger,
                )
                self._depart_due.setdefault(due, []).append(pid)
            self._announce_or_queue(pid, round_index)

    def _process_crashes(self, round_index: int) -> None:
        """Fire the round's crash event over the present non-seed peers."""
        config = self.config
        seeds = range(config.leechers + 1, config.leechers + config.seeds + 1)
        candidates = [pid for pid in self.present_pids() if pid not in seeds]
        victims = self._faults.select_crash_victims(
            round_index, candidates, self.source.stream(streams.FAULT_CRASH)
        )
        for pid in victims:
            self._crash(pid, round_index)

    def _crash(self, pid: int, round_index: int) -> None:
        """Vanish a peer without telling the tracker.

        Unlike :meth:`_depart`, the tracker keeps handing out the crashed
        peer's id until its registration is purged or it rejoins.
        """
        if self._resilience_active:
            # The keepalive clock starts now; only a peer somebody was
            # connected to is detectable (captured before the scrub).
            self._resilience.note_crash(pid, round_index, bool(self.neighbors(pid)))
        self._leave(pid, round_index, crash=True)
        self._faults.clear_announce(pid)

    def _process_pending_announces(self, round_index: int) -> None:
        """Retry queued announces whose backoff expires this round."""
        for pid in self._faults.announces_due(round_index):
            if not self.present(pid):
                # Crashed (or departed) while waiting: the announce dies
                # with the peer.
                self._faults.clear_announce(pid)
                continue
            if not self.tracker_available:
                self._faults.reschedule_announce(pid, round_index)
                continue
            self._faults.clear_announce(pid)
            self._announce_or_queue(pid, round_index)

    def _complete(self, pid: int, round_index: int) -> None:
        """Book a download the data plane just finished."""
        self._completed += 1
        self._incomplete -= 1
        if self._faults_active and not self.tracker_available:
            self._faults.defer_completion(pid)
        else:
            self.tracker.record_completion(pid)
        if self.scenario.departure != "stay":
            due = round_index + 1 + self.scenario.effective_linger
            self._depart_due.setdefault(due, []).append(pid)

    # -- peer exchange -------------------------------------------------------------

    def _pex_bootstrap(self, pid: int) -> None:
        """Seed a blacked-out (re)joiner with cached peer contacts.

        An arrival that finds every replica down would otherwise sit alone
        in the retry queue; with PEX on it samples a bounded handful of
        longer-lived peers (ids strictly below its own: resume caches and
        local discovery only know peers that existed first -- and the only
        membership rule that holds identically mid-arrival-wave).  One
        pex-gossip batch per queued announce.
        """
        candidates = [other for other in self.present_pids() if other < pid]
        sample = self._sample_pex([candidates])[0]
        if not sample:
            return
        for other in sample:
            self.connect(pid, other)
        self._resilience.count_bootstrap()

    def _pex_round(self, transfers: List[Transfer]) -> None:
        """Gossip neighbor samples along this round's surviving transfers.

        Only runs while every replica is unreachable.  Each directed
        (sender, receiver) pair carries one bounded sample of the sender's
        live neighbors (receiver excluded); all samples of the round are
        drawn as one pinned pex-gossip batch over the sorted pairs
        *before* any edge is added.
        """
        pairs = sorted((sender, receiver) for sender, receiver, _ in transfers)
        pools = [[p for p in self.neighbors(a) if p != b] for a, b in pairs]
        for (_, b), sample in zip(pairs, self._sample_pex(pools)):
            for pid in sample:
                if pid != b and self.connect(b, pid):
                    self._resilience.count_introduction()

    # -- the round loop ------------------------------------------------------------

    def run(self) -> SwarmResult:
        """Run the configured number of rounds and return the results."""
        config = self.config
        observer = self.observer
        if observer is not None:
            observer.begin_run(SwarmView(self))
        rng = self.source.stream(streams.ROUNDS)
        collaboration: Dict[Tuple[int, int], float] = {}
        tft_rounds: Dict[Tuple[int, int], float] = {}
        rounds_run = config.rounds
        for round_index in range(1, config.rounds + 1):
            self._process_membership(round_index)
            transfers, regular_pairs = self._plan_round(rng)
            if self._faults_active:
                transfers = self._filter_faulty_transfers(transfers, round_index)
            self._record_reciprocal_tft(regular_pairs, tft_rounds, round_index)
            self._apply_round(transfers, collaboration, rng, round_index)
            if (
                self._resilience_active
                and self.resilience.pex
                and not self.tracker_available
            ):
                self._pex_round(transfers)
            if observer is not None:
                observer.observe_round(round_index, regular_pairs)
            if self._finished(round_index):
                rounds_run = round_index
                break
        return SwarmResult(
            config=config,
            peers=self.materialize_peers(),
            collaboration_volume=collaboration,
            tft_reciprocal_rounds=tft_rounds,
            completed=self._completed,
            rounds_run=rounds_run,
            arrivals=self._total_arrived,
            departures=len(self._departed),
            observed=observer.finish(rounds_run) if observer is not None else None,
            resilience=(
                self._resilience.stats() if self._resilience_active else None
            ),
        )

    def _finished(self, round_index: int) -> bool:
        """The early exit: nothing left to download, arrive or resolve."""
        return (
            self._incomplete == 0
            and not self.scenario.more_arrivals_after(round_index, self._total_arrived)
            and not (
                self._faults_active and self._faults.blocks_early_exit(round_index)
            )
        )

    def _filter_faulty_transfers(
        self, transfers: List[Transfer], round_index: int
    ) -> List[Transfer]:
        """Drop transfers lost to partitions and message loss this round.

        The unchoke decisions stand -- loss kills the payload, not the
        relationship -- so the reciprocal Tit-for-Tat statistic is
        computed from the *planned* round.  The loss batch is drawn over
        the sorted pid pairs.
        """
        if not transfers:
            return transfers
        dropped = self._faults.dropped_pairs(
            round_index,
            sorted((sender, receiver) for sender, receiver, _ in transfers),
            self.source.stream(streams.FAULT_LOSS),
        )
        if not dropped:
            return transfers
        return [t for t in transfers if (t[0], t[1]) not in dropped]

    def _record_reciprocal_tft(
        self,
        regular_pairs: Set[Tuple[int, int]],
        tft_rounds: Dict[Tuple[int, int], float],
        round_index: int,
    ) -> None:
        """Count pairs whose regular slots point at each other this round.

        The first ``warmup_rounds`` rounds are treated as warm-up (the
        discovery / flash-crowd phase) and not counted.
        """
        if round_index <= self.config.warmup_rounds:
            return
        for sender, target in regular_pairs:
            if sender < target and (target, sender) in regular_pairs:
                key = (sender, target)
                tft_rounds[key] = tft_rounds.get(key, 0.0) + 1.0
