"""BitTorrent substrate and the paper's Section 6 application.

* :mod:`repro.bittorrent.pieces` -- torrent content model (pieces, bitfields).
* :mod:`repro.bittorrent.piece_selection` -- rarest-first and alternative
  piece pickers.
* :mod:`repro.bittorrent.choking` -- Tit-for-Tat and seed choking policies.
* :mod:`repro.bittorrent.tracker` -- peer discovery (the acceptance graph).
* :mod:`repro.bittorrent.swarm` -- the round-based swarm simulator and the
  empirical stratification index.
* :mod:`repro.bittorrent.control` -- the swarm config / peer / result model
  and the control plane (membership, faults, resilience, the round loop)
  that both swarm engines share.
* :mod:`repro.bittorrent.scenarios` -- dynamic-membership scenarios
  (Poisson arrivals, flash crowds, departure policies) driving both swarm
  engines bit-identically.
* :mod:`repro.bittorrent.behaviors` -- adversarial / heterogeneous client
  behavior profiles (free-riders, BitThief-style never-uploaders, super
  seeds, partial seeds, NAT-limited and locality-biased peers) assigned
  per peer from a dedicated random stream, bit-identical on both engines.
* :mod:`repro.bittorrent.bandwidth` -- the Saroiu-style upstream bandwidth
  distribution (Figure 10).
* :mod:`repro.bittorrent.efficiency` -- expected download/upload share
  ratio as a function of upload bandwidth (Figure 11).
* :mod:`repro.bittorrent.strategy` -- slot-count arguments (connectivity
  lower bound, rational deviations, the default of 4).
* :mod:`repro.bittorrent.fast` -- the packed-bit array swarm engine behind
  ``SwarmSimulator(config, engine="fast")``.
"""

from repro.bittorrent.bandwidth import (
    BandwidthClass,
    BandwidthDistribution,
    saroiu_like_distribution,
)
from repro.bittorrent.behaviors import (
    BEHAVIOR_MIX_NAMES,
    BEHAVIOR_NAMES,
    BehaviorMix,
    BehaviorProfile,
    make_behavior_mix,
    profile_for,
    resolve_behavior_mix,
)
from repro.bittorrent.choking import ChokingPolicy, SeedChoker, TitForTatChoker
from repro.bittorrent.efficiency import (
    EfficiencyCurve,
    analytic_efficiency,
    efficiency_observations,
    simulated_efficiency,
)
from repro.bittorrent.pieces import Bitfield, Torrent
from repro.bittorrent.scenarios import (
    SCENARIO_NAMES,
    ScenarioSchedule,
    make_scenario,
    resolve_scenario,
)
from repro.bittorrent.piece_selection import (
    PieceSelector,
    RandomSelector,
    RarestFirstSelector,
    SequentialSelector,
    make_selector,
    piece_availability,
)
from repro.bittorrent.strategy import (
    SlotDeviationOutcome,
    is_connectivity_feasible,
    minimum_slots_for_connectivity,
    rational_best_response,
    recommended_default_slots,
    slot_deviation_payoffs,
)
from repro.bittorrent.swarm import (
    SwarmConfig,
    SwarmPeer,
    SwarmResult,
    SwarmSimulator,
    stratification_index,
)
from repro.bittorrent.tracker import Tracker

__all__ = [
    "BandwidthClass",
    "BandwidthDistribution",
    "saroiu_like_distribution",
    "BEHAVIOR_MIX_NAMES",
    "BEHAVIOR_NAMES",
    "BehaviorMix",
    "BehaviorProfile",
    "make_behavior_mix",
    "profile_for",
    "resolve_behavior_mix",
    "ChokingPolicy",
    "SeedChoker",
    "TitForTatChoker",
    "EfficiencyCurve",
    "analytic_efficiency",
    "efficiency_observations",
    "simulated_efficiency",
    "Bitfield",
    "SCENARIO_NAMES",
    "ScenarioSchedule",
    "make_scenario",
    "resolve_scenario",
    "Torrent",
    "PieceSelector",
    "RandomSelector",
    "RarestFirstSelector",
    "SequentialSelector",
    "make_selector",
    "piece_availability",
    "SlotDeviationOutcome",
    "is_connectivity_feasible",
    "minimum_slots_for_connectivity",
    "rational_best_response",
    "recommended_default_slots",
    "slot_deviation_payoffs",
    "SwarmConfig",
    "SwarmPeer",
    "SwarmResult",
    "SwarmSimulator",
    "stratification_index",
    "Tracker",
]
