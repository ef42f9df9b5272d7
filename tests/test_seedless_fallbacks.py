"""Deprecated implicit-rng fallbacks: loud, deterministic, convergent.

Before this change, calling a sampler without ``rng=`` silently built a
fresh OS-entropy generator (``np.random.default_rng()``), so two implicit
calls could diverge and no test would ever notice.  Now every implicit
call warns ``DeprecationWarning`` and draws from the deterministic
fallback stream of :func:`repro.sim.random_source.fallback_rng` -- two
implicit calls are bit-identical, so the legacy path can no longer
diverge silently while callers migrate to explicit ``rng=``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.bittorrent.bandwidth import saroiu_like_distribution
from repro.core.acceptance import AcceptanceGraph
from repro.core.peer import PeerPopulation
from repro.graphs.erdos_renyi import erdos_renyi_graph
from repro.graphs.generators import configuration_model_graph, random_regular_graph
from repro.sim import streams
from repro.sim.random_source import _FALLBACK_MASTER_SEED, derive_seed, fallback_rng

def _implicit_acceptance_graph():
    graph = AcceptanceGraph.erdos_renyi(
        PeerPopulation.ranked(25, slots=2), expected_degree=6.0
    )
    return [sorted(graph.acceptable_peers(pid)) for pid in graph.peer_ids()]


IMPLICIT_CALLS = [
    pytest.param(lambda: sorted(erdos_renyi_graph(30, 0.2).edges()), id="erdos_renyi"),
    pytest.param(
        lambda: sorted(random_regular_graph(20, 3).edges()), id="random_regular"
    ),
    pytest.param(
        lambda: sorted(configuration_model_graph([2, 3, 3, 2, 2, 2]).edges()),
        id="configuration_model",
    ),
    pytest.param(
        lambda: saroiu_like_distribution().sample(50).tolist(), id="bandwidth_sample"
    ),
    pytest.param(_implicit_acceptance_graph, id="acceptance_erdos_renyi"),
]


@pytest.mark.parametrize("call", IMPLICIT_CALLS)
def test_implicit_call_warns_deprecation(call) -> None:
    with pytest.warns(DeprecationWarning, match="deprecated"):
        call()


@pytest.mark.parametrize("call", IMPLICIT_CALLS)
def test_implicit_calls_cannot_diverge(call) -> None:
    """Two rng-less calls yield identical results: no silent divergence."""
    with pytest.warns(DeprecationWarning):
        first = call()
    with pytest.warns(DeprecationWarning):
        second = call()
    assert first == second


def test_rounded_normal_slots_fallback_is_deterministic() -> None:
    from repro.stratification.bvalues import rounded_normal_slots

    with pytest.warns(DeprecationWarning):
        first = rounded_normal_slots(40, 4.0, 0.5)
    with pytest.warns(DeprecationWarning):
        second = rounded_normal_slots(40, 4.0, 0.5)
    assert first == second


def test_fallback_rng_derives_from_named_stream() -> None:
    """The fallback is the documented stream of the documented master seed."""
    with pytest.warns(DeprecationWarning):
        fallback = fallback_rng(streams.GRAPH)
    expected = np.random.default_rng(
        derive_seed(_FALLBACK_MASTER_SEED, streams.GRAPH)
    )
    assert fallback.random(8).tolist() == expected.random(8).tolist()


def test_explicit_rng_does_not_warn(recwarn: pytest.WarningsRecorder) -> None:
    rng = np.random.default_rng(derive_seed(123, streams.GRAPH))
    erdos_renyi_graph(30, 0.2, rng=rng)
    deprecations = [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]
    assert not deprecations


def test_repro_deprecation_warnings_fail_the_suite() -> None:
    """The pytest config turns a DeprecationWarning from repro code into an error.

    A deprecated path that repro itself still calls would otherwise only
    show up in the warnings summary.
    """
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit(
            "deprecated", DeprecationWarning, "graphs.py", 1, module="repro.graphs"
        )
