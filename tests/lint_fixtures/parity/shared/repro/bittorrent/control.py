"""Parity fixture (shared control plane): its streams count for both trees."""

from repro.sim import streams


def admit(source, scenario, count):
    rng = source.stream(streams.BANDWIDTH)
    return scenario.sample_capacities(count, rng)
