"""Parity fixture (reference tree): draws only its own data-plane stream."""

from repro.sim import streams


def plan_round(source, chokers):
    return chokers.select(source.stream(streams.ROUNDS))
