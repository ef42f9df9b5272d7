"""Parity fixture (fast tree): the same data-plane stream, no shared draws."""

from repro.sim import streams


def plan_round_batched(source, chokers):
    return chokers.select_batched(source.stream(streams.ROUNDS))
