"""Moment formulas that only the tests use, kept here as oracles for the
package's closed forms, and a replay of the simulator's deliveries."""

from typing import NamedTuple

import numpy as np

from aoi_multicast.analytic import (
    Moments2,
    StarvedStreamError,
    Stream,
    _missed_cycle,
    _threshold_moments,
)
from aoi_multicast.orderstats import _check_order, _harmonic_diffs
from aoi_multicast.sim import _blocks, _spawn_seeds, _StreamTrace


def os_second_moment(d, k, n) -> float:
    """Second moment of the k-th smallest of n draws: os_var + os_mean**2, expanded."""
    k, n = _check_order(k, n)
    dh, dg = _harmonic_diffs(n, n - k)
    return d.shift**2 + 2.0 * d.shift * dh / d.rate + (dh * dh + dg) / d.rate**2


def geometric_moments(p: float) -> Moments2:
    """Moments of a geometric retry count with success probability p on {1, 2, ...}."""
    if p <= 0:
        raise StarvedStreamError(f"success probability must be > 0, got {p}")
    if p > 1:
        raise ValueError(f"success probability must be <= 1, got {p}")
    return Moments2(1.0 / p, (2.0 - p) / (p * p))


class MissedCycleMoments(NamedTuple):
    m1: float
    m2: float
    degenerate: bool  # the conditioning event has probability zero


def ybar_moments(s, target) -> MissedCycleMoments:
    """Moments of a cycle of a Scenario conditioned on the tagged node missing
    the target stream.

    In exogenous mode these are the moments of the busy part of the cycle
    only. When a miss has probability zero the conditioning is vacuous and
    the target's unconditioned cycle moments are returned, flagged
    degenerate.
    """
    p, po = s.mix.prob(target), s.mix.prob(target.other)
    if p <= 0:
        raise StarvedStreamError(f"stream {target.value} is starved (p = 0)")
    own, other = (_threshold_moments(s.delay(x), s.threshold(x), s.n)
                  for x in (target, target.other))
    r, m1, var = _missed_cycle(p, po, own, other)
    if r == 0:
        _, e, v, _ = own
        return MissedCycleMoments(float(e), float(v + e * e), True)
    return MissedCycleMoments(float(m1), float(var + m1 * m1), False)


def replication_traces(cfg):
    """Each replication's {stream: _StreamTrace}, its blocks concatenated.

    Replays `sim._blocks` from the seeds that `simulate` spawns, so the
    deliveries are those that `simulate(cfg)` folds.
    """
    fields = ("delivery_times", "delivery_cycles", "reset_ages")
    for ss in _spawn_seeds(cfg):
        blocks = [t for t, _ in _blocks(cfg.scenario, cfg.cycles, np.random.default_rng(ss))]
        yield {stream: _StreamTrace(
            *(np.concatenate([getattr(b[stream], f) for b in blocks]) for f in fields),
            type_cycles=sum(b[stream].type_cycles for b in blocks),
        ) for stream in (Stream.TYPE_I, Stream.TYPE_II)}
