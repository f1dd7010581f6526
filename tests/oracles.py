"""Moment formulas that only the tests use, kept here as oracles for the
package's closed forms, and a replay of the simulator's deliveries."""

from typing import NamedTuple

import numpy as np

from aoi_multicast.analytic import (
    Moments2,
    StarvedStreamError,
    Stream,
    _cycles,
    _pair_ages,
)
from aoi_multicast.orderstats import ShiftedExp, os_moments
from aoi_multicast.sim import _blocks, _spawn_seeds, _StreamTrace


def other(stream: Stream) -> Stream:
    """The stream that is not ``stream``."""
    return Stream.TYPE_II if stream is Stream.TYPE_I else Stream.TYPE_I


def os_second_moment(d, k, n) -> float:
    """Second moment of the k-th smallest of n draws: os_var + os_mean**2, expanded."""
    dh, dg, _ = os_moments(ShiftedExp(1.0), k, n)  # H_n - H_{n-k} and G_n - G_{n-k}
    return d.shift**2 + 2.0 * d.shift * dh / d.rate + (dh * dh + dg) / d.rate**2


def grid_ages(s, n, x1, x2):
    """Ages of streams I and II at thresholds x1 and x2, broadcast together:
    k of n receivers, or ratios alpha when n is None."""
    return _pair_ages(s.mix, *_cycles(s, n, x1, x2))


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
    p, po = s.mix.prob(target), s.mix.prob(other(target))
    if p <= 0:
        raise StarvedStreamError(f"stream {target.value} is starved (p = 0)")
    (e_t, v_t, _), (e_o, v_o, _) = (os_moments(s.delay(x), s.threshold(x), s.n)
                                    for x in (target, other(target)))
    q = s.threshold(target) / s.n
    w_t = p * (1.0 - q)
    r = po + w_t  # the miss probability 1 - pq, without its cancellation
    if r == 0:
        return MissedCycleMoments(float(e_t), float(v_t + e_t * e_t), True)
    m1 = (w_t * e_t + po * e_o) / r
    m2 = (w_t * (v_t + e_t * e_t) + po * (v_o + e_o * e_o)) / r
    return MissedCycleMoments(float(m1), float(m2), False)


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
