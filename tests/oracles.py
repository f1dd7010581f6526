"""Moment formulas that only the tests use, kept here as oracles for the
package's closed forms, the closed-form kernel's inter-delivery moments,
and a replay of the simulator's deliveries."""

from typing import NamedTuple

import numpy as np

from aoi_multicast.analytic import (
    ScenarioApprox,
    StarvedStreamError,
    Stream,
    _cycles,
    _renewal,
    pair_ages,
)
from aoi_multicast.orderstats import ShiftedExp, os_moments
from aoi_multicast.sim import _blocks, _spawn_seeds, _StreamTrace


class Moments2(NamedTuple):
    """First and second moment of a nonnegative random quantity."""

    m1: float
    m2: float


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
    return pair_ages(s.mix, *_cycles(s, n, x1, x2))


def s_moments(s, target: Stream) -> Moments2:
    """E[S] and E[S^2] of the tagged receiver's inter-delivery time S of the
    target stream, from the kernel that gives age_pair its ages, at the
    thresholds of a Scenario or the ratios of a ScenarioApprox; both are inf
    for a starved stream."""
    x = (None, s.alpha1, s.alpha2) if isinstance(s, ScenarioApprox) else (s.n, s.k1, s.k2)
    with np.errstate(all="ignore"):
        _, m1, m2 = _renewal(s.mix, target, *_cycles(s, *x))
    return Moments2(float(m1), float(m2))


def full_grid_argmins(cycles, mix, x1, x2, betas):
    """Per beta, the (i1, i2) of np.argmin over the whole weighted grid
    x1 x x2, whose ages come from ``cycles(x1, x2)``, the ``_cycles`` of
    both streams of mix; a zero-weight age is left out."""
    age_I, age_II = pair_ages(mix, *cycles(np.asarray(x1)[:, None], np.asarray(x2)[None, :]))
    picks = []
    for beta in betas:
        obj = age_I if beta == 1.0 else age_II if beta == 0.0 else beta * age_I + (1 - beta) * age_II
        picks.append(divmod(int(np.argmin(obj)), age_I.shape[1]))
    return picks


def int_axis(lo, hi):
    """The 33 integers lo + (hi - lo) i / 32 of the window [lo, hi], each
    rounded half to even, in Python's unbounded integers."""
    lo, hi = int(lo), int(hi)
    xs = (divmod(32 * lo + (hi - lo) * i, 32) for i in range(33))
    return np.array([q + (r > 16 or (r == 16 and q % 2)) for q, r in xs], dtype=np.int64)


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
