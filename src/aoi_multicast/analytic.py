"""Closed-form average age of both update streams at an individual receiver.

Every age, exact or large-n and in either generation mode, comes from one
broadcastable renewal kernel: age = mean delivered delay + E[S^2] / (2 E[S]),
where S is the tagged receiver's inter-delivery time of the stream. The
kernel reads the order-statistic moments of both streams from
``orderstats``: harmonic sums at thresholds k, or their large-n limits at
ratios alpha = k / n, where the completion time has zero variance. At-will
generation is the Poisson-arrival case with a zero idle gap. Scalar calls
and the optimizer's threshold grids run the same kernel, so a grid entry
equals the scalar age bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .orderstats import ShiftedExp, _moments, delta_threshold, mean_first_k_approx

__all__ = [
    "Stream",
    "StarvedStreamError",
    "INFINITE_AGE",
    "AtWill",
    "Exogenous",
    "StreamMix",
    "Scenario",
    "ScenarioApprox",
    "AgePair",
    "Moments2",
    "geometric_moments",
    "ybar_moments",
    "s_moments",
    "age",
    "age_pair",
]


class Stream(Enum):
    TYPE_I = "I"
    TYPE_II = "II"

    @property
    def other(self) -> "Stream":
        return Stream.TYPE_II if self is Stream.TYPE_I else Stream.TYPE_I


class StarvedStreamError(ValueError):
    """The requested stream has zero delivery probability; its age diverges."""


# Age of a starved stream.
INFINITE_AGE = math.inf


@dataclass(frozen=True)
class AtWill:
    """Zero-wait generation: the next update departs the instant the previous completes."""


@dataclass(frozen=True)
class Exogenous:
    """Poisson update arrivals with total rate mu; in-service arrivals are discarded."""

    mu: float

    def __post_init__(self) -> None:
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")


Mode = AtWill | Exogenous


@dataclass(frozen=True)
class StreamMix:
    """Probability split of update types; p1 is the type-I share.

    p1 in {0, 1} is accepted but starves the other stream (its age is
    reported as infinite).
    """

    p1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {self.p1}")

    @property
    def p2(self) -> float:
        return 1.0 - self.p1

    def prob(self, stream: Stream) -> float:
        return self.p1 if stream is Stream.TYPE_I else self.p2


def _check_integer(name: str, v) -> int:
    """v as an int; bools and non-integral numbers are rejected."""
    integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class Scenario:
    """Full experiment description with integer stopping thresholds."""

    n: int
    k1: int
    k2: int
    delay_I: ShiftedExp
    delay_II: ShiftedExp
    mix: StreamMix
    mode: Mode = AtWill()

    def __post_init__(self) -> None:
        for name in ("n", "k1", "k2"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name, k in (("k1", self.k1), ("k2", self.k2)):
            if not 1 <= k <= self.n:
                raise ValueError(f"{name} must lie in [1, {self.n}], got {k}")

    def threshold(self, stream: Stream) -> int:
        return self.k1 if stream is Stream.TYPE_I else self.k2

    def delay(self, stream: Stream) -> ShiftedExp:
        return self.delay_I if stream is Stream.TYPE_I else self.delay_II


@dataclass(frozen=True)
class ScenarioApprox:
    """Large-n experiment description with threshold ratios alpha = k/n."""

    alpha1: float
    alpha2: float
    delay_I: ShiftedExp
    delay_II: ShiftedExp
    mix: StreamMix
    mode: Mode = AtWill()

    def __post_init__(self) -> None:
        for name, a in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if not 0.0 < a < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {a}")

    def alpha(self, stream: Stream) -> float:
        return self.alpha1 if stream is Stream.TYPE_I else self.alpha2

    def delay(self, stream: Stream) -> ShiftedExp:
        return self.delay_I if stream is Stream.TYPE_I else self.delay_II


@dataclass(frozen=True)
class AgePair:
    """Both stream ages; a starved stream's age is INFINITE_AGE."""

    age_I: float
    age_II: float

    def age(self, stream: Stream) -> float:
        return self.age_I if stream is Stream.TYPE_I else self.age_II


@dataclass(frozen=True)
class Moments2:
    """First and second moment of a nonnegative random quantity.

    ``degenerate`` flags conditional moments whose conditioning event has
    probability zero (returned unconditioned by convention; the calling
    formulas multiply them by zero).
    """

    m1: float
    m2: float
    degenerate: bool = False

    @property
    def var(self) -> float:
        return self.m2 - self.m1 * self.m1


def geometric_moments(p: float) -> Moments2:
    """Moments of a geometric retry count with success probability p on {1, 2, ...}."""
    if p <= 0:
        raise StarvedStreamError(f"success probability must be > 0, got {p}")
    if p > 1:
        raise ValueError(f"success probability must be <= 1, got {p}")
    return Moments2(1.0 / p, (2.0 - p) / (p * p))


# -- the renewal kernel ------------------------------------------------------


def _threshold_moments(d: ShiftedExp, x, n):
    """(q, mean, variance, mean delivered delay) of one stream's cycle.

    x is the threshold k (an int or an int array) of n receivers, or the
    ratio alpha (a float or a float array) when n is None, where the
    large-n completion time concentrates at delta(alpha).
    """
    if n is None:
        return x, delta_threshold(d, x), 0.0, mean_first_k_approx(d, x)
    return (x / n, *_moments(d, x, n))


def _missed_cycle(p, po, own, other):
    """(r, mean, variance) of a cycle that misses the target at the tagged receiver.

    r = po + p (1 - q) is the miss probability 1 - pq without its
    cancellation. The missed cycle carries the target with weight
    p (1 - q) / r and the other stream with po / r; both weights are 0 when
    r = 0. The variance is the mixture's, free of E[Y^2] - E[Y]^2.
    """
    q, e_t, v_t, _ = own
    _, e_o, v_o, _ = other
    w_t = p * (1.0 - q)
    r = po + w_t
    r_pos = np.where(r > 0.0, r, 1.0)
    b_t, b_o = w_t / r_pos, po / r_pos
    gap = e_t - e_o
    return r, b_t * e_t + b_o * e_o, b_t * v_t + b_o * v_o + b_t * b_o * (gap * gap)


def _renewal(p, po, own, other, ez, vz):
    """(age, E[S], E[S^2]) of the target stream; every input broadcasts.

    p and po are the target's and the other stream's shares, own and other
    their ``_threshold_moments``, ez and vz the mean and variance of the
    idle gap Z before each cycle (both 0 at will). The tagged receiver gets
    the target in a cycle with probability pq, so S spans M ~ Geometric(pq)
    cycles: M - 1 missed cycles Y, the delivering cycle X and M idle gaps.
    """
    q, e_t, v_t, delivered = own
    r, y1, yvar = _missed_cycle(p, po, own, other)
    pq = p * q
    pq2 = pq * pq
    em = 1.0 / pq  # E[M]
    em1 = r / pq  # E[M - 1]
    em1sq = r * (1.0 + r) / pq2  # E[(M - 1)^2]
    emm = 2.0 * r / pq2  # E[M (M - 1)]
    em2 = (1.0 + r) / pq2  # E[M^2]
    m1 = e_t + em1 * y1 + em * ez
    m2 = (
        v_t
        + e_t * e_t
        + 2.0 * em1 * e_t * y1
        + 2.0 * em * e_t * ez
        + em * vz
        + em1 * yvar
        + em1sq * (y1 * y1)
        + 2.0 * emm * y1 * ez
        + em2 * ez * ez
    )
    return delivered + m2 / (2.0 * m1), m1, m2


def _idle_gap(mode: Mode) -> tuple[float, float]:
    """Mean and variance of the idle gap before a cycle."""
    if isinstance(mode, Exogenous):
        return 1.0 / mode.mu, 1.0 / (mode.mu * mode.mu)
    return 0.0, 0.0


def _pair_ages(s, n, x1, x2):
    """Ages of streams I and II at thresholds x1 and x2, broadcast together.

    s supplies delay_I, delay_II, mix and mode (a Scenario, ScenarioApprox
    or optimizer template); x1 and x2 are thresholds k, or ratios alpha when
    n is None. A starved stream's ages are +inf.
    """
    m_I = _threshold_moments(s.delay_I, x1, n)
    m_II = _threshold_moments(s.delay_II, x2, n)
    ez, vz = _idle_gap(s.mode)
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    p1, p2 = s.mix.p1, s.mix.p2
    age_I = _renewal(p1, p2, m_I, m_II, ez, vz)[0] if p1 > 0 else np.full(shape, np.inf)
    age_II = _renewal(p2, p1, m_II, m_I, ez, vz)[0] if p2 > 0 else np.full(shape, np.inf)
    return age_I, age_II


def _inputs(s: "Scenario | ScenarioApprox", target: Stream):
    """Kernel inputs (p, po, own, other) of the target stream; raises when it is starved."""
    p = s.mix.prob(target)
    if p <= 0:
        raise StarvedStreamError(f"stream {target.value} is starved (p = 0)")
    if isinstance(s, ScenarioApprox):
        n, x_t, x_o = None, s.alpha(target), s.alpha(target.other)
    else:
        n, x_t, x_o = s.n, s.threshold(target), s.threshold(target.other)
    own = _threshold_moments(s.delay(target), x_t, n)
    other = _threshold_moments(s.delay(target.other), x_o, n)
    return p, s.mix.prob(target.other), own, other


# -- public API --------------------------------------------------------------


def ybar_moments(s: "Scenario | ScenarioApprox", target: Stream) -> Moments2:
    """Moments of a cycle conditioned on the tagged node missing the target stream.

    In exogenous mode these are the moments of the busy part of the cycle
    only (the idle gap is accounted for separately).
    """
    p, po, own, other = _inputs(s, target)
    r, m1, var = _missed_cycle(p, po, own, other)
    if r == 0:
        # Failure has probability zero; the conditioning is vacuous.
        _, e, v, _ = own
        return Moments2(float(e), float(v + e * e), degenerate=True)
    return Moments2(float(m1), float(var + m1 * m1))


def s_moments(s: "Scenario | ScenarioApprox", target: Stream) -> Moments2:
    """Moments of the tagged-node inter-delivery time of the target stream."""
    _, m1, m2 = _renewal(*_inputs(s, target), *_idle_gap(s.mode))
    return Moments2(float(m1), float(m2))


def age(s: "Scenario | ScenarioApprox", target: Stream) -> float:
    """Average age of the target stream: exact for a Scenario, large-n for a
    ScenarioApprox, in the scenario's generation mode.

    Raises StarvedStreamError when the target stream has zero share.
    """
    return float(_renewal(*_inputs(s, target), *_idle_gap(s.mode))[0])


def age_pair(s: "Scenario | ScenarioApprox") -> AgePair:
    """Both stream ages for a scenario; a starved stream maps to INFINITE_AGE."""
    if isinstance(s, ScenarioApprox):
        age_I, age_II = _pair_ages(s, None, s.alpha1, s.alpha2)
    else:
        age_I, age_II = _pair_ages(s, s.n, s.k1, s.k2)
    return AgePair(float(age_I), float(age_II))
