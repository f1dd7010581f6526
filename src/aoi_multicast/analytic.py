"""Closed-form average age of both update streams at an individual receiver.

Every age, exact or large-n and in either generation mode, comes from one
broadcastable renewal kernel in two steps. ``_cycles`` gives each stream's
cycle moments on its threshold axis: the order-statistic moments from
``orderstats.os_moments`` (harmonic sums at thresholds k, or their large-n
limits at ratios alpha = k / n, where the completion time has zero
variance) plus the idle gap, which is zero at will. ``_renewal`` turns both
streams' cycle moments into age = mean delivered delay + E[S^2] / (2 E[S]),
where S is the tagged receiver's inter-delivery time of the stream. Scalar
calls and the optimizer's threshold grids run the same kernel, so a grid
entry equals the scalar age bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .orderstats import ShiftedExp, os_moments

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
    "s_moments",
    "age_pair",
]


class Stream(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


class StarvedStreamError(ValueError):
    """The requested stream has zero delivery probability; its age diverges."""


# Age of a starved stream.
INFINITE_AGE = math.inf
# Largest receiver count: thresholds are held in int64 arrays.
_N_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class AtWill:
    """Zero-wait generation: the next update departs the instant the previous completes."""


@dataclass(frozen=True)
class Exogenous:
    """Poisson update arrivals with total rate mu; in-service arrivals are discarded."""

    mu: float

    def __post_init__(self) -> None:
        if not (0.0 < self.mu < math.inf and 1.0 / self.mu / self.mu < math.inf):
            raise ValueError(f"mu must be finite and > 0 with a finite 1 / mu^2, got {self.mu}")


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


def _check_integer(name: str, v, at_least: int | None = None, at_most: int | None = None) -> int:
    """v as an int in [at_least, at_most], where given; bools and
    non-integral numbers are rejected."""
    integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if at_least is not None and v < at_least:
        raise ValueError(f"{name} must be >= {at_least}, got {int(v)}")
    if at_most is not None and v > at_most:
        raise ValueError(f"{name} must be <= {at_most}, got {int(v)}")
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
        object.__setattr__(self, "n", _check_integer("n", self.n, 1, _N_MAX))
        for name in ("k1", "k2"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
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


@dataclass(frozen=True)
class AgePair:
    """Both stream ages; a starved stream's age is INFINITE_AGE."""

    age_I: float
    age_II: float

    def age(self, stream: Stream) -> float:
        return self.age_I if stream is Stream.TYPE_I else self.age_II


@dataclass(frozen=True)
class Moments2:
    """First and second moment of a nonnegative random quantity."""

    m1: float
    m2: float


# -- the renewal kernel ------------------------------------------------------


def _cycles(s, n, x1, x2):
    """(q, mean, variance, mean delivered delay) of the cycles of streams I
    and II at thresholds x1 and x2, each an int or int array k of n
    receivers, or a ratio alpha (a float or float array) when n is None.

    s supplies delay_I, delay_II and mode (a Scenario, ScenarioApprox or
    optimizer template). A cycle is the idle gap, zero at will, plus the
    busy time X_(k); the gap is independent of X_(k), so its mean and
    variance add to X_(k)'s.
    """
    mu = s.mode.mu if isinstance(s.mode, Exogenous) else math.inf  # at will the gap is 1 / inf = 0
    ez, vz = 1.0 / mu, 1.0 / (mu * mu)
    return tuple((x if n is None else x / n, e + ez, v + vz, delivered)
                 for x, (e, v, delivered) in ((x1, os_moments(s.delay_I, x1, n)),
                                              (x2, os_moments(s.delay_II, x2, n))))


def _renewal(p, po, own, other):
    """(age, E[S], E[S^2]) of the target stream; every input broadcasts.

    p and po are the target's and the other stream's shares, own and other
    their ``_cycles``. The tagged receiver gets the target in a cycle
    with probability g = pq, so S is the delivering cycle X plus M - 1
    missed cycles Y, with M ~ Geometric(g). A missed cycle carries the
    target with weight w_t = p (1 - q) and the other stream with po, out of
    1 - g, so s1 = E[M - 1] E[Y] and s2 = E[M - 1] E[Y^2] are sums over those
    weights divided by g, and E[(M - 1)(M - 2)] E[Y]^2 = 2 s1^2. Every term
    is nonnegative, so nothing cancels.

    Lemma 1 at finite n: age_I never decreases in k2, nor age_II in k1, for
    exact and large-n ages in both modes. The other stream's threshold
    reaches the target's age only through e_o and v_o, which both grow with
    it, and the delivered delay does not depend on it. Let c = po / g >= 0.
    v_o enters only s2, with weight c, so the age grows with v_o. In e_o,
    dm1 = c and dm2 = 2c (e_t + e_o + 2 s1), so m2 / m1 grows with e_o when

        D = (e_t^2 - v_t) + 2 e_t e_o + 2 e_t s1 + 2 s1^2
            + [2 s1 (e_t + e_o) - s2] >= 0.

    Every term of D, the bracket included, is >= 0 when v <= e^2 holds for
    both cycles, and raising e_o at fixed v_o keeps that. X_(k) meets it:
    its mean is the shift plus a sum of terms whose squares sum to its
    variance. Folding in the idle gap, whose variance is its squared mean,
    keeps it, and the large-n variance is 0. Where v_t exceeds e_t^2, D can
    be negative.
    """
    q, e_t, v_t, delivered = own
    _, e_o, v_o, _ = other
    g = np.multiply(p, q)  # a float64 even for scalars, so x / 0 is inf, not an error
    w_t = p * (1.0 - q)
    s1 = (w_t * e_t + po * e_o) / g
    s2 = (w_t * (v_t + e_t * e_t) + po * (v_o + e_o * e_o)) / g
    m1 = e_t + s1
    m2 = v_t + e_t * e_t + 2.0 * e_t * s1 + s2 + 2.0 * s1 * s1
    return delivered + m2 / (2.0 * m1), m1, m2


def _renewals(mix: StreamMix, c_I, c_II):
    """Yield the ``_renewal`` triples of streams I and II on their
    ``_cycles`` c_I and c_II, which broadcast together, one at a time; None
    for a starved stream."""
    p1, p2 = mix.p1, mix.p2
    yield _renewal(p1, p2, c_I, c_II) if p1 > 0 else None
    yield _renewal(p2, p1, c_II, c_I) if p2 > 0 else None


def _pair_ages(mix: StreamMix, c_I, c_II):
    """Ages of streams I and II, as ``_renewals``; a starved stream's ages are +inf."""
    shape = np.broadcast_shapes(np.shape(c_I[1]), np.shape(c_II[1]))
    # map drops each triple before the next is computed, so no E[S] or
    # E[S^2] grid outlives its stream.
    return tuple(map(lambda r: np.full(shape, np.inf) if r is None else r[0],
                     _renewals(mix, c_I, c_II)))


def _scenario_renewals(s: "Scenario | ScenarioApprox") -> dict:
    """{stream: (age, E[S], E[S^2])} of a scenario, None for a starved
    stream; raises ValueError when a stream with nonzero share has an age
    that is not finite."""
    x = (None, s.alpha1, s.alpha2) if isinstance(s, ScenarioApprox) else (s.n, s.k1, s.k2)
    out = dict(zip(Stream, _renewals(s.mix, *_cycles(s, *x))))
    for stream, r in out.items():
        if r is not None and not math.isfinite(r[0]):
            raise ValueError(f"age_{stream.value} is {float(r[0])}: the inputs overflow")
    return out


# -- public API --------------------------------------------------------------


def s_moments(s: "Scenario | ScenarioApprox", target: Stream) -> Moments2:
    """Moments of the tagged-node inter-delivery time of the target stream.

    Raises StarvedStreamError when the target stream has zero share, and
    ValueError when the age of either stream overflows.
    """
    r = _scenario_renewals(s)[target]
    if r is None:
        raise StarvedStreamError(f"stream {target.value} is starved (p = 0)")
    return Moments2(float(r[1]), float(r[2]))


def age_pair(s: "Scenario | ScenarioApprox") -> AgePair:
    """Both stream ages for a scenario: exact for a Scenario and large-n for
    a ScenarioApprox, in the scenario's generation mode. A starved stream
    maps to INFINITE_AGE, and the overflow of another stream's age raises
    ValueError."""
    return AgePair(*(INFINITE_AGE if r is None else float(r[0])
                     for r in _scenario_renewals(s).values()))
