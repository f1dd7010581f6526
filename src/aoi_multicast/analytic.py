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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .orderstats import _N_MAX, ShiftedExp, _check_integer, _check_number, _check_range, os_moments

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
    "pair_ages",
    "age_pair",
]


class Stream(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


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
        object.__setattr__(self, "mu", _check_number("mu", self.mu))
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
        object.__setattr__(self, "p1", _check_range("p1", _check_number("p1", self.p1), 0, 1))

    @property
    def p2(self) -> float:
        return 1.0 - self.p1

    def prob(self, stream: Stream) -> float:
        return self.p1 if stream is Stream.TYPE_I else self.p2


def _check_fields(s) -> None:
    """Raise ValueError, named by field, unless the delay laws, mix and mode
    of a scenario or template have their types."""
    for name, kind in (("delay_I", ShiftedExp), ("delay_II", ShiftedExp), ("mix", StreamMix),
                       ("mode", Mode)):
        if not isinstance(v := getattr(s, name), kind):
            what = "an AtWill or Exogenous" if kind is Mode else f"a {kind.__name__}"
            raise ValueError(f"{name} must be {what}, got {type(v).__name__}")


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
            k = _check_range(name, _check_integer(name, getattr(self, name)), 1, self.n)
            object.__setattr__(self, name, k)
        _check_fields(self)

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
        for name in ("alpha1", "alpha2"):
            a = _check_range(name, _check_number(name, getattr(self, name)), 0, 1, open=True)
            object.__setattr__(self, name, a)
        _check_fields(self)


@dataclass(frozen=True)
class AgePair:
    """Both stream ages; a starved stream's age is INFINITE_AGE."""

    age_I: float
    age_II: float

    def age(self, stream: Stream) -> float:
        return self.age_I if stream is Stream.TYPE_I else self.age_II


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


def _renewal(mix, target, c_I, c_II):
    """(age, E[S], E[S^2]) of the target stream of mix on the ``_cycles``
    c_I and c_II of streams I and II; every input broadcasts.

    p and po are the target's and the other stream's shares. The tagged
    receiver gets the target in a cycle with probability g = pq, so S is the
    delivering cycle X plus M - 1 missed cycles Y, with M ~ Geometric(g). A
    missed cycle carries the target with weight w_t = p (1 - q) and the
    other stream with po, out of 1 - g, so s1 = E[M - 1] E[Y] and
    s2 = E[M - 1] E[Y^2] are sums over those weights divided by g, and
    E[(M - 1)(M - 2)] E[Y]^2 = 2 s1^2. Every term is nonnegative, so nothing
    cancels. The age is +inf, never NaN, wherever m2 is not a finite normal
    double: above that range m2 / (2 m1) is inf / inf, and below it m2 has
    lost bits to underflow, or is 0 / 0 where m1 rounds to 0. With m2
    finite, s1 <= sqrt(m2 / 2) keeps 2 m1 finite; as v <= e^2 holds for both
    cycles (below), an m2 of at least the smallest normal keeps m1 > 0.

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
    first = target is Stream.TYPE_I
    p, po = mix.prob(target), (mix.p2 if first else mix.p1)
    (q, e_t, v_t, delivered), (_, e_o, v_o, _) = (c_I, c_II) if first else (c_II, c_I)
    g = np.multiply(p, q)  # a float64 even for scalars, so x / 0 is inf, not an error
    w_t = p * (1.0 - q)
    s1 = (w_t * e_t + po * e_o) / g
    s2 = (w_t * (v_t + e_t * e_t) + po * (v_o + e_o * e_o)) / g
    m1 = e_t + s1
    m2 = v_t + e_t * e_t + 2.0 * e_t * s1 + s2 + 2.0 * s1 * s1
    ok = (np.finfo(float).tiny <= m2) & (m2 < np.inf)
    return delivered + np.where(ok, m2 / (2.0 * m1), np.inf), m1, m2


def pair_ages(mix: StreamMix, c_I, c_II):
    """Ages of streams I and II on their ``_cycles`` c_I and c_II, which
    broadcast together; a starved stream's ages are +inf, where p = 0 makes
    E[S] and E[S^2] inf. The entry to ``_renewal`` for age_pair and the
    optimizer's threshold grids."""
    # Each triple is dropped before the next is computed, so no E[S] or
    # E[S^2] grid outlives its stream.
    with np.errstate(all="ignore"):
        return tuple(_renewal(mix, t, c_I, c_II)[0] for t in Stream)


def _check_ages(mix: StreamMix, ages) -> None:
    """Raise ValueError when a stream with nonzero share has an age that is
    not finite."""
    for stream, age in zip(Stream, ages):
        if mix.prob(stream) > 0 and not math.isfinite(age):
            raise ValueError(f"age_{stream.value} must be finite, got {float(age)}: the inputs "
                             "overflow or underflow double precision")


# -- public API --------------------------------------------------------------


def age_pair(s: "Scenario | ScenarioApprox") -> AgePair:
    """Both stream ages for a scenario: exact for a Scenario and large-n for
    a ScenarioApprox, in the scenario's generation mode. A starved stream
    maps to INFINITE_AGE, and the overflow of another stream's age raises
    ValueError."""
    x = (None, s.alpha1, s.alpha2) if isinstance(s, ScenarioApprox) else (s.n, s.k1, s.k2)
    with np.errstate(all="ignore"):
        ages = pair_ages(s.mix, *_cycles(s, *x))
    _check_ages(s.mix, ages)
    return AgePair(*map(float, ages))
