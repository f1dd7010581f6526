"""Order-statistic moments and sampling for shifted exponential link delays.

All closed forms here are specific to the shifted exponential family
(a constant offset plus an exponential). Harmonic-number sums are served
from a shared immutable cache so repeated evaluations over large receiver
counts stay O(1) per threshold; the moment functions also take arrays of
thresholds k (or ratios alpha). No other module reads the cache.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShiftedExp",
    "HarmonicCache",
    "harmonic",
    "gen_harmonic",
    "os_mean",
    "os_var",
    "os_second_moment",
    "mean_first_k",
    "mean_first_k_approx",
    "delta_threshold",
    "sample_delays",
]


@dataclass(frozen=True)
class ShiftedExp:
    """Link delay law ``shift + Exponential(rate)``.

    ``shift = 0`` is accepted as the pure-exponential degenerate case.
    """

    rate: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")

    @property
    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    @property
    def second_moment(self) -> float:
        return self.shift**2 + 2.0 * self.shift / self.rate + 2.0 / self.rate**2


class HarmonicCache:
    """Running sums H_j = sum 1/i and G_j = sum 1/i^2 for j = 0..max_n.

    Also keeps prefix sums of H so that windowed sums of harmonic numbers
    are O(1) lookups. Immutable after construction and safe to share
    across threads.
    """

    def __init__(self, max_n: int):
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        self.max_n = int(max_n)
        j = np.arange(1, self.max_n + 1, dtype=np.float64)
        self.h = np.concatenate(([0.0], np.cumsum(1.0 / j)))
        self.g = np.concatenate(([0.0], np.cumsum(1.0 / j**2)))
        # h_prefix[j] = H_1 + H_2 + ... + H_j
        self.h_prefix = np.concatenate(([0.0], np.cumsum(self.h[1:])))


_cache = HarmonicCache(4096)


def _cache_for(n: int) -> HarmonicCache:
    """Shared cache, grown geometrically on demand."""
    global _cache
    if n > _cache.max_n:
        _cache = HarmonicCache(max(int(n), 2 * _cache.max_n))
    return _cache


def _check_nonneg_int(n, name: str = "n") -> int:
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return int(n)


def _check_order(k, n):
    """(k, n) with k an int or an int64 array, every entry in [1, n]."""
    if not isinstance(n, numbers.Integral):
        raise TypeError("k and n must be integers")
    if isinstance(k, numbers.Integral):
        k = lo = hi = int(k)
    else:
        k = np.asarray(k)
        if k.dtype.kind not in "iu":
            raise TypeError("k and n must be integers")
        k = k.astype(np.int64, copy=False)
        lo, hi = k.min(), k.max()
    if n < 1 or lo < 1 or hi > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k, int(n)


def _check_alpha(alpha):
    """alpha as a float64 scalar or array, every entry in (0, 1)."""
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise ValueError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    return a[()]


def harmonic(n) -> float:
    """H_n = sum_{j=1}^{n} 1/j, with harmonic(0) = 0."""
    n = _check_nonneg_int(n)
    return float(_cache_for(max(n, 1)).h[n])


def gen_harmonic(n) -> float:
    """G_n = sum_{j=1}^{n} 1/j^2, with gen_harmonic(0) = 0. Bounded by pi^2/6."""
    n = _check_nonneg_int(n)
    return float(_cache_for(max(n, 1)).g[n])


def os_mean(d: ShiftedExp, k, n) -> float:
    """Mean of the k-th smallest of n i.i.d. draws: shift + (H_n - H_{n-k}) / rate."""
    k, n = _check_order(k, n)
    c = _cache_for(n)
    return d.shift + (c.h[n] - c.h[n - k]) / d.rate


def os_var(d: ShiftedExp, k, n) -> float:
    """Variance of the k-th smallest of n i.i.d. draws: (G_n - G_{n-k}) / rate^2."""
    k, n = _check_order(k, n)
    c = _cache_for(n)
    return (c.g[n] - c.g[n - k]) / d.rate**2


def os_second_moment(d: ShiftedExp, k, n) -> float:
    """Second moment of the k-th smallest of n i.i.d. draws.

    Equals ``os_var + os_mean**2``; evaluated in the expanded form to keep
    the harmonic-number structure explicit.
    """
    k, n = _check_order(k, n)
    c = _cache_for(n)
    dh = c.h[n] - c.h[n - k]
    dg = c.g[n] - c.g[n - k]
    return d.shift**2 + 2.0 * d.shift * dh / d.rate + (dh * dh + dg) / d.rate**2


def mean_first_k(d: ShiftedExp, k, n) -> float:
    """Average of the k smallest order-statistic means out of n draws.

    This is the expected delay of a delivered update under earliest-k
    stopping: shift + H_n/rate - (1/(k*rate)) * sum_{i=1}^{k} H_{n-i}.
    The trailing sum is an O(1) prefix-sum lookup.
    """
    k, n = _check_order(k, n)
    c = _cache_for(n)
    # H_{n-k} + ... + H_{n-1}; h_prefix[0] = H_0 = 0 covers k = n
    tail = c.h_prefix[n - 1] - c.h_prefix[np.maximum(n - k - 1, 0)]
    return d.shift + float(c.h[n]) / d.rate - tail / (k * d.rate)


def mean_first_k_approx(d: ShiftedExp, alpha: float) -> float:
    """Large-n limit of ``mean_first_k`` with k = alpha * n.

    shift + 1/rate + ((1 - alpha) / (alpha * rate)) * log(1 - alpha).
    """
    alpha = _check_alpha(alpha)
    return d.shift + 1.0 / d.rate + (1.0 - alpha) / (alpha * d.rate) * np.log1p(-alpha)


def delta_threshold(d: ShiftedExp, alpha: float) -> float:
    """Large-n mean of the (alpha*n)-th smallest of n draws.

    shift - log(1 - alpha) / rate. Diverges as alpha -> 1; the open-interval
    precondition is enforced, not clamped.
    """
    alpha = _check_alpha(alpha)
    return d.shift - np.log1p(-alpha) / d.rate


def sample_delays(d: ShiftedExp, n, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws of shift + Exponential(rate); every draw >= shift."""
    n = _check_nonneg_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return d.shift + rng.exponential(1.0 / d.rate, size=n)
