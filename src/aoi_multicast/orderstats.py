"""Order-statistic moments of shifted exponential link delays.

The k-th smallest of n draws of shift + Exponential(rate) has mean
shift + (H_n - H_m) / rate and variance (G_n - G_m) / rate^2, m = n - k,
H_j = sum_{i<=j} 1/i, G_j = sum_{i<=j} 1/i^2. A stateless helper gives both
for one k or an array in O(1) memory, split at M = 32. Below M it takes two
rows of a constant table of the tails H_M - H_j and G_M - G_j, held to twice
float precision so that their difference rounds correctly. Above M, from
a = max(m, M) + 1/2 to b = max(n, M) + 1/2, it uses the digamma and trigamma
series (Abramowitz & Stegun 6.3.18, 6.4.12) log1p((b - a) / a) + c(b) - c(a)
and (b - a) / (a b) - (e(a) - e(b)). Both parts are nonnegative, so nothing
cancels: about 1e-15 relative accuracy up to n = 1e12.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShiftedExp",
    "harmonic",
    "gen_harmonic",
    "os_mean",
    "os_var",
    "os_second_moment",
    "mean_first_k",
    "mean_first_k_approx",
    "delta_threshold",
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


_M = 32


def _tail_table():
    """Rows j = 0..M: H_M - H_j and G_M - G_j, each as floats hi + lo, within 1e-32."""
    den = math.lcm(*range(1, _M + 1)) ** 2  # every i^2 with i <= M divides it
    table = []
    for j in range(_M + 1):
        for p in (1, 2):
            num = sum(den // i**p for i in range(j + 1, _M + 1))
            a, b = (num / den).as_integer_ratio()  # int / int rounds correctly
            table += [a / b, (num * b - a * den) / (den * b)]
    table = np.reshape(table, (_M + 1, 4))
    table.flags.writeable = False
    return table


_TAIL = _tail_table()
_EXPM1_TAYLOR = tuple(1.0 / math.factorial(j) for j in range(2, 13))  # 1/2!, ..., 1/12!


def _asymptotic(y):
    """(c, e) at y = x + 1/2: H_x - gamma - log(y) and 1/y - psi'(x + 1), to O(y^-10)."""
    r = 1.0 / (y * y)
    return (r * (1 / 24 - r * (7 / 960 - r * (31 / 8064 - r * (127 / 30720)))),
            r / y * (1 / 12 - r * (7 / 240 - r * (31 / 1344 - r * (127 / 3840)))))


def _harmonic_diffs(n, m):
    """(H_n - H_m, G_n - G_m) for an int n and an int or int64 array 0 <= m <= n."""
    tab = _TAIL[np.minimum(m, _M)] - _TAIL[min(n, _M)]
    a, b = np.maximum(m + 0.5, _M + 0.5), max(n, _M) + 0.5
    (ca, ea), (cb, eb) = _asymptotic(a), _asymptotic(b)
    dh = (tab[..., 0] + tab[..., 1]) + (np.log1p((b - a) / a) + (cb - ca))
    dg = (tab[..., 2] + tab[..., 3]) + ((b - a) / (a * b) - (ea - eb))
    return dh, dg


def _check_nonneg_int(n) -> int:
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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
    return float(_harmonic_diffs(_check_nonneg_int(n), 0)[0])


def gen_harmonic(n) -> float:
    """G_n = sum_{j=1}^{n} 1/j^2, with gen_harmonic(0) = 0. Bounded by pi^2/6."""
    return float(_harmonic_diffs(_check_nonneg_int(n), 0)[1])


def _moments(d: ShiftedExp, k, n):
    """(os_mean, os_var, mean_first_k) of one (k, n), from one harmonic difference.

    mean_first_k is shift + S / (k rate), S = sum_{i<=k} (H_n - H_{n-i}) =
    k - m (H_n - H_m), m = n - k (Concrete Mathematics, eq. 2.36). For
    m >= M that difference cancels; there, with a = m + 1/2, t = k / a and
    L = log1p(t), S is summed as the nonnegative
    a (t - L) + L / 2 + m (c(a) - c(n + 1/2)), with
    t - L = sum_{j>=2} L^j / j! for t < 1/4.
    """
    k, n = _check_order(k, n)
    m = n - k
    dh, dg = _harmonic_diffs(n, m)
    a = np.maximum(m + 0.5, _M + 0.5)
    t = k / a
    lt = np.log1p(t)
    series = lt * lt * sum(coef * lt**j for j, coef in enumerate(_EXPM1_TAYLOR))
    c_drop = _asymptotic(a)[0] - _asymptotic(n + 0.5)[0]
    large_m = a * np.where(t < 0.25, series, t - lt) + 0.5 * lt + (a - 0.5) * c_drop
    s = np.where(m < _M, k - m * dh, large_m)
    return d.shift + dh / d.rate, dg / d.rate**2, d.shift + s / (k * d.rate)


def os_mean(d: ShiftedExp, k, n) -> float:
    """Mean of the k-th smallest of n i.i.d. draws: shift + (H_n - H_{n-k}) / rate."""
    return _moments(d, k, n)[0]


def os_var(d: ShiftedExp, k, n) -> float:
    """Variance of the k-th smallest of n i.i.d. draws: (G_n - G_{n-k}) / rate^2."""
    return _moments(d, k, n)[1]


def os_second_moment(d: ShiftedExp, k, n) -> float:
    """Second moment of the k-th smallest of n draws: os_var + os_mean**2, expanded."""
    k, n = _check_order(k, n)
    dh, dg = _harmonic_diffs(n, n - k)
    return d.shift**2 + 2.0 * d.shift * dh / d.rate + (dh * dh + dg) / d.rate**2


def mean_first_k(d: ShiftedExp, k, n) -> float:
    """Average of the k smallest order-statistic means out of n draws.

    The expected delay of a delivered update under earliest-k stopping:
    shift + sum_{i<=k} (H_n - H_{n-i}) / (k rate), summed without
    cancellation (see `_moments`).
    """
    return _moments(d, k, n)[2]


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
