"""Order-statistic moments of shifted exponential link delays.

The k-th smallest of n draws of shift + Exponential(rate) has mean
shift + (H_n - H_m) / rate and variance (G_n - G_m) / rate^2, m = n - k,
H_j = sum_{i<=j} 1/i, G_j = sum_{i<=j} 1/i^2. ``os_moments`` computes both
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

__all__ = ["ShiftedExp", "os_moments"]


@dataclass(frozen=True)
class ShiftedExp:
    """Link delay law ``shift + Exponential(rate)``.

    ``shift = 0`` is accepted as the pure-exponential degenerate case. The
    second moment must be finite too, so that the ages do not overflow.
    """

    rate: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.rate < math.inf and 2.0 / self.rate / self.rate < math.inf):
            raise ValueError(f"rate must be finite and > 0 with finite moments, got {self.rate}")
        if not (0.0 <= self.shift < math.inf and self.second_moment < math.inf):
            raise ValueError(f"shift must be finite and >= 0 with finite moments, got {self.shift}")
        # Floats, so that k * rate cannot overflow int64 arithmetic at large k.
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "shift", float(self.shift))

    @property
    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    @property
    def second_moment(self) -> float:
        return self.shift * self.shift + 2.0 * self.shift / self.rate + 2.0 / self.rate / self.rate


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


def _expm1_minus(L):
    """expm1(L) - L = sum_{j>=2} L^j / j!, for 0 <= expm1(L) < 1/4, where it
    is summed to about 1e-16 relative accuracy without cancellation."""
    return L * L * sum(coef * L**j for j, coef in enumerate(_EXPM1_TAYLOR))


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
        flat = np.ravel(k)
        first = flat[np.argmax((flat < 1) | (flat > n))]
        raise ValueError(f"need 1 <= k <= n, got k={first}, n={n}")
    return k, int(n)


def _check_alpha(alpha):
    """alpha as a float64 scalar or array, every entry in (0, 1)."""
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise ValueError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    return a[()]


def os_moments(d: ShiftedExp, x, n=None):
    """(mean, variance, mean_first_k) of the k-th smallest of n draws of d.

    With n given, x is the order k (an int or an int array, 1 <= k <= n) and,
    with m = n - k, the mean is shift + (H_n - H_m) / rate and the variance
    (G_n - G_m) / rate^2. mean_first_k, the average of the k smallest
    order-statistic means and so the expected delay of a delivered update
    under earliest-k stopping, is shift + S / (k rate) with
    S = sum_{i<=k} (H_n - H_{n-i}) = k - m (H_n - H_m) (Concrete Mathematics,
    eq. 2.36). For m >= M that difference cancels; there, with a = m + 1/2,
    t = k / a and L = log1p(t), S is summed as the nonnegative
    a (t - L) + L / 2 + m (c(a) - c(n + 1/2)), with
    t - L = expm1(L) - L summed as a series for t < 1/4.

    With n None, x is the ratio alpha = k / n (a float or a float array in
    (0, 1)) and the result is the large-n limit: the mean
    delta(alpha) = shift - log(1 - alpha) / rate, a variance of 0 (zeros of
    alpha's shape), and
    mean_first_k = shift + 1/rate + ((1 - alpha) / (alpha rate)) log(1 - alpha).
    delta diverges as alpha -> 1; the open interval is enforced, not clamped.
    With L = -log1p(-alpha) and t = expm1(L) = alpha / (1 - alpha),
    mean_first_k is shift + (t - L) / (t rate), whose numerator cancels as
    alpha -> 0; below alpha = 0.2, where t < 1/4, it is summed as a series too.
    """
    if n is None:
        alpha = _check_alpha(x)
        log1m = np.log1p(-alpha)
        first_k = d.shift + 1.0 / d.rate + (1.0 - alpha) / (alpha * d.rate) * log1m
        # The series costs more than the rest of the call; most ratios skip it.
        if np.any(small := alpha < 0.2):
            L = -log1m
            first_k = np.where(small, d.shift + _expm1_minus(L) / (np.expm1(L) * d.rate), first_k)
        return d.shift - log1m / d.rate, 0.0 * alpha, first_k
    k, n = _check_order(x, n)
    m = n - k
    tab = _TAIL[np.minimum(m, _M)] - _TAIL[min(n, _M)]
    a, b = np.maximum(m + 0.5, _M + 0.5), max(n, _M) + 0.5
    (ca, ea), (cb, eb) = _asymptotic(a), _asymptotic(b)
    dh = (tab[..., 0] + tab[..., 1]) + (np.log1p((b - a) / a) + (cb - ca))  # H_n - H_m
    dg = (tab[..., 2] + tab[..., 3]) + ((b - a) / (a * b) - (ea - eb))  # G_n - G_m
    t = k / a
    lt = np.log1p(t)
    # b = n + 1/2 wherever m >= M, the only cells that keep large_m.
    large_m = (a * np.where(t < 0.25, _expm1_minus(lt), t - lt) + 0.5 * lt
               + (a - 0.5) * (ca - cb))
    s = np.where(m < _M, k - m * dh, large_m)
    return d.shift + dh / d.rate, dg / d.rate**2, d.shift + s / (k * d.rate)
