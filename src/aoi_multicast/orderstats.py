"""Order-statistic moments of shifted exponential link delays.

The k-th smallest of n draws of shift + Exponential(rate) has mean
shift + (H_n - H_m) / rate and variance (G_n - G_m) / rate^2, m = n - k,
H_j = sum_{i<=j} 1/i, G_j = sum_{i<=j} 1/i^2. ``os_moments`` computes both
in O(1) memory for integers, not bools, 1 <= k <= n <= 2^63 - 1 (k one or
an array), and their large-n limits at real ratios alpha in (0, 1); other
input raises. It splits at M = 32. Below M it takes two rows of a constant
table of the tails H_M - H_j and G_M - G_j, held to twice float precision so
that their difference rounds correctly. Above M, from a = max(m, M) + 1/2 to
b = max(n, M) + 1/2, it uses the digamma and trigamma series (Abramowitz &
Stegun 6.3.18, 6.4.12) log1p(ba / a) + c(b) - c(a) and
ba / (a b) - (e(a) - e(b)). ba = b - a = min(k, max(n - M, 0)) comes from
the integers, since above 2^52 a and b round and their float difference
loses k. Both parts are nonnegative, so nothing cancels: about 1e-15
relative accuracy up to n = 2^63 - 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["ShiftedExp", "os_moments"]
# Largest receiver count: thresholds are held in int64 arrays.
_N_MAX = int(np.iinfo(np.int64).max)


def _check_integer(name: str, v, at_least: int | None = None, at_most: int | None = None) -> int:
    """v as an int in [at_least, at_most], where given: an int or numpy
    integer, so bools and floats, integral or not, are rejected."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {type(v).__name__}")
    v = int(v)
    if at_least is not None and v < at_least:
        raise ValueError(f"{name} must be >= {at_least}, got {v}")
    if at_most is not None and v > at_most:
        raise ValueError(f"{name} must be <= {at_most}, got {v}")
    return v


def _check_number(name: str, v) -> float:
    """v as a float: a real number that is not a bool. An integer beyond the
    float range is reported as not finite."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond the float range") from None


@dataclass(frozen=True)
class ShiftedExp:
    """Link delay law ``shift + Exponential(rate)``.

    ``shift = 0`` is accepted as the pure-exponential degenerate case. The
    second moment must be finite too, so that the ages do not overflow.
    """

    rate: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        # Floats, so that k * rate cannot overflow int64 arithmetic at large k.
        for name in ("rate", "shift"):
            object.__setattr__(self, name, _check_number(name, getattr(self, name)))
        if not (0.0 < self.rate < math.inf and 2.0 / self.rate / self.rate < math.inf):
            raise ValueError(f"rate must be finite and > 0 with finite moments, got {self.rate}")
        if not (0.0 <= self.shift < math.inf and self.second_moment < math.inf):
            raise ValueError(f"shift must be finite and >= 0 with finite moments, got {self.shift}")

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


def _excess(t, L):
    """t - L for t >= 0 and L = log1p(t). Below t = 1/4 (alpha = 0.2 at large
    n), where that difference cancels, it is summed as
    expm1(L) - L = sum_{j>=2} L^j / j!, to about 1e-16 relative accuracy."""
    return np.where(t < 0.25, L * L * sum(coef * L**j for j, coef in enumerate(_EXPM1_TAYLOR)),
                    t - L)


def _check_order(k, n):
    """(k, n): k as an int64 array, 0-d for a scalar k, every entry in
    [1, n], and n as an int in [1, _N_MAX]. Bools are not integers. numpy
    holds Python ints beyond int64 and uint64 in an object array, compared
    exactly; an integer k is compared with n as an int64 or uint64 of k's
    kind, since numpy 1 compares a uint64 scalar with a Python int in float64."""
    if (a := np.asarray(k)).dtype.kind == "f" and not isinstance(k, (np.ndarray, np.generic)):
        a = np.asarray(k, dtype=object)  # numpy holds [-1, 2**63] as float64: re-read its ints
    ints = a.dtype.kind in "iu" or a.dtype == object and all(type(v) is int for v in a.flat)
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not ints:
        raise TypeError("k and n must be integers")
    n = _check_integer("n", n, 1, _N_MAX)
    hi = n if a.dtype == object else np.uint64(n) if a.dtype.kind == "u" else np.int64(n)
    if (bad := (a < 1) | (a > hi)).any():
        raise ValueError(f"need 1 <= k <= n, got k={a[bad][0]}, n={n}")
    return a.astype(np.int64, copy=False), n


def _check_alpha(alpha):
    """alpha as a float64 scalar or array of a real dtype, every entry in (0, 1)."""
    if (dtype := np.asarray(alpha).dtype).kind not in "iuf":
        raise TypeError(f"alpha must be a real number or an array of them, got dtype {dtype}")
    a = np.asarray(alpha, dtype=np.float64)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise ValueError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    return a[()]


def os_moments(d: ShiftedExp, x, n=None):
    """(mean, variance, mean_first_k) of the k-th smallest of n draws of d.

    With n given, x is the order k (an int or an int array) and n an int,
    neither a bool, with 1 <= k <= n <= 2^63 - 1. With m = n - k, the mean
    is shift + (H_n - H_m) / rate and the variance (G_n - G_m) / rate^2.
    mean_first_k, the average of the k smallest order-statistic means and so
    the expected delay of a delivered update under earliest-k stopping, is
    shift + S / (k rate), S = sum_{i<=k} (H_n - H_{n-i}) = k - m (H_n - H_m)
    (Concrete Mathematics, eq. 2.36). For m >= M that difference cancels;
    there ba = k, and with t = k / a and the L = log1p(t) of H_n - H_m, S is
    summed as the nonnegative a (t - L) + L / 2 + m (c(a) - c(n + 1/2)).

    With n None, x is the ratio alpha = k / n (a real number or an array of
    them in (0, 1)) and the result is the large-n limit: the mean
    delta(alpha) = shift - log(1 - alpha) / rate, a variance of 0 (zeros of
    alpha's shape), and
    mean_first_k = shift + 1/rate + ((1 - alpha) / (alpha rate)) log(1 - alpha).
    delta diverges as alpha -> 1; the open interval is enforced, not clamped.
    With t = alpha / (1 - alpha) and L = -log1p(-alpha) = log1p(t), that is
    shift + (t - L) / (t rate). Both regimes take t - L from ``_excess``.
    """
    if n is None:
        alpha = _check_alpha(x)
        L, t = -np.log1p(-alpha), alpha / (1.0 - alpha)
        return d.shift + L / d.rate, 0.0 * alpha, d.shift + _excess(t, L) / (t * d.rate)
    k, n = _check_order(x, n)
    m = n - k
    tab = _TAIL[np.minimum(m, _M)] - _TAIL[min(n, _M)]
    a, b = np.maximum(m + 0.5, _M + 0.5), max(n, _M) + 0.5
    ba = np.minimum(k, max(n - _M, 0))  # b - a
    (ca, ea), (cb, eb) = _asymptotic(a), _asymptotic(b)
    t = ba / a
    L = np.log1p(t)
    dh = (tab[..., 0] + tab[..., 1]) + (L + (cb - ca))  # H_n - H_m
    dg = (tab[..., 2] + tab[..., 3]) + (ba / (a * b) - (ea - eb))  # G_n - G_m
    # ba = k and b = n + 1/2 wherever m >= M, the only cells that keep large_m.
    large_m = a * _excess(t, L) + 0.5 * L + (a - 0.5) * (ca - cb)
    s = np.where(m < _M, k - m * dh, large_m)
    return d.shift + dh / d.rate, dg / (d.rate * d.rate), d.shift + s / (k * d.rate)
