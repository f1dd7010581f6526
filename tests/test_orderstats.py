import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_multicast.orderstats import (
    ShiftedExp,
    delta_threshold,
    gen_harmonic,
    harmonic,
    mean_first_k,
    mean_first_k_approx,
    os_mean,
    os_var,
)
from oracles import os_second_moment

EULER_GAMMA = 0.5772156649015329


class TestShiftedExp:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ShiftedExp(rate=0.0)
        with pytest.raises(ValueError):
            ShiftedExp(rate=-1.0)
        with pytest.raises(ValueError):
            ShiftedExp(rate=1.0, shift=-0.1)

    @pytest.mark.parametrize("field", ["rate", "shift"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ShiftedExp(**{"rate": 1.0, "shift": 0.0, field: bad})

    def test_zero_shift_is_accepted(self):
        d = ShiftedExp(rate=2.0, shift=0.0)
        assert d.mean == 0.5

    def test_moments(self):
        d = ShiftedExp(rate=1.0, shift=1.0)
        assert d.mean == 2.0
        assert d.second_moment == 5.0

    def test_integer_parameters_stored_as_floats(self):
        # k * rate on int64 thresholds would wrap at k > 2^62 for an int rate.
        d = ShiftedExp(2, 1)
        assert type(d.rate) is float and type(d.shift) is float
        k = np.array([2**62 + 1, 2**63 - 2])
        np.testing.assert_array_equal(mean_first_k(d, k, 2**63 - 1),
                                      mean_first_k(ShiftedExp(2.0, 1.0), k, 2**63 - 1))
        assert np.all(mean_first_k(d, k, 2**63 - 1) > 1.0)


class TestHarmonic:
    def test_trivial_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25 / 12, abs=1e-14)

    def test_gen_harmonic_trivial(self):
        assert gen_harmonic(0) == 0.0
        assert gen_harmonic(2) == 1.25

    def test_gen_harmonic_limit(self):
        assert gen_harmonic(10**6) == pytest.approx(math.pi**2 / 6, abs=1e-5)

    def test_euler_mascheroni(self):
        assert harmonic(10**4) - math.log(10**4) == pytest.approx(
            EULER_GAMMA, abs=1e-3
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)


class TestOrderStatMoments:
    def test_os_mean_examples(self):
        assert os_mean(ShiftedExp(1, 0), 1, 2) == pytest.approx(0.5)
        assert os_mean(ShiftedExp(2, 1), 5, 5) == pytest.approx(1 + (137 / 60) / 2)
        assert os_mean(ShiftedExp(1, 1), 1, 1) == pytest.approx(2.0)

    def test_os_var_examples(self):
        assert os_var(ShiftedExp(1, 0.7), 2, 2) == pytest.approx(1.25)
        assert os_var(ShiftedExp(1, 3.0), 1, 1) == pytest.approx(1.0)
        assert os_var(ShiftedExp(2, 0), 1, 4) == pytest.approx(0.015625)

    def test_os_second_moment_examples(self):
        assert os_second_moment(ShiftedExp(1, 0), 1, 1) == pytest.approx(2.0)
        assert os_second_moment(ShiftedExp(1, 1), 1, 1) == pytest.approx(5.0)

    @pytest.mark.parametrize("k,n", [(1, 1), (3, 7), (50, 50), (2, 100)])
    def test_out_of_range_rejected(self, k, n):
        d = ShiftedExp(1, 1)
        with pytest.raises(ValueError):
            os_mean(d, 0, n)
        with pytest.raises(ValueError):
            os_mean(d, n + 1, n)
        with pytest.raises(ValueError):
            os_var(d, n + 1, n)
        with pytest.raises(ValueError):
            os_second_moment(d, 0, n)
        with pytest.raises(ValueError):
            mean_first_k(d, n + 1, n)

    def test_out_of_range_names_first_bad_k(self):
        d = ShiftedExp(1, 1)
        ks = np.concatenate([np.arange(1, 1001), [0, 2000]])
        with pytest.raises(ValueError, match=r"^need 1 <= k <= n, got k=0, n=1000$"):
            os_mean(d, ks, 1000)
        with pytest.raises(ValueError, match=r"got k=1001, n=1000$"):
            os_mean(d, np.array([[5, 1001], [0, 7]]), 1000)

    @given(
        n=st.integers(1, 400),
        data=st.data(),
        rate=st.floats(0.1, 10.0),
        shift=st.floats(0.0, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_second_moment_identity(self, n, data, rate, shift):
        k = data.draw(st.integers(1, n))
        d = ShiftedExp(rate, shift)
        lhs = os_second_moment(d, k, n)
        rhs = os_var(d, k, n) + os_mean(d, k, n) ** 2
        assert abs(lhs - rhs) <= 8 * math.ulp(max(abs(lhs), abs(rhs)))

    def test_os_mean_monotone_in_k_and_n(self):
        d = ShiftedExp(1.3, 0.4)
        for n in (2, 10, 57):
            vals = [os_mean(d, k, n) for k in range(1, n + 1)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for k in (1, 3):
            vals = [os_mean(d, k, n) for n in range(k, k + 40)]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMeanFirstK:
    def test_full_selection_equals_distribution_mean(self):
        for rate, shift in [(1.0, 1.0), (2.5, 0.0), (0.3, 4.0)]:
            d = ShiftedExp(rate, shift)
            for n in (1, 5, 200):
                assert mean_first_k(d, n, n) == pytest.approx(
                    shift + 1 / rate, rel=1e-13
                )

    def test_k1_reduces_to_os_mean(self):
        assert mean_first_k(ShiftedExp(1, 0), 1, 2) == pytest.approx(0.5)

    def test_definitional_cross_check(self):
        d = ShiftedExp(1, 1)
        expected = sum(os_mean(d, i, 10) for i in range(1, 4)) / 3
        assert mean_first_k(d, 3, 10) == pytest.approx(expected, rel=1e-13)

    def test_approx_direct_value(self):
        d = ShiftedExp(1, 1)
        assert mean_first_k_approx(d, 0.5) == pytest.approx(2 + math.log(0.5))

    def test_approx_limit_alpha_to_one(self):
        d = ShiftedExp(2, 0.3)
        assert mean_first_k_approx(d, 1 - 1e-12) == pytest.approx(0.3 + 0.5, rel=1e-9)

    def test_approx_matches_exact_large_n(self):
        d = ShiftedExp(1, 1)
        exact = mean_first_k(d, 5000, 10_000)
        approx = mean_first_k_approx(d, 0.5)
        assert abs(exact - approx) / exact < 1e-2

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_approx_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            mean_first_k_approx(ShiftedExp(1, 1), alpha)


class TestDeltaThreshold:
    def test_direct_value(self):
        assert delta_threshold(ShiftedExp(1, 1), 0.5) == pytest.approx(1 + math.log(2))

    def test_small_alpha_approaches_shift(self):
        assert delta_threshold(ShiftedExp(1, 1), 1e-12) == pytest.approx(1.0)

    def test_matches_exact_large_n(self):
        d = ShiftedExp(1, 1)
        exact = os_mean(d, 9000, 10_000)
        approx = delta_threshold(d, 0.9)
        assert abs(exact - approx) / exact < 1e-2

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_rejects_boundary(self, alpha):
        with pytest.raises(ValueError):
            delta_threshold(ShiftedExp(1, 1), alpha)


class TestSampling:
    def test_min_of_ten_matches_os_mean(self):
        rng = np.random.default_rng(11)
        reps = 200_000
        mins = (1.0 + rng.exponential(1.0, size=(reps, 10))).min(axis=1)
        assert mins.mean() == pytest.approx(os_mean(ShiftedExp(1, 1), 1, 10), rel=0.01)

    @pytest.mark.parametrize("n,k", [(5, 2), (10, 7), (50, 25)])
    def test_monte_carlo_moments(self, n, k):
        rng = np.random.default_rng(abs(hash((n, k))) % 2**32)
        reps = 120_000
        d = ShiftedExp(1.5, 0.8)
        draws = d.shift + rng.exponential(1 / d.rate, size=(reps, n))
        kth = np.partition(draws, k - 1, axis=1)[:, k - 1]
        se_mean = kth.std(ddof=1) / math.sqrt(reps)
        assert abs(kth.mean() - os_mean(d, k, n)) <= 3 * se_mean
        # sample variance has its own sampling error; a moment-based bound
        m4 = np.mean((kth - kth.mean()) ** 4)
        var = kth.var(ddof=1)
        se_var = math.sqrt((m4 - var**2) / reps)
        assert abs(var - os_var(d, k, n)) <= 3 * se_var


# Index at which orderstats switches from its table to the asymptotic forms.
M = 32


class TestExactOracle:
    """Every moment against exact rational arithmetic, on both sides of M."""

    N_MAX = 2 * M + 16

    def test_all_k_match_fractions(self):
        h, g = [Fraction(0)], [Fraction(0)]
        for j in range(1, self.N_MAX + 1):
            h.append(h[-1] + Fraction(1, j))
            g.append(g[-1] + Fraction(1, j * j))
        d = ShiftedExp(1.0, 0.0)

        def rel(got, want):
            return float(abs(Fraction(float(got)) - want) / want)

        worst = dict.fromkeys(("H", "G", "mean", "var", "first_k"), 0.0)
        for n in range(1, self.N_MAX + 1):
            worst["H"] = max(worst["H"], rel(harmonic(n), h[n]))
            worst["G"] = max(worst["G"], rel(gen_harmonic(n), g[n]))
            ks = np.arange(1, n + 1)
            means, variances = os_mean(d, ks, n), os_var(d, ks, n)
            first_k = mean_first_k(d, ks, n)
            total = Fraction(0)  # sum_{i<=k} (H_n - H_{n-i}), by definition
            for k in range(1, n + 1):
                total += h[n] - h[n - k]
                worst["mean"] = max(worst["mean"], rel(means[k - 1], h[n] - h[n - k]))
                worst["var"] = max(worst["var"], rel(variances[k - 1], g[n] - g[n - k]))
                worst["first_k"] = max(worst["first_k"], rel(first_k[k - 1], total / k))
        assert harmonic(0) == 0.0 and gen_harmonic(0) == 0.0
        assert max(worst.values()) <= 1e-14, worst


class TestLargeNAgainstMpmath:
    """Differences H_n - H_{n-k}, G_n - G_{n-k} and the mean_first_k sum against
    digamma and trigamma at 50 digits, up to n = 10^12."""

    @pytest.mark.parametrize("n", [10**3, 10**6, 10**7, 10**9, 10**12])
    def test_relative_error(self, n):
        mpmath = pytest.importorskip("mpmath")
        d = ShiftedExp(1.0, 0.0)
        with mpmath.workdps(50):
            for k in sorted({1, 2, 10, n // 3, n // 2, n - 1, n}):
                m = n - k
                dh = mpmath.digamma(n + 1) - mpmath.digamma(m + 1)
                dg = mpmath.psi(1, m + 1) - mpmath.psi(1, n + 1)
                first_k = k - m * dh  # sum_{i<=k} (H_n - H_{n-i})
                for got, want in ((os_mean(d, k, n), dh), (os_var(d, k, n), dg),
                                  (k * mean_first_k(d, k, n), first_k)):
                    err = float(abs(mpmath.mpf(float(got)) - want) / want)
                    assert err <= 1e-14, (n, k, float(got), err)
