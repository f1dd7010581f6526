import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_multicast.orderstats import ShiftedExp, os_moments
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
        np.testing.assert_array_equal(os_moments(d, k, 2**63 - 1)[2],
                                      os_moments(ShiftedExp(2.0, 1.0), k, 2**63 - 1)[2])
        assert np.all(os_moments(d, k, 2**63 - 1)[2] > 1.0)


class TestHarmonic:
    def test_trivial_values(self):
        assert os_moments(ShiftedExp(1.0), 1, 1)[0] == 1.0
        assert os_moments(ShiftedExp(1.0), 4, 4)[0] == pytest.approx(25 / 12, abs=1e-14)

    def test_gen_harmonic_trivial(self):
        assert os_moments(ShiftedExp(1.0), 2, 2)[1] == 1.25

    def test_gen_harmonic_limit(self):
        assert os_moments(ShiftedExp(1.0), 10**6, 10**6)[1] == pytest.approx(
            math.pi**2 / 6, abs=1e-5
        )

    def test_euler_mascheroni(self):
        assert os_moments(ShiftedExp(1.0), 10**4, 10**4)[0] - math.log(10**4) == pytest.approx(
            EULER_GAMMA, abs=1e-3
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            os_moments(ShiftedExp(1.0), -1, -1)[0]


class TestOrderStatMoments:
    def test_os_mean_examples(self):
        assert os_moments(ShiftedExp(1, 0), 1, 2)[0] == pytest.approx(0.5)
        assert os_moments(ShiftedExp(2, 1), 5, 5)[0] == pytest.approx(1 + (137 / 60) / 2)
        assert os_moments(ShiftedExp(1, 1), 1, 1)[0] == pytest.approx(2.0)

    def test_os_var_examples(self):
        assert os_moments(ShiftedExp(1, 0.7), 2, 2)[1] == pytest.approx(1.25)
        assert os_moments(ShiftedExp(1, 3.0), 1, 1)[1] == pytest.approx(1.0)
        assert os_moments(ShiftedExp(2, 0), 1, 4)[1] == pytest.approx(0.015625)

    def test_os_second_moment_examples(self):
        assert os_second_moment(ShiftedExp(1, 0), 1, 1) == pytest.approx(2.0)
        assert os_second_moment(ShiftedExp(1, 1), 1, 1) == pytest.approx(5.0)

    @pytest.mark.parametrize("k,n", [(1, 1), (3, 7), (50, 50), (2, 100)])
    def test_out_of_range_rejected(self, k, n):
        d = ShiftedExp(1, 1)
        with pytest.raises(ValueError):
            os_moments(d, 0, n)[0]
        with pytest.raises(ValueError):
            os_moments(d, n + 1, n)[0]
        with pytest.raises(ValueError):
            os_moments(d, n + 1, n)[1]
        with pytest.raises(ValueError):
            os_second_moment(d, 0, n)
        with pytest.raises(ValueError):
            os_moments(d, n + 1, n)[2]

    @pytest.mark.parametrize("k,n", [(2.0, 7), (2, 7.0), (np.array([2.0, 3.0]), 7), (True, 10),
                                     (1, True), (np.array([True, False]), 10), (1, np.True_),
                                     ([2.0, 3], 7), ([1, 2**63, 0.5], 2**63 - 1)],
                             ids=["float-k", "float-n", "float-array-k", "bool-k", "bool-n",
                                  "bool-array-k", "numpy-bool-n", "float-list-k",
                                  "float-in-wide-list-k"])
    def test_non_integer_order_rejected(self, k, n):
        with pytest.raises(TypeError, match="^k and n must be integers$"):
            os_moments(ShiftedExp(1, 1), k, n)

    @pytest.mark.parametrize("n", [0, 2**63, 2**64, 2**70])
    def test_n_outside_int64_rejected(self, n):
        # Beyond 2^63 - 1, n - k would no longer fit the int64 arithmetic.
        bound = ">= 1" if n < 1 else f"<= {2**63 - 1}"
        with pytest.raises(ValueError, match=f"^n must be {bound}, got {n}$"):
            os_moments(ShiftedExp(1, 1), 1, n)

    @pytest.mark.parametrize("k,n,shown", [
        (2**63, 2**63 - 1, 2**63),
        (np.uint64(2**63), 10, 2**63),
        (np.array([1, 2**63], dtype=np.uint64), 2**63 - 1, 2**63),
        (2**64, 2**63 - 1, 2**64),
        ([1, 2**64], 10, 2**64),
        ([-1, 2**63], 10, -1),
    ], ids=["uint64-int", "uint64-scalar", "uint64-array", "object-int", "object-array",
            "float64-list"])
    def test_k_beyond_int64_names_the_true_k(self, k, n, shown):
        # numpy holds these as uint64, object or (a list of ints no integer dtype
        # holds) float64 arrays; an int64 cast would wrap them, a float test reject them.
        with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={shown}, n={n}$"):
            os_moments(ShiftedExp(1.0), k, n)

    def test_out_of_range_names_first_bad_k(self):
        d = ShiftedExp(1, 1)
        ks = np.concatenate([np.arange(1, 1001), [0, 2000]])
        with pytest.raises(ValueError, match=r"^need 1 <= k <= n, got k=0, n=1000$"):
            os_moments(d, ks, 1000)[0]
        with pytest.raises(ValueError, match=r"got k=1001, n=1000$"):
            os_moments(d, np.array([[5, 1001], [0, 7]]), 1000)[0]

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
        rhs = os_moments(d, k, n)[1] + os_moments(d, k, n)[0] ** 2
        assert abs(lhs - rhs) <= 8 * math.ulp(max(abs(lhs), abs(rhs)))

    @pytest.mark.parametrize("x,n", [(3, 10), (np.array([1, 5, 10]), 10), (0.3, None),
                                     (np.array([0.01, 0.5, 0.99]), None)],
                             ids=["exact", "exact-array", "approx", "approx-array"])
    def test_rate_beyond_sqrt_of_float_max(self, x, n):
        # rate^2 overflows to inf, where Python's rate**2 raises OverflowError:
        # the variance is 0 and the means are those at rate 1 scaled by 1/rate.
        mean, var, first_k = os_moments(ShiftedExp(1e300), x, n)
        unit = os_moments(ShiftedExp(1.0), x, n)
        assert np.array_equal(mean, unit[0] / 1e300)
        assert np.all(var == 0.0)
        assert first_k == pytest.approx(unit[2] / 1e300, rel=1e-15)

    def test_os_mean_monotone_in_k_and_n(self):
        d = ShiftedExp(1.3, 0.4)
        for n in (2, 10, 57):
            vals = [os_moments(d, k, n)[0] for k in range(1, n + 1)]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for k in (1, 3):
            vals = [os_moments(d, k, n)[0] for n in range(k, k + 40)]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMeanFirstK:
    def test_full_selection_equals_distribution_mean(self):
        for rate, shift in [(1.0, 1.0), (2.5, 0.0), (0.3, 4.0)]:
            d = ShiftedExp(rate, shift)
            for n in (1, 5, 200):
                assert os_moments(d, n, n)[2] == pytest.approx(
                    shift + 1 / rate, rel=1e-13
                )

    def test_k1_reduces_to_os_mean(self):
        assert os_moments(ShiftedExp(1, 0), 1, 2)[2] == pytest.approx(0.5)

    def test_definitional_cross_check(self):
        d = ShiftedExp(1, 1)
        expected = sum(os_moments(d, i, 10)[0] for i in range(1, 4)) / 3
        assert os_moments(d, 3, 10)[2] == pytest.approx(expected, rel=1e-13)

    def test_approx_direct_value(self):
        d = ShiftedExp(1, 1)
        assert os_moments(d, 0.5)[2] == pytest.approx(2 + math.log(0.5))

    def test_approx_limit_alpha_to_one(self):
        d = ShiftedExp(2, 0.3)
        assert os_moments(d, 1 - 1e-12)[2] == pytest.approx(0.3 + 0.5, rel=1e-9)

    def test_approx_matches_exact_large_n(self):
        d = ShiftedExp(1, 1)
        exact = os_moments(d, 5000, 10_000)[2]
        approx = os_moments(d, 0.5)[2]
        assert abs(exact - approx) / exact < 1e-2

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, 0, 1, np.array([0.5, 2])])
    def test_approx_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got "):
            os_moments(ShiftedExp(1, 1), alpha)[2]

    def test_approx_names_first_bad_alpha(self):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got 1.0$"):
            os_moments(ShiftedExp(1, 1), [0.5, 1.0, math.nan])

    @pytest.mark.parametrize("alpha", ["0.5", b"0.5", ["0.3", 0.4], np.array([0.5], dtype=object),
                                       True, np.array([True]), 0.5 + 0j],
                             ids=["str", "bytes", "str-list", "object-array", "bool", "bool-array",
                                  "complex"])
    def test_approx_rejects_non_real_alpha(self, alpha):
        # Only integer and real dtypes are ratios; nothing is parsed or coerced.
        with pytest.raises(TypeError, match="^alpha must be a real number or an array of them"):
            os_moments(ShiftedExp(1, 1), alpha)


class TestDeltaThreshold:
    def test_direct_value(self):
        assert os_moments(ShiftedExp(1, 1), 0.5)[0] == pytest.approx(1 + math.log(2))

    def test_small_alpha_approaches_shift(self):
        assert os_moments(ShiftedExp(1, 1), 1e-12)[0] == pytest.approx(1.0)

    def test_matches_exact_large_n(self):
        d = ShiftedExp(1, 1)
        exact = os_moments(d, 9000, 10_000)[0]
        approx = os_moments(d, 0.9)[0]
        assert abs(exact - approx) / exact < 1e-2

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_rejects_boundary(self, alpha):
        with pytest.raises(ValueError):
            os_moments(ShiftedExp(1, 1), alpha)[0]


class TestSampling:
    def test_min_of_ten_matches_os_mean(self):
        rng = np.random.default_rng(11)
        reps = 200_000
        mins = (1.0 + rng.exponential(1.0, size=(reps, 10))).min(axis=1)
        assert mins.mean() == pytest.approx(os_moments(ShiftedExp(1, 1), 1, 10)[0], rel=0.01)

    @pytest.mark.parametrize("n,k", [(5, 2), (10, 7), (50, 25)])
    def test_monte_carlo_moments(self, n, k):
        rng = np.random.default_rng(abs(hash((n, k))) % 2**32)
        reps = 120_000
        d = ShiftedExp(1.5, 0.8)
        draws = d.shift + rng.exponential(1 / d.rate, size=(reps, n))
        kth = np.partition(draws, k - 1, axis=1)[:, k - 1]
        se_mean = kth.std(ddof=1) / math.sqrt(reps)
        assert abs(kth.mean() - os_moments(d, k, n)[0]) <= 3 * se_mean
        # sample variance has its own sampling error; a moment-based bound
        m4 = np.mean((kth - kth.mean()) ** 4)
        var = kth.var(ddof=1)
        se_var = math.sqrt((m4 - var**2) / reps)
        assert abs(var - os_moments(d, k, n)[1]) <= 3 * se_var


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
            worst["H"] = max(worst["H"], rel(os_moments(ShiftedExp(1.0), n, n)[0], h[n]))
            worst["G"] = max(worst["G"], rel(os_moments(ShiftedExp(1.0), n, n)[1], g[n]))
            ks = np.arange(1, n + 1)
            means, variances = os_moments(d, ks, n)[0], os_moments(d, ks, n)[1]
            first_k = os_moments(d, ks, n)[2]
            total = Fraction(0)  # sum_{i<=k} (H_n - H_{n-i}), by definition
            for k in range(1, n + 1):
                total += h[n] - h[n - k]
                worst["mean"] = max(worst["mean"], rel(means[k - 1], h[n] - h[n - k]))
                worst["var"] = max(worst["var"], rel(variances[k - 1], g[n] - g[n - k]))
                worst["first_k"] = max(worst["first_k"], rel(first_k[k - 1], total / k))
        assert max(worst.values()) <= 1e-14, worst


class TestLargeNAgainstMpmath:
    """Differences H_n - H_{n-k}, G_n - G_{n-k} and the mean_first_k sum against
    digamma and trigamma at 50 digits, up to n = 2^63 - 1; and the large-n mean
    and mean_first_k against their closed forms, for alpha from 1e-12 to
    1 - 1e-12."""

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
                for got, want in ((os_moments(d, k, n)[0], dh), (os_moments(d, k, n)[1], dg),
                                  (k * os_moments(d, k, n)[2], first_k)):
                    err = float(abs(mpmath.mpf(float(got)) - want) / want)
                    assert err <= 1e-14, (n, k, float(got), err)

    @pytest.mark.parametrize("n", [2**52, 2**52 + 7, 2**53 + 1, 10**17, 2**62, 2**63 - 1])
    def test_beyond_float_integers(self, n):
        # Above 2^52 neither n - k + 1/2 nor n + 1/2 is a float, but their
        # difference, the k of the series, is held as an integer.
        mpmath = pytest.importorskip("mpmath")
        d = ShiftedExp(1.0, 0.0)
        ks = sorted({1, 2, 33, 1000, 10**6, n // 3, n - 40, n - 31, n - 1, n})
        moments = os_moments(d, np.array(ks), n)
        with mpmath.workdps(50):
            for i, k in enumerate(ks):
                m = n - k
                dh = mpmath.digamma(n + 1) - mpmath.digamma(m + 1)
                dg = mpmath.psi(1, m + 1) - mpmath.psi(1, n + 1)
                scalar = os_moments(d, k, n)
                for got, want in zip(scalar, (dh, dg, (k - m * dh) / k)):
                    err = float(abs(mpmath.mpf(float(got)) - want) / want)
                    assert err <= 1e-15, (n, k, float(got), err)
                assert [float(a[i]) for a in moments] == [float(v) for v in scalar]

    def test_large_n_relative_error(self):
        # Both sides of the series cutoff alpha = 0.2, and alpha near 0 and 1.
        mpmath = pytest.importorskip("mpmath")
        alphas = np.concatenate([np.geomspace(1e-12, 0.5, 25), [0.2, np.nextafter(0.2, 0)],
                                 1 - np.geomspace(1e-12, 0.5, 25)])
        d = ShiftedExp(1.0, 0.0)
        mean, _, first_k = os_moments(d, alphas)
        with mpmath.workdps(50):
            for a, got_mean, got_first_k in zip(alphas.tolist(), mean, first_k):
                assert os_moments(d, a)[::2] == (got_mean, got_first_k)  # scalar == array
                x = mpmath.mpf(a)
                for got, want in ((got_mean, -mpmath.log1p(-x)),
                                  (got_first_k, 1 + (1 - x) / x * mpmath.log1p(-x))):
                    err = float(abs(mpmath.mpf(float(got)) - want) / want)
                    assert err <= 1e-14, (a, float(got), err)
