import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_multicast.analytic import (
    INFINITE_AGE,
    AtWill,
    Exogenous,
    Scenario,
    ScenarioApprox,
    StarvedStreamError,
    Stream,
    StreamMix,
    age_pair,
)
from aoi_multicast.optimize import ScenarioTemplate, pareto_frontier
from aoi_multicast.orderstats import ShiftedExp, os_moments
from oracles import (
    geometric_moments,
    grid_ages,
    os_second_moment,
    other,
    s_moments,
    ybar_moments,
)

# Mixed-stream reference scenario used throughout; the analytic ages were
# cross-validated against the Monte Carlo oracle (10^6 cycles, agreement
# well inside 1%) and are frozen here as regression constants.
REF = dict(
    n=10,
    k1=3,
    k2=5,
    delay_I=ShiftedExp(1.0, 1.0),
    delay_II=ShiftedExp(2.0, 0.5),
    mix=StreamMix(0.6),
)
REF_AGE_I_ATWILL = 6.769056121432189
REF_AGE_II_ATWILL = 6.115572876282274
REF_AGE_I_EXO_MU2 = 9.360654751819547
REF_AGE_II_EXO_MU2 = 8.429393728891855


def ref_scenario(mode=AtWill()):
    return Scenario(mode=mode, **REF)


def age_atwill_expanded(s, target):
    """Fully expanded at-will age expression: an oracle for age_pair that does
    not go through the renewal kernel."""
    if not isinstance(s.mode, AtWill):
        raise ValueError("age_atwill_expanded requires at-will mode")
    p = s.mix.prob(target)
    if p <= 0:
        raise StarvedStreamError(f"stream {target.value} is starved (p = 0)")
    po = s.mix.prob(other(target))
    n, k, ko = s.n, s.threshold(target), s.threshold(other(target))
    e1 = os_moments(s.delay(target), k, n)[0]
    e2 = os_second_moment(s.delay(target), k, n)
    f1 = os_moments(s.delay(other(target)), ko, n)[0]
    f2 = os_second_moment(s.delay(other(target)), ko, n)
    mix1 = p * e1 + po * f1
    t1 = os_moments(s.delay(target), k, n)[2]
    t2 = (p * e2 + po * f2) / (2.0 * mix1)
    t3 = (po**2 * n * f1**2 + p * po * (2 * n - k) * e1 * f1) / (p * k * mix1)
    t4 = (p**2 * (n - k) * e1**2) / (p * k * mix1)
    return t1 + t2 + t3 + t4


def _sim_cycles(scenario, cycles, seed):
    """Minimal test-side cycle sampler, independent of the sim module.

    Returns (is_type_I, durations, tagged delay, delivered) per cycle.
    """
    rng = np.random.default_rng(seed)
    is_I = rng.random(cycles) < scenario.mix.p1
    dur = np.empty(cycles)
    own = np.empty(cycles)
    hit = np.empty(cycles, dtype=bool)
    for i in range(cycles):
        stream = Stream.TYPE_I if is_I[i] else Stream.TYPE_II
        d = scenario.delay(stream)
        k = scenario.threshold(stream)
        delays = d.shift + rng.exponential(1 / d.rate, scenario.n)
        kth = np.partition(delays, k - 1)[k - 1]
        dur[i] = kth
        own[i] = delays[0]
        hit[i] = delays[0] <= kth
    return is_I, dur, own, hit


# Each scalar of a scenario, built into the type that checks it.
SCALARS = {
    "n": lambda v: Scenario(v, 3, 5, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5)),
    "k1": lambda v: Scenario(10, v, 5, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5)),
    "k2": lambda v: Scenario(10, 3, v, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5)),
    "rate": lambda v: ShiftedExp(v, 1.0),
    "shift": lambda v: ShiftedExp(1.0, v),
    "p1": StreamMix,
    "mu": Exogenous,
    "alpha1": lambda v: ScenarioApprox(v, 0.5, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5)),
    "alpha2": lambda v: ScenarioApprox(0.5, v, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5)),
}
# (field, bad value, what the field must be): an integral float is no integer,
# and a bool is neither an integer nor a number.
BAD_SCALARS = ([(f, bad, "an integer") for f in ("n", "k1", "k2")
                for bad in (True, 2.5, 10.0, None, "1")]
               + [(f, bad, "a number") for f in ("rate", "shift", "p1", "mu", "alpha1", "alpha2")
                  for bad in (True, None, "1")])
# The delay laws, mix and mode of each scenario type, set on a valid one and
# keyed "type.field"; a float, None or a mode's name is no instance of them.
SCALARS.update({f"{type(s).__name__}.{f}": lambda v, s=s, f=f: dataclasses.replace(s, **{f: v})
                for s in (Scenario(10, 3, 5, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5)),
                          ScenarioApprox(0.3, 0.5, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5)),
                          ScenarioTemplate(ShiftedExp(1), ShiftedExp(1), StreamMix(0.5), n=10))
                for f in ("delay_I", "delay_II", "mix", "mode")})
BAD_SCALARS += [(f"{t}.{f}", bad, kind) for t in ("Scenario", "ScenarioApprox", "ScenarioTemplate")
                for f, bad, kind in (("delay_I", 1.0, "a ShiftedExp"),
                                     ("delay_II", None, "a ShiftedExp"),
                                     ("mix", 0.6, "a StreamMix"),
                                     ("mode", "exogenous", "an AtWill or Exogenous"),
                                     ("mode", 2.0, "an AtWill or Exogenous"))]


# The bounded values that are not scenario fields: a pareto beta and an
# os_moments ratio.
RANGED = {
    "beta": lambda v: pareto_frontier(
        ScenarioTemplate(ShiftedExp(1), ShiftedExp(2), StreamMix(0.5), n=4), [v]),
    "alpha": lambda v: os_moments(ShiftedExp(1), v),
}
# (field, value, the interval it must lie in, or None where it does): closed
# ends pass and open ends fail, and NaN and both infinities fail everywhere.
RANGE_CASES = ([(f, v, None) for f in ("p1", "beta") for v in (0, 1, 0.0, 1.0)]
               + [(f, v, None) for f in ("k1", "k2") for v in (1, 10)]
               + [(f, v, "[1, 10]") for f in ("k1", "k2") for v in (0, 11)]
               + [(f, v, "[0, 1]") for f in ("p1", "beta")
                  for v in (-0.5, 1.5, math.nan, math.inf, -math.inf)]
               + [(f, v, "(0, 1)") for f in ("alpha1", "alpha2", "alpha")
                  for v in (0, 1, 0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf)])


class TestTypes:
    def test_stream_mix_validation(self):
        with pytest.raises(ValueError):
            StreamMix(-0.1)
        with pytest.raises(ValueError):
            StreamMix(1.1)
        assert StreamMix(0.3).p2 == pytest.approx(0.7)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(5, 0, 1, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5))
        with pytest.raises(ValueError):
            Scenario(5, 1, 6, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5))
        with pytest.raises(ValueError):
            Exogenous(0.0)
        with pytest.raises(ValueError, match="^mu must be finite"):
            Exogenous(math.inf)

    def test_scenario_approx_validation(self):
        with pytest.raises(ValueError):
            ScenarioApprox(0.0, 0.5, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5))
        with pytest.raises(ValueError):
            ScenarioApprox(0.5, 1.0, ShiftedExp(1), ShiftedExp(1), StreamMix(0.5))

    @pytest.mark.parametrize("field,value,interval", RANGE_CASES,
                             ids=[f"{field}={value}" for field, value, _ in RANGE_CASES])
    def test_one_interval_rule(self, field, value, interval):
        # interval is None where the value lies in it, and a number is
        # printed as the float it was checked as.
        check = RANGED.get(field) or SCALARS[field]
        if interval is None:
            check(value)
            return
        got = value if field in ("k1", "k2") else float(value)
        with pytest.raises(ValueError) as e:
            check(value)
        assert str(e.value) == f"{field} must lie in {interval}, got {got}"

    @pytest.mark.parametrize("field,bad,kind", BAD_SCALARS,
                             ids=[f"{bad}-{field}" for field, bad, _ in BAD_SCALARS])
    def test_scenario_rejects_bool_and_fraction(self, field, bad, kind):
        name = field.rpartition(".")[2]
        with pytest.raises(ValueError, match=f"^{name} must be {kind}, got {type(bad).__name__}$"):
            SCALARS[field](bad)

    def test_scenario_stores_numpy_integers_as_int(self):
        s = Scenario(np.int64(10), np.int64(3), np.int64(5), ShiftedExp(1), ShiftedExp(1),
                     StreamMix(0.5))
        assert (s.n, s.k1, s.k2) == (10, 3, 5)
        assert all(type(v) is int for v in (s.n, s.k1, s.k2))

    def test_infinite_age_ordering(self):
        assert INFINITE_AGE > 1e300
        assert not INFINITE_AGE < 5.0
        assert INFINITE_AGE == INFINITE_AGE
        assert float(INFINITE_AGE) == math.inf


class TestGeometricMoments:
    def test_deterministic_success(self):
        m = geometric_moments(1.0)
        assert (m.m1, m.m2) == (1.0, 1.0)

    def test_half(self):
        m = geometric_moments(0.5)
        assert (m.m1, m.m2) == (2.0, 6.0)

    def test_mixed_probability(self):
        m = geometric_moments(0.6 * 3 / 10)
        assert m.m1 == pytest.approx(1 / 0.18)
        assert m.m2 == pytest.approx((2 - 0.18) / 0.18**2)

    def test_starved(self):
        with pytest.raises(StarvedStreamError):
            geometric_moments(0.0)

    @given(st.floats(1e-6, 1.0))
    def test_variance_nonnegative(self, p):
        m = geometric_moments(p)
        assert m.m2 >= m.m1**2 - 8 * math.ulp(m.m2)


class TestYbarMoments:
    def test_degenerate_conditioning(self):
        s = Scenario(4, 4, 2, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0))
        m = ybar_moments(s, Stream.TYPE_I)
        assert m.degenerate
        assert m.m1 == pytest.approx(os_moments(ShiftedExp(1, 1), 4, 4)[0])
        assert m.m2 == pytest.approx(os_second_moment(ShiftedExp(1, 1), 4, 4))

    def test_q_one_collapses_to_other_stream(self):
        # k1 = n with p1 < 1: a missed slot must have carried type II
        s = Scenario(4, 4, 2, ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(0.3))
        m = ybar_moments(s, Stream.TYPE_I)
        assert not m.degenerate
        assert m.m1 == pytest.approx(os_moments(ShiftedExp(2, 0.5), 2, 4)[0])
        assert m.m2 == pytest.approx(os_second_moment(ShiftedExp(2, 0.5), 2, 4))

    def test_starved(self):
        s = Scenario(4, 2, 2, ShiftedExp(1), ShiftedExp(1), StreamMix(0.0))
        with pytest.raises(StarvedStreamError):
            ybar_moments(s, Stream.TYPE_I)

    def test_against_conditional_simulation(self):
        s = ref_scenario()
        is_I, dur, own, hit = _sim_cycles(s, 60_000, seed=101)
        # condition: tagged node did NOT get a type I delivery this cycle
        missed = ~(is_I & hit)
        sample = dur[missed]
        m = ybar_moments(s, Stream.TYPE_I)
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - m.m1) <= 3 * se
        sq = sample**2
        se2 = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - m.m2) <= 3 * se2


class TestInterarrivalMoments:
    def test_single_stream_full_threshold(self):
        s = Scenario(6, 6, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0))
        m = s_moments(s, Stream.TYPE_I)
        assert m.m1 == pytest.approx(os_moments(ShiftedExp(1, 1), 6, 6)[0])
        assert m.m2 == pytest.approx(os_second_moment(ShiftedExp(1, 1), 6, 6))

    def test_single_node_even_split(self):
        d = ShiftedExp(1.0, 1.0)
        s = Scenario(1, 1, 1, d, d, StreamMix(0.5))
        m = s_moments(s, Stream.TYPE_I)
        assert m.m1 == pytest.approx(2 * d.mean)

    def test_against_tagged_node_simulation(self):
        s = ref_scenario()
        is_I, dur, own, hit = _sim_cycles(s, 60_000, seed=202)
        starts = np.concatenate(([0.0], np.cumsum(dur)[:-1]))
        times = (starts + own)[is_I & hit]
        gaps = np.diff(times)
        m = s_moments(s, Stream.TYPE_I)
        se = gaps.std(ddof=1) / math.sqrt(gaps.size)
        assert abs(gaps.mean() - m.m1) <= 3 * se
        sq = gaps**2
        se2 = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - m.m2) <= 3 * se2

    def test_exogenous_high_rate_limit(self):
        s = ref_scenario(Exogenous(1e6))
        base = s_moments(ref_scenario(), Stream.TYPE_I)
        m = s_moments(s, Stream.TYPE_I)
        assert m.m1 == pytest.approx(base.m1, rel=1e-3)
        assert m.m2 == pytest.approx(base.m2, rel=1e-3)

    def test_exogenous_single_stream_full_threshold(self):
        s = Scenario(
            5, 5, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0), Exogenous(2.0)
        )
        m = s_moments(s, Stream.TYPE_I)
        assert m.m1 == pytest.approx(os_moments(ShiftedExp(1, 1), 5, 5)[0] + 0.5)

    def test_exogenous_against_simulation(self):
        s = ref_scenario(Exogenous(2.0))
        is_I, dur, own, hit = _sim_cycles(s, 60_000, seed=303)
        z = np.random.default_rng(404).exponential(0.5, size=dur.size)
        starts = np.concatenate(([0.0], np.cumsum(dur + z)[:-1]))
        times = (starts + own)[is_I & hit]
        gaps = np.diff(times)
        m = s_moments(s, Stream.TYPE_I)
        se = gaps.std(ddof=1) / math.sqrt(gaps.size)
        assert abs(gaps.mean() - m.m1) <= 3 * se
        sq = gaps**2
        se2 = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - m.m2) <= 3 * se2

    @given(
        n=st.integers(1, 60),
        data=st.data(),
        p1=st.floats(0.05, 0.95),
        mu=st.one_of(st.none(), st.floats(0.1, 50.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_second_moment_dominates(self, n, data, p1, mu):
        k1 = data.draw(st.integers(1, n))
        k2 = data.draw(st.integers(1, n))
        mode = AtWill() if mu is None else Exogenous(mu)
        s = Scenario(n, k1, k2, ShiftedExp(1.2, 0.7), ShiftedExp(0.8, 1.5),
                     StreamMix(p1), mode)
        for t in (Stream.TYPE_I, Stream.TYPE_II):
            m = s_moments(s, t)
            assert m.m2 >= m.m1**2 * (1 - 1e-12)


class TestAgeAtWill:
    def test_zero_wait_anchor(self):
        s = Scenario(1, 1, 1, ShiftedExp(1, 0), ShiftedExp(1, 0), StreamMix(1.0))
        assert age_pair(s).age(Stream.TYPE_I) == pytest.approx(2.0)

    def test_shifted_anchor(self):
        s = Scenario(1, 1, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0))
        assert age_pair(s).age(Stream.TYPE_I) == pytest.approx(3.25)

    def test_regression_constants(self):
        s = ref_scenario()
        assert age_pair(s).age(Stream.TYPE_I) == pytest.approx(
            REF_AGE_I_ATWILL, rel=1e-12
        )
        assert age_pair(s).age(Stream.TYPE_II) == pytest.approx(
            REF_AGE_II_ATWILL, rel=1e-12
        )

    @given(
        n=st.integers(1, 80),
        data=st.data(),
        p1=st.floats(0.05, 0.95),
        rate1=st.floats(0.2, 5.0),
        rate2=st.floats(0.2, 5.0),
        shift1=st.floats(0.0, 3.0),
        shift2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_path_consistency(self, n, data, p1, rate1, rate2, shift1, shift2):
        k1 = data.draw(st.integers(1, n))
        k2 = data.draw(st.integers(1, n))
        s = Scenario(n, k1, k2, ShiftedExp(rate1, shift1), ShiftedExp(rate2, shift2),
                     StreamMix(p1))
        for t in (Stream.TYPE_I, Stream.TYPE_II):
            a = age_pair(s).age(t)
            b = age_atwill_expanded(s, t)
            assert abs(a - b) <= 64 * math.ulp(max(abs(a), abs(b)))

    def test_swap_symmetry(self):
        s = ref_scenario()
        swapped = Scenario(
            s.n, s.k2, s.k1, s.delay_II, s.delay_I, StreamMix(s.mix.p2)
        )
        assert age_pair(s).age(Stream.TYPE_I) == age_pair(swapped).age(Stream.TYPE_II)
        assert age_pair(s).age(Stream.TYPE_II) == age_pair(swapped).age(Stream.TYPE_I)

    def test_single_stream_invariant_to_other_params(self):
        rng = np.random.default_rng(9)
        base = None
        for _ in range(20):
            k2 = int(rng.integers(1, 11))
            d2 = ShiftedExp(float(rng.uniform(0.2, 5)), float(rng.uniform(0, 3)))
            s = Scenario(10, 3, k2, ShiftedExp(1, 1), d2, StreamMix(1.0))
            a = age_pair(s).age(Stream.TYPE_I)
            if base is None:
                base = a
            assert abs(a - base) <= 8 * math.ulp(base)


class TestAgeAtWillApprox:
    def test_single_stream_reduction_formula(self):
        a1 = 0.4
        d = ShiftedExp(1.0, 1.0)
        sa = ScenarioApprox(a1, 0.7, d, ShiftedExp(3, 2), StreamMix(1.0))
        got = age_pair(sa).age(Stream.TYPE_I)
        delta1 = 1 - math.log(1 - a1)
        want = (
            1 + 1 + (1 - a1) / a1 * math.log(1 - a1) + (2 - a1) * delta1 / (2 * a1)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_symmetry(self):
        d = ShiftedExp(1, 1)
        sa = ScenarioApprox(0.5, 0.5, d, d, StreamMix(0.5))
        assert age_pair(sa).age(Stream.TYPE_I) == age_pair(sa).age(Stream.TYPE_II)

    def test_matches_exact_at_large_n(self):
        d = ShiftedExp(1, 1)
        sa = ScenarioApprox(0.5, 0.5, d, d, StreamMix(0.5))
        s = Scenario(10_000, 5000, 5000, d, d, StreamMix(0.5))
        approx = age_pair(sa).age(Stream.TYPE_I)
        exact = age_pair(s).age(Stream.TYPE_I)
        assert abs(exact - approx) / exact < 0.01

    def test_scale_free_age(self):
        d1, d2 = ShiftedExp(1, 1), ShiftedExp(2, 0.5)
        ages = {}
        for n in (1000, 10_000):
            s = Scenario(n, n // 2, n // 2, d1, d2, StreamMix(0.6))
            ages[n] = [age_pair(s).age(t) for t in Stream]
        for a, b in zip(ages[1000], ages[10_000]):
            assert abs(a - b) / b < 0.01


class TestAgeExogenous:
    def test_single_node_anchor(self):
        s = Scenario(
            1, 1, 1, ShiftedExp(1, 0), ShiftedExp(1, 0), StreamMix(1.0), Exogenous(1.0)
        )
        assert age_pair(s).age(Stream.TYPE_I) == pytest.approx(2.5)

    def test_regression_constants(self):
        s = ref_scenario(Exogenous(2.0))
        assert age_pair(s).age(Stream.TYPE_I) == pytest.approx(
            REF_AGE_I_EXO_MU2, rel=1e-12
        )
        assert age_pair(s).age(Stream.TYPE_II) == pytest.approx(
            REF_AGE_II_EXO_MU2, rel=1e-12
        )

    def test_high_rate_limit_matches_atwill(self):
        s = ref_scenario(Exogenous(1e6))
        for t in (Stream.TYPE_I, Stream.TYPE_II):
            a = age_pair(s).age(t)
            b = age_pair(ref_scenario()).age(t)
            assert abs(a - b) / b < 1e-3

    def test_approx_high_rate_limit(self):
        d1, d2 = ShiftedExp(1, 1), ShiftedExp(2, 0.5)
        sa_exo = ScenarioApprox(0.4, 0.6, d1, d2, StreamMix(0.5), Exogenous(1e6))
        sa_aw = ScenarioApprox(0.4, 0.6, d1, d2, StreamMix(0.5))
        for t in (Stream.TYPE_I, Stream.TYPE_II):
            a = age_pair(sa_exo).age(t)
            b = age_pair(sa_aw).age(t)
            assert abs(a - b) / b < 1e-3

    def test_approx_single_stream_invariance(self):
        rng = np.random.default_rng(13)
        base = None
        for _ in range(20):
            a2 = float(rng.uniform(0.05, 0.95))
            d2 = ShiftedExp(float(rng.uniform(0.2, 5)), float(rng.uniform(0, 3)))
            sa = ScenarioApprox(0.4, a2, ShiftedExp(1, 1), d2, StreamMix(1.0),
                                Exogenous(2.0))
            a = age_pair(sa).age(Stream.TYPE_I)
            if base is None:
                base = a
            assert abs(a - base) <= 8 * math.ulp(base)

    def test_approx_matches_exact_at_large_n(self):
        d = ShiftedExp(1, 1)
        sa = ScenarioApprox(0.5, 0.5, d, d, StreamMix(0.5), Exogenous(2.0))
        s = Scenario(10_000, 5000, 5000, d, d, StreamMix(0.5), Exogenous(2.0))
        approx = age_pair(sa).age(Stream.TYPE_I)
        exact = age_pair(s).age(Stream.TYPE_I)
        assert abs(exact - approx) / exact < 0.01


class TestAgePair:
    def test_plain_floats(self):
        starved = Scenario(8, 4, 4, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0))
        approx = ScenarioApprox(0.3, 0.6, ShiftedExp(1, 1), ShiftedExp(2, 0.5),
                                StreamMix(0.4), Exogenous(2.0))
        for s in (ref_scenario(), starved, approx):
            pair = age_pair(s)
            assert type(pair.age_I) is float and type(pair.age_II) is float
            m = s_moments(s, Stream.TYPE_I)
            assert type(m.m1) is float and type(m.m2) is float
        assert age_pair(starved).age_II == math.inf

    def test_symmetric(self):
        d = ShiftedExp(1, 1)
        pair = age_pair(Scenario(8, 4, 4, d, d, StreamMix(0.5)))
        assert pair.age_I == pair.age_II

    def test_starved_signals_infinite(self):
        pair = age_pair(
            Scenario(8, 4, 4, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0))
        )
        assert pair.age_II == INFINITE_AGE
        assert isinstance(pair.age_I, float)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_in_every_entry(self):
        # E[M - 1] E[Y] ~ n E[Y] / (p1 k1) is finite, but its square overflows,
        # so age_I is inf.
        s = Scenario(20, 3, 5, ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(1e-300))
        with pytest.raises(ValueError, match=r"^age_I must be finite, got inf: "):
            age_pair(s)

    def test_approx_dispatch(self):
        sa = ScenarioApprox(
            0.3, 0.6, ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(0.4),
            Exogenous(2.0),
        )
        pair = age_pair(sa)
        assert (pair.age_I, pair.age_II) == grid_ages(sa, None, 0.3, 0.6)


class TestLargeNAccuracy:
    """Large-n ages against the paper's closed forms at 50 digits, at extreme
    shares, ratios, arrival rates and delay laws."""

    @staticmethod
    def closed_form(mp, sa, target):
        p, po = mp.mpf(sa.mix.prob(target)), mp.mpf(sa.mix.prob(other(target)))
        a, ao, d, d_o = mp.mpf(sa.alpha1), mp.mpf(sa.alpha2), sa.delay_I, sa.delay_II
        if target is Stream.TYPE_II:
            a, ao, d, d_o = ao, a, d_o, d
        dt = d.shift - mp.log1p(-a) / d.rate
        do = d_o.shift - mp.log1p(-ao) / d_o.rate
        base = d.shift + mp.mpf(1) / d.rate + (1 - a) / (a * d.rate) * mp.log1p(-a)
        if isinstance(sa.mode, AtWill):
            num = (2 - a) * p * p * dt * dt + 2 * p * po * (2 - a) * dt * do + po * (
                p * a + 2 * po) * do * do
            return base + num / (2 * p * a * (p * dt + po * do))
        mu = mp.mpf(sa.mode.mu)
        load = mu * p * dt + mu * po * do + 1
        num = (mu * p * p * (2 - a) * dt * dt + 2 * mu * p * po * (2 - a) * dt * do
               + mu * po * (2 * po + p * a) * do * do)
        tail = (2 * mu * po * do + mu * p * (2 - a) * dt + 1) / (mu * p * a * load)
        return base + num / (2 * p * a * load) + tail

    def test_relative_error_below_1e_14(self):
        mpmath = pytest.importorskip("mpmath")
        laws = [
            (ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5)),
            (ShiftedExp(100.0, 0.0), ShiftedExp(0.01, 0.0)),
            (ShiftedExp(0.01, 3.0), ShiftedExp(100.0, 0.5)),
        ]
        modes = [AtWill(), Exogenous(1e-3), Exogenous(2.0), Exogenous(1e6)]
        ratios = [1e-12, 0.3, 1 - 1e-12]
        worst = 0.0
        with mpmath.workdps(50):
            for p1 in (1e-9, 0.5, 1 - 1e-9, 1.0):
                for a1 in ratios:
                    for a2 in ratios:
                        for mode in modes:
                            for d1, d2 in laws:
                                sa = ScenarioApprox(a1, a2, d1, d2, StreamMix(p1), mode)
                                for t in Stream:
                                    if sa.mix.prob(t) <= 0:
                                        continue
                                    want = self.closed_form(mpmath, sa, t)
                                    err = float(abs(age_pair(sa).age(t) - want) / want)
                                    worst = max(worst, err)
        assert worst <= 1e-14


class TestExactKernelAccuracy:
    """Exact ages against the renewal formula at 60 digits, from n = 10^3 to
    2^63 - 1, k from 1 to n, extreme shares, arrival rates and delay rates."""

    @staticmethod
    def renewal(mp, s, target, law):
        """Age of the target stream from E[S] and E[S^2] expanded term by term.

        The receiver gets the target in a cycle with probability g = pq, so S
        spans M ~ Geometric(g) cycles: M idle gaps Z, M - 1 missed cycles Y
        and the delivering cycle X.
        """
        p1 = mp.mpf(s.mix.p1)
        p = p1 if target is Stream.TYPE_I else 1 - p1
        q, ex, ex2, delivered = law(s.delay(target), s.threshold(target), s.n)
        _, eo, eo2, _ = law(s.delay(other(target)), s.threshold(other(target)), s.n)
        g = p * q
        w_t, w_o = p * (1 - q) / (1 - g), (1 - p) / (1 - g)
        ey, ey2 = w_t * ex + w_o * eo, w_t * ex2 + w_o * eo2
        if isinstance(s.mode, AtWill):
            ez = ez2 = mp.mpf(0)
        else:
            ez, ez2 = 1 / mp.mpf(s.mode.mu), 2 / mp.mpf(s.mode.mu) ** 2
        em, em2 = 1 / g, (2 - g) / g**2
        em1, em1sq, emm1 = em - 1, em2 - 2 * em + 1, em2 - em
        es = em * ez + em1 * ey + ex
        es2 = (em * (ez2 - ez * ez) + em2 * ez * ez
               + em1 * (ey2 - ey * ey) + em1sq * ey * ey + ex2
               + 2 * emm1 * ez * ey + 2 * em * ez * ex + 2 * em1 * ey * ex)
        return delivered + es2 / (2 * es)

    @staticmethod
    def law(mp, d, k, n):
        """(q, E[X], E[X^2], mean delivered delay) of the k-th of n draws of d."""
        dh = mp.harmonic(n) - mp.harmonic(n - k)
        dg = mp.psi(1, n - k + 1) - mp.psi(1, n + 1)
        rate, shift = mp.mpf(d.rate), mp.mpf(d.shift)
        mean = shift + dh / rate
        # sum_{i<=k} (H_n - H_{n-i}) = k - (n - k) (H_n - H_{n-k})
        delivered = shift + (k - (n - k) * dh) / (k * rate)
        return mp.mpf(k) / n, mean, mean * mean + dg / rate**2, delivered

    def test_relative_error_below_1e_14(self):
        mpmath = pytest.importorskip("mpmath")
        laws = [
            (ShiftedExp(1e-3, 1.0), ShiftedExp(1e3, 0.5)),
            (ShiftedExp(1e3, 0.0), ShiftedExp(1e-3, 2.0)),
        ]
        modes = [AtWill(), Exogenous(1e-3), Exogenous(1e6)]
        worst = 0.0
        with mpmath.workdps(60):
            cache = {}

            def law(d, k, n):
                if (d, k, n) not in cache:
                    cache[d, k, n] = self.law(mpmath, d, k, n)
                return cache[d, k, n]

            for n in (10**3, 10**6, 10**12, 2**53 + 1, 2**63 - 1):
                ks = (1, 2, n // 3, n - 1, n)
                shares = (1e-9, 0.5, 1 - 1e-9)
                for k1, k2, p1, mode, (d1, d2) in itertools.product(ks, ks, shares, modes, laws):
                    s = Scenario(n, k1, k2, d1, d2, StreamMix(p1), mode)
                    pair = age_pair(s)
                    for t in Stream:
                        want = self.renewal(mpmath, s, t, law)
                        err = abs(mpmath.mpf(pair.age(t)) - want) / want
                        worst = max(worst, float(err))
        assert worst <= 1e-14

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(1e12)], ids=["atwill", "exo"])
    def test_near_starved_stream(self, mode):
        # With g = p1 k1 / n = 1e-154, E[M^2] ~ 2 / g^2 overflows, while
        # E[S^2] ~ 2 (n E[Y] / (p1 k1))^2 does not.
        mpmath = pytest.importorskip("mpmath")
        s = Scenario(20, 2, 1, ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(1e-153),
                     mode)
        pair = age_pair(s)
        with mpmath.workdps(60):
            for t in Stream:
                want = self.renewal(mpmath, s, t, lambda d, k, n: self.law(mpmath, d, k, n))
                assert abs(mpmath.mpf(pair.age(t)) - want) / want <= 1e-14


class TestExactToApproxConvergence:
    """The exact age at k = round(alpha n) approaches the large-n age at rate 1/n,
    measured where n is far too large for any per-receiver table."""

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["atwill", "exo"])
    def test_gap_shrinks_as_one_over_n(self, mode):
        d1, d2 = ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5)
        for p1, a1, a2 in ((0.3, 0.1, 0.9), (0.5, 0.3, 0.5), (0.8, 0.7, 0.2)):
            approx = age_pair(ScenarioApprox(a1, a2, d1, d2, StreamMix(p1), mode))
            scaled = []
            for n in (10**6, 10**9, 10**12):
                s = Scenario(n, round(a1 * n), round(a2 * n), d1, d2, StreamMix(p1), mode)
                exact = age_pair(s)
                gap = max(abs(exact.age(t) - approx.age(t)) / approx.age(t) for t in Stream)
                scaled.append(n * gap)
            # n * gap is the first-order coefficient; it must not drift with n
            assert 1e-3 < scaled[0] < 10
            assert scaled[1:] == pytest.approx([scaled[0]] * 2, rel=0.02), scaled

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["atwill", "exo"])
    def test_scaled_gap_holds_to_the_top_of_int64(self, mode):
        # Per stream, n (exact - large-n) / large-n with the large-n form at
        # k / n, so that rounding k does not enter: from n = 10^4 to 10^10 it
        # keeps its value at 10^6 to 1e-3 (at 10^12 rounding moves it by about
        # 2e-3, and nearer alpha = 0 or 1 the 1/n^2 term nears 1e-3 at 10^4).
        # Far above 2^53 the gap, about c / n, is below an ulp, so the two
        # forms, which share no harmonic sum, agree to 4 ulps.
        mix = StreamMix(0.6)
        rng = np.random.default_rng(6)
        pairs = [(0.5, 0.5), (0.01, 0.9), *rng.uniform(0.1, 0.9, (3, 2)).tolist()]

        def ages(n, a1, a2):
            k1, k2 = round(a1 * n), round(a2 * n)
            exact = age_pair(Scenario(n, k1, k2, REF["delay_I"], REF["delay_II"], mix, mode))
            approx = age_pair(ScenarioApprox(k1 / n, k2 / n, REF["delay_I"], REF["delay_II"],
                                             mix, mode))
            return [(exact.age(t), approx.age(t)) for t in Stream]

        for a1, a2 in pairs:
            scaled = {n: [n * (e - a) / a for e, a in ages(n, a1, a2)]
                      for n in (10**4, 10**6, 10**8, 10**10)}
            for n, got in scaled.items():
                assert got == pytest.approx(scaled[10**6], rel=1e-3), (a1, a2, n)
            for n in (2**53 + 2, 10**17, 2**63 - 1):
                for e, a in ages(n, a1, a2):
                    assert abs(e - a) <= 4 * math.ulp(a), (a1, a2, n)


# Shares, ratios and laws for the metamorphic properties; n reaches 10^12.
scenarios = st.builds(
    dict,
    n=st.integers(1, 10**12),
    u1=st.floats(0.0, 1.0),
    u2=st.floats(0.0, 1.0),
    p1=st.floats(0.01, 0.99),
    rate1=st.floats(0.1, 10.0),
    rate2=st.floats(0.1, 10.0),
    shift1=st.floats(0.0, 5.0),
    shift2=st.floats(0.0, 5.0),
    mu=st.none() | st.floats(0.01, 100.0),
)


def _scenario(x, c=1.0, swap=False):
    """Scenario from a drawn dict; c rescales time, swap exchanges the streams."""
    n = x["n"]
    k1, k2 = 1 + round(x["u1"] * (n - 1)), 1 + round(x["u2"] * (n - 1))
    d1 = ShiftedExp(x["rate1"] / c, x["shift1"] * c)
    d2 = ShiftedExp(x["rate2"] / c, x["shift2"] * c)
    mode = AtWill() if x["mu"] is None else Exogenous(x["mu"] / c)
    if swap:
        return Scenario(n, k2, k1, d2, d1, StreamMix(1.0 - x["p1"]), mode)
    return Scenario(n, k1, k2, d1, d2, StreamMix(x["p1"]), mode)


class TestMetamorphic:
    @given(x=scenarios, c=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_time_scaling(self, x, c):
        base, scaled = age_pair(_scenario(x)), age_pair(_scenario(x, c=c))
        assert scaled.age_I == pytest.approx(c * base.age_I, rel=1e-12)
        assert scaled.age_II == pytest.approx(c * base.age_II, rel=1e-12)

    @given(x=scenarios)
    @settings(max_examples=100, deadline=None)
    def test_relabelling(self, x):
        pair, swapped = age_pair(_scenario(x)), age_pair(_scenario(x, swap=True))
        assert swapped.age_I == pytest.approx(pair.age_II, rel=1e-12)
        assert swapped.age_II == pytest.approx(pair.age_I, rel=1e-12)

    @given(x=scenarios, u2=st.floats(0.0, 1.0), rate2=st.floats(0.1, 10.0),
           shift2=st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_sole_stream_ignores_the_other(self, x, u2, rate2, shift2):
        # With p1 = 1 every cycle carries stream I: k2 and delay_II weigh nothing.
        other = dict(x, u2=u2, rate2=rate2, shift2=shift2)
        a, b = (dataclasses.replace(_scenario(y), mix=StreamMix(1.0)) for y in (x, other))
        assert age_pair(a).age(Stream.TYPE_I) == age_pair(b).age(Stream.TYPE_I)

    @given(x=scenarios)
    @settings(max_examples=100, deadline=None)
    def test_age_at_least_delay_plus_half_interdelivery(self, x):
        # Jensen: E[S^2] / (2 E[S]) >= E[S] / 2.
        s = _scenario(x)
        for t in Stream:
            bound = os_moments(s.delay(t), s.threshold(t), s.n)[2] + s_moments(s, t).m1 / 2
            assert age_pair(s).age(t) >= bound * (1 - 1e-12)
