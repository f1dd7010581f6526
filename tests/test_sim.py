import math

import numpy as np
import pytest

from aoi_multicast.analytic import (
    INFINITE_AGE,
    AtWill,
    Exogenous,
    Scenario,
    Stream,
    StreamMix,
    age,
    s_moments,
)
from aoi_multicast.orderstats import ShiftedExp, os_mean
from aoi_multicast.sim import (
    SimConfig,
    empirical_cycle_gaps,
    empirical_delivery_probability,
    empirical_interarrival_moments,
    simulate,
)


def mixed_scenario(mode=AtWill()):
    return Scenario(
        10, 3, 5, ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(0.6), mode
    )


class TestConfig:
    def test_rejects_bad_config(self):
        s = mixed_scenario()
        with pytest.raises(ValueError):
            SimConfig(s, cycles=100, warmup_cycles=100)
        with pytest.raises(ValueError):
            SimConfig(s, replications=0)
        with pytest.raises(ValueError):
            SimConfig(s, warmup_cycles=-1)


class TestSimulate:
    def test_zero_wait_anchor(self):
        s = Scenario(1, 1, 1, ShiftedExp(1, 0), ShiftedExp(1, 0), StreamMix(1.0))
        res = simulate(SimConfig(s, cycles=200_000, seed=3, replications=10))
        assert abs(res.age_I_hat - 2.0) <= 3 * res.se_I
        assert res.age_II_hat == INFINITE_AGE

    def test_deterministic_under_seed(self):
        cfg = SimConfig(mixed_scenario(), cycles=20_000, seed=77, replications=3)
        assert simulate(cfg) == simulate(cfg)

    def test_matches_exact_atwill(self):
        s = mixed_scenario()
        res = simulate(SimConfig(s, cycles=200_000, seed=11, replications=10))
        for stream in Stream:
            exact = age(s, stream)
            tol = max(3 * res.se(stream), 0.01 * exact)
            assert abs(res.age(stream) - exact) <= tol

    def test_matches_exact_exogenous(self):
        s = mixed_scenario(Exogenous(2.0))
        res = simulate(SimConfig(s, cycles=200_000, seed=12, replications=10))
        for stream in Stream:
            exact = age(s, stream)
            tol = max(3 * res.se(stream), 0.01 * exact)
            assert abs(res.age(stream) - exact) <= tol

    def test_parallel_equals_serial(self):
        cfg = SimConfig(mixed_scenario(), cycles=20_000, seed=21, replications=4)
        assert simulate(cfg, threads=2) == simulate(cfg, threads=1)

    def test_tagged_index_irrelevant(self):
        s = mixed_scenario()
        a = simulate(SimConfig(s, cycles=100_000, seed=31, replications=8))
        b = simulate(
            SimConfig(s, cycles=100_000, seed=32, replications=8), tagged_index=7
        )
        joint = math.hypot(a.se_I, b.se_I)
        assert abs(a.age_I_hat - b.age_I_hat) <= 4 * joint

    def test_horizon_matches_mean_cycle_length(self):
        # at-will: no idle gaps, so horizon ~ cycles * E[Y]
        s = mixed_scenario()
        cfg = SimConfig(s, cycles=100_000, seed=41, replications=4)
        res = simulate(cfg)
        ey = 0.6 * os_mean(s.delay_I, 3, 10) + 0.4 * os_mean(s.delay_II, 5, 10)
        per_cycle = res.sim_time / (cfg.cycles * cfg.replications)
        assert per_cycle == pytest.approx(ey, rel=0.01)
        # exogenous adds E[Z] = 1/mu per cycle
        s2 = mixed_scenario(Exogenous(2.0))
        res2 = simulate(SimConfig(s2, cycles=100_000, seed=42, replications=4))
        per_cycle2 = res2.sim_time / (100_000 * 4)
        assert per_cycle2 == pytest.approx(ey + 0.5, rel=0.01)

    def test_age_never_below_shift(self):
        res = simulate(SimConfig(mixed_scenario(), cycles=50_000, seed=51))
        assert res.age_I_hat >= 1.0
        assert res.age_II_hat >= 0.5

    def test_too_few_cycles_errors(self):
        # p1 q1 = 0.003: 150 post-warmup cycles rarely deliver twice
        s = Scenario(100, 1, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(0.3))
        with pytest.raises(RuntimeError):
            simulate(SimConfig(s, cycles=160, seed=1, warmup_cycles=150,
                               replications=2))


class TestEmpiricalStatistics:
    def test_delivery_probability_full_threshold(self):
        s = Scenario(4, 4, 4, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(0.5))
        cfg = SimConfig(s, cycles=20_000, seed=61, replications=2)
        assert empirical_delivery_probability(cfg, Stream.TYPE_I) == 1.0

    def test_delivery_probability_three_of_ten(self):
        cfg = SimConfig(mixed_scenario(), cycles=200_000, seed=62, replications=5)
        p = empirical_delivery_probability(cfg, Stream.TYPE_I)
        n_cycles = 0.6 * 5 * 199_000  # rough count of type-I cycles
        se = math.sqrt(0.3 * 0.7 / n_cycles)
        assert abs(p - 0.3) <= 3 * se

    def test_delivery_probability_half(self):
        s = Scenario(2, 1, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(0.5))
        cfg = SimConfig(s, cycles=200_000, seed=63, replications=3)
        p = empirical_delivery_probability(cfg, Stream.TYPE_I)
        se = math.sqrt(0.25 / (0.5 * 3 * 199_000))
        assert abs(p - 0.5) <= 3 * se

    def test_interarrival_single_stream_full_threshold(self):
        s = Scenario(6, 6, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0))
        cfg = SimConfig(s, cycles=100_000, seed=64, replications=3)
        m = empirical_interarrival_moments(cfg, Stream.TYPE_I)
        expect = os_mean(ShiftedExp(1, 1), 6, 6)
        se = math.sqrt(m.var / (3 * 99_000))
        assert abs(m.m1 - expect) <= 3 * se

    def test_interarrival_symmetric_streams_agree(self):
        d = ShiftedExp(1, 1)
        s = Scenario(10, 4, 4, d, d, StreamMix(0.5))
        cfg = SimConfig(s, cycles=150_000, seed=65, replications=4)
        m1 = empirical_interarrival_moments(cfg, Stream.TYPE_I)
        m2 = empirical_interarrival_moments(cfg, Stream.TYPE_II)
        count = 0.5 * 0.4 * 0.5 * 4 * 149_000
        joint_se = math.sqrt((m1.var + m2.var) / count)
        assert abs(m1.m1 - m2.m1) <= 3 * joint_se

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_interarrival_matches_analytic(self, mode):
        s = mixed_scenario(mode)
        cfg = SimConfig(s, cycles=200_000, seed=66, replications=5)
        analytic = (
            s_moments(s, Stream.TYPE_I)
            if isinstance(mode, AtWill)
            else s_moments(s, Stream.TYPE_I)
        )
        m = empirical_interarrival_moments(cfg, Stream.TYPE_I)
        n_gaps = 0.18 * 5 * 199_000
        se1 = math.sqrt(m.var / n_gaps)
        assert abs(m.m1 - analytic.m1) <= 3 * se1
        assert abs(m.m2 - analytic.m2) / analytic.m2 < 0.03

    def test_cycle_gaps_look_geometric(self):
        cfg = SimConfig(mixed_scenario(), cycles=100_000, seed=67, replications=2)
        gaps = empirical_cycle_gaps(cfg, Stream.TYPE_I)
        assert np.all(gaps >= 1)
        # success probability p1 * k1 / n = 0.18
        assert gaps.mean() == pytest.approx(1 / 0.18, rel=0.02)
