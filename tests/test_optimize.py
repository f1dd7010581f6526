import math

import numpy as np
import pytest

from aoi_multicast.analytic import (
    AtWill,
    Exogenous,
    StarvedStreamError,
    Stream,
    StreamMix,
    age_pair,
)
from aoi_multicast.optimize import (
    ScenarioTemplate,
    lemma1_monotonicity_check,
    optimize,
    pareto_frontier,
)
from aoi_multicast.orderstats import ShiftedExp


def symmetric_template(n=30, mode=AtWill()):
    d = ShiftedExp(1.0, 1.0)
    return ScenarioTemplate(d, d, StreamMix(0.5), mode, n=n)


def asymmetric_template(n=25, mode=AtWill()):
    return ScenarioTemplate(
        ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(0.6), mode, n=n
    )


def brute_force(template, beta):
    """Independent exhaustive double loop over (k1, k2)."""
    best = None
    for k1 in range(1, template.n + 1):
        for k2 in range(1, template.n + 1):
            pair = age_pair(template.with_thresholds(k1, k2))
            if beta == 1.0:
                obj = float(pair.age_I)
            elif beta == 0.0:
                obj = float(pair.age_II)
            else:
                obj = beta * float(pair.age_I) + (1 - beta) * float(pair.age_II)
            if best is None or obj < best[0]:
                best = (obj, k1, k2)
    return best


class TestOptimizeExact:
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_matches_brute_force(self, beta, mode):
        tpl = asymmetric_template(n=12, mode=mode)
        obj, k1, k2 = brute_force(tpl, beta)
        pt = optimize(tpl, beta)
        assert (pt.k1, pt.k2) == (k1, k2)
        assert pt.objective == obj

    def test_symmetric_half_beta_on_diagonal(self):
        pt = optimize(symmetric_template(), 0.5)
        assert pt.k1 == pt.k2
        assert pt.age_I == pt.age_II

    def test_objective_validity(self):
        tpl = asymmetric_template()
        for beta in (0.1, 0.5, 0.9):
            pt = optimize(tpl, beta)
            pair = age_pair(tpl.with_thresholds(pt.k1, pt.k2))
            want = beta * float(pair.age_I) + (1 - beta) * float(pair.age_II)
            assert abs(pt.objective - want) <= 8 * math.ulp(want)

    def test_corner_beta_ignores_starved_stream(self):
        # p1 = 1 starves type II; beta = 1 must still optimize cleanly
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0), AtWill(), n=20
        )
        pt = optimize(tpl, 1.0)
        assert isinstance(float(pt.objective), float)
        assert math.isfinite(pt.objective)

    def test_starved_objective_rejected(self):
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0), AtWill(), n=20
        )
        with pytest.raises(StarvedStreamError):
            optimize(tpl, 0.5)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            optimize(symmetric_template(), 1.5)

    def test_coarse_to_fine_agrees_with_exhaustive(self):
        tpl = asymmetric_template(n=60)
        for beta in (0.3, 0.7):
            a = optimize(tpl, beta)
            b = optimize(tpl, beta)
            # force the multi-resolution path explicitly
            from aoi_multicast.optimize import _exact_coarse_to_fine

            k1, k2 = _exact_coarse_to_fine(tpl, beta)
            assert (k1, k2) == (a.k1, a.k2) == (b.k1, b.k2)


class TestSearchGrid:
    """Grid entries of the search equal scalar age_pair calls bit for bit."""

    @pytest.mark.parametrize("p1", [0.6, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_exact_grid_equals_scalar_calls(self, mode, p1):
        from aoi_multicast.analytic import _pair_ages

        n = 30
        tpl = ScenarioTemplate(
            ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1), mode, n=n
        )
        ks = np.arange(1, n + 1)
        age_I, age_II = _pair_ages(tpl, n, ks[:, None], ks[None, :])
        for k1 in range(1, n + 1):
            for k2 in range(1, n + 1):
                pair = age_pair(tpl.with_thresholds(k1, k2))
                assert age_I[k1 - 1, k2 - 1] == pair.age_I
                assert age_II[k1 - 1, k2 - 1] == pair.age_II

    @pytest.mark.parametrize("p1", [0.6, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_approx_grid_equals_scalar_calls(self, mode, p1):
        from aoi_multicast.analytic import _pair_ages

        tpl = ScenarioTemplate(
            ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1), mode
        )
        alphas = np.linspace(1 / 18, 17 / 18, 17)
        age_I, age_II = _pair_ages(tpl, None, alphas[:, None], alphas[None, :])
        for i, a1 in enumerate(alphas):
            for j, a2 in enumerate(alphas):
                pair = age_pair(tpl.with_alphas(float(a1), float(a2)))
                assert age_I[i, j] == pair.age_I
                assert age_II[i, j] == pair.age_II

    @pytest.mark.parametrize("evaluator", ["exact", "approx"])
    def test_points_hold_plain_floats(self, evaluator):
        for pt in pareto_frontier(asymmetric_template(), [0.0, 0.5, 1.0],
                                  evaluator=evaluator, grid=64):
            assert all(type(v) is float for v in (pt.beta, pt.age_I, pt.age_II, pt.objective))


class TestOptimizeApprox:
    def test_beta_one_selects_minimal_alpha2(self):
        tpl = symmetric_template()
        grid = 128
        pt = optimize(tpl, 1.0, evaluator="approx", grid=grid)
        assert pt.alpha2 == pytest.approx(1 / (grid + 1), abs=1e-15)

    def test_beta_zero_selects_minimal_alpha1(self):
        tpl = symmetric_template()
        grid = 128
        pt = optimize(tpl, 0.0, evaluator="approx", grid=grid)
        assert pt.alpha1 == pytest.approx(1 / (grid + 1), abs=1e-15)

    def test_symmetric_half_beta(self):
        pt = optimize(symmetric_template(), 0.5, evaluator="approx", grid=128)
        assert pt.alpha1 == pytest.approx(pt.alpha2, abs=1e-12)
        assert float(pt.age_I) == pytest.approx(float(pt.age_II), rel=1e-12)

    def test_fixed_alpha1(self):
        tpl = symmetric_template()
        pt = optimize(tpl, 1.0, evaluator="approx", grid=64, fixed_alpha1=0.37)
        assert pt.alpha1 == 0.37
        assert pt.alpha2 == pytest.approx(1 / 65, abs=1e-15)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one_rejected(self, grid):
        tpl = symmetric_template()
        with pytest.raises(ValueError, match="grid"):
            optimize(tpl, 0.5, evaluator="approx", grid=grid)
        with pytest.raises(ValueError, match="grid"):
            pareto_frontier(tpl, [0.2, 0.8], evaluator="approx", grid=grid)
        # one point per axis, at the middle of the open domain
        assert optimize(tpl, 0.5, evaluator="approx", grid=1).alpha1 == 0.5


class TestParetoFrontier:
    def test_single_beta_symmetric(self):
        pts = pareto_frontier(symmetric_template(), [0.5])
        assert len(pts) == 1
        assert pts[0].age_I == pts[0].age_II

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_non_dominated_and_sorted(self, mode):
        tpl = symmetric_template(mode=mode)
        betas = [i / 10 for i in range(1, 10)]
        pts = pareto_frontier(tpl, betas)
        ages = [(float(p.age_I), float(p.age_II)) for p in pts]
        assert ages == sorted(ages)
        for i, a in enumerate(ages):
            for j, b in enumerate(ages):
                if i != j:
                    assert not (
                        b[0] <= a[0] and b[1] <= a[1] and (b[0] < a[0] or b[1] < a[1])
                    )

    def test_symmetric_about_diagonal(self):
        tpl = symmetric_template()
        betas = [i / 10 for i in range(1, 10)]
        pts = pareto_frontier(tpl, betas)
        ages = {(round(float(p.age_I), 9), round(float(p.age_II), 9)) for p in pts}
        swapped = {(b, a) for a, b in ages}
        assert ages == swapped

    def test_empty_betas_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier(symmetric_template(), [])


class TestLemma1:
    def test_strictly_increasing(self):
        rep = lemma1_monotonicity_check(symmetric_template(), alpha1=0.5)
        assert rep.strictly_increasing
        assert rep.coefficient_condition
        assert rep.passed

    def test_asymmetric_laws(self):
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(0.8), AtWill()
        )
        rep = lemma1_monotonicity_check(tpl, alpha1=0.3)
        assert rep.passed

    def test_degenerate_single_stream(self):
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0), AtWill()
        )
        rep = lemma1_monotonicity_check(tpl, alpha1=0.5)
        assert rep.degenerate
        assert rep.passed  # constant in alpha2

    def test_monotone_values_match_direct_evaluation(self):
        from aoi_multicast.analytic import ScenarioApprox, age

        tpl = symmetric_template()
        rep = lemma1_monotonicity_check(tpl, alpha1=0.5)
        direct = [
            age(
                ScenarioApprox(0.5, a2, tpl.delay_I, tpl.delay_II, tpl.mix),
                Stream.TYPE_I,
            )
            for a2 in rep.alpha2_grid
        ]
        assert np.allclose(rep.ages, direct, rtol=0, atol=0)
