import math
import tracemalloc

import numpy as np
import pytest

import aoi_multicast.analytic as analytic_mod
import aoi_multicast.optimize as opt_mod
from aoi_multicast.analytic import (
    AtWill,
    Exogenous,
    StarvedStreamError,
    StreamMix,
    _cycles,
    age_pair,
    pair_ages,
)
from aoi_multicast.optimize import ScenarioTemplate, pareto_frontier
from aoi_multicast.orderstats import ShiftedExp
from oracles import full_grid_argmins, grid_ages

# The ratio axis of the Lemma 1 checks.
ALPHAS = np.linspace(0.01, 0.99, 99)


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


class TestScenarioTemplate:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ValueError, match="^n must be"):
            asymmetric_template(n=bad)

    def test_n_may_be_absent_or_integral(self):
        assert asymmetric_template(n=None).n is None
        assert type(asymmetric_template(n=25.0).n) is int


class TestOptimizeExact:
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_matches_brute_force(self, beta, mode):
        tpl = asymmetric_template(n=12, mode=mode)
        obj, k1, k2 = brute_force(tpl, beta)
        pt = pareto_frontier(tpl, [beta])[0]
        assert (pt.k1, pt.k2) == (k1, k2)
        assert pt.objective == obj

    def test_symmetric_half_beta_on_diagonal(self):
        pt = pareto_frontier(symmetric_template(), [0.5])[0]
        assert pt.k1 == pt.k2
        assert pt.age_I == pt.age_II

    def test_objective_validity(self):
        tpl = asymmetric_template()
        for beta in (0.1, 0.5, 0.9):
            pt = pareto_frontier(tpl, [beta])[0]
            pair = age_pair(tpl.with_thresholds(pt.k1, pt.k2))
            want = beta * float(pair.age_I) + (1 - beta) * float(pair.age_II)
            assert abs(pt.objective - want) <= 8 * math.ulp(want)

    def test_corner_beta_ignores_starved_stream(self):
        # p1 = 1 starves type II; beta = 1 must still optimize cleanly
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0), AtWill(), n=20
        )
        pt = pareto_frontier(tpl, [1.0])[0]
        assert isinstance(float(pt.objective), float)
        assert math.isfinite(pt.objective)

    def test_starved_objective_rejected(self):
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0), AtWill(), n=20
        )
        with pytest.raises(StarvedStreamError):
            pareto_frontier(tpl, [0.5])

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier(symmetric_template(), [1.5])

    def test_coarse_to_fine_agrees_with_exhaustive(self):
        tpl, betas = asymmetric_template(n=60), [0.3, 0.7]
        ks = np.arange(1, tpl.n + 1)
        exhaustive = opt_mod._search(tpl, tpl.n, (ks, ks), betas, opt_mod._exact_zoom)
        # force the multi-resolution path explicitly
        ks = opt_mod._int_axis(1, tpl.n)
        assert opt_mod._search(tpl, tpl.n, (ks, ks), betas, opt_mod._exact_zoom) == exhaustive

    def test_coarse_to_fine_pinned_at_2048(self):
        # The benchmark's pareto_c2f rows. n = 2048 is below EXACT_LIMIT, so
        # these are the full grid's optima, which coarse-to-fine also found.
        points = pareto_frontier(asymmetric_template(n=2048), [0.25, 0.5, 0.75])
        assert [(p.beta, p.k1, p.k2) for p in points] == [
            (0.75, 1406, 1553), (0.5, 1181, 1731), (0.25, 889, 1825)]


class TestIntegerAxis:
    """The coarse-to-fine axes are built in integer arithmetic at every n."""

    def test_equals_rounded_linspace_below_2_to_40(self):
        rng = np.random.default_rng(81)
        his = np.concatenate([rng.integers(1, 2**40, 500, endpoint=True),
                              rng.integers(1, 4096, 500, endpoint=True), [2**40]])
        for hi in his.tolist():
            lo = int(rng.integers(1, hi, endpoint=True))
            expect = np.unique(np.rint(np.linspace(lo, hi, 33)).astype(np.int64))
            np.testing.assert_array_equal(opt_mod._int_axis(lo, hi), expect)

    def test_top_of_int64(self):
        n = 2**63 - 1
        ks = opt_mod._int_axis(1, n)
        assert ks.dtype == np.int64 and ks.size == 33
        assert ks[0] == 1 and ks[-1] == n and np.all(np.diff(ks) > 0)

    @pytest.mark.parametrize("n", [2**56, 2**63 - 1])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(0.5)], ids=["atwill", "exo"])
    def test_search_ends_above_float_precision(self, monkeypatch, n, mode):
        # Above 2^53 float64 cannot list every integer of a window, so a float
        # axis never narrowed to one integer per point and the zoom never ended.
        zoom = opt_mod._exact_zoom

        def bounded_zoom(round_idx, *cell):
            assert round_idx < 64, "the zoom does not converge"
            return zoom(round_idx, *cell)

        monkeypatch.setattr(opt_mod, "_exact_zoom", bounded_zoom)
        tpl = asymmetric_template(n=n, mode=mode)
        points = pareto_frontier(tpl, [0.0, 0.5, 1.0])
        for p in points:
            assert 1 <= p.k1 <= n and 1 <= p.k2 <= n
            assert math.isfinite(p.objective)
        # The large-n optimum sets the threshold ratios.
        approx = pareto_frontier(tpl, [0.5], evaluator="approx")[0]
        mid = pareto_frontier(tpl, [0.5])[0]
        assert mid.k1 / n == pytest.approx(approx.alpha1, abs=0.01)
        assert mid.k2 / n == pytest.approx(approx.alpha2, abs=0.01)


class TestSearchGrid:
    """Grid entries of the search equal scalar age_pair calls bit for bit."""

    @pytest.mark.parametrize("p1", [0.6, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_exact_grid_equals_scalar_calls(self, mode, p1):
        n = 30
        tpl = ScenarioTemplate(
            ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1), mode, n=n
        )
        ks = np.arange(1, n + 1)
        age_I, age_II = grid_ages(tpl, n, ks[:, None], ks[None, :])
        for k1 in range(1, n + 1):
            for k2 in range(1, n + 1):
                pair = age_pair(tpl.with_thresholds(k1, k2))
                assert age_I[k1 - 1, k2 - 1] == pair.age_I
                assert age_II[k1 - 1, k2 - 1] == pair.age_II

    @pytest.mark.parametrize("p1", [0.6, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_approx_grid_equals_scalar_calls(self, mode, p1):
        tpl = ScenarioTemplate(
            ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1), mode
        )
        alphas = np.linspace(1 / 18, 17 / 18, 17)
        age_I, age_II = grid_ages(tpl, None, alphas[:, None], alphas[None, :])
        for i, a1 in enumerate(alphas):
            for j, a2 in enumerate(alphas):
                pair = age_pair(tpl.with_alphas(float(a1), float(a2)))
                assert age_I[i, j] == pair.age_I
                assert age_II[i, j] == pair.age_II

    @pytest.mark.parametrize("p1", [0.6, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    @pytest.mark.parametrize("n,xs", [(30, np.arange(1, 31)),
                                      (None, np.linspace(1 / 18, 17 / 18, 17))],
                             ids=["exact", "approx"])
    def test_sliced_cycles_equal_full_grid(self, mode, p1, n, xs):
        # The search gives each row block a slice of the x1 axis's cycles;
        # the large-n variance must have the axis's shape to be sliced.
        tpl = ScenarioTemplate(
            ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1), mode, n=n
        )
        c_I, c_II = _cycles(tpl, n, xs[:, None], xs[None, :])
        full = pair_ages(tpl.mix, c_I, c_II)
        for r0 in range(0, xs.size, 7):
            rows = pair_ages(tpl.mix, tuple(c[r0:r0 + 7] for c in c_I), c_II)
            for got, want in zip(rows, full):
                assert got.shape == want[r0:r0 + 7].shape
                assert (got == want[r0:r0 + 7]).all()

    @pytest.mark.parametrize("p1", [0.6, 1.0])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    @pytest.mark.parametrize("n,xs", [(30, np.arange(1, 31)),
                                      (None, np.linspace(1 / 18, 17 / 18, 17))],
                             ids=["exact", "approx"])
    def test_gathered_cycles_equal_full_grid(self, mode, p1, n, xs):
        # The row-minima search gathers its cells from (4, points) tables of
        # each axis's cycles, in any order and with repeats.
        tpl = ScenarioTemplate(
            ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1), mode, n=n
        )
        full = pair_ages(tpl.mix, *_cycles(tpl, n, xs[:, None], xs[None, :]))
        tables = [np.stack(np.broadcast_arrays(*c)).reshape(4, -1)
                  for c in _cycles(tpl, n, xs[None], xs[None])]
        i, j = np.random.default_rng(5).integers(xs.size, size=(2, 200))
        got = pair_ages(tpl.mix, tables[0].take(i, axis=1), tables[1].take(j, axis=1))
        for g, want in zip(got, full):
            assert (g == want[i, j]).all()

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    @pytest.mark.parametrize("evaluator", ["exact", "approx"])
    def test_point_ages_equal_scalar_calls(self, mode, evaluator):
        # The points take their ages from the search's last kernel call.
        tpl = asymmetric_template(mode=mode)
        for pt in pareto_frontier(tpl, np.linspace(0.0, 1.0, 9), evaluator=evaluator):
            s = (tpl.with_alphas(pt.alpha1, pt.alpha2) if evaluator == "approx"
                 else tpl.with_thresholds(pt.k1, pt.k2))
            pair = age_pair(s)
            assert (pt.age_I, pt.age_II) == (pair.age_I, pair.age_II)

    @pytest.mark.parametrize("evaluator", ["exact", "approx"])
    def test_points_hold_plain_floats(self, evaluator):
        grid = 64 if evaluator == "approx" else None
        for pt in pareto_frontier(asymmetric_template(), [0.0, 0.5, 1.0],
                                  evaluator=evaluator, grid=grid):
            assert all(type(v) is float for v in (pt.beta, pt.age_I, pt.age_II, pt.objective))


def full_grid_search(template, n, axes, betas, zoom):
    """Reference search: per beta, the full grid's argmin of each grid
    (``full_grid_argmins``), zoomed as _search zooms."""
    best = []
    for beta in betas:
        (x1, x2), round_idx = axes, 0
        while True:
            (i1, i2), = full_grid_argmins(template, n, x1, x2, [beta])
            zoomed = zoom(round_idx, x1[None], x2[None], np.array([i1]), np.array([i2]))
            if zoomed is None:
                break
            x1, x2 = (x[0] for x in zoomed)
            round_idx += 1
        best.append((x1[i1].item(), x2[i2].item()))
    return best


class TestBlocks:
    """The row-minima search, for all betas at once or in groups, finds the
    full grid's first row-major argmin."""

    BETAS = [0.0, 0.1, 0.5, 0.9, 1.0]

    @staticmethod
    def exact_axes(n):
        ks = np.arange(1, n + 1) if n <= opt_mod.EXACT_LIMIT else opt_mod._int_axis(1, n)
        return n, (ks, ks), opt_mod._exact_zoom

    @staticmethod
    def approx_axes(grid, alpha1=None, alpha2=None):
        """The approx grid; a given ratio holds its axis at one point."""
        alphas = np.linspace(1 / (grid + 1), grid / (grid + 1), grid)
        a1s = alphas if alpha1 is None else np.array([alpha1])
        a2s = alphas if alpha2 is None else np.array([alpha2])
        return None, (a1s, a2s), opt_mod._approx_zoom

    def check(self, monkeypatch, template, n, axes, zoom, betas):
        want = full_grid_search(template, n, axes, betas, zoom)
        # Groups of one beta, of two, and of every beta.
        for per_group in (1, 2, len(betas)):
            monkeypatch.setattr(opt_mod, "_GROUP_CELLS", per_group * (axes[0].size + axes[1].size))
            got = opt_mod._search(template, n, axes, betas, zoom)
            assert [x[:2] for x in got] == want, per_group

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["at_will", "exogenous"])
    def test_random_templates_match_full_grid(self, monkeypatch, mode):
        # A one-point axis makes one-cell row segments, or one row.
        rng = np.random.default_rng(808)

        def log_uniform(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

        for n in (3, 5, 7, 23, 600, 2048, 10**6):
            delays = [ShiftedExp(log_uniform(1e-1, 1e1), log_uniform(1e-2, 2.0))
                      for _ in range(2)]
            tpl = ScenarioTemplate(*delays, StreamMix(rng.uniform(0.05, 0.95)), mode, n=n)
            # Above EXACT_LIMIT the reference zooms each beta on its own.
            self.check(monkeypatch, tpl, *self.exact_axes(n), self.BETAS)
            if n > opt_mod.EXACT_LIMIT:
                continue
            grid = min(n, 512)
            self.check(monkeypatch, tpl, *self.approx_axes(grid), self.BETAS)
            self.check(monkeypatch, tpl, *self.approx_axes(grid, alpha2=0.4), self.BETAS)
            self.check(monkeypatch, tpl, *self.approx_axes(grid, alpha1=0.6), self.BETAS)

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["at_will", "exogenous"])
    def test_one_moment_pass_per_axis(self, monkeypatch, mode):
        # Each axis's order-statistic moments are computed once per grid,
        # however many levels and kernel calls the search of the grid takes.
        calls, os_moments = [], analytic_mod.os_moments

        def counting(*args):
            calls.append(args)
            return os_moments(*args)

        monkeypatch.setattr(analytic_mod, "os_moments", counting)
        tpl = asymmetric_template(n=20, mode=mode)
        for n, (x1, x2), _ in (self.exact_axes(20), self.approx_axes(64)):
            calls.clear()
            opt_mod._row_minima(tpl, n, x1[None], x2[None], np.array(self.BETAS))
            assert len(calls) == 2, n

    @pytest.mark.parametrize("p1,beta", [(1.0, 1.0), (0.0, 0.0)])
    def test_starved_stream_at_zero_weight(self, monkeypatch, p1, beta):
        # The weighted age does not depend on the starved stream's threshold,
        # so each row (p1 = 1) or each column (p1 = 0) ties; with p1 = 0 the
        # tied minima lie in different blocks.
        tpl = ScenarioTemplate(ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1),
                               Exogenous(2.0), n=20)
        self.check(monkeypatch, tpl, *self.exact_axes(20), [beta])
        self.check(monkeypatch, tpl, *self.approx_axes(20), [beta])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_cells_win_as_in_argmin(self, monkeypatch):
        # At p1 = 1e-307, E[M - 1] E[Y] ~ n E[Y] / (p1 k1) overflows for the
        # smallest k1, whose objective is inf / inf = NaN; a descending k1
        # axis puts them in the last blocks.
        tpl = ScenarioTemplate(ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(1e-307),
                               AtWill(), n=20)
        ks = np.arange(1, 21)
        age_I, age_II = grid_ages(tpl, 20, ks[:, None], ks[None, :])
        nan = np.isnan(0.5 * age_I + 0.5 * age_II)
        assert nan.any() and not nan.all()
        self.check(monkeypatch, tpl, 20, (ks[::-1], ks), opt_mod._exact_zoom, [0.5])

    def test_symmetric_ties(self, monkeypatch):
        # At beta = 0.5 the objective at (a, b) equals the one at (b, a).
        tpl = symmetric_template(n=16)
        ks = np.arange(1, 17)
        age_I, age_II = grid_ages(tpl, 16, ks[:, None], ks[None, :])
        obj = 0.5 * age_I + 0.5 * age_II
        assert np.array_equal(obj, obj.T)
        self.check(monkeypatch, tpl, *self.exact_axes(16), [0.5])
        self.check(monkeypatch, tpl, *self.approx_axes(16), [0.5])

    def test_memory_grows_with_grid_side_not_area(self):
        # A level of the search holds O(betas * side) cells and bookkeeping;
        # a grid four times as wide has sixteen times the cells, and a whole
        # first grid would make the second peak 16 times the first.
        tpl = asymmetric_template(mode=Exogenous(2.0))
        betas = [0.25, 0.5, 0.75]
        pareto_frontier(tpl, betas, evaluator="approx", grid=64)  # one-time allocations
        peaks = []
        for grid in (1024, 4096):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                pareto_frontier(tpl, betas, evaluator="approx", grid=grid)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 6 * peaks[0], peaks


class TestOptimizeApprox:
    def test_beta_one_selects_minimal_alpha2(self):
        tpl = symmetric_template()
        grid = 128
        pt = pareto_frontier(tpl, [1.0], evaluator="approx", grid=grid)[0]
        assert pt.alpha2 == pytest.approx(1 / (grid + 1), abs=1e-15)

    def test_beta_zero_selects_minimal_alpha1(self):
        tpl = symmetric_template()
        grid = 128
        pt = pareto_frontier(tpl, [0.0], evaluator="approx", grid=grid)[0]
        assert pt.alpha1 == pytest.approx(1 / (grid + 1), abs=1e-15)

    def test_symmetric_half_beta(self):
        pt = pareto_frontier(symmetric_template(), [0.5], evaluator="approx", grid=128)[0]
        assert pt.alpha1 == pytest.approx(pt.alpha2, abs=1e-12)
        assert float(pt.age_I) == pytest.approx(float(pt.age_II), rel=1e-12)

    @pytest.mark.parametrize("grid", [0, -3, 32769, 2.5, True])
    def test_grid_below_one_rejected(self, grid):
        tpl = symmetric_template()
        with pytest.raises(ValueError, match="grid"):
            pareto_frontier(tpl, [0.5], evaluator="approx", grid=grid)
        with pytest.raises(ValueError, match="grid"):
            pareto_frontier(tpl, [0.2, 0.8], evaluator="approx", grid=grid)
        # one point per axis, at the middle of the open domain
        assert pareto_frontier(tpl, [0.5], evaluator="approx", grid=1)[0].alpha1 == 0.5


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
        ages = grid_ages(symmetric_template(), None, 0.5, ALPHAS)[0]
        assert np.all(np.diff(ages) > 0)

    def test_random_templates(self):
        # Asymmetric laws over decades of rate, shift and mu, half exogenous:
        # age_I grows with alpha2 at fixed alpha1, and age_II with alpha1 at
        # fixed alpha2.
        rng = np.random.default_rng(1101)

        def log_uniform(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

        for i in range(40):
            delays = [ShiftedExp(log_uniform(1e-2, 1e2), log_uniform(1e-3, 10.0))
                      for _ in range(2)]
            mode = Exogenous(log_uniform(1e-2, 1e2)) if i % 2 else AtWill()
            tpl = ScenarioTemplate(*delays, StreamMix(rng.uniform(0.02, 0.98)), mode)
            a = rng.uniform(0.05, 0.95)
            assert np.all(np.diff(grid_ages(tpl, None, a, ALPHAS)[0]) > 0), tpl
            assert np.all(np.diff(grid_ages(tpl, None, ALPHAS, a)[1]) > 0), tpl

    def test_exact_grids_random_templates(self):
        # Lemma 1 at finite n: age_I never decreases in k2, nor age_II in k1
        # (proved in the docstring of analytic._renewal).
        # Both ages are submodular: the mixed second difference is at most 0,
        # so by Topkis' theorem each row's first argmin of any beta-weighted
        # objective is non-decreasing in k1.
        for seed in range(60):
            rng = np.random.default_rng(seed)

            def log_uniform(lo, hi):
                return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

            delays = [ShiftedExp(log_uniform(1e-2, 1e2), log_uniform(1e-3, 10.0))
                      for _ in range(2)]
            mode = Exogenous(log_uniform(1e-2, 1e2)) if seed % 2 else AtWill()
            n = int(rng.integers(2, 161))
            tpl = ScenarioTemplate(*delays, StreamMix(rng.uniform(0.02, 0.98)), mode, n=n)
            ks = np.arange(1, n + 1)
            age_I, age_II = grid_ages(tpl, n, ks[:, None], ks[None, :])
            assert np.all(np.diff(age_I, axis=1) >= -1e-13 * age_I[:, :-1]), tpl
            assert np.all(np.diff(age_II, axis=0) >= -1e-13 * age_II[:-1]), tpl
            for f in (age_I, age_II):
                mixed = f[1:, 1:] + f[:-1, :-1] - f[1:, :-1] - f[:-1, 1:]
                assert np.all(mixed <= 1e-13 * f[:-1, :-1]), tpl

    def test_asymmetric_laws(self):
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(0.8), AtWill()
        )
        assert np.all(np.diff(grid_ages(tpl, None, 0.3, ALPHAS)[0]) > 0)

    def test_degenerate_single_stream(self):
        # With p1 = 1 the type-I age does not depend on alpha2.
        tpl = ScenarioTemplate(
            ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0), AtWill()
        )
        assert np.ptp(grid_ages(tpl, None, 0.5, ALPHAS)[0]) == 0
