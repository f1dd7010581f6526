import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

import aoi_multicast.analytic as analytic_mod
import aoi_multicast.optimize as opt_mod
from aoi_multicast.analytic import (
    AtWill,
    Exogenous,
    StreamMix,
    _cycles,
    age_pair,
    pair_ages,
)
from aoi_multicast.optimize import ScenarioTemplate, pareto_frontier
from aoi_multicast.orderstats import ShiftedExp
from oracles import full_grid_argmins, grid_ages, int_axis

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
    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, 25.0])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ValueError, match="^n must be"):
            asymmetric_template(n=bad)

    def test_n_may_be_absent_or_integral(self):
        assert asymmetric_template(n=None).n is None
        assert type(asymmetric_template(n=np.int64(25)).n) is int


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
        with pytest.raises(ValueError,
                           match=r"^beta must be 1 when p1 = 1 starves type II, got 0\.5$"):
            pareto_frontier(tpl, [0.5])

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier(symmetric_template(), [1.5])

    @pytest.mark.parametrize("call,error,message", [
        (lambda t: pareto_frontier(dataclasses.replace(t, mix=StreamMix(0.0)), [0.5]),
         ValueError, r"^beta must be 0 when p1 = 0 starves type I, got 0\.5$"),
        (lambda t: pareto_frontier(dataclasses.replace(t, n=None), [0.5]),
         ValueError, "exact evaluator needs n"),
        (lambda t: pareto_frontier(t, [0.5], evaluator="bogus"),
         ValueError, "unknown evaluator 'bogus'"),
        (lambda t: dataclasses.replace(t, n=None).with_thresholds(1, 1),
         ValueError, "template needs n"),
        (lambda t: pareto_frontier(t, [True]), ValueError, "^beta must be a number, got bool$"),
        (lambda t: pareto_frontier(t, [None]), ValueError,
         "^beta must be a number, got NoneType$"),
        (lambda t: pareto_frontier(t, ["1"]), ValueError, "^beta must be a number, got str$"),
    ], ids=["type-I-starved", "exact-without-n", "unknown-evaluator", "thresholds-without-n",
            "beta-True", "beta-None", "beta-str"])
    def test_bad_call_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call(asymmetric_template())

    def test_coarse_to_fine_agrees_with_exhaustive(self):
        tpl, betas = asymmetric_template(n=60), [0.3, 0.7]
        cycles, ks = partial(_cycles, tpl, tpl.n), np.arange(1, tpl.n + 1)
        exhaustive = opt_mod._search(cycles, tpl.mix, (ks, ks), betas)
        # force the multi-resolution path explicitly
        ks = opt_mod._int_axis(1, tpl.n)
        assert opt_mod._search(cycles, tpl.mix, (ks, ks), betas) == exhaustive

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
            expect = np.rint(np.linspace(lo, hi, 33)).astype(np.int64)
            np.testing.assert_array_equal(opt_mod._int_axis(lo, hi), expect)

    def test_equals_scalar_reference(self):
        # The windows of all betas are built in one int64 pass; the reference
        # builds each in Python's unbounded integers.
        rng = np.random.default_rng(82)
        top = 2**63 - 1
        his = np.concatenate([rng.integers(1, top, 2000, endpoint=True),
                              rng.integers(1, 4096, 1000, endpoint=True), [top, top, 1]])
        widths = np.concatenate([rng.integers(0, his[:1000], endpoint=False),
                                 rng.integers(0, 2048, 1000), his[2000:3000] - 1, [1, 0, 0]])
        los = np.maximum(his - widths, 1)
        expect = np.array([int_axis(lo, hi) for lo, hi in zip(los.tolist(), his.tolist())])
        assert (los == his).any() and [top - 1, top] in np.stack([los, his], axis=1).tolist()
        np.testing.assert_array_equal(opt_mod._int_axis(los, his), expect)

    def test_top_of_int64(self):
        n = 2**63 - 1
        ks = opt_mod._int_axis(1, n)
        assert ks.dtype == np.int64 and ks.size == 33
        assert ks[0] == 1 and ks[-1] == n and np.all(np.diff(ks) > 0)

    def test_zoom_keeps_distinct_neighbours_of_a_complete_axis(self):
        # A complete k1 axis, with repeats, is zoomed again while the k2 axis
        # is still coarse; its window spans the distinct values on either
        # side of the best k1, the first copy of its value.
        k1s, k2s = opt_mod._int_axis(1, 5)[None], opt_mod._int_axis(1, 10**6)[None]
        for k in range(1, 6):
            i1 = np.flatnonzero(k1s[0] == k)[:1]
            new1, new2 = opt_mod._zoom(k1s, k2s, i1, np.array([16]))
            assert (new1[0, 0], new1[0, -1]) == (max(k - 1, 1), min(k + 1, 5)), k
            assert (new2[0, 0], new2[0, -1]) == (k2s[0, 15], k2s[0, 17])

    @pytest.mark.parametrize("n", [2**56, 2**63 - 1])
    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(0.5)], ids=["atwill", "exo"])
    def test_search_ends_above_float_precision(self, monkeypatch, n, mode):
        # Above 2^53 float64 cannot list every integer of a window, so a float
        # axis never narrowed to one integer per point and the zoom never ended.
        zoom, rounds = opt_mod._zoom, []

        def bounded_zoom(*cell):
            rounds.append(None)
            assert len(rounds) <= 64, "the zoom does not converge"
            return zoom(*cell)

        monkeypatch.setattr(opt_mod, "_zoom", bounded_zoom)
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


def full_grid_search(cycles, mix, axes, betas):
    """Reference search: per beta, the full grid's argmin of each grid
    (``full_grid_argmins``), zoomed as _search zooms."""
    best = []
    for beta in betas:
        x1, x2 = axes
        while True:
            (i1, i2), = full_grid_argmins(cycles, mix, x1, x2, [beta])
            zoomed = opt_mod._zoom(x1[None], x2[None], np.array([i1]), np.array([i2]))
            if zoomed is None:
                break
            x1, x2 = (x[0] for x in zoomed)
        best.append((x1[i1].item(), x2[i2].item()))
    return best


class TestBlocks:
    """The search, in kernel calls of any cell budget, finds the full grid's
    first row-major argmin on the first grid and in every zoom round."""

    BETAS = [0.0, 0.1, 0.5, 0.9, 1.0]

    @staticmethod
    def exact_axes(template, n):
        ks = np.arange(1, n + 1) if n <= opt_mod.EXACT_LIMIT else opt_mod._int_axis(1, n)
        return partial(_cycles, template, n), (ks, ks)

    @staticmethod
    def approx_axes(template, grid, alpha1=None, alpha2=None):
        """The approx search's lattice of ratios k / (256 (grid + 1)); a
        given ratio holds its axis at the nearest lattice point."""
        lattice = 256 * (grid + 1)
        ks = np.arange(256, lattice, 256)
        k1s = ks if alpha1 is None else np.array([round(alpha1 * lattice)])
        k2s = ks if alpha2 is None else np.array([round(alpha2 * lattice)])
        return (lambda k1, k2: _cycles(template, None, k1 / lattice, k2 / lattice)), (k1s, k2s)

    def check(self, monkeypatch, template, cycles, axes, betas):
        want = full_grid_search(cycles, template.mix, axes, betas)
        # One row interval per kernel call, with one segment per objective
        # chunk and one beta per zoom call; the default budget; and every
        # pending interval in one call, level by level, as every zoom grid.
        for cells in (1, opt_mod._CELLS, 1 << 62):
            monkeypatch.setattr(opt_mod, "_CELLS", cells)
            got = opt_mod._search(cycles, template.mix, axes, betas)
            assert [x[:2] for x in got] == want, cells

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["at_will", "exogenous"])
    def test_random_templates_match_full_grid(self, monkeypatch, mode):
        # A one-point axis makes one-cell row segments, or one row.
        rng = np.random.default_rng(808)

        def log_uniform(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

        for n in (3, 5, 7, 23, 600, 2048, 10**6, 10**8, 10**9, 10**12, 2**63 - 1):
            delays = [ShiftedExp(log_uniform(1e-1, 1e1), log_uniform(1e-2, 2.0))
                      for _ in range(2)]
            tpl = ScenarioTemplate(*delays, StreamMix(rng.uniform(0.05, 0.95)), mode, n=n)
            # Above EXACT_LIMIT the reference zooms each beta on its own.
            self.check(monkeypatch, tpl, *self.exact_axes(tpl, n), self.BETAS)
            if n > opt_mod.EXACT_LIMIT:
                continue
            grid = min(n, 512)
            self.check(monkeypatch, tpl, *self.approx_axes(tpl, grid), self.BETAS)
            self.check(monkeypatch, tpl, *self.approx_axes(tpl, grid, alpha2=0.4), self.BETAS)
            self.check(monkeypatch, tpl, *self.approx_axes(tpl, grid, alpha1=0.6), self.BETAS)

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["at_will", "exogenous"])
    def test_one_moment_pass_per_axis(self, monkeypatch, mode):
        # Each axis's order-statistic moments are computed once for the first
        # grid, however many levels its search takes, once for each zoom
        # round, and once for the cells found. The approx search zooms twice
        # from a grid of two or more ratios, down to every lattice point
        # between the neighbours of a best cell, and not at all from one.
        calls, rounds, os_moments, zoom = [], [], analytic_mod.os_moments, opt_mod._zoom

        def counting(*args):
            calls.append(args)
            return os_moments(*args)

        def counting_zoom(*cell):
            rounds.append(None)
            return zoom(*cell)

        monkeypatch.setattr(analytic_mod, "os_moments", counting)
        monkeypatch.setattr(opt_mod, "_zoom", counting_zoom)
        tpl = asymmetric_template(mode=mode)
        for (cycles, axes), want in ((self.exact_axes(tpl, 20), 0),
                                     (self.exact_axes(tpl, 10**6), None),
                                     (self.approx_axes(tpl, 1), 0),
                                     (self.approx_axes(tpl, 2), 2),
                                     (self.approx_axes(tpl, 64), 2)):
            calls.clear()
            rounds.clear()
            opt_mod._search(cycles, tpl.mix, axes, self.BETAS)
            zoomed = len(rounds) - 1  # the last zoom call returns None
            assert zoomed == want if want is not None else zoomed > 0, axes[0].size
            assert len(calls) == 2 * (1 + zoomed + 1), axes[0].size

    @pytest.mark.parametrize("p1,beta", [(1.0, 1.0), (0.0, 0.0)])
    def test_starved_stream_at_zero_weight(self, monkeypatch, p1, beta):
        # The weighted age does not depend on the starved stream's threshold,
        # so each row (p1 = 1) or each column (p1 = 0) ties; with p1 = 0 the
        # tied minima lie in different blocks.
        tpl = ScenarioTemplate(ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1),
                               Exogenous(2.0), n=20)
        self.check(monkeypatch, tpl, *self.exact_axes(tpl, 20), [beta])
        self.check(monkeypatch, tpl, *self.approx_axes(tpl, 20), [beta])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_cells_are_inf(self, monkeypatch):
        # At p1 = 1e-307 E[S^2] overflows on every cell, and E[S] with it for
        # the smallest k1, as E[M - 1] E[Y] ~ n E[Y] / (p1 k1): those cells are
        # inf, not inf / inf = NaN. A descending k1 axis puts them last.
        tpl = ScenarioTemplate(ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(1e-307),
                               AtWill(), n=20)
        ks = np.arange(1, 21)
        obj = 0.5 * sum(grid_ages(tpl, 20, ks[:, None], ks[None, :]))
        assert np.isinf(obj).all()
        self.check(monkeypatch, tpl, partial(_cycles, tpl, 20), (ks[::-1], ks), [0.5])
        # At alpha1 = 0.12 the large-n objective is inf at every alpha2, and
        # at the larger ones E[S] overflows with E[S^2].
        cycles, (k1s, _) = self.approx_axes(tpl, 20, alpha1=0.12)
        obj = 0.5 * sum(pair_ages(tpl.mix, *cycles(k1s, np.arange(1, 256 * 21))))
        assert np.isinf(obj).all()
        self.check(monkeypatch, tpl, *self.approx_axes(tpl, 20, alpha1=0.12), [0.5])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lo,hi", [(1e-310, 1e-300), (1e-158, 1e-150)],
                             ids=["inf_over_inf", "finite_and_inf"])
    def test_overflowing_templates_match_full_grid(self, monkeypatch, lo, hi):
        # Below about 1e-305 E[S] overflows with E[S^2] on some cells; near
        # 1e-154 only E[S^2] does, so some grids hold finite cells beside inf
        # ones.
        rng = np.random.default_rng(5)
        for _ in range(30):
            p1 = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            n = int(rng.choice([5, 20, 100, 600]))
            tpl = ScenarioTemplate(ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(p1),
                                   AtWill(), n=n)
            self.check(monkeypatch, tpl, *self.exact_axes(tpl, n), [0.1, 0.5, 0.9])
            self.check(monkeypatch, tpl, *self.approx_axes(tpl, min(n, 128)), [0.1, 0.5, 0.9])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_cycle_means_are_inf(self, monkeypatch):
        # At rate 1e308 with zero shifts at will, the mean of X_(k),
        # (H_n - H_{n-k}) / rate, underflows to 0 at small k, and where both
        # streams' do, E[S] = E[S^2] = 0: those cells are inf, not 0 / 0 = NaN.
        n = 2**63 - 1
        tpl = ScenarioTemplate(ShiftedExp(1e308), ShiftedExp(1e308), StreamMix(0.6), AtWill(),
                               n=n)
        cycles, (ks, _) = self.exact_axes(tpl, n)
        ages = pair_ages(tpl.mix, *cycles(ks[:, None], ks[None, :]))
        assert all(np.isinf(a[0, 0]) and not np.isnan(a).any() for a in ages)
        self.check(monkeypatch, tpl, cycles, (ks, ks), self.BETAS)

    def test_symmetric_ties(self, monkeypatch):
        # At beta = 0.5 the objective at (a, b) equals the one at (b, a).
        tpl = symmetric_template(n=16)
        ks = np.arange(1, 17)
        age_I, age_II = grid_ages(tpl, 16, ks[:, None], ks[None, :])
        obj = 0.5 * age_I + 0.5 * age_II
        assert np.array_equal(obj, obj.T)
        self.check(monkeypatch, tpl, *self.exact_axes(tpl, 16), [0.5])
        self.check(monkeypatch, tpl, *self.approx_axes(tpl, 16), [0.5])

    def test_memory_grows_with_grid_side_not_area(self):
        # A kernel call holds at most _CELLS cells, or one grid row, plus
        # O(betas * side) bookkeeping; a grid four times as wide has sixteen
        # times the cells, and a whole first grid would make the second peak
        # 16 times the first.
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

    def test_memory_does_not_grow_with_betas(self):
        # A kernel call holds at most _CELLS objective cells at any number of
        # betas. At grid 2048 three betas already fill calls, as their deeper
        # levels hold 3 x (2048 + intervals) cells, so 99 betas add only their
        # stack of column bounds.
        tpl = asymmetric_template(mode=Exogenous(2.0))
        pareto_frontier(tpl, [0.5], evaluator="approx", grid=64)  # one-time allocations
        peaks = []
        for betas in ([0.25, 0.5, 0.75], np.linspace(0.0, 1.0, 99)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                pareto_frontier(tpl, betas, evaluator="approx", grid=2048)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


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

    @pytest.mark.parametrize("grid", [0, -3, 32769, 2.5, True, 10.0])
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
        # On these ranges both ages are also submodular: the mixed second
        # difference is at most 0. Outside them it may not be
        # (test_submodularity_counterexample), so the row-minima search rests
        # only on row argmins that never decrease, which TestBlocks checks
        # against the full grid.
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

    def test_submodularity_counterexample(self):
        # Rates 4.7 decades apart and a rare stream I: age_II's mixed second
        # difference reaches +0.336 % of the age at (k1, k2) = (1, 60), and 20
        # of the grid's cells exceed 1e-12 of it, so the objective is not a
        # Monge array. Each beta's search still finds the full grid's argmin.
        n = 61
        tpl = ScenarioTemplate(ShiftedExp(0.010819784109084636), ShiftedExp(553.4379762509841),
                               StreamMix(0.023454501766234846), AtWill(), n=n)
        ks = np.arange(1, n + 1)
        age_II = grid_ages(tpl, n, ks[:, None], ks[None, :])[1]
        mixed = (age_II[1:, 1:] + age_II[:-1, :-1] - age_II[1:, :-1] - age_II[:-1, 1:]) / age_II[:-1, :-1]
        assert np.count_nonzero(mixed > 1e-12) == 20
        assert np.unravel_index(np.argmax(mixed), mixed.shape) == (0, 59)  # k1 = 1, k2 = 60
        assert mixed.max() == pytest.approx(3.36e-3, rel=1e-3)
        betas = [0.0, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6, 1.0]
        want = full_grid_argmins(partial(_cycles, tpl, n), tpl.mix, ks, ks, betas)
        for beta, (i1, i2) in zip(betas, want):
            point, = pareto_frontier(tpl, [beta])
            assert (point.k1, point.k2) == (ks[i1], ks[i2]), beta

    def test_row_minima_where_submodularity_fails(self):
        # Rates 2 to 8 decades apart, mostly zero shifts and p1 often near 0
        # or 1: here one template in ten is not submodular (60 of these 600
        # seeds), and the search must still find the full grid's argmin.
        betas = [0.0, 1e-6, 0.5, 1.0 - 1e-6, 1.0]
        violated = 0
        for s in range(600):
            rng = np.random.default_rng(50000 + s)

            def log_uniform(lo, hi):
                return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

            rates = [log_uniform(1e-4, 1e-1), log_uniform(1e1, 1e4)]
            rng.shuffle(rates)
            shifts = [0.0 if rng.uniform() < 0.7 else log_uniform(1e-6, 1e-2) for _ in range(2)]
            side = rng.integers(3)  # p1 near 0, near 1, or in [0.1, 0.9]
            p1 = rng.uniform(0.1, 0.9) if side == 2 else abs(side - log_uniform(1e-4, 0.1))
            mode = Exogenous(log_uniform(1e-2, 1e4)) if s % 2 else AtWill()
            n = int(rng.integers(2, 150))
            tpl = ScenarioTemplate(*map(ShiftedExp, rates, shifts), StreamMix(p1), mode, n=n)
            ks = np.arange(1, n + 1)
            cycles = partial(_cycles, tpl, n)
            age_I, age_II = grid_ages(tpl, n, ks[:, None], ks[None, :])
            violated += any(np.any(f[1:, 1:] + f[:-1, :-1] - f[1:, :-1] - f[:-1, 1:]
                                   > 1e-12 * f[:-1, :-1]) for f in (age_I, age_II))
            want = full_grid_argmins(cycles, tpl.mix, ks, ks, betas)
            got = opt_mod._search(cycles, tpl.mix, (ks, ks), betas)
            for beta, (i1, i2), (k1, k2, objective, *_) in zip(betas, want, got):
                if (k1, k2) != (ks[i1], ks[i2]):
                    # At beta = 1, age_I can be flat in k2 to an ulp or two, so
                    # a row's first argmin may fall by a rounding tie: there the
                    # objectives are compared, not the cells.
                    assert beta == 1.0 and objective == age_I.min(), (s, beta, tpl)
        assert violated == 60

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
