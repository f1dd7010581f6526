"""Acceptance suite: one test (and one printed PASS line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The oracle-grid criterion simulates 10^6 cycles x 10 replications
per scenario, about 2 s each whatever n is, since a simulated cycle costs
the same at every n.
"""

import csv
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from aoi_multicast.analytic import (
    AtWill,
    Exogenous,
    Scenario,
    ScenarioApprox,
    Stream,
    StreamMix,
    _cycles,
    age_pair,
)
from aoi_multicast.cli import main as cli_main
from aoi_multicast.optimize import ScenarioTemplate, _search, pareto_frontier
from aoi_multicast.orderstats import ShiftedExp
from aoi_multicast.sim import SimConfig, simulate
from oracles import grid_ages, replication_traces

DELAY_I = ShiftedExp(1.0, 1.0)
DELAY_II = ShiftedExp(2.0, 0.5)

_grid_runtime = {"total": 0.0}


def _oracle_grid():
    cases = []
    for n in (5, 20, 100):
        for mode in (AtWill(), Exogenous(2.0)):
            for k1, k2, p1 in ((1, 1, 0.5), (math.ceil(n / 3), math.ceil(n / 2), 0.6)):
                cases.append(Scenario(n, k1, k2, DELAY_I, DELAY_II, StreamMix(p1), mode))
    return cases


def _case_id(s):
    mode = "atwill" if isinstance(s.mode, AtWill) else "exo"
    return f"n{s.n}-{mode}-k{s.k1}.{s.k2}-p{s.mix.p1}"


def _report(line):
    print(f"[acceptance] {line}")


@pytest.mark.parametrize("scenario", _oracle_grid(), ids=_case_id)
def test_criterion_01_oracle_grid(scenario):
    """Simulated age agrees with the closed forms on the 12-scenario grid."""
    t0 = time.monotonic()
    cfg = SimConfig(scenario, cycles=1_000_000, seed=1001, replications=10)
    res = simulate(cfg)
    for stream in Stream:
        exact = age_pair(scenario).age(stream)
        err = abs(float(res.age(stream)) - exact)
        tol = max(0.01 * exact, 3 * res.se(stream))
        assert err <= tol, (
            f"{_case_id(scenario)} {stream}: sim={float(res.age(stream)):.5f} "
            f"exact={exact:.5f} err={err:.5f} tol={tol:.5f}"
        )
    _grid_runtime["total"] += time.monotonic() - t0
    _report(f"criterion 1 ({_case_id(scenario)}): PASS")


def test_criterion_01_runtime_budget():
    assert _grid_runtime["total"] <= 600.0, (
        f"oracle grid took {_grid_runtime['total']:.0f}s, budget is 600s"
    )
    _report(f"criterion 1 (runtime {_grid_runtime['total']:.0f}s <= 600s): PASS")


def test_criterion_02_single_node_anchor():
    s = Scenario(1, 1, 1, ShiftedExp(1, 0), ShiftedExp(1, 0), StreamMix(1.0))
    assert age_pair(s).age(Stream.TYPE_I) == 2.0
    res = simulate(SimConfig(s, cycles=1_000_000, seed=1042, replications=10))
    assert abs(res.age_I_hat - 2.0) <= 3 * res.se_I
    _report("criterion 2 (single-node zero-wait anchor 2.0): PASS")


def test_criterion_03_approximation_convergence():
    n = 10_000
    worst = 0.0
    for p1 in (0.3, 0.5, 0.8):
        for a1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            for a2 in (0.1, 0.3, 0.5, 0.7, 0.9):
                k1, k2 = round(a1 * n), round(a2 * n)
                for mode in (AtWill(), Exogenous(2.0)):
                    s = Scenario(n, k1, k2, DELAY_I, DELAY_II, StreamMix(p1), mode)
                    sa = ScenarioApprox(a1, a2, DELAY_I, DELAY_II, StreamMix(p1), mode)
                    for stream in Stream:
                        exact = age_pair(s).age(stream)
                        gap = abs(exact - age_pair(sa).age(stream)) / exact
                        worst = max(worst, gap)
                        assert gap <= 0.02
    _report(f"criterion 3 (approximation gap, worst {worst:.2e} <= 2%): PASS")


def test_criterion_04_lemma1_corners():
    # The approx search, on ratios k / lattice, with the weighted ratio held
    # at one point.
    tpl = ScenarioTemplate(ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(0.5), AtWill())
    grid = 128
    floor, lattice = 1 / (grid + 1), 256 * (grid + 1)
    axis = np.arange(256, lattice, 256)

    def cycles(k1, k2):
        return _cycles(tpl, None, k1 / lattice, k2 / lattice)

    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        held = np.array([round(a * lattice)])
        (_, k2, *_), = _search(cycles, tpl.mix, (held, axis), [1.0])
        assert k2 / lattice == pytest.approx(floor, abs=1e-15)
        (k1, *_), = _search(cycles, tpl.mix, (axis, held), [0.0])
        assert k1 / lattice == pytest.approx(floor, abs=1e-15)
    # Lemma 1 and its mirror: age_I grows with alpha2, and age_II with alpha1.
    grid = np.linspace(0.01, 0.99, 99)
    assert np.all(np.diff(grid_ages(tpl, None, 0.5, grid)[0]) > 0)
    assert np.all(np.diff(grid_ages(tpl, None, grid, 0.5)[1]) > 0)
    _report("criterion 4 (beta corner solutions + monotonicity): PASS")


def test_criterion_05_single_stream_reduction():
    rng = np.random.default_rng(1005)
    n, k1, a1 = 10, 3, 0.3
    refs = {}
    for _ in range(20):
        k2 = int(rng.integers(1, n + 1))
        a2 = float(rng.uniform(0.05, 0.95))
        d2 = ShiftedExp(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.0, 3.0)))
        evaluations = {
            "thm1": age_pair(Scenario(n, k1, k2, DELAY_I, d2, StreamMix(1.0))).age_I,
            "thm2": age_pair(
                Scenario(n, k1, k2, DELAY_I, d2, StreamMix(1.0), Exogenous(2.0))
            ).age_I,
            "corr1": age_pair(ScenarioApprox(a1, a2, DELAY_I, d2, StreamMix(1.0))).age_I,
            "corr2": age_pair(
                ScenarioApprox(a1, a2, DELAY_I, d2, StreamMix(1.0), Exogenous(2.0))
            ).age_I,
        }
        for name, value in evaluations.items():
            if name not in refs:
                refs[name] = value
            assert abs(value - refs[name]) <= 8 * math.ulp(refs[name]), name
    _report("criterion 5 (p1=1 invariance across 20 settings, 4 evaluators): PASS")


def test_criterion_06_scale_free_age():
    for mode in (AtWill(), Exogenous(2.0)):
        ages = {}
        for n in (1_000, 10_000):
            s = Scenario(n, n // 2, n // 2, DELAY_I, DELAY_II, StreamMix(0.6), mode)
            ages[n] = [age_pair(s).age(t) for t in Stream]
        for a, b in zip(ages[1_000], ages[10_000]):
            assert abs(a - b) / b < 0.01
    _report("criterion 6 (scale-free age at alpha = 0.5): PASS")


@pytest.mark.parametrize("mode_doc", [{"mode": "at_will"}, {"mode": "exogenous", "mu": 1.0}],
                         ids=["atwill", "exogenous"])
def test_criterion_07_pareto_reproduction(tmp_path, mode_doc):
    doc = {
        "n": 50,
        "delay_I": {"rate": 1.0, "shift": 1.0},
        "delay_II": {"rate": 1.0, "shift": 1.0},
        "p1": 0.5,
    }
    doc.update(mode_doc)
    scen = tmp_path / "template.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "pareto.csv"
    betas = ",".join(str(b) for b in np.linspace(0.0, 1.0, 33))
    rc = cli_main(["pareto", str(scen), "--betas", betas, "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["beta", "k1", "k2", "age_I", "age_II", "objective"]
    pts = [(float(r[3]), float(r[4]), float(r[0])) for r in rows[1:]]
    assert len(pts) >= 3
    # (a) fully non-dominated
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if i != j:
                assert not (
                    q[0] <= p[0] and q[1] <= p[1] and (q[0] < p[0] or q[1] < p[1])
                )
    # (b) set-level symmetry under coordinate swap
    def canon(v):
        return round(v / 1e-9) * 1e-9

    age_set = {(canon(a), canon(b)) for a, b, _ in pts}
    assert age_set == {(b, a) for a, b in age_set}
    # (c) the beta = 0.5 point sits on the diagonal
    mid = [p for p in pts if p[2] == 0.5]
    assert len(mid) == 1 and mid[0][0] == mid[0][1]
    _report(f"criterion 7 ({mode_doc['mode']} pareto frontier): PASS")


def test_criterion_08_exogenous_limit():
    for base in _oracle_grid():
        if isinstance(base.mode, Exogenous):
            continue
        fast = Scenario(
            base.n, base.k1, base.k2, base.delay_I, base.delay_II, base.mix,
            Exogenous(1e6),
        )
        for stream in Stream:
            aw = age_pair(base).age(stream)
            exo = age_pair(fast).age(stream)
            assert abs(exo - aw) / aw <= 1e-3
    _report("criterion 8 (mu = 1e6 exogenous matches at-will <= 0.1%): PASS")


def test_criterion_09_brute_force_optimality():
    for n, mode in ((20, AtWill()), (50, AtWill()), (30, Exogenous(2.0))):
        tpl = ScenarioTemplate(DELAY_I, DELAY_II, StreamMix(0.6), mode, n=n)
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            best = None
            for k1 in range(1, n + 1):
                for k2 in range(1, n + 1):
                    pair = age_pair(tpl.with_thresholds(k1, k2))
                    if beta == 1.0:
                        obj = float(pair.age_I)
                    elif beta == 0.0:
                        obj = float(pair.age_II)
                    else:
                        obj = beta * float(pair.age_I) + (1 - beta) * float(pair.age_II)
                    if best is None or obj < best[0]:
                        best = (obj, k1, k2)
            pt = pareto_frontier(tpl, [beta])[0]
            assert (pt.k1, pt.k2) == (best[1], best[2])
            assert pt.objective == best[0]
    _report("criterion 9 (optimizer matches exhaustive double loop): PASS")


def test_criterion_10_geometric_retry_statistic():
    s = Scenario(10, 3, 5, DELAY_I, DELAY_II, StreamMix(0.6))
    cfg = SimConfig(s, cycles=700_000, seed=1010, replications=1)
    (rep,) = replication_traces(cfg)
    gaps = np.diff(rep[Stream.TYPE_I].delivery_cycles)
    assert gaps.size >= 100_000
    p = 0.6 * 3 / 10
    # bin 1..K individually, pool the geometric tail so expected counts stay large
    k_max = 1
    while gaps.size * p * (1 - p) ** (k_max) > 50:
        k_max += 1
    observed = np.array(
        [np.count_nonzero(gaps == k) for k in range(1, k_max)]
        + [np.count_nonzero(gaps >= k_max)]
    )
    expected = np.array(
        [gaps.size * p * (1 - p) ** (k - 1) for k in range(1, k_max)]
        + [gaps.size * (1 - p) ** (k_max - 1)]
    )
    chi2, pvalue = stats.chisquare(observed, expected)
    assert pvalue >= 0.01, f"chi2={chi2:.1f}, p={pvalue:.4f}"
    _report(f"criterion 10 (geometric gaps chi-square p={pvalue:.3f} >= 0.01): PASS")
