"""Weighted threshold selection and pareto frontiers for the two stream ages.

The weighted objective beta * age_I + (1 - beta) * age_II is minimized over
integer thresholds (exact evaluator) or threshold ratios (large-n
evaluator). Both searches evaluate the two age grids with one call of the
closed-form kernel, take the first row-major argmin of the objective per
beta and zoom into the winning cell. The first grid does not depend on
beta, so a pareto frontier evaluates it once for all betas. The integer
search lists every (k1, k2) up to n = EXHAUSTIVE_LIMIT; above that it
starts from a 33-point grid per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (
    AtWill,
    Mode,
    Scenario,
    ScenarioApprox,
    StarvedStreamError,
    StreamMix,
    _pair_ages,
    age_pair,
)
from .orderstats import ShiftedExp

__all__ = [
    "ScenarioTemplate",
    "ParetoPoint",
    "MonotonicityReport",
    "optimize",
    "pareto_frontier",
    "lemma1_monotonicity_check",
]

EXHAUSTIVE_LIMIT = 512


@dataclass(frozen=True)
class ScenarioTemplate:
    """Scenario with the stopping thresholds left free for the optimizer."""

    delay_I: ShiftedExp
    delay_II: ShiftedExp
    mix: StreamMix
    mode: Mode = AtWill()
    n: int | None = None

    def with_thresholds(self, k1: int, k2: int) -> Scenario:
        if self.n is None:
            raise ValueError("template needs n for integer thresholds")
        return Scenario(self.n, k1, k2, self.delay_I, self.delay_II, self.mix, self.mode)

    def with_alphas(self, alpha1: float, alpha2: float) -> ScenarioApprox:
        return ScenarioApprox(
            alpha1, alpha2, self.delay_I, self.delay_II, self.mix, self.mode
        )


@dataclass(frozen=True)
class ParetoPoint:
    beta: float
    age_I: float
    age_II: float
    objective: float
    k1: int | None = None
    k2: int | None = None
    alpha1: float | None = None
    alpha2: float | None = None


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the type-I-age-vs-alpha2 monotonicity check."""

    alpha1: float
    alpha2_grid: np.ndarray
    ages: np.ndarray
    strictly_increasing: bool
    coefficient_condition: bool
    degenerate: bool = False

    @property
    def passed(self) -> bool:
        if self.degenerate:
            # Single-stream case: the age must simply not depend on alpha2.
            return bool(np.ptp(self.ages) == 0.0)
        return self.strictly_increasing and self.coefficient_condition


def _check_beta(beta: float) -> float:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return float(beta)


def _check_starved_objective(mix: StreamMix, beta: float) -> None:
    if mix.p1 >= 1.0 and beta < 1.0:
        raise StarvedStreamError(
            "type II is starved (p1 = 1) but carries weight 1 - beta > 0"
        )
    if mix.p1 <= 0.0 and beta > 0.0:
        raise StarvedStreamError(
            "type I is starved (p1 = 0) but carries weight beta > 0"
        )


def _weighted(age_I, age_II, beta: float):
    """The objective, for ages or age grids; a zero-weight age is left out."""
    if beta == 1.0:
        return age_I
    if beta == 0.0:
        return age_II
    return beta * age_I + (1.0 - beta) * age_II


# -- grid search --------------------------------------------------------------


def _search(template, n, axes, betas, zoom):
    """Best (x1, x2) per beta on the grid axes[0] x axes[1], zoomed while
    ``zoom(round, x1, x2, i1, i2)`` returns new axes.

    Thresholds are k with n receivers, or ratios alpha when n is None. Ties
    break to the first row-major argmin: the lexicographically smallest
    (x1, x2). The first grid is evaluated once for all betas.
    """
    first = _pair_ages(template, n, axes[0][:, None], axes[1][None, :])
    best = []
    for beta in betas:
        (x1, x2), ages, round_idx = axes, first, 0
        while True:
            i1, i2 = divmod(int(np.argmin(_weighted(*ages, beta))), x2.size)
            zoomed = zoom(round_idx, x1, x2, i1, i2)
            if zoomed is None:
                break
            x1, x2 = zoomed
            ages = _pair_ages(template, n, x1[:, None], x2[None, :])
            round_idx += 1
        best.append((x1[i1].item(), x2[i2].item()))
    return best


def _neighbours(xs, i):
    """The grid points on either side of xs[i], clipped to the grid."""
    return xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]


def _int_axis(lo, hi):
    """33 evenly spread integers of [lo, hi], fewer when they repeat."""
    return np.unique(np.rint(np.linspace(lo, hi, 33)).astype(np.int64))


def _exact_zoom(round_idx, k1s, k2s, i1, i2):
    """Integer axes around the best cell, until both axes list every integer of their window."""
    if k1s[-1] - k1s[0] < k1s.size and k2s[-1] - k2s[0] < k2s.size:
        return None
    return _int_axis(*_neighbours(k1s, i1)), _int_axis(*_neighbours(k2s, i2))


def _exact_coarse_to_fine(template, beta):
    """Best (k1, k2) of the multi-resolution search used above EXHAUSTIVE_LIMIT."""
    ks = _int_axis(1, template.n)
    return _search(template, template.n, (ks, ks), [beta], _exact_zoom)[0]


def _approx_zoom(refine_rounds, lo, hi):
    """Zoom of the ratio search: refine_rounds 33-point rounds inside [lo, hi]."""

    def refine(xs, i):
        if xs.size == 1:
            return xs
        w_lo, w_hi = _neighbours(xs, i)
        return np.linspace(max(w_lo, lo), min(w_hi, hi), 33)

    def zoom(round_idx, a1s, a2s, i1, i2):
        if round_idx == refine_rounds:
            return None
        return refine(a1s, i1), refine(a2s, i2)

    return zoom


def _point(scenario, beta, **thresholds) -> ParetoPoint:
    pair = age_pair(scenario)
    return ParetoPoint(
        beta=beta,
        age_I=pair.age_I,
        age_II=pair.age_II,
        objective=_weighted(pair.age_I, pair.age_II, beta),
        **thresholds,
    )


def _optimize_all(
    template, betas, evaluator="exact", grid=512, refine_rounds=2,
    fixed_alpha1=None, fixed_alpha2=None,
):
    """One ParetoPoint per (already checked) beta."""
    if evaluator == "exact":
        n = template.n
        if n is None:
            raise ValueError("exact evaluator needs n in the template")
        ks = np.arange(1, n + 1) if n <= EXHAUSTIVE_LIMIT else _int_axis(1, n)
        best = _search(template, n, (ks, ks), betas, _exact_zoom)
        return [
            _point(template.with_thresholds(k1, k2), beta, k1=k1, k2=k2)
            for beta, (k1, k2) in zip(betas, best)
        ]
    if evaluator == "approx":
        if grid < 1:
            raise ValueError(f"grid must be >= 1, got {grid}")
        # Open-domain grid with endpoints 1/(G+1) and G/(G+1); refinement
        # zooms into the winning cell but never leaves these bounds, so a
        # corner optimum lands exactly on the minimal grid point.
        lo = 1.0 / (grid + 1)
        hi = grid / (grid + 1)
        a1s = np.array([fixed_alpha1]) if fixed_alpha1 is not None else np.linspace(lo, hi, grid)
        a2s = np.array([fixed_alpha2]) if fixed_alpha2 is not None else np.linspace(lo, hi, grid)
        best = _search(template, None, (a1s, a2s), betas, _approx_zoom(refine_rounds, lo, hi))
        return [
            _point(template.with_alphas(a1, a2), beta, alpha1=a1, alpha2=a2)
            for beta, (a1, a2) in zip(betas, best)
        ]
    raise ValueError(f"unknown evaluator {evaluator!r}")


def optimize(
    template: ScenarioTemplate,
    beta: float,
    evaluator: str = "exact",
    grid: int = 512,
    refine_rounds: int = 2,
    fixed_alpha1: float | None = None,
    fixed_alpha2: float | None = None,
) -> ParetoPoint:
    """Minimize the beta-weighted age over thresholds (exact) or ratios (approx).

    beta = 1 excludes age_II from the objective entirely (and symmetrically
    for beta = 0), so a starved unweighted stream cannot poison the search.
    Integer ties break to the lexicographically smallest (k1, k2).
    """
    beta = _check_beta(beta)
    _check_starved_objective(template.mix, beta)
    return _optimize_all(
        template, [beta], evaluator, grid, refine_rounds, fixed_alpha1, fixed_alpha2
    )[0]


def _dominated(p: ParetoPoint, q: ParetoPoint) -> bool:
    """True when q is at least as good as p in both ages and better in one."""
    qi, qii, pi, pii = q.age_I, q.age_II, p.age_I, p.age_II
    return qi <= pi and qii <= pii and (qi < pi or qii < pii)


def pareto_frontier(
    template: ScenarioTemplate,
    betas,
    evaluator: str = "exact",
    **kwargs,
) -> list[ParetoPoint]:
    """optimize() for every beta, filtered to the non-dominated set.

    Output is sorted by age_I ascending; duplicate optima (several betas
    landing on the same thresholds) are collapsed to one point.
    """
    betas = [_check_beta(b) for b in betas]
    if not betas:
        raise ValueError("betas must be nonempty")
    for b in betas:
        _check_starved_objective(template.mix, b)
    points = _optimize_all(template, betas, evaluator, **kwargs)

    seen = set()
    unique = []
    for p in points:
        key = (p.k1, p.k2, p.alpha1, p.alpha2)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    frontier = [
        p for p in unique if not any(q is not p and _dominated(p, q) for q in unique)
    ]
    return sorted(frontier, key=lambda p: p.age_I)


def lemma1_monotonicity_check(
    template: ScenarioTemplate,
    alpha1: float = 0.5,
    alpha2_grid=None,
) -> MonotonicityReport:
    """Verify that the large-n type-I age grows strictly with alpha2.

    With alpha1 fixed, the at-will age takes the form
    c1 + (c2 d1^2 + c3 d1 d2 + c4 d2^2) / (c5 d1 + c6 d2), which increases
    in d2 whenever c2 c6 < c3 c5; the coefficient inequality is checked
    numerically alongside the grid sweep. With p1 = 1 the age is constant
    in alpha2 (degenerate case).
    """
    if alpha2_grid is None:
        alpha2_grid = np.linspace(0.01, 0.99, 99)
    alpha2_grid = np.asarray(alpha2_grid, dtype=float)
    p1, p2 = template.mix.p1, template.mix.p2
    if p1 <= 0.0:
        raise StarvedStreamError("type I is starved (p1 = 0)")

    ages = _pair_ages(template, None, alpha1, alpha2_grid)[0]
    degenerate = p2 <= 0.0
    c2 = (2.0 - alpha1) * p1 * p1
    c3 = 2.0 * p1 * p2 * (2.0 - alpha1)
    c5 = 2.0 * p1 * alpha1 * p1
    c6 = 2.0 * p1 * alpha1 * p2
    return MonotonicityReport(
        alpha1=alpha1,
        alpha2_grid=alpha2_grid,
        ages=ages,
        strictly_increasing=bool(np.all(np.diff(ages) > 0.0)),
        coefficient_condition=bool(c2 * c6 < c3 * c5),
        degenerate=degenerate,
    )
