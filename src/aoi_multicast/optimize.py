"""Weighted threshold selection and pareto frontiers for the two stream ages.

The weighted objective beta * age_I + (1 - beta) * age_II is minimized over
integer thresholds (exact evaluator) or threshold ratios (large-n
evaluator). Both searches evaluate the two age grids with the closed-form
kernel, take the first row-major argmin of the objective per beta and zoom
into the winning cell. Each axis's cycle moments are computed once per
grid, and the ages in blocks of whole rows. The first grid does not depend
on beta: it is searched in blocks of about _BLOCK_CELLS cells, each serving
all betas, so memory is O(block + axis + betas); a ratio grid has at most
_BLOCK_CELLS points per axis, so one row fits a block. Then each beta zooms
on its own. The integer search lists every (k1, k2) up to
n = EXHAUSTIVE_LIMIT; above that it starts from a 33-point grid per axis.
The ratio search refines its grid with REFINE_ROUNDS 33-point rounds around
the winning cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analytic import (
    AtWill,
    Mode,
    Scenario,
    ScenarioApprox,
    StarvedStreamError,
    StreamMix,
    _N_MAX,
    _check_integer,
    _cycles,
    _pair_ages,
    age_pair,
)
from .orderstats import ShiftedExp

__all__ = ["ScenarioTemplate", "ParetoPoint", "pareto_frontier"]

EXHAUSTIVE_LIMIT = 512
REFINE_ROUNDS = 2
# Cells per block of the first grid, which bounds the search's memory. On a
# 2-vCPU host the approx search of a 512^2 grid for 33 betas took a median
# 54 ms at 2^15 cells, 59 ms at 2^13, 64 ms at 2^16 and 86 ms as one block.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class ScenarioTemplate:
    """Scenario with the stopping thresholds left free for the optimizer."""

    delay_I: ShiftedExp
    delay_II: ShiftedExp
    mix: StreamMix
    mode: Mode = AtWill()
    n: int | None = None

    def __post_init__(self) -> None:
        if self.n is not None:
            object.__setattr__(self, "n", _check_integer("n", self.n, 1, _N_MAX))

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


def _first_argmins(template, n, x1, x2, betas):
    """Per beta, the (i1, i2) of np.argmin's pick on the grid x1 x x2, from
    blocks of whole rows: a block's pick replaces the running one only when
    it is smaller, or NaN where the running one is not. Each axis's cycle
    moments are computed once; a block takes a slice of the x1 ones.
    """
    rows = max(1, _BLOCK_CELLS // x2.size)
    c_I, c_II = _cycles(template, n, x1[:, None], x2[None, :])
    value, flat = [np.inf] * len(betas), [0] * len(betas)
    for r0 in range(0, x1.size, rows):
        ages = _pair_ages(template.mix, tuple(c[r0:r0 + rows] for c in c_I), c_II)
        for b, beta in enumerate(betas):
            obj = _weighted(*ages, beta)
            i = int(np.argmin(obj))
            v = obj.flat[i]
            if v < value[b] or (np.isnan(v) and not np.isnan(value[b])):
                value[b], flat[b] = v, r0 * x2.size + i
    return [divmod(f, x2.size) for f in flat]


def _search(template, n, axes, betas, zoom):
    """Best (x1, x2) per beta on the grid axes[0] x axes[1], zoomed while
    ``zoom(round, x1, x2, i1, i2)`` returns new axes.

    Thresholds are k with n receivers, or ratios alpha when n is None. Ties
    break to the first row-major argmin: the lexicographically smallest
    (x1, x2). The first grid is searched in blocks for all betas at once;
    then each beta zooms on its own.
    """
    best = []
    for beta, (i1, i2) in zip(betas, _first_argmins(template, n, *axes, betas)):
        x1, x2 = axes
        for round_idx in itertools.count():
            if (zoomed := zoom(round_idx, x1, x2, i1, i2)) is None:
                break
            x1, x2 = zoomed
            (i1, i2), = _first_argmins(template, n, x1, x2, [beta])
        best.append((x1[i1].item(), x2[i2].item()))
    return best


def _neighbours(xs, i):
    """The grid points on either side of xs[i], clipped to the grid."""
    return xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]


def _int_axis(lo, hi):
    """33 evenly spread integers of [lo, hi], fewer when they repeat: each is
    lo + (hi - lo) i / 32 rounded half to even in exact arithmetic, so the
    axis lists every integer of a narrow window at any n."""
    lo, hi = int(lo), int(hi)
    xs = range(32 * lo, 32 * hi + 1, hi - lo) if hi > lo else [32 * lo]  # each point times 32
    points = {q + (r > 16 or (r == 16 and q % 2)) for q, r in (divmod(x, 32) for x in xs)}
    # Deduplicated in Python: the first np.unique of a process imports
    # numpy.ma, which costs more than the whole n = 2048 search.
    return np.array(sorted(points), dtype=np.int64)


def _exact_zoom(round_idx, k1s, k2s, i1, i2):
    """Integer axes around the best cell, until both axes list every integer of their window."""
    if k1s[-1] - k1s[0] < k1s.size and k2s[-1] - k2s[0] < k2s.size:
        return None
    return _int_axis(*_neighbours(k1s, i1)), _int_axis(*_neighbours(k2s, i2))


def _approx_zoom(round_idx, a1s, a2s, i1, i2):
    """REFINE_ROUNDS rounds of 33 ratios between the best cell's neighbours."""
    if round_idx == REFINE_ROUNDS:
        return None
    return np.linspace(*_neighbours(a1s, i1), 33), np.linspace(*_neighbours(a2s, i2), 33)


def _point(scenario, beta, **thresholds) -> ParetoPoint:
    pair = age_pair(scenario)
    return ParetoPoint(
        beta=beta,
        age_I=pair.age_I,
        age_II=pair.age_II,
        objective=_weighted(pair.age_I, pair.age_II, beta),
        **thresholds,
    )


def _dominated(p: ParetoPoint, q: ParetoPoint) -> bool:
    """True when q is at least as good as p in both ages and better in one."""
    qi, qii, pi, pii = q.age_I, q.age_II, p.age_I, p.age_II
    return qi <= pi and qii <= pii and (qi < pi or qii < pii)


def pareto_frontier(
    template: ScenarioTemplate,
    betas,
    evaluator: str = "exact",
    grid: int | None = None,
) -> list[ParetoPoint]:
    """Minimize the beta-weighted age over thresholds (exact) or ratios
    (approx) for every beta, filtered to the non-dominated set.

    beta = 1 leaves age_II out of the objective, and beta = 0 leaves age_I
    out, so a starved stream with zero weight cannot poison the search.
    Integer ties break to the lexicographically smallest (k1, k2).

    Output is sorted by age_I ascending; duplicate optima (several betas
    landing on the same thresholds) are collapsed to one point. grid, the
    approx evaluator's ratio count per axis, lies in [1, 2^15] and defaults
    to 512; the exact evaluator takes none.
    """
    betas = [_check_beta(b) for b in betas]
    if not betas:
        raise ValueError("betas must be nonempty")
    for b in betas:
        _check_starved_objective(template.mix, b)
    if evaluator == "exact":
        if grid is not None:
            raise ValueError(f"grid is used only with evaluator 'approx', got {grid!r}")
        n = template.n
        if n is None:
            raise ValueError("exact evaluator needs n in the template")
        ks = np.arange(1, n + 1) if n <= EXHAUSTIVE_LIMIT else _int_axis(1, n)
        axes, zoom = (ks, ks), _exact_zoom
        build, names = template.with_thresholds, ("k1", "k2")
    elif evaluator == "approx":
        grid, n = _check_integer("grid", 512 if grid is None else grid, 1, _BLOCK_CELLS), None
        # Open-domain grid with endpoints 1/(G+1) and G/(G+1); refinement
        # zooms between two grid points, so it never leaves these bounds and
        # a corner optimum lands exactly on the minimal grid point.
        alphas = np.linspace(1.0 / (grid + 1), grid / (grid + 1), grid)
        axes, zoom = (alphas, alphas), _approx_zoom
        build, names = template.with_alphas, ("alpha1", "alpha2")
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    points = [_point(build(*x), beta, **dict(zip(names, x)))
              for beta, x in zip(betas, _search(template, n, axes, betas, zoom))]

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

