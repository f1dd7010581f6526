"""Weighted threshold selection and pareto frontiers for the two stream ages.

The weighted objective beta * age_I + (1 - beta) * age_II is minimized over
integer thresholds (exact evaluator) or threshold ratios (large-n
evaluator). Both ages are submodular, as TestLemma1 checks, so on a
threshold grid each objective is a Monge array: on the first grid, a
divide-and-conquer search for its row minima finds the first row-major
argmin from O(side log side) cells per beta. Each level of that search
makes one kernel call for a group of betas, on cells gathered from each
axis's cycle moments, which are computed once per grid. The integer search
lists every k up to n = EXACT_LIMIT and is then exact; above that it starts
from 33 integers per axis and zooms into each beta's winning cell, which
may miss the optimum. The ratio search refines its grid with REFINE_ROUNDS
rounds of 33 ratios around each winning cell. A zoom round scores the
33 x 33 grids of a group of betas whole, in one kernel call, so its argmin
holds where rounding breaks the Monge property, at n above about 10^8.
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
    _check_ages,
    _cycles,
    pair_ages,
)
from .orderstats import ShiftedExp, _check_integer, _check_number

__all__ = ["ScenarioTemplate", "ParetoPoint", "pareto_frontier"]

# Largest n of the exact search: there, on 2 vCPUs, one beta takes about
# 0.08 s and the default 33 betas about 3 s.
EXACT_LIMIT = 1 << 15
# Largest approx grid side: there 33 betas take about 2 s.
GRID_LIMIT = 1 << 15
REFINE_ROUNDS = 2
# Betas searched together times the larger of the first grid's rows plus
# columns and a zoom grid's cells, which bounds the cells of one search
# level or zoom round and so the search's memory.
_GROUP_CELLS = 1 << 16


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
    beta = _check_number("beta", beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


def _check_starved_objective(mix: StreamMix, beta: float) -> None:
    if mix.p1 >= 1.0 and beta < 1.0:
        raise StarvedStreamError(
            "type II is starved (p1 = 1) but carries weight 1 - beta > 0"
        )
    if mix.p1 <= 0.0 and beta > 0.0:
        raise StarvedStreamError(
            "type I is starved (p1 = 0) but carries weight beta > 0"
        )


# -- grid search --------------------------------------------------------------


def _objective(beta, age_I, age_II):
    """The beta-weighted age, broadcast; a zero-weight age is left out."""
    return np.where(beta == 1.0, age_I,
                    np.where(beta == 0.0, age_II, beta * age_I + (1.0 - beta) * age_II))


def _segment_minima(mix, tables, weights, own, other, lengths):
    """Per segment s, the least objective at weight weights[s] over lengths[s]
    cells and its first position, a NaN winning as in np.argmin. Segment s
    pairs column own[s] of tables[0] with lengths[s] consecutive columns of
    tables[1] from other[s]; a zero-weight age is left out.

    Betas searching one grid ask for overlapping segments of the same rows,
    so the kernel runs once on each run of overlapping segments.
    """
    stride = tables[1].shape[1] + 1  # a gap after each row keeps runs in one row
    first = own * stride + other  # each segment's first cell, row-major
    order = np.argsort(first, kind="stable")
    first, size, weights = first[order], lengths[order], weights[order]
    reach = np.maximum.accumulate(first + size)
    new = np.concatenate(([True], first[1:] > reach[:-1]))  # past every earlier end
    runs = np.flatnonzero(new)
    run_size = reach[np.append(runs[1:], first.size) - 1] - first[runs]
    cell0, seg0 = np.cumsum(run_size) - run_size, np.cumsum(size) - size
    cells = np.repeat(first[runs] - cell0, run_size) + np.arange(cell0[-1] + run_size[-1])
    ages = pair_ages(mix, tables[0].take(cells // stride, axis=1),
                      tables[1].take(cells % stride, axis=1))
    lag = (cell0 - first[runs])[np.cumsum(new) - 1] + first - seg0  # kernel cell - objective cell
    idx = np.repeat(lag, size) + np.arange(seg0[-1] + size[-1])
    obj = _objective(np.repeat(weights, size), ages[0].take(idx), ages[1].take(idx))
    low = np.minimum.reduceat(obj, seg0)
    hits = np.flatnonzero((obj == np.repeat(low, size)) | np.isnan(obj))
    out = np.empty_like(low), np.empty_like(seg0)
    out[0][order], out[1][order] = low, hits[np.searchsorted(hits, seg0)] - seg0
    return out


def _row_minima(template, n, x1, x2, betas):
    """Per beta, the first row-major argmin (i1, i2) of its objective on the
    grid x1 x x2.

    Each row's first argmin never decreases down the rows, so each level
    takes the middle row of every row interval over the interval's columns
    and splits the interval at that row's argmin (Aggarwal, Klawe, Moran,
    Shor & Wilber, Algorithmica 2, 1987). The kernel cells of a level are
    gathered from (4, points) tables of each axis's cycles.
    """
    rows, cols, b = x1.size, x2.size, np.arange(betas.size)
    tables = [np.stack(c) for c in _cycles(template, n, x1, x2)]
    low, arg = np.empty((b.size, rows)), np.empty((b.size, rows), np.int64)
    r0, r1, c0, c1 = np.zeros_like(b), np.full_like(b, rows), np.zeros_like(b), np.full_like(b, cols - 1)
    while b.size:  # the row intervals [r0, r1) of betas b, on columns c0..c1
        mid = (r0 + r1) // 2
        low[b, mid], at = _segment_minima(template.mix, tables, betas[b], mid, c0, c1 - c0 + 1)
        col = arg[b, mid] = c0 + at
        b, r0, r1, c0, c1 = (np.concatenate(x) for x in
                             ((b, b), (r0, mid + 1), (mid, r1), (c0, col), (col, c1)))
        b, r0, r1, c0, c1 = (x[r0 < r1] for x in (b, r0, r1, c0, c1))
    i1 = np.argmin(low, axis=1)  # the first row whose minimum is least, or NaN
    return i1, arg[np.arange(betas.size), i1]


def _search(template, n, axes, betas, zoom):
    """Per beta, (x1, x2, objective, age_I, age_II) at the best cell of the
    grid axes[0] x axes[1], zoomed while ``zoom(round, x1s, x2s, i1, i2)``
    returns new axes, one row of 33 points per beta.

    ``_row_minima`` searches the first grid, which all betas share; each
    zoom round is scored whole, the grids of all betas in one kernel call.
    Thresholds are k with n receivers, or ratios alpha when n is None. Ties
    break to the first row-major argmin: the lexicographically smallest
    (x1, x2). A NaN cell wins as in np.argmin in a zoom round, and on the
    first grid wherever the search evaluates it. Overflow in the kernel
    gives inf or NaN cells, not warnings.
    """
    betas, best = np.array(betas, dtype=float), []
    step = max(1, _GROUP_CELLS // max(axes[0].size + axes[1].size, 33 * 33))
    for group in np.split(betas, range(step, betas.size, step)):
        b = np.arange(group.size)
        x1, x2 = (np.broadcast_to(x, (group.size, x.size)) for x in axes)
        with np.errstate(all="ignore"):
            i1, i2 = _row_minima(template, n, *axes, group)
            for round_idx in itertools.count():
                if (zoomed := zoom(round_idx, x1, x2, i1, i2)) is None:
                    break
                x1, x2 = zoomed
                ages = pair_ages(template.mix, *_cycles(template, n, x1[:, :, None], x2[:, None]))
                obj = _objective(group[:, None, None], *ages).reshape(group.size, -1)
                i1, i2 = np.divmod(np.argmin(obj, axis=1), x2.shape[1])
            x1, x2 = x1[b, i1], x2[b, i2]
            ages = pair_ages(template.mix, *_cycles(template, n, x1, x2))
            best += zip(x1.tolist(), x2.tolist(), _objective(group, *ages).tolist(),
                        *(a.tolist() for a in ages))
    return best


def _neighbours(xs, i):
    """Per beta, the grid points on either side of xs[b, i[b]], clipped to
    the grid: the point before it and the point after its copies. A best
    cell is the first copy of its value, so on an integer axis with repeats
    both are the neighbouring distinct values."""
    b = np.arange(i.size)
    after = i + (xs == xs[b, i][:, None]).sum(axis=1)
    return xs[b, np.maximum(i - 1, 0)], xs[b, np.minimum(after, xs.shape[1] - 1)]


def _int_axis(lo, hi):
    """The 33 integers lo + (hi - lo) i / 32, each rounded half to even in
    exact arithmetic, so that the axis lists every integer of a narrow
    window at any n."""
    lo, hi = int(lo), int(hi)
    xs = (divmod(32 * lo + (hi - lo) * i, 32) for i in range(33))
    return np.array([q + (r > 16 or (r == 16 and q % 2)) for q, r in xs], dtype=np.int64)


def _exact_zoom(round_idx, k1s, k2s, i1, i2):
    """Integer axes between the distinct values on either side of each
    beta's best cell, until every axis lists every integer of its window."""
    if all((ks[:, -1] - ks[:, 0] <= np.count_nonzero(np.diff(ks), axis=1)).all()
           for ks in (k1s, k2s)):
        return None
    return tuple(np.array([_int_axis(lo, hi) for lo, hi in zip(*_neighbours(ks, i))])
                 for ks, i in ((k1s, i1), (k2s, i2)))


def _approx_zoom(round_idx, a1s, a2s, i1, i2):
    """REFINE_ROUNDS rounds of 33 ratios between each best cell's neighbours."""
    if round_idx == REFINE_ROUNDS:
        return None
    return tuple(np.linspace(*_neighbours(xs, i), 33, axis=1) for xs, i in ((a1s, i1), (a2s, i2)))


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

    The exact evaluator finds the optimum for n up to EXACT_LIMIT; above it
    the search is coarse-to-fine and may miss it. grid, the approx
    evaluator's ratio count per axis, lies in [1, GRID_LIMIT] and defaults
    to 512; the exact evaluator takes none. A point's ages are the search's
    kernel cells, equal to age_pair's bit for bit, and a non-finite age of a
    stream with nonzero share raises ValueError.

    Output is sorted by age_I ascending; duplicate optima (several betas
    landing on the same thresholds) are collapsed to one point.
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
        ks = np.arange(1, n + 1) if n <= EXACT_LIMIT else _int_axis(1, n)
        axes, zoom, names = (ks, ks), _exact_zoom, ("k1", "k2")
    elif evaluator == "approx":
        grid, n = _check_integer("grid", 512 if grid is None else grid, 1, GRID_LIMIT), None
        # Open-domain grid with endpoints 1/(G+1) and G/(G+1); refinement
        # zooms between two grid points, so it never leaves these bounds and
        # a corner optimum lands exactly on the minimal grid point.
        alphas = np.linspace(1.0 / (grid + 1), grid / (grid + 1), grid)
        axes, zoom, names = (alphas, alphas), _approx_zoom, ("alpha1", "alpha2")
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    unique = {}  # the first point of each optimum
    for beta, (x1, x2, objective, age_I, age_II) in zip(
            betas, _search(template, n, axes, betas, zoom)):
        _check_ages(template.mix, (age_I, age_II))
        unique.setdefault((x1, x2), ParetoPoint(beta, age_I, age_II, objective,
                                                **dict(zip(names, (x1, x2)))))
    # p is dominated when some q is at least as good in both ages and better in one
    q = np.array([(p.age_I, p.age_II) for p in unique.values()])
    p = q[:, None]
    dominated = ((q <= p).all(axis=2) & (q < p).any(axis=2)).any(axis=1)
    return sorted(itertools.compress(unique.values(), ~dominated), key=lambda p: p.age_I)
