"""Weighted threshold selection and pareto frontiers for the two stream ages.

The weighted objective beta * age_I + (1 - beta) * age_II is minimized over
integer thresholds k: of n receivers (exact evaluator), or of a virtual
n = 256 (grid + 1) in the large-n ages at alpha = k / n (approx evaluator).
On the first grid, a divide-and-conquer search for the row minima, which
needs the rows' first argmins to never decrease, finds the first row-major
argmin from O(side log side) cells per beta. The ages are not submodular
everywhere (TestLemma1 pins a case), so that need is unproved; tests check
the search against the full grid. One zoom rule follows: 33 integers between
the distinct neighbours of each beta's best cell, until every axis lists
every integer of its window. The exact first grid lists every k up to
EXACT_LIMIT, or 33 integers, which may miss the optimum; the approx one,
j / (grid + 1), ends in two rounds at a resolution of 1 / (256 (grid + 1)).
A zoom round scores each grid whole, so its argmin holds where rounding
breaks monotone argmins, at n above about 10^8.
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
    _check_ages,
    _check_fields,
    _cycles,
    pair_ages,
)
from .orderstats import _N_MAX, ShiftedExp, _check_integer, _check_number, _check_range

__all__ = ["ScenarioTemplate", "ParetoPoint", "pareto_frontier"]

# Largest n of the exact search: there, on 2 vCPUs, one beta takes about
# 0.1 s and the default 33 betas 1.2-2.2 s.
EXACT_LIMIT = 1 << 15
# Largest approx grid side: there 33 betas take about 1.8 s.
GRID_LIMIT = 1 << 15
# Objective cells of one kernel call of the search, at any number of betas.
# Only one grid row, of at most 2^15 cells, or one zoom grid may go over it.
_CELLS = 1 << 13


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
        _check_fields(self)

    def with_thresholds(self, k1: int, k2: int) -> Scenario:
        if self.n is None:
            raise ValueError("template needs n for integer thresholds")
        return Scenario(self.n, k1, k2, self.delay_I, self.delay_II, self.mix, self.mode)

    def with_alphas(self, alpha1: float, alpha2: float) -> ScenarioApprox:
        return ScenarioApprox(alpha1, alpha2, self.delay_I, self.delay_II, self.mix, self.mode)


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


def _check_starved_objective(mix: StreamMix, beta: float) -> None:
    if mix.p1 >= 1.0 and beta < 1.0:
        raise StarvedStreamError(f"beta must be 1 when p1 = 1 starves type II, got {beta}")
    if mix.p1 <= 0.0 and beta > 0.0:
        raise StarvedStreamError(f"beta must be 0 when p1 = 0 starves type I, got {beta}")


# -- grid search --------------------------------------------------------------


def _objective(beta, age_I, age_II):
    """The beta-weighted age, broadcast; a zero-weight age is left out."""
    return np.where(beta == 1.0, age_I,
                    np.where(beta == 0.0, age_II, beta * age_I + (1.0 - beta) * age_II))


def _segment_minima(mix, tables, weights, own, other, lengths):
    """Per segment s, the least objective at weight weights[s] and its first
    position, on column own[s] of tables[0] against the lengths[s] columns of
    tables[1] from other[s]; a zero-weight age is left out.

    Betas searching one grid ask for overlapping segments of the same rows,
    so the kernel runs once on each run of overlapping segments, and the
    objective on chunks of the segments starting in one span of _CELLS cells.
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
    low, at = np.empty(first.size), np.empty(first.size, np.int64)
    cuts = [0, *(np.flatnonzero(np.diff(seg0 // _CELLS)) + 1), first.size]
    for s in map(slice, cuts[:-1], cuts[1:]):
        start = seg0[s] - seg0[s.start]
        idx = np.repeat(lag[s] + seg0[s.start], size[s]) + np.arange(size[s].sum())
        obj = _objective(np.repeat(weights[s], size[s]), ages[0].take(idx), ages[1].take(idx))
        low[order[s]] = least = np.minimum.reduceat(obj, start)
        hits = np.flatnonzero(obj == np.repeat(least, size[s]))
        at[order[s]] = hits[np.searchsorted(hits, start)] - start
    return low, at


def _row_minima(cycles, mix, x1, x2, betas):
    """Per beta, the first row-major argmin (i1, i2) of its objective on the
    grid x1 x x2, where each row's first argmin never decreases down the rows:
    the middle row of a row interval, searched over the interval's columns,
    splits it at that row's argmin (Aggarwal, Klawe, Moran, Shor & Wilber,
    Algorithmica 2, 1987). All betas split the same intervals. The pending
    ones form a stack in row order; each kernel call takes the top ones that
    fit in _CELLS cells, or the top one alone, with cells gathered from
    (4, points) tables of each axis's cycles."""
    rows, cols, b = x1.size, x2.size, np.arange(betas.size)
    tables = [np.stack(c) for c in cycles(x1, x2)]
    best = np.full(b.size, np.inf), np.full(b.size, rows), np.zeros_like(b)  # value, row, column
    r, c = np.array([[0, rows]]), np.array([[0, cols - 1]])[..., None].repeat(b.size, axis=2)
    while r.size:  # row intervals [r[i, 0], r[i, 1]), per beta on columns c[i, 0]..c[i, 1]
        size = c[:, 1] - c[:, 0] + 1
        k = max(1, np.searchsorted(np.cumsum(size), _CELLS, "right") // b.size)
        mid = r[:k].sum(axis=1) // 2
        low, col = (x.reshape(k, -1) for x in _segment_minima(
            mix, tables, np.tile(betas, k), mid.repeat(b.size), c[:k, 0].ravel(), size[:k].ravel()))
        col += c[:k, 0]
        i = low.argmin(axis=0)  # the rows ascend, so a tie goes to the first
        v, row, col_i = low[i, b], mid[i], col[i, b]
        better = (v < best[0]) | ((v == best[0]) & (row < best[1]))
        best = tuple(np.where(better, *x) for x in zip((v, row, col_i), best))
        r = np.concatenate((np.stack((r[:k, 0], mid, mid + 1, r[:k, 1]), 1).reshape(-1, 2), r[k:]))
        c = np.concatenate((np.stack((c[:k, 0], col, col, c[:k, 1]), 1).reshape(-1, 2, b.size), c[k:]))
        keep = r[:, 0] < r[:, 1]
        r, c = r[keep], c[keep]
    return best[1], best[2]


def _search(cycles, mix, axes, betas):
    """Per beta, (k1, k2, objective, age_I, age_II) at the best cell of the
    integer grid axes[0] x axes[1], searched by ``_row_minima`` and zoomed,
    in kernel calls of at most _CELLS cells, while ``_zoom`` returns new
    axes; ``cycles(k1, k2)`` gives the ``_cycles`` of both streams of mix.
    Ties break to the first row-major argmin, the lexicographically smallest
    (k1, k2). Overflow gives inf cells, not warnings.
    """
    betas = np.array(betas, dtype=float)
    b = np.arange(betas.size)
    x1, x2 = (np.broadcast_to(x, (b.size, x.size)) for x in axes)
    with np.errstate(all="ignore"):
        i1, i2 = _row_minima(cycles, mix, *axes, betas)
        while (zoomed := _zoom(x1, x2, i1, i2)) is not None:
            x1, x2 = zoomed
            t1, t2 = (np.stack(c) for c in cycles(x1[:, :, None], x2[:, None]))
            step = max(1, _CELLS // x1.shape[1] // x2.shape[1])
            chunks = map(slice, b[::step], b[::step] + step)
            best = [_objective(betas[s, None, None], *pair_ages(mix, t1[:, s], t2[:, s]))
                    .reshape(b[s].size, -1).argmin(axis=1) for s in chunks]
            i1, i2 = np.divmod(np.concatenate(best), x2.shape[1])
        x1, x2 = x1[b, i1], x2[b, i2]
        ages = pair_ages(mix, *cycles(x1, x2))
        return list(zip(x1.tolist(), x2.tolist(), _objective(betas, *ages).tolist(),
                        *(a.tolist() for a in ages)))


def _neighbours(xs, i):
    """Per beta, the grid points on either side of xs[b, i[b]], clipped to
    the grid: the point before it and the point after its copies. A best
    cell is the first copy of its value, so on an integer axis with repeats
    both are the neighbouring distinct values."""
    b = np.arange(i.size)
    after = i + (xs == xs[b, i][:, None]).sum(axis=1)
    return xs[b, np.maximum(i - 1, 0)], xs[b, np.minimum(after, xs.shape[1] - 1)]


def _int_axis(lo, hi):
    """Per window [lo, hi], the 33 integers lo + (hi - lo) i / 32 rounded half
    to even, so that the axis lists every integer of a narrow window at any
    n; exact in int64: with hi - lo = 32 a + b, the quotient is a i + b i // 32."""
    i = np.arange(33)
    lo, hi = np.asarray(lo, np.int64)[..., None], np.asarray(hi, np.int64)[..., None]
    a, b = np.divmod(hi - lo, 32)
    q, r = np.divmod(b * i, 32)
    xs = lo + a * i + q
    return xs + ((r > 16) | ((r == 16) & (xs % 2 == 1)))


def _zoom(k1s, k2s, i1, i2):
    """Per beta, integer axes between the distinct values on either side of
    its best cell, or None once every axis lists every integer of its window."""
    if all((ks[:, -1] - ks[:, 0] <= np.count_nonzero(np.diff(ks), axis=1)).all()
           for ks in (k1s, k2s)):
        return None
    return tuple(_int_axis(*_neighbours(ks, i)) for ks, i in ((k1s, i1), (k2s, i2)))


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

    The exact evaluator finds the optimum for n up to EXACT_LIMIT wherever
    the rows' first argmins never decrease (see the module docstring); above
    it the search is coarse-to-fine and may miss it. grid, the approx
    evaluator's ratio count per axis, lies in [1, GRID_LIMIT] and defaults
    to 512; the exact evaluator takes none. The approx ratios lie on the
    lattice k / (256 (grid + 1)). A point's ages are the search's kernel
    cells, equal to age_pair's bit for bit, and a non-finite age of a stream
    with nonzero share raises ValueError.

    Output is sorted by age_I ascending; duplicate optima (several betas
    landing on the same thresholds) are collapsed to one point.
    """
    betas = [_check_range("beta", _check_number("beta", b), 0, 1) for b in betas]
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
        cycles = lambda k1, k2: _cycles(template, n, k1, k2)
    elif evaluator == "approx":
        grid = _check_integer("grid", 512 if grid is None else grid, 1, GRID_LIMIT)
        # The first axis is j / (grid + 1), and each zoom round steps a 16th of
        # the last, so a corner optimum lands exactly on 1 / (grid + 1).
        lattice = 256 * (grid + 1)
        ks = np.arange(256, lattice, 256)
        cycles = lambda k1, k2: _cycles(template, None, k1 / lattice, k2 / lattice)
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    unique = {}  # the first point of each optimum
    for beta, (k1, k2, objective, age_I, age_II) in zip(
            betas, _search(cycles, template.mix, (ks, ks), betas)):
        _check_ages(template.mix, (age_I, age_II))
        xs = (k1, k2) if evaluator == "exact" else (None, None, k1 / lattice, k2 / lattice)
        unique.setdefault((k1, k2), ParetoPoint(beta, age_I, age_II, objective, *xs))
    # p is dominated when some q is at least as good in both ages and better in one
    q = np.array([(p.age_I, p.age_II) for p in unique.values()])
    p = q[:, None]
    dominated = ((q <= p).all(axis=2) & (q < p).any(axis=2)).any(axis=1)
    return sorted(itertools.compress(unique.values(), ~dominated), key=lambda p: p.age_I)
