"""Monte Carlo simulator of the earliest-k1/k2 multicast protocol.

Tracks one tagged receiver (node exchangeability makes it representative)
and accumulates its per-stream sawtooth age area in closed form, so the
estimates depend only on the seed and cycle count, never on a time step.

Each cycle costs the same at every n: instead of n link delays it draws
what the tagged receiver sees from its exact law (Renyi 1953; David &
Nagaraja, *Order Statistics*). For delay shift + Exp(rate):

- its rank among the n delays, uniform on 1..n and independent of the
  order-statistic values: it is delivered when the rank is at most k;
- for k up to a small cutoff, the Renyi sums X_(j) = shift + sum_{i<=j}
  E_i / ((n - i + 1) rate) of standard exponentials E_i, the spacings of
  exponential order statistics: X_(k) ends the cycle, and X_(rank) is the
  receiver's own delay;
- above the cutoff, X_(k) = shift + log1p(G_k / G_{n-k+1}) / rate with G_a
  a standard Gamma(a) draw, since 1 - U_(k) ~ Beta(n-k+1, k), and below
  rank k an own delay drawn from the delay law truncated to [shift, X_(k)].

Each estimate runs from the stream's first delivery to its last; no
cycles are discarded. Cycles are i.i.d. from time 0, so the cycles from a
stream's first delivering cycle on have the same law as those from any
later one: the first delivery is a renewal point like every other, and
the time average over whole inter-delivery intervals estimates the
renewal-reward ratio that the closed forms evaluate. What bias is left is
the O(1/N) bias of a ratio over N intervals, which no warmup removes.

A replication runs in fixed-size blocks of cycles, so its memory does not
grow with the cycle count. The age fold carries, per stream, the first
and last delivery time, the last reset age, the area and the delivery
count, and the sawtooth interval that crosses into a block starts at the
carried last delivery.

The tests keep the direct sampler (n delays, then the k-th smallest) as an
independent reference and compare the two laws by two-sample tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import INFINITE_AGE, Exogenous, Scenario, Stream, _check_integer
from .orderstats import ShiftedExp

__all__ = [
    "DEFAULT_SEED",
    "SimConfig",
    "SimResult",
    "simulate",
]

DEFAULT_SEED = 20190813

# Cycles per block: a block's per-cycle arrays (about 2.4 MiB) stay in L2
# cache, and a replication's memory is bounded by one block.
_BLOCK = 1 << 15
# Largest k drawn by the Renyi sum. Each of its columns costs about 13 ns
# per cycle; at n = 100 (2-vCPU host) the sum takes 110 ns at k = 6 and
# 124 ns at k = 7, against 114 ns for the Gamma branch.
_RENYI_MAX_K = 6


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario
    cycles: int = 100_000
    seed: int = DEFAULT_SEED
    replications: int = 10

    def __post_init__(self) -> None:
        for name, at_least in (("cycles", 1), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), at_least))


@dataclass(frozen=True)
class SimResult:
    age_I_hat: float
    age_II_hat: float
    se_I: float
    se_II: float
    deliveries_I: int
    deliveries_II: int
    sim_time: float

    def age(self, stream: Stream) -> float:
        return self.age_I_hat if stream is Stream.TYPE_I else self.age_II_hat

    def se(self, stream: Stream) -> float:
        return self.se_I if stream is Stream.TYPE_I else self.se_II


@dataclass
class _StreamTrace:
    delivery_times: np.ndarray  # tagged-node delivery instants
    delivery_cycles: np.ndarray  # cycle indices of those deliveries
    reset_ages: np.ndarray  # own link delay of each delivered packet
    type_cycles: int  # cycles carrying this stream's type


def _sample_stream(d: ShiftedExp, k: int, n: int, m: int, rng: np.random.Generator):
    """Draw m cycles of one stream as seen by the tagged receiver.

    Returns (kth, own, hit): the completion time X_(k), the receiver's own
    delay, and whether it was among the first k. `own` is meaningful only
    where `hit` is set.
    """
    rank = rng.integers(n, size=m)
    hit = rank < k
    if k <= _RENYI_MAX_K:
        # Column j adds the spacing E_j / ((n - j + 1) rate); `own` takes it while
        # j <= rank + 1 (rank counts from 0), so it ends at X_(rank + 1) bit for bit.
        span = rng.standard_exponential(m)
        span *= 1.0 / (n * d.rate)
        own = span.copy()
        e = np.empty(m)
        for j in range(2, k + 1):
            rng.standard_exponential(out=e)
            e *= 1.0 / ((n - j + 1) * d.rate)
            span += e
            e *= rank >= j - 1
            own += e
    else:
        # log1p(G_k / G_{n-k+1}) = -log(1 - U_(k)), free of cancellation at k = 1 and n.
        span = rng.standard_gamma(k, m)
        span /= rng.standard_gamma(n - k + 1, m)
        np.log1p(span, out=span)
        span /= d.rate
        below = np.flatnonzero(rank < k - 1)
        own = span.copy()
        w = rng.random(below.size)
        own[below] = -np.log1p(w * np.expm1(-d.rate * span[below])) / d.rate
    span += d.shift
    own += d.shift
    return span, own, hit


def _blocks(scenario: Scenario, cycles: int, rng: np.random.Generator):
    """Draw one replication in blocks of `_BLOCK` cycles.

    Yields, per block, the {stream: _StreamTrace} of its deliveries (times
    from the start of the replication, cycle indices from its first cycle)
    and the time at which the block ends.
    """
    n = scenario.n
    end = 0.0
    for first in range(0, cycles, _BLOCK):
        size = min(_BLOCK, cycles - first)
        is_type_I = rng.random(size) < scenario.mix.p1
        idx = {Stream.TYPE_I: np.flatnonzero(is_type_I),
               Stream.TYPE_II: np.flatnonzero(~is_type_I)}
        # starts[i] is the start of cycle first + i, starts[size] the block's end.
        starts = np.empty(size + 1)
        durations = starts[1:]
        drawn = {}
        for stream in (Stream.TYPE_I, Stream.TYPE_II):
            kth, own, hit = _sample_stream(
                scenario.delay(stream), scenario.threshold(stream), n,
                idx[stream].size, rng,
            )
            durations[idx[stream]] = kth
            drawn[stream] = own, hit
        if isinstance(scenario.mode, Exogenous):
            gap = rng.standard_exponential(size)
            gap *= 1.0 / scenario.mode.mu
            durations += gap
        starts[0] = end
        np.cumsum(starts, out=starts)
        end = float(starts[-1])

        traces = {}
        for stream, (own, hit) in drawn.items():
            sel = np.flatnonzero(hit)
            cyc = idx[stream][sel]
            reset = own[sel]
            traces[stream] = _StreamTrace(
                delivery_times=starts[cyc] + reset,
                delivery_cycles=cyc + first,
                reset_ages=reset,
                type_cycles=idx[stream].size,
            )
        yield traces, end


@dataclass
class _AreaFold:
    """One stream's sawtooth age area, folded over the blocks' deliveries.

    Between deliveries the age grows with slope 1 from the reset level, so
    each interval adds a rectangle plus a triangle, summed exactly; the
    interval that crosses into a block starts at the carried last delivery.
    """

    first: float = 0.0
    last: float = 0.0
    last_age: float = 0.0
    area: float = 0.0
    count: int = 0

    def add(self, trace: _StreamTrace) -> None:
        t, a = trace.delivery_times, trace.reset_ages
        if t.size == 0:
            return
        if self.count:
            gap = float(t[0]) - self.last
            self.area += gap * self.last_age + 0.5 * gap * gap
        else:
            self.first = float(t[0])
        dt = np.diff(t)
        self.area += float(np.sum(dt * a[:-1] + 0.5 * dt * dt))
        self.last, self.last_age = float(t[-1]), float(a[-1])
        self.count += t.size

    def age(self) -> "float | None":
        """Time-averaged age between the first and last delivery; None below two."""
        if self.count < 2:
            return None
        return self.area / (self.last - self.first)


def _sim_worker(args) -> tuple:
    scenario, cycles, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    folds = {Stream.TYPE_I: _AreaFold(), Stream.TYPE_II: _AreaFold()}
    for traces, end in _blocks(scenario, cycles, rng):
        for stream, fold in folds.items():
            fold.add(traces[stream])
    fold_I, fold_II = folds.values()
    return (fold_I.age(), fold_I.count), (fold_II.age(), fold_II.count), end


def _spawn_seeds(cfg: SimConfig):
    return np.random.SeedSequence(cfg.seed).spawn(cfg.replications)


def simulate(cfg: SimConfig, threads: int = 1) -> SimResult:
    """Run all replications and merge their age estimates.

    Replications own independent random streams spawned deterministically
    from (seed, replication index); merging is a fixed-order reduction, so
    parallel and serial runs produce identical results. min(threads,
    replications) worker processes run; when that is 1, none is started.
    """
    threads = _check_integer("threads", threads, 1)
    args = [(cfg.scenario, cfg.cycles, ss) for ss in _spawn_seeds(cfg)]
    workers = min(threads, cfg.replications)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            outs = list(ex.map(_sim_worker, args))
    else:
        outs = [_sim_worker(a) for a in args]

    ages, ses, deliveries = {}, {}, {}
    for i, stream in enumerate((Stream.TYPE_I, Stream.TYPE_II)):
        per_rep = [o[i][0] for o in outs]
        deliveries[stream] = sum(o[i][1] for o in outs)
        if cfg.scenario.mix.prob(stream) <= 0:  # starved: never delivered
            ages[stream], ses[stream] = INFINITE_AGE, 0.0
            continue
        if any(a is None for a in per_rep):
            raise RuntimeError(
                f"some replications saw < 2 deliveries for stream {stream.value}; "
                "increase cycles"
            )
        vals = np.asarray(per_rep, dtype=np.float64)
        ages[stream] = float(vals.mean())
        ses[stream] = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        if not np.isfinite([ages[stream], ses[stream]]).all():
            raise RuntimeError(f"the simulated age of stream {stream.value} overflows")

    return SimResult(
        age_I_hat=ages[Stream.TYPE_I],
        age_II_hat=ages[Stream.TYPE_II],
        se_I=ses[Stream.TYPE_I],
        se_II=ses[Stream.TYPE_II],
        deliveries_I=deliveries[Stream.TYPE_I],
        deliveries_II=deliveries[Stream.TYPE_II],
        sim_time=float(sum(o[2] for o in outs)),
    )
