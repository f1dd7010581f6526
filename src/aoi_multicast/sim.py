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

A replication runs in fixed-size blocks of cycles, drawn into buffers that
it allocates once, so its memory does not grow with the cycle count. The
age fold carries, per stream, the first and last delivery time, the last
reset age, the area and the delivery count, and the sawtooth interval that
crosses into a block starts at the carried last delivery.

The tests keep the direct sampler (n delays, then the k-th smallest) as an
independent reference and compare the two laws by two-sample tests.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .analytic import Exogenous, Scenario, Stream, _cycles
from .orderstats import ShiftedExp, _check_integer

__all__ = [
    "DEFAULT_SEED",
    "SimConfig",
    "SimResult",
    "simulate",
]

DEFAULT_SEED = 20190813

# Cycles per block. A replication keeps 4 float64 and 3 bool rows of a block,
# and a block adds at most 3 blocks of ranks, indices and gathers: its traced
# peak is 5.8-6.2 blocks (0.73-0.77 MiB) on the benchmark's scenarios and at
# most 7.5 (0.94 MiB), inside a core's 2 MiB L2. 2^13 ran slower, from each
# block's fixed cost of numpy calls.
_BLOCK = 1 << 14
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
        if not isinstance(self.scenario, Scenario):
            raise ValueError(f"scenario must be a Scenario, got {type(self.scenario).__name__}")
        for name, at_least in (("cycles", 1), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), at_least))


@dataclass(frozen=True)
class SimResult:
    age_I: float
    age_II: float
    se_I: float
    se_II: float
    deliveries_I: int
    deliveries_II: int
    sim_time: float

    def age(self, stream: Stream) -> float:
        return self.age_I if stream is Stream.TYPE_I else self.age_II

    def se(self, stream: Stream) -> float:
        return self.se_I if stream is Stream.TYPE_I else self.se_II


def _sample_stream(d: ShiftedExp, k: int, n: int, rng: np.random.Generator,
                   span, own, hit, e, mask) -> None:
    """Draw span.size cycles of one stream as seen by the tagged receiver.

    Fills span with the completion time X_(k), hit with whether the
    receiver's own delay was among the first k, and own, where hit is set,
    with that delay less the shift, which only the deliveries read. e and
    mask, of the same size, are scratch.
    """
    rank = rng.integers(n, size=span.size)
    np.less(rank, k, out=hit)
    if k <= _RENYI_MAX_K:
        # Column j adds the spacing E_j / ((n - j + 1) rate); `own` takes it while
        # j <= rank + 1 (rank counts from 0), so it ends at X_(rank + 1) bit for bit.
        rng.standard_exponential(out=span)
        span *= 1.0 / (n * d.rate)
        np.copyto(own, span)
        for j in range(2, k + 1):
            rng.standard_exponential(out=e)
            e *= 1.0 / ((n - j + 1) * d.rate)
            span += e
            e *= np.greater_equal(rank, j - 1, out=mask)
            own += e
    else:
        # log1p(G_k / G_{n-k+1}) = -log(1 - U_(k)), free of cancellation at k = 1 and n.
        rng.standard_gamma(k, out=span)
        span /= rng.standard_gamma(n - k + 1, out=e)
        np.log1p(span, out=span)
        span /= d.rate
        np.copyto(own, span)
        below = np.flatnonzero(np.less(rank, k - 1, out=mask))
        w = rng.random(out=e[:below.size])
        x = np.take(span, below)  # -log1p(w expm1(-rate x)) / rate, in place
        x *= -d.rate
        np.expm1(x, out=x)
        x *= w
        np.log1p(x, out=x)
        x /= -d.rate
        own[below] = x
    span += d.shift


def _blocks(scenario: Scenario, cycles: int, rng: np.random.Generator, deliver) -> float:
    """Draw one replication in blocks of `_BLOCK` cycles; return its end time.

    Every block reuses buffers allocated once. After a block, for stream i
    (0 for type I, 1 for type II), it calls deliver(i, cyc, hit, t, a, w):
    `cyc` indexes the block's type-i cycles and `hit` flags those that
    delivered to the receiver, `t` and `a` are the deliveries' times from
    the start of the replication and the own delays that reset the age,
    and `w` is scratch of t's size. The arrays are views that the next
    block overwrites.
    """
    starts, draw, span, own = np.empty((4, min(_BLOCK, cycles) + 1))
    on, hit, mask = np.empty((3, min(_BLOCK, cycles)), bool)
    end = 0.0
    for first in range(0, cycles, _BLOCK):
        size = min(_BLOCK, cycles - first)
        np.less(rng.random(out=draw[:size]), scenario.mix.p1, out=on[:size])
        m = int(np.count_nonzero(on[:size]))
        parts = slice(0, m), slice(m, size)  # each stream's cycles in span, own and hit
        for stream, p in zip(Stream, parts):
            _sample_stream(scenario.delay(stream), scenario.threshold(stream), scenario.n,
                           rng, span[p], own[p], hit[p], draw[p], mask[p])
        # starts[c] is the start of cycle first + c, starts[size] the block's end.
        s = starts[:size + 1]
        cycs = np.flatnonzero(on[:size]), np.flatnonzero(~on[:size])
        for cyc, p in zip(cycs, parts):
            s[1:][cyc] = span[p]
        if isinstance(scenario.mode, Exogenous):
            gap = rng.standard_exponential(out=draw[:size])
            gap *= 1.0 / scenario.mode.mu
            s[1:] += gap
        s[0] = end
        np.cumsum(s, out=s)
        end = float(s[-1])
        for i, (stream, cyc, p) in enumerate(zip(Stream, cycs, parts)):
            sel = np.flatnonzero(hit[p])  # in range, so "clip" only spares a copy of out
            a = np.take(own[p], sel, out=span[:sel.size], mode="clip")
            a += scenario.delay(stream).shift
            t = np.take(s, cyc[sel], out=draw[:sel.size], mode="clip")
            t += a
            deliver(i, cyc, hit[p], t, a, own[p][:sel.size])
        del cycs, cyc, sel  # not held through the next block's draws
    return end


@dataclass
class _AreaFold:
    """One stream's sawtooth age area, folded over the blocks' deliveries.

    Between deliveries the age grows with slope 1 from the reset level, so
    each interval adds a rectangle plus a triangle, summed exactly; the
    interval that crosses into a block starts at the carried last delivery.
    The area is kept in units of 2^j times time, with 2^j near the mean
    cycle length, so that it is finite wherever the age is; scaling by a
    power of two is exact for normal floats.
    """

    j: int = 0
    first: float = 0.0
    last: float = 0.0
    last_age: float = 0.0
    area: float = 0.0
    count: int = 0

    def add(self, t, a, w) -> None:
        """Fold one block's delivery times t and reset ages a, overwriting
        them and the scratch w of their size."""
        if t.size == 0:
            return
        s = math.ldexp(1.0, -self.j)
        if self.count:
            gap = float(t[0]) - self.last
            self.area += gap * s * self.last_age + 0.5 * s * gap * gap
        else:
            self.first = float(t[0])
        self.last, self.last_age = float(t[-1]), float(a[-1])
        self.count += t.size
        # sum(dt a + 0.5 dt dt) / 2^j over the block's intervals, in place.
        dt = np.subtract(t[1:], t[:-1], out=w[:-1])
        a, t = a[:-1], t[:-1]
        a *= s
        a *= dt
        np.multiply(dt, 0.5 * s, out=t)
        t *= dt
        a += t
        self.area += float(np.sum(a))

    def age(self) -> "float | None":
        """Time-averaged age between the first and last delivery; None below two."""
        if self.count < 2:
            return None
        return math.ldexp(self.area / (self.last - self.first), self.j)


def _sim_worker(args) -> tuple:
    scenario, cycles, seed_seq = args
    # An area that overflows is inf or NaN here; simulate raises on it.
    with np.errstate(over="ignore", invalid="ignore"):
        (_, e_I, *_), (_, e_II, *_) = _cycles(scenario, scenario.n, scenario.k1, scenario.k2)
        j = math.frexp(scenario.mix.p1 * e_I + scenario.mix.p2 * e_II)[1]
        folds = _AreaFold(j), _AreaFold(j)
        end = _blocks(scenario, cycles, np.random.default_rng(seed_seq),
                      lambda i, cyc, hit, t, a, w: folds[i].add(t, a, w))
    return *((fold.age(), fold.count) for fold in folds), end


def _forked(args: list, workers: int, cpus) -> list:
    """`_sim_worker` over `args` on `workers` forked children, child w taking
    args[w::workers], pinned to cpus[w] unless cpus is None, and pickling its
    results or exception into a pipe. No child outlives the call."""
    live, parts = {}, []  # live: pid -> read end of its pipe, until reaped
    try:
        for w in range(workers):
            r, wr = os.pipe()
            if (pid := os.fork()) == 0:  # ends in os._exit: no atexit handler, no stdio flush
                try:
                    if cpus is not None:
                        os.sched_setaffinity(0, {cpus[w]})
                    out = [_sim_worker(a) for a in args[w::workers]]
                except BaseException as exc:  # raised again in the parent
                    out = exc
                try:
                    with open(wr, "wb") as f:
                        f.write(pickle.dumps(out))
                finally:
                    os._exit(0)
            live[pid] = open(r, "rb")
            os.close(wr)
        for pid in list(live):
            data = live[pid].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.pop(pid).close()
            if code or not data:
                how = f"killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise RuntimeError(f"simulation worker {pid} {how} without a result")
            if isinstance(part := pickle.loads(data), BaseException):
                raise part
            parts.append(part)
    finally:
        for pid, f in live.items():  # the parent raised or was interrupted
            f.close()
            os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system
            os.waitpid(pid, 0)
    return [parts[i % workers][i // workers] for i in range(len(args))]


def _spawn_seeds(cfg: SimConfig):
    return np.random.SeedSequence(cfg.seed).spawn(cfg.replications)


def simulate(cfg: SimConfig, threads: int = 1) -> SimResult:
    """Run all replications and merge their age estimates.

    Replications own random streams spawned from (seed, replication index)
    and merge in a fixed order, so the result is the same at any thread
    count. They run on min(threads, replications, allowed CPUs) forked
    workers, or in the caller when that is 1 or os.fork is absent; the
    allowed CPUs are the caller's affinity mask, or os.cpu_count() without
    sched_setaffinity. Workers that fill the mask pin themselves one per CPU,
    since the scheduler can keep them on the parent's CPU; fewer run unpinned.
    """
    threads = _check_integer("threads", threads, 1)
    args = [(cfg.scenario, cfg.cycles, ss) for ss in _spawn_seeds(cfg)]
    pinnable = hasattr(os, "sched_setaffinity")
    allowed = sorted(os.sched_getaffinity(0)) if pinnable else range(os.cpu_count() or 1)
    workers = min(threads, cfg.replications, len(allowed))
    if workers > 1 and hasattr(os, "fork"):
        outs = _forked(args, workers, allowed if pinnable and workers == len(allowed) else None)
    else:
        outs = [_sim_worker(a) for a in args]

    per_stream = []  # (age, se, deliveries) of each stream
    for i, stream in enumerate((Stream.TYPE_I, Stream.TYPE_II)):
        per_rep = [o[i][0] for o in outs]
        deliveries = sum(o[i][1] for o in outs)
        if cfg.scenario.mix.prob(stream) <= 0:  # starved: never delivered
            per_stream.append((np.inf, 0.0, deliveries))
            continue
        if any(a is None for a in per_rep):
            raise RuntimeError(
                f"some replications saw < 2 deliveries for stream {stream.value}; "
                "increase cycles"
            )
        vals = np.asarray(per_rep, dtype=np.float64)
        if not np.isfinite(vals).all():
            raise RuntimeError(f"the simulated age of stream {stream.value} overflows")
        # In units of 2^j near the largest age, so that the sum of the ages and
        # the squares of their deviations stay finite; exact for normal floats.
        j = math.frexp(vals.max())[1]
        vals = np.ldexp(vals, -j)
        age = math.ldexp(float(vals.mean()), j)
        se = math.ldexp(float(vals.std(ddof=1)) / math.sqrt(vals.size), j) if vals.size > 1 else 0.0
        per_stream.append((age, se, deliveries))

    (age_I, se_I, n_I), (age_II, se_II, n_II) = per_stream
    return SimResult(age_I, age_II, se_I, se_II, n_I, n_II, float(sum(o[2] for o in outs)))
