import functools
import json
import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import aoi_multicast.sim as sim_mod

from aoi_multicast.analytic import (
    AtWill,
    Exogenous,
    Scenario,
    ScenarioApprox,
    Stream,
    StreamMix,
    age_pair,
)
from aoi_multicast.orderstats import ShiftedExp, os_moments
from aoi_multicast.sim import SimConfig, simulate
from oracles import Moments2, replication_traces, s_moments


_sim_worker = sim_mod._sim_worker
_affinity = getattr(os, "sched_getaffinity", None)  # unpatched, for the workers
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _placed_worker(directory, args):
    """Run one replication after writing this process's pid and CPU ids to
    a file of its own in `directory`, then waiting (up to 30 s) for a second
    such file, so that no worker takes both of a two-replication run."""
    pid = os.getpid()
    (directory / f"{pid}-{args[2].spawn_key}.json").write_text(
        json.dumps([pid, sorted(_affinity(0))]))
    deadline = time.monotonic() + 30
    while len(list(directory.iterdir())) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return _sim_worker(args)


DELAY_I = ShiftedExp(1.0, 1.0)
DELAY_II = ShiftedExp(2.0, 0.5)


def mixed_scenario(mode=AtWill()):
    return Scenario(10, 3, 5, DELAY_I, DELAY_II, StreamMix(0.6), mode)


def _reference_stream(d, k, n, m, rng, tagged_index=0):
    """Direct sampler: all n link delays per cycle, then the k-th smallest.

    The independent reference for `sim._sample_stream`: it uses no
    order-statistic law, only the protocol's definition.
    """
    delays = rng.exponential(1.0 / d.rate, size=(m, n))
    delays += d.shift
    kth = np.partition(delays, k - 1, axis=1)[:, k - 1]
    own = delays[:, tagged_index]
    # A floating-point tie with the k-th smallest is won by the tagged node.
    return kth, own, own <= kth


def _sample(d, k, n, m, rng):
    """`sim._sample_stream` on fresh buffers: (X_(k), own delay, hit), the
    own delay shifted as the deliveries read it."""
    span, own, e = np.zeros((3, m))
    hit, mask = np.zeros((2, m), bool)
    sim_mod._sample_stream(d, k, n, rng, span, own, hit, e, mask)
    return span, own + d.shift, hit


def variance(m: Moments2) -> float:
    return m.m2 - m.m1 * m.m1


def _two_proportion_p(hits_a, hits_b, m, m_b=None):
    """Two-sided p-value that hits_a of m trials and hits_b of m_b (default m)
    trials share one success rate."""
    m_a, m_b = m, m if m_b is None else m_b
    pooled = (hits_a + hits_b) / (m_a + m_b)
    if pooled in (0.0, 1.0):
        return 1.0 if hits_a * m_b == hits_b * m_a else 0.0
    se = math.sqrt(pooled * (1 - pooled) * (1 / m_a + 1 / m_b))
    return 2 * stats.norm.sf(abs(hits_a / m_a - hits_b / m_b) / se)


# (n, k) of the sampler tests; the last two sit on both sides of the switch
# from the Renyi sum to the Gamma ratio.
SAMPLER_CASES = [
    (1, 1), (5, 2), (100, 1), (100, 34), (100, 100),
    (100, sim_mod._RENYI_MAX_K), (100, sim_mod._RENYI_MAX_K + 1),
]


class TestSampler:
    """The O(1) per-cycle sampler against the direct O(n) reference."""

    @pytest.mark.parametrize("d", [DELAY_I, DELAY_II], ids=["delayI", "delayII"])
    @pytest.mark.parametrize("n,k", SAMPLER_CASES)
    def test_matches_reference(self, d, n, k):
        m = 20_000
        fast = _sample(d, k, n, m, np.random.default_rng([n, k, 1]))
        ref = _reference_stream(d, k, n, m, np.random.default_rng([n, k, 2]))
        for kth, own, hit in (fast, ref):
            assert kth.shape == own.shape == hit.shape == (m,)
            assert np.all(kth >= d.shift)
            assert np.all((own[hit] >= d.shift) & (own[hit] <= kth[hit]))
        assert stats.ks_2samp(fast[0], ref[0]).pvalue >= 1e-3
        assert stats.ks_2samp(fast[1][fast[2]], ref[1][ref[2]]).pvalue >= 1e-3
        hits_fast, hits_ref = int(fast[2].sum()), int(ref[2].sum())
        assert _two_proportion_p(hits_fast, hits_ref, m) >= 1e-3

    @pytest.mark.parametrize("d", [DELAY_I, DELAY_II], ids=["delayI", "delayII"])
    @pytest.mark.parametrize("n,k", SAMPLER_CASES)
    def test_joint_law_matches_reference(self, d, n, k):
        # How the own delay moves with X_(k), which the marginals above leave
        # open: given a hit, X_(k) - own follows the reference law, and the
        # receiver is the k-th itself (own == X_(k)) with probability 1/k.
        m = 20_000
        fast = _sample(d, k, n, m, np.random.default_rng([n, k, 3]))
        ref = _reference_stream(d, k, n, m, np.random.default_rng([n, k, 4]))
        gaps, kth_own = [], []
        for kth, own, hit in (fast, ref):
            gaps.append(kth[hit] - own[hit])
            kth_own.append(int(np.count_nonzero(own[hit] == kth[hit])))
        assert stats.ks_2samp(*gaps).pvalue >= 1e-3
        hits = [g.size for g in gaps]
        assert _two_proportion_p(kth_own[0], kth_own[1], hits[0], hits[1]) >= 1e-3
        assert stats.binomtest(kth_own[0], hits[0], 1 / k).pvalue >= 1e-3

    def test_concentrates_at_huge_n(self):
        d = DELAY_I
        rng = np.random.default_rng(5)
        kth, own, hit = _sample(d, 3 * 10**11, 10**12, 10, rng)
        assert np.all(np.isfinite(kth)) and np.all(np.isfinite(own[hit]))
        # X_(k) concentrates at shift + log(1 / (1 - alpha)) / rate
        assert kth == pytest.approx(d.shift + math.log(1 / 0.7) / d.rate, rel=1e-4)

    def test_first_of_a_trillion(self):
        d, n = DELAY_I, 10**12
        kth, own, hit = _sample(d, 1, n, 10_000, np.random.default_rng(6))
        # X_(1) - shift ~ Exp(n rate): mean 1 / (n rate), resolved to 1e-4 at shift 1
        scaled = (kth - d.shift) * n * d.rate
        assert np.all(scaled > 0) and np.all(np.isfinite(scaled))
        assert scaled.mean() == pytest.approx(1.0, abs=0.05)
        assert not hit.any()  # P(hit) = 1e-12 per cycle


def _time_average_age(trace):
    """One-shot time-averaged sawtooth age over a whole delivery trace.

    The oracle for the simulator's block-by-block fold: each interval
    between deliveries adds a rectangle at the reset level plus a triangle.
    """
    t = trace.delivery_times
    if t.size < 2:
        return None
    a = trace.reset_ages
    dt = np.diff(t)
    area = float(np.sum(dt * a[:-1] + 0.5 * dt * dt))
    return area / float(t[-1] - t[0])


class TestBlocks:
    """Replications run in blocks of `_BLOCK` cycles, folded with a carry."""

    @pytest.mark.parametrize("block", [1000, sim_mod._BLOCK])
    def test_fold_matches_one_shot_area(self, monkeypatch, block):
        monkeypatch.setattr(sim_mod, "_BLOCK", block)
        # Stream II delivers about 3 times per block, so some blocks have none,
        # and the last block is half full: a fold or a block that read a
        # buffer's tail, left over from the block before, would show here.
        n, k2 = 10, 1
        s = Scenario(n, 3, k2, DELAY_I, DELAY_II, StreamMix(1 - 3 * n / (k2 * block)),
                     Exogenous(2.0))
        cfg = SimConfig(s, cycles=5 * block // 2, seed=71, replications=6)
        empty_blocks = 0
        for ss, traces in zip(sim_mod._spawn_seeds(cfg), replication_traces(cfg)):
            folded = sim_mod._sim_worker((s, cfg.cycles, ss))
            for i, stream in enumerate((Stream.TYPE_I, Stream.TYPE_II)):
                trace = traces[stream]
                assert folded[i][1] == trace.delivery_times.size
                assert folded[i][0] == pytest.approx(_time_average_age(trace), rel=1e-12)
            cycles_II = traces[Stream.TYPE_II].delivery_cycles
            assert cycles_II.size >= 2
            empty_blocks += 3 - np.unique(cycles_II // block).size
        assert empty_blocks > 0

    def test_counts_whole_cycles(self, monkeypatch):
        monkeypatch.setattr(sim_mod, "_BLOCK", 1000)
        cfg = SimConfig(mixed_scenario(), cycles=5_345, seed=72, replications=2)
        for traces in replication_traces(cfg):
            total = sum(trace.type_cycles for trace in traces.values())
            assert total == cfg.cycles
            for trace in traces.values():
                assert trace.delivery_cycles.min() >= 0
                assert trace.delivery_cycles.max() < cfg.cycles
                assert np.all(np.diff(trace.delivery_cycles) > 0)

    def test_memory_does_not_grow_with_cycles(self):
        s = Scenario(5, 2, 3, DELAY_I, DELAY_II, StreamMix(0.9), Exogenous(2.0))
        seed = np.random.SeedSequence(73)
        sim_mod._sim_worker((s, sim_mod._BLOCK, seed))  # one-time allocations
        peaks = []
        for blocks in (2, 16):
            args = (s, blocks * sim_mod._BLOCK, seed)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sim_mod._sim_worker(args)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    # Each case's blocks of transients, from the formulas below, rounded up.
    @pytest.mark.parametrize("s,extra", [
        (Scenario(5, 2, 3, DELAY_I, DELAY_II, StreamMix(0.9), Exogenous(2.0)), 2),  # 1.72
        (Scenario(100, 34, 50, DELAY_I, DELAY_II, StreamMix(0.6), AtWill()), 1.5),  # 1.41
        (Scenario(20, 20, 1, DELAY_I, DELAY_II, StreamMix(1.0), AtWill()), 3),  # 3
    ], ids=["narrow", "wide", "every_cycle_delivers"])
    def test_working_set_is_bounded(self, s, extra):
        # A replication keeps 4 float64 rows of _BLOCK + 1 (starts, draw, span,
        # own) and 3 bool rows (3/8 of a float64 block). A stream of p _BLOCK
        # cycles adds, in float64 blocks, while it draws: p for its int64
        # ranks, plus 1/2 for numpy's 8192-element cast buffer at k <= 6, or
        # 2 p (k - 1) / n for the indices and delays below rank k - 1 above
        # it; and while it delivers: 1 for both streams' int64 cycle indices
        # plus 2 p k / n for its delivery indices and delivery cycles.
        # 1/4 covers Python objects.
        c = 4 + 3 / 8 + extra + 1 / 4
        seed = np.random.SeedSequence(75)
        sim_mod._sim_worker((s, sim_mod._BLOCK, seed))  # one-time allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim_mod._sim_worker((s, 5 * sim_mod._BLOCK // 2, seed))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= c * sim_mod._BLOCK * 8, peak / (sim_mod._BLOCK * 8)


class TestRenewal:
    """The first delivery is a renewal point, so no warmup is needed."""

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["atwill", "exo"])
    def test_first_interval_has_the_law_of_a_later_one(self, mode):
        # 400 cycles give each stream about 75 deliveries, so the fifth
        # interval is always complete and the end of the run cuts no interval
        # the test reads.
        later = 5
        cfg = SimConfig(mixed_scenario(mode), cycles=400, seed=74, replications=2_000)
        samples = {stream: ([], [], [], []) for stream in Stream}
        for rep in replication_traces(cfg):
            for stream, trace in rep.items():
                t, a = trace.delivery_times, trace.reset_ages
                assert t.size > later + 1
                for sample, value in zip(samples[stream], (
                        t[1] - t[0], t[later + 1] - t[later], a[0], a[later])):
                    sample.append(value)
        for first_gap, later_gap, first_reset, later_reset in samples.values():
            assert stats.ks_2samp(first_gap, later_gap).pvalue >= 0.01
            assert stats.ks_2samp(first_reset, later_reset).pvalue >= 0.01


class TestConfig:
    def test_rejects_bad_config(self):
        s = mixed_scenario()
        for field in ("cycles", "replications"):
            for bad in (0, -1):
                with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                    SimConfig(s, **{field: bad})
        assert SimConfig(s, cycles=1, replications=1).cycles == 1
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SimConfig(s, seed=-1)
        assert SimConfig(s, seed=0).seed == 0
        approx = ScenarioApprox(0.3, 0.5, s.delay_I, s.delay_II, s.mix)
        for bad, kind in ((approx, "ScenarioApprox"), ("scen.json", "str")):
            with pytest.raises(ValueError, match=f"^scenario must be a Scenario, got {kind}$"):
                SimConfig(bad)

    @pytest.mark.parametrize("field", ["cycles", "replications", "seed"])
    @pytest.mark.parametrize("value", [True, 2.5, 2.0, None])
    def test_rejects_bool_and_fractional(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(mixed_scenario(), **{field: value})

    def test_numpy_integer_stored_as_int(self):
        cfg = SimConfig(mixed_scenario(), cycles=np.int64(20000), replications=np.int64(10))
        assert type(cfg.cycles) is int and cfg.cycles == 20000
        assert type(cfg.replications) is int and cfg.replications == 10

    def test_rejects_threads_below_one(self):
        cfg = SimConfig(mixed_scenario(), cycles=2_000, replications=2)
        with pytest.raises(ValueError, match="threads"):
            simulate(cfg, threads=0)

    @pytest.mark.parametrize("threads", [True, 1.5, 2.0])
    def test_rejects_bool_and_fractional_threads(self, threads):
        cfg = SimConfig(mixed_scenario(), cycles=2_000, replications=2)
        with pytest.raises(ValueError, match="^threads must be an integer"):
            simulate(cfg, threads=threads)

    def test_numpy_integer_threads_accepted(self):
        cfg = SimConfig(mixed_scenario(), cycles=2_000, replications=2)
        assert simulate(cfg, threads=np.int64(2)) == simulate(cfg, threads=1)


class TestSimulate:
    def test_zero_wait_anchor(self):
        s = Scenario(1, 1, 1, ShiftedExp(1, 0), ShiftedExp(1, 0), StreamMix(1.0))
        res = simulate(SimConfig(s, cycles=200_000, seed=3, replications=10))
        assert abs(res.age_I - 2.0) <= 3 * res.se_I
        assert res.age_II == math.inf

    def test_deterministic_under_seed(self):
        cfg = SimConfig(mixed_scenario(), cycles=20_000, seed=77, replications=3)
        assert simulate(cfg) == simulate(cfg)

    def test_matches_exact_atwill(self):
        s = mixed_scenario()
        res = simulate(SimConfig(s, cycles=200_000, seed=11, replications=10))
        for stream in Stream:
            exact = age_pair(s).age(stream)
            tol = max(3 * res.se(stream), 0.01 * exact)
            assert abs(res.age(stream) - exact) <= tol

    def test_matches_exact_exogenous(self):
        s = mixed_scenario(Exogenous(2.0))
        res = simulate(SimConfig(s, cycles=200_000, seed=12, replications=10))
        for stream in Stream:
            exact = age_pair(s).age(stream)
            tol = max(3 * res.se(stream), 0.01 * exact)
            assert abs(res.age(stream) - exact) <= tol

    def test_parallel_equals_serial(self):
        cfg = SimConfig(mixed_scenario(), cycles=20_000, seed=21, replications=4)
        assert simulate(cfg, threads=2) == simulate(cfg, threads=1)
        # Replications that the workers do not divide evenly.
        uneven = SimConfig(mixed_scenario(), cycles=20_000, seed=21, replications=5)
        serial = simulate(uneven, threads=1)
        for threads in (2, 3):
            assert simulate(uneven, threads=threads) == serial
        # Exogenous, over 2.5 blocks, the last one half full.
        blocks = SimConfig(mixed_scenario(Exogenous(2.0)), cycles=5 * sim_mod._BLOCK // 2,
                           seed=22, replications=3)
        assert simulate(blocks, threads=2) == simulate(blocks, threads=1)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity and at least 2 allowed CPUs",
    )
    def test_workers_run_on_distinct_cpus(self, tmp_path, monkeypatch):
        # The pool sends this wrapper to its workers, so each records its pid
        # and affinity mask as it starts a replication. The parent sees only
        # two allowed CPUs, so that its 2 workers fill the mask and are pinned.
        monkeypatch.setattr(sim_mod, "_sim_worker", functools.partial(_placed_worker, tmp_path))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(sorted(_affinity(pid))[:2]))
        cfg = SimConfig(mixed_scenario(), cycles=20_000, seed=21, replications=2)
        simulate(cfg, threads=2)
        placed = {}
        for path in tmp_path.iterdir():
            pid, cpus = json.loads(path.read_text())
            placed[pid] = cpus
        assert len(placed) == 2
        (a,), (b,) = placed.values()
        assert a != b

    @needs_fork
    def test_pool_has_at_most_one_worker_per_replication(self, monkeypatch):
        workers, cpus = [], []

        def serial_fork(args, n_workers, pin):
            """Records the worker count and the CPU ids the workers would pin
            to, and runs the jobs in this process, which must stay unpinned."""
            workers.append(n_workers)
            cpus.append(pin)
            return [_sim_worker(a) for a in args]

        monkeypatch.setattr(sim_mod, "_forked", serial_fork)
        if hasattr(os, "sched_setaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5})
        else:
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = SimConfig(mixed_scenario(), cycles=2_000, seed=21, replications=3)
        serial = simulate(cfg, threads=1)
        assert simulate(cfg, threads=500) == serial
        assert simulate(cfg, threads=2) == serial
        # At most one worker per allowed CPU.
        assert workers == [2, 2]
        # One replication runs in this process: no pool of one worker.
        one = SimConfig(mixed_scenario(), cycles=2_000, seed=21, replications=1)
        assert simulate(one, threads=4) == simulate(one, threads=1)
        assert workers == [2, 2]
        # A pool that fills the mask puts one worker on each CPU; a pool
        # with fewer workers than allowed CPUs runs unpinned.
        if hasattr(os, "sched_setaffinity"):
            assert cpus == [[3, 5], [3, 5]]
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5, 7})
            assert simulate(cfg, threads=2) == serial
            assert cpus[-1] is None

    def test_serial_where_fork_is_absent(self, monkeypatch):
        # As on Windows: the replications run in the caller, with the same result.
        cfg = SimConfig(mixed_scenario(), cycles=2_000, seed=21, replications=3)
        serial = simulate(cfg, threads=1)
        # Two allowed CPUs, so that threads=2 would fork two workers.
        if hasattr(os, "sched_setaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5})
        else:
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sim_mod, "_forked", None)  # a call would raise
        monkeypatch.delattr(os, "fork")
        assert simulate(cfg, threads=2) == serial

    def _fork_with(self, monkeypatch, worker, args=range(5), workers=2):
        """sim._forked over `args`, with `worker` in place of `_sim_worker`."""
        monkeypatch.setattr(sim_mod, "_sim_worker", worker)
        return sim_mod._forked(list(args), workers, None)

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    def test_forked_results_in_replication_order(self, monkeypatch):
        # Child w runs args[w::workers], in a process of its own.
        outs = self._fork_with(monkeypatch, lambda a: (a, os.getpid()), range(7), workers=3)
        assert [a for a, _ in outs] == list(range(7))
        pids = [pid for _, pid in outs]
        assert os.getpid() not in pids
        assert [len(set(pids[w::3])) for w in range(3)] == [1, 1, 1] and len(set(pids)) == 3
        self._assert_no_child_left()

    @needs_fork
    def test_forked_child_exception_reaches_caller(self, monkeypatch):
        def worker(a):
            if a == 3:
                raise ZeroDivisionError(f"replication {a} divided by zero")
            return a

        with pytest.raises(ZeroDivisionError, match="^replication 3 divided by zero$"):
            self._fork_with(monkeypatch, worker)
        self._assert_no_child_left()

    @needs_fork
    def test_forked_child_killed_raises(self, monkeypatch):
        def worker(a):
            if a == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return a

        with pytest.raises(RuntimeError,
                           match=r"^simulation worker \d+ killed by signal 9 without a result$"):
            self._fork_with(monkeypatch, worker)
        self._assert_no_child_left()

    @needs_fork
    def test_forked_child_bad_exit_raises(self, monkeypatch):
        with pytest.raises(RuntimeError,
                           match=r"^simulation worker \d+ exited with code 3 without a result$"):
            self._fork_with(monkeypatch, lambda a: os._exit(3))
        self._assert_no_child_left()

    @needs_fork
    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
    def test_interrupted_parent_kills_its_children(self, monkeypatch):
        # The children sleep; a timer interrupts the parent while it reads
        # their pipes, and it must kill and reap them rather than wait.
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                self._fork_with(monkeypatch, lambda a: time.sleep(60))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30
        self._assert_no_child_left()

    def test_tagged_index_irrelevant(self, monkeypatch):
        # The reference sampler agrees with itself whichever receiver it tags.
        s = mixed_scenario()
        ages = []
        for seed, tagged in ((31, 0), (32, 7)):
            def reference(d, k, n, rng, span, own, hit, e, mask, t=tagged):
                span[:], own[:], hit[:] = _reference_stream(d, k, n, span.size, rng, t)
                own -= d.shift  # the pass adds the shift back at the deliveries

            monkeypatch.setattr(sim_mod, "_sample_stream", reference)
            ages.append(simulate(SimConfig(s, cycles=100_000, seed=seed, replications=8)))
        a, b = ages
        joint = math.hypot(a.se_I, b.se_I)
        assert abs(a.age_I - b.age_I) <= 4 * joint

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)], ids=["atwill", "exo"])
    def test_matches_exact_at_a_million_receivers(self, mode):
        s = Scenario(10**6, 300_000, 500_000, DELAY_I, DELAY_II, StreamMix(0.6), mode)
        res = simulate(SimConfig(s, cycles=200_000, seed=13, replications=10))
        for stream in Stream:
            exact = age_pair(s).age(stream)
            tol = max(3 * res.se(stream), 0.01 * exact)
            assert abs(res.age(stream) - exact) <= tol

    def test_horizon_matches_mean_cycle_length(self):
        # at-will: no idle gaps, so horizon ~ cycles * E[Y]
        s = mixed_scenario()
        cfg = SimConfig(s, cycles=100_000, seed=41, replications=4)
        res = simulate(cfg)
        ey = 0.6 * os_moments(s.delay_I, 3, 10)[0] + 0.4 * os_moments(s.delay_II, 5, 10)[0]
        per_cycle = res.sim_time / (cfg.cycles * cfg.replications)
        assert per_cycle == pytest.approx(ey, rel=0.01)
        # exogenous adds E[Z] = 1/mu per cycle
        s2 = mixed_scenario(Exogenous(2.0))
        res2 = simulate(SimConfig(s2, cycles=100_000, seed=42, replications=4))
        per_cycle2 = res2.sim_time / (100_000 * 4)
        assert per_cycle2 == pytest.approx(ey + 0.5, rel=0.01)

    def test_age_never_below_shift(self):
        res = simulate(SimConfig(mixed_scenario(), cycles=50_000, seed=51))
        assert res.age_I >= 1.0
        assert res.age_II >= 0.5

    def test_too_few_cycles_errors(self):
        # p1 q1 = 0.003: 10 cycles rarely deliver twice
        s = Scenario(100, 1, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(0.3))
        with pytest.raises(RuntimeError):
            simulate(SimConfig(s, cycles=10, seed=1, replications=2))


def random_scenario(i):
    """The i-th seeded random scenario: asymmetric delay laws with rates and
    shifts spanning decades, p1 in [0.05, 0.95], n log-uniform in the i-th of
    eight strata up to 10^6, p k / n >= 0.01 for both streams, and odd i
    exogenous with mu spanning decades."""
    rng = np.random.default_rng([2026, i])
    delays = [ShiftedExp(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-3, 1)) for _ in range(2)]
    mix = StreamMix(rng.uniform(0.05, 0.95))
    n = max(1, round(10 ** rng.uniform(0.75 * i, 0.75 * (i + 1))))
    ks = []
    for p in (mix.p1, mix.p2):
        lo = math.ceil(0.01 * n / p)
        ks.append(min(n, round(math.exp(rng.uniform(math.log(lo), math.log(n + 1))))))
    mode = Exogenous(10 ** rng.uniform(-2, 2)) if i % 2 else AtWill()
    return Scenario(n, *ks, *delays, mix, mode)


@pytest.mark.parametrize("i", range(8))
def test_matches_exact_on_random_scenarios(i):
    s = random_scenario(i)
    assert min(s.mix.p1 * s.k1, s.mix.p2 * s.k2) >= 0.01 * s.n
    res = simulate(SimConfig(s, cycles=300_000, seed=2100 + i, replications=10))
    exact = age_pair(s)
    for stream in Stream:
        tol = max(0.01 * exact.age(stream), 3 * res.se(stream))
        assert abs(res.age(stream) - exact.age(stream)) <= tol, (s, stream)


class TestEmpiricalStatistics:
    @staticmethod
    def delivery_probability(cfg, stream):
        traces = [rep[stream] for rep in replication_traces(cfg)]
        return (sum(t.delivery_times.size for t in traces)
                / sum(t.type_cycles for t in traces))

    @staticmethod
    def interarrival_moments(cfg, stream):
        g = np.concatenate([np.diff(rep[stream].delivery_times)
                            for rep in replication_traces(cfg)])
        return Moments2(float(g.mean()), float(np.mean(g * g)))

    def test_delivery_probability_full_threshold(self):
        s = Scenario(4, 4, 4, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(0.5))
        cfg = SimConfig(s, cycles=20_000, seed=61, replications=2)
        assert self.delivery_probability(cfg, Stream.TYPE_I) == 1.0

    def test_delivery_probability_three_of_ten(self):
        cfg = SimConfig(mixed_scenario(), cycles=200_000, seed=62, replications=5)
        p = self.delivery_probability(cfg, Stream.TYPE_I)
        n_cycles = 0.6 * 5 * 200_000  # rough count of type-I cycles
        se = math.sqrt(0.3 * 0.7 / n_cycles)
        assert abs(p - 0.3) <= 3 * se

    def test_delivery_probability_half(self):
        s = Scenario(2, 1, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(0.5))
        cfg = SimConfig(s, cycles=200_000, seed=63, replications=3)
        p = self.delivery_probability(cfg, Stream.TYPE_I)
        se = math.sqrt(0.25 / (0.5 * 3 * 200_000))
        assert abs(p - 0.5) <= 3 * se

    def test_interarrival_single_stream_full_threshold(self):
        s = Scenario(6, 6, 1, ShiftedExp(1, 1), ShiftedExp(1, 1), StreamMix(1.0))
        cfg = SimConfig(s, cycles=100_000, seed=64, replications=3)
        m = self.interarrival_moments(cfg, Stream.TYPE_I)
        expect = os_moments(ShiftedExp(1, 1), 6, 6)[0]
        se = math.sqrt(variance(m) / (3 * 100_000))
        assert abs(m.m1 - expect) <= 3 * se

    def test_interarrival_symmetric_streams_agree(self):
        d = ShiftedExp(1, 1)
        s = Scenario(10, 4, 4, d, d, StreamMix(0.5))
        cfg = SimConfig(s, cycles=150_000, seed=65, replications=4)
        m1 = self.interarrival_moments(cfg, Stream.TYPE_I)
        m2 = self.interarrival_moments(cfg, Stream.TYPE_II)
        count = 0.5 * 0.4 * 0.5 * 4 * 150_000
        joint_se = math.sqrt((variance(m1) + variance(m2)) / count)
        assert abs(m1.m1 - m2.m1) <= 3 * joint_se

    @pytest.mark.parametrize("mode", [AtWill(), Exogenous(2.0)])
    def test_interarrival_matches_analytic(self, mode):
        s = mixed_scenario(mode)
        cfg = SimConfig(s, cycles=200_000, seed=66, replications=5)
        analytic = s_moments(s, Stream.TYPE_I)
        m = self.interarrival_moments(cfg, Stream.TYPE_I)
        n_gaps = 0.18 * 5 * 200_000
        se1 = math.sqrt(variance(m) / n_gaps)
        assert abs(m.m1 - analytic.m1) <= 3 * se1
        assert abs(m.m2 - analytic.m2) / analytic.m2 < 0.03

    def test_cycle_gaps_look_geometric(self):
        cfg = SimConfig(mixed_scenario(), cycles=100_000, seed=67, replications=2)
        gaps = np.concatenate([np.diff(rep[Stream.TYPE_I].delivery_cycles)
                               for rep in replication_traces(cfg)])
        assert np.all(gaps >= 1)
        # success probability p1 * k1 / n = 0.18
        assert gaps.mean() == pytest.approx(1 / 0.18, rel=0.02)
