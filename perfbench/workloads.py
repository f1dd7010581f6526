"""Workloads of the aoi-multicast CLI benchmark: scenarios, verb runs and output checks.

Every operation is one `aoi-multicast` verb. A workload runs its `ops` in
order each round, each `repeat` times; `ops[0]` is reported as `op1_s` and
`ops[1]` as `op2_s`.
`post` operations run once per benchmark run and only feed output checks.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass

DELAYS = {"delay_I": {"rate": 1.0, "shift": 1.0}, "delay_II": {"rate": 2.0, "shift": 0.5}}

SCENARIOS = {
    "tiny": {"n": 10, "k1": 3, "k2": 5, "p1": 0.6, "mode": "at_will"},
    "wide": {"n": 100, "k1": 34, "k2": 50, "p1": 0.6, "mode": "at_will"},
    "narrow": {"n": 5, "k1": 2, "k2": 3, "p1": 0.9, "mode": "exogenous", "mu": 2.0},
    "exo128": {"n": 128, "p1": 0.6, "mode": "exogenous", "mu": 2.0},
    "atwill2048": {"n": 2048, "p1": 0.6, "mode": "at_will"},
    "atwill100": {"n": 100, "p1": 0.6, "mode": "at_will"},
}

# Tolerances of the output checks.
SIM_REL_FLOOR = 0.01  # simulated age vs eval: max(1% relative, 3 standard errors)
SIM_SE_FACTOR = 3.0
EXACT_REL = 1e-9  # exact pareto ages and eval ages vs the recorded reference
SWEEP_REL = 1e-7  # sweep ages vs the recorded reference
SWEEP_APPROX_REL = 1e-6  # sweep row n = 1e7 vs `eval --approx`


@dataclass(frozen=True)
class Op:
    """One verb invocation; `name` keys the reference outputs and the reports."""

    name: str
    verb: str
    scenario: str
    options: tuple = ()
    check: str = "eval"  # eval | simulate | pareto_exact | pareto_approx | sweep
    pairs: int = 0  # (k1, k2) pairs an exhaustive exact search evaluates
    repeat: int = 1  # runs per round: more samples of a short, noisy operation

    def option(self, flag: str, default: int) -> int:
        opts = list(self.options)
        return int(opts[opts.index(flag) + 1]) if flag in opts else default

    @property
    def cycles(self) -> int:
        """Simulated cycles over all replications (simulate only)."""
        return self.option("--cycles", 100_000) * self.option("--replications", 10)

    def argv(self, workdir: str, seed: int) -> list[str]:
        argv = [self.verb, f"{workdir}/{self.scenario}.json", *self.options]
        if self.verb == "simulate":
            argv += ["--seed", str(seed)]
        if self.verb in ("pareto", "sweep"):
            argv += ["--out", f"{workdir}/{self.name}.csv"]
        return argv


@dataclass(frozen=True)
class Workload:
    ops: tuple
    post: tuple = ()


SETUP_OP = Op("eval_tiny", "eval", "tiny")

WORKLOADS = {
    # n = 100: per-cycle cost is n exponential draws plus np.partition; the
    # 2-worker replication pool is in use. 180 000 cycles keep each stream's
    # cycle count well inside one number of sampling chunks, whatever the
    # seed, so the peak RSS does not jump between seeds.
    "sim_wide": Workload(ops=(
        Op("simulate", "simulate", "wide",
           ("--threads", "2", "--cycles", "180000", "--replications", "10"),
           check="simulate"),
        Op("eval_wide", "eval", "wide", repeat=3),
    )),
    # n = 5: sampling is cheap, cost sits in the type mask, idle-gap draws,
    # cumsum and area accumulation. Serial, since the pool is unsteady here.
    "sim_narrow": Workload(ops=(
        Op("simulate", "simulate", "narrow",
           ("--threads", "1", "--cycles", "1000000", "--replications", "10"),
           check="simulate"),
        Op("eval_narrow", "eval", "narrow", repeat=3),
    )),
    # n^2 + 33 scalar closed-form evaluations, then the coarse-to-fine path.
    # n = 128 rather than 256 gives four times as many samples per run.
    "optimize_exact": Workload(ops=(
        Op("pareto_exact", "pareto", "exo128", ("--evaluator", "exact"),
           check="pareto_exact", pairs=128 * 128),
        Op("pareto_c2f", "pareto", "atwill2048",
           ("--evaluator", "exact", "--betas", "0.25,0.5,0.75"), check="pareto_exact"),
    )),
    # Harmonic-number work growing with n, and the vectorized approx search.
    "closed_form_sweep": Workload(
        ops=(
            Op("sweep_n", "sweep", "atwill100",
               ("--param", "n", "--values", "1e2,1e3,1e4,1e5,1e6,1e7",
                "--alpha1", "0.3", "--alpha2", "0.5"), check="sweep"),
            Op("pareto_approx", "pareto", "exo128",
               ("--evaluator", "approx", "--grid", "512"), check="pareto_approx"),
        ),
        post=(Op("eval_approx", "eval", "atwill100",
                 ("--approx", "--alpha1", "0.3", "--alpha2", "0.5")),),
    ),
}

# The sweep operation whose last row is n = 1e7; its first order-statistic
# call at that n is reported as orderstats.first_call_s_n1e7.
FIRST_CALL_OP = "sweep_n"


def write_scenarios(workdir: str) -> None:
    for name, doc in SCENARIOS.items():
        with open(f"{workdir}/{name}.json", "w") as f:
            json.dump({**doc, **DELAYS}, f)


# -- parsing ----------------------------------------------------------------


class CheckError(Exception):
    pass


def _last_line(stdout: str) -> str:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise CheckError("no output line")
    return lines[-1]


def _json_line(stdout: str, keys) -> dict:
    try:
        doc = json.loads(_last_line(stdout))
    except json.JSONDecodeError:
        raise CheckError("last stdout line is not JSON")
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        raise CheckError(f"JSON output lacks one of {keys}")
    try:
        return {k: float(doc[k]) for k in keys}
    except (TypeError, ValueError):
        raise CheckError(f"non-numeric value in {doc}")


def _csv_rows(stdout: str, csv_text: str | None) -> list[list[str]]:
    m = re.fullmatch(r"(\d+) rows", _last_line(stdout).strip())
    if not m:
        raise CheckError('missing "N rows" line')
    if csv_text is None:
        raise CheckError("output CSV missing")
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    if len(rows) != int(m.group(1)):
        raise CheckError(f"stdout says {m.group(1)} rows, CSV has {len(rows)}")
    return rows


def parse(op: Op, stdout: str, csv_text: str | None):
    """The operation's result in the form the reference stores it."""
    if op.check == "eval":
        return _json_line(stdout, ("age_I", "age_II"))
    if op.check == "simulate":
        return _json_line(stdout, ("age_I", "age_II", "se_I", "se_II"))
    try:
        return [[float(v) for v in row] for row in _csv_rows(stdout, csv_text)]
    except ValueError:
        raise CheckError("non-numeric CSV cell")


# -- checks -----------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def _check_rows(got, ref, what):
    if len(got) != len(ref):
        raise CheckError(f"{len(got)} {what} rows, reference has {len(ref)}")


def check(op: Op, got, ref, peers: dict) -> None:
    """Raise CheckError when `got` disagrees with the reference or its peers.

    `peers` maps operation names of the same round (and post operations) to
    their parsed results; a simulation is compared with `eval_<scenario>`.
    """
    if op.check == "eval":
        for key in ("age_I", "age_II"):
            if not _close(got[key], ref[key], EXACT_REL):
                raise CheckError(f"{key} {got[key]!r} != reference {ref[key]!r}")
    elif op.check == "simulate":
        exact = peers.get(f"eval_{op.scenario}")
        if exact is None:
            raise CheckError("no eval result to compare with")
        for stream in ("I", "II"):
            sim, ex, se = got[f"age_{stream}"], exact[f"age_{stream}"], got[f"se_{stream}"]
            tol = max(SIM_REL_FLOOR * ex, SIM_SE_FACTOR * se)
            if not abs(sim - ex) <= tol:
                raise CheckError(f"age_{stream} simulated {sim} vs eval {ex}, tolerance {tol}")
    elif op.check == "pareto_exact":
        _check_rows(got, ref, "pareto")
        for g, r in zip(got, ref):
            # beta, k1, k2 exact; age_I, age_II, objective to EXACT_REL
            if g[:3] != r[:3] or not all(_close(a, b, EXACT_REL) for a, b in zip(g[3:], r[3:])):
                raise CheckError(f"pareto row {g} != reference {r}")
    elif op.check == "pareto_approx":
        _check_rows(got, ref, "pareto")
        # The coarse grid step is 1/(grid + 1); each of the two refinement
        # rounds spreads 33 points over two steps of the previous grid.
        step = (2 / 32) ** 2 / (op.option("--grid", 512) + 1)
        for g, r in zip(got, ref):
            if g[0] != r[0] or abs(g[1] - r[1]) > step or abs(g[2] - r[2]) > step:
                raise CheckError(f"pareto row {g} != reference {r} (step {step:.3g})")
    elif op.check == "sweep":
        _check_rows(got, ref, "sweep")
        for g, r in zip(got, ref):
            if g[0] != r[0] or not (_close(g[1], r[1], SWEEP_REL) and _close(g[2], r[2], SWEEP_REL)):
                raise CheckError(f"sweep row {g} != reference {r}")
        approx = peers.get("eval_approx")
        if approx is None:
            raise CheckError("no eval --approx result to compare with")
        last = got[-1]
        if not (_close(last[1], approx["age_I"], SWEEP_APPROX_REL)
                and _close(last[2], approx["age_II"], SWEEP_APPROX_REL)):
            raise CheckError(f"sweep row {last} too far from eval --approx {approx}")
    else:
        raise ValueError(f"unknown check {op.check!r}")
