"""Command-line surface: eval | simulate | validate | pareto | sweep.

Scenario input is JSON, structured results go to stdout as JSON, and table
outputs (pareto, sweep) are CSV files. All randomness is seed-explicit;
the default seed is a fixed constant, never environment entropy.

Exit codes: 0 success, 1 validation failure, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .analytic import (
    AtWill,
    Exogenous,
    Scenario,
    Stream,
    StreamMix,
    age_pair,
)
from .optimize import ScenarioTemplate, pareto_frontier
from .orderstats import ShiftedExp
from .sim import DEFAULT_SEED, SimConfig, simulate

__all__ = ["main", "run", "SchemaError", "load_scenario_file"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_SCENARIO_KEYS = {"n", "k1", "k2", "delay_I", "delay_II", "p1", "mode", "mu"}


class SchemaError(Exception):
    """Scenario file violates the schema; `key` names the offending field."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _get(doc: dict, key: str, required: bool = True):
    if key not in doc:
        if required:
            raise SchemaError(key, "missing required key")
        return None
    return doc[key]


def _number(doc: dict, key: str, required: bool = True):
    v = _get(doc, key, required)
    if v is None:
        return None
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(key, f"must be a number, got {type(v).__name__}")
    return float(v)


def _integer(doc: dict, key: str, required: bool = True):
    v = _get(doc, key, required)
    if v is None:
        return None
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(key, f"must be an integer, got {type(v).__name__}")
    return v


def _delay(doc: dict, key: str) -> ShiftedExp:
    v = _get(doc, key)
    if not isinstance(v, dict):
        raise SchemaError(key, "must be an object with keys rate, shift")
    extra = set(v) - {"rate", "shift"}
    if extra:
        raise SchemaError(f"{key}.{sorted(extra)[0]}", "unknown key")
    rate = _number(v, "rate")
    shift = _number(v, "shift")
    if rate is None or not rate > 0:
        raise SchemaError(f"{key}.rate", f"must be > 0, got {rate}")
    if shift is None or shift < 0:
        raise SchemaError(f"{key}.shift", f"must be >= 0, got {shift}")
    return ShiftedExp(rate=rate, shift=shift)


def parse_scenario(doc: dict, need_thresholds: bool = True):
    """Validate a scenario document and build (template, k1, k2).

    k1/k2 are None when absent and not required.
    """
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "scenario document must be a JSON object")
    extra = set(doc) - _SCENARIO_KEYS
    if extra:
        raise SchemaError(sorted(extra)[0], "unknown key")

    n = _integer(doc, "n")
    if n < 1:
        raise SchemaError("n", f"must be >= 1, got {n}")
    delay_I = _delay(doc, "delay_I")
    delay_II = _delay(doc, "delay_II")
    p1 = _number(doc, "p1")
    if not 0.0 <= p1 <= 1.0:
        raise SchemaError("p1", f"must lie in [0, 1], got {p1}")

    mode_name = _get(doc, "mode")
    if mode_name == "at_will":
        if "mu" in doc:
            raise SchemaError("mu", "only valid with mode = exogenous")
        mode = AtWill()
    elif mode_name == "exogenous":
        mu = _number(doc, "mu")
        if not mu > 0:
            raise SchemaError("mu", f"must be > 0, got {mu}")
        mode = Exogenous(mu)
    else:
        raise SchemaError("mode", f'must be "at_will" or "exogenous", got {mode_name!r}')

    k1 = _integer(doc, "k1", required=need_thresholds)
    k2 = _integer(doc, "k2", required=need_thresholds)
    for name, k in (("k1", k1), ("k2", k2)):
        if k is not None and not 1 <= k <= n:
            raise SchemaError(name, f"must lie in [1, {n}], got {k}")

    template = ScenarioTemplate(
        delay_I=delay_I, delay_II=delay_II, mix=StreamMix(p1), mode=mode, n=n
    )
    return template, k1, k2


def load_scenario_file(path: str, need_thresholds: bool = True):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise SchemaError("<file>", str(e))
    except json.JSONDecodeError as e:
        raise SchemaError("<file>", f"invalid JSON: {e}")
    return parse_scenario(doc, need_thresholds=need_thresholds)


def _age_json(age: float):
    return "infinite" if math.isinf(age) else age


# -- commands ---------------------------------------------------------------


def _cmd_eval(args) -> int:
    need_k = not args.approx
    template, k1, k2 = load_scenario_file(args.scenario, need_thresholds=need_k)
    if args.approx:
        if args.alpha1 is None or args.alpha2 is None:
            print("eval: --approx requires --alpha1 and --alpha2", file=sys.stderr)
            return EXIT_USAGE
        scenario = template.with_alphas(args.alpha1, args.alpha2)
    else:
        scenario = template.with_thresholds(k1, k2)
    pair = age_pair(scenario)
    print(json.dumps({"age_I": _age_json(pair.age_I), "age_II": _age_json(pair.age_II)}))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    template, k1, k2 = load_scenario_file(args.scenario)
    cfg = SimConfig(
        scenario=template.with_thresholds(k1, k2),
        cycles=args.cycles,
        seed=args.seed,
        warmup_cycles=args.warmup,
        replications=args.replications,
    )
    t0 = time.perf_counter()
    res = simulate(cfg, threads=args.threads)
    wall = time.perf_counter() - t0
    # Wall time goes to stderr so stdout stays byte-identical across
    # repeated runs with the same seed.
    print(f"wall_time_s: {wall:.3f}", file=sys.stderr)
    print(
        json.dumps(
            {
                "age_I": _age_json(res.age_I_hat),
                "age_II": _age_json(res.age_II_hat),
                "se_I": res.se_I,
                "se_II": res.se_II,
                "deliveries_I": res.deliveries_I,
                "deliveries_II": res.deliveries_II,
                "sim_time": res.sim_time,
            }
        )
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise SchemaError("tolerance", f"must be a finite number > 0, got {args.tolerance}")
    template, k1, k2 = load_scenario_file(args.scenario)
    scenario = template.with_thresholds(k1, k2)
    exact = age_pair(scenario)
    cfg = SimConfig(
        scenario=scenario,
        cycles=args.cycles,
        seed=args.seed,
        warmup_cycles=args.warmup,
        replications=args.replications,
    )
    sim = simulate(cfg, threads=args.threads)

    report = {}
    ok = True
    for stream, label in ((Stream.TYPE_I, "age_I"), (Stream.TYPE_II, "age_II")):
        ex = exact.age(stream)
        if math.isinf(ex):
            print(f"validate: stream {label} is starved, skipped", file=sys.stderr)
            report[label] = {"status": "skipped (starved)"}
            continue
        sv = float(sim.age(stream))
        se = sim.se(stream)
        rel = abs(sv - ex) / ex
        passed = bool(rel <= args.tolerance)
        ok = ok and passed
        report[label] = {
            "exact": ex,
            "simulated": sv,
            "rel_error": rel,
            "se": se,
            "z": (sv - ex) / se if se > 0 else None,
            "pass": passed,
        }
        if args.tolerance * ex < 3 * se:
            print(
                f"validate: {label} run too short to resolve the tolerance: "
                f"3*se = {3 * se:.4g} exceeds tolerance*exact = "
                f"{args.tolerance * ex:.4g}; add cycles or replications",
                file=sys.stderr,
            )
    report["result"] = "PASS" if ok else "FAIL"
    print(json.dumps(report))
    return EXIT_OK if ok else EXIT_FAIL


def _parse_betas(spec: str | None):
    if spec is None:
        return list(np.linspace(0.0, 1.0, 33))
    try:
        betas = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise SchemaError("betas", f"could not parse {spec!r} as comma-separated floats")
    if not betas or any(not 0.0 <= b <= 1.0 for b in betas):
        raise SchemaError("betas", "need a nonempty list of values in [0, 1]")
    return betas


def _csv_cell(v):
    if isinstance(v, float) and math.isinf(v):
        return "infinite"
    return repr(v) if isinstance(v, float) else v


def _cmd_pareto(args) -> int:
    template, _, _ = load_scenario_file(args.scenario, need_thresholds=False)
    betas = _parse_betas(args.betas)
    kwargs = {}
    if args.evaluator == "approx":
        kwargs["grid"] = args.grid
    frontier = pareto_frontier(template, betas, evaluator=args.evaluator, **kwargs)

    if args.evaluator == "approx":
        header = ["beta", "alpha1", "alpha2", "age_I", "age_II", "objective"]
        rows = [
            [p.beta, p.alpha1, p.alpha2, p.age_I, p.age_II, p.objective]
            for p in frontier
        ]
    else:
        header = ["beta", "k1", "k2", "age_I", "age_II", "objective"]
        rows = [
            [p.beta, p.k1, p.k2, p.age_I, p.age_II, p.objective]
            for p in frontier
        ]
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(v) for v in row])
    print(f"{len(rows)} rows")
    return EXIT_OK


_SWEEP_PARAMS = ("n", "k1", "k2", "p1", "mu", "alpha1", "alpha2")


def _sweep_point(template, k1, k2, args, param, value):
    """One (age_I, age_II) evaluation with `param` overridden to `value`."""
    if param in ("alpha1", "alpha2"):
        a1 = value if param == "alpha1" else args.alpha1
        a2 = value if param == "alpha2" else args.alpha2
        if a1 is None or a2 is None:
            raise SchemaError(param, "sweeping one alpha requires fixing the other "
                                     "via --alpha1/--alpha2")
        return age_pair(template.with_alphas(a1, a2))

    n, p1, mode = template.n, template.mix.p1, template.mode
    if param == "n":
        n = int(value)
        if args.alpha1 is not None and args.alpha2 is not None:
            k1 = max(1, round(args.alpha1 * n))
            k2 = max(1, round(args.alpha2 * n))
    elif param == "k1":
        k1 = int(value)
    elif param == "k2":
        k2 = int(value)
    elif param == "p1":
        p1 = float(value)
    elif param == "mu":
        if not isinstance(mode, Exogenous):
            raise SchemaError("mu", "sweeping mu requires mode = exogenous")
        mode = Exogenous(float(value))
    if k1 is None or k2 is None:
        raise SchemaError("k1", "sweep over this parameter needs k1 and k2 "
                                "(or --alpha1/--alpha2 when sweeping n)")
    scenario = Scenario(
        n, k1, k2, template.delay_I, template.delay_II, StreamMix(p1), mode
    )
    return age_pair(scenario)


def _cmd_sweep(args) -> int:
    template, k1, k2 = load_scenario_file(args.scenario, need_thresholds=False)
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        raise SchemaError("values", f"could not parse {args.values!r}")
    if not values:
        raise SchemaError("values", "need a nonempty comma-separated list")
    if args.param in ("n", "k1", "k2"):
        bad = [v for v in values if not v.is_integer()]
        if bad:
            raise SchemaError("values", f"{args.param} needs integers, got {bad[0]!r}")

    rows = []
    for v in values:
        pair = _sweep_point(template, k1, k2, args, args.param, v)
        rows.append([v, _csv_cell(pair.age_I), _csv_cell(pair.age_II)])
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["param_value", "age_I", "age_II"])
        for row in rows:
            w.writerow([_csv_cell(row[0]), row[1], row[2]])
    print(f"{len(rows)} rows")
    return EXIT_OK


# -- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-multicast",
        description="Average age of two update streams in an earliest-k1/k2 "
                    "multicast network: closed forms, simulation, optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the closed-form ages")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--approx", action="store_true", help="use the large-n forms")
    p.add_argument("--alpha1", type=float, help="threshold ratio for type I")
    p.add_argument("--alpha2", type=float, help="threshold ratio for type II")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="Monte Carlo age estimate")
    p.add_argument("scenario")
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes over replications (default 1: serial)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="compare closed forms against simulation")
    p.add_argument("scenario")
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes over replications (default 1: serial)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("pareto", help="weighted-optimum sweep over beta, CSV out")
    p.add_argument("scenario", help="scenario template JSON (k1/k2 ignored)")
    p.add_argument("--betas", help="comma-separated weights; default 33 even values")
    p.add_argument("--evaluator", choices=("exact", "approx"), default="exact")
    p.add_argument("--grid", type=int, default=512, help="alpha grid size (approx)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("sweep", help="1-D parameter sweep, CSV out")
    p.add_argument("scenario")
    p.add_argument("--param", choices=_SWEEP_PARAMS, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--alpha1", type=float, help="fixed ratio (n or alpha sweeps)")
    p.add_argument("--alpha2", type=float, help="fixed ratio (n or alpha sweeps)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; normalize to our contract
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
