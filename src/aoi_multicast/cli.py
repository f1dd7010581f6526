"""Command-line surface: eval | simulate | validate | pareto | sweep.

Scenario input is JSON, structured results go to stdout as JSON, and table
outputs (pareto, sweep) are CSV files. All randomness is seed-explicit;
the default seed is a fixed constant, never environment entropy.

Every verb builds its scenarios through `parse_scenario`: it checks the JSON
types and keys, and the dataclasses check the value ranges, so an error
names the offending key (`delay_I.rate`, `alpha1`, ...). `sweep` sets the
swept key in a copy of the document and parses each copy, so its values pass
the same checks as the file; `--alpha1/--alpha2` must lie in (0, 1), and a
ratio that `sweep` or `eval` does not use is an error.

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
    """The value of doc at the last part of the dotted key path."""
    name = key.rpartition(".")[2]
    if name not in doc:
        if required:
            raise SchemaError(key, "missing required key")
        return None
    return doc[name]


def _number(doc: dict, key: str, required: bool = True):
    v = _get(doc, key, required)
    if v is None:
        return None
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SchemaError(key, f"must be a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(key, "must be finite, got an integer beyond the float range") from None


def _integer(doc: dict, key: str, required: bool = True):
    v = _get(doc, key, required)
    if v is None:
        return None
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(key, f"must be an integer, got {type(v).__name__}")
    return v


def _build(prefix: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), with its range check's ValueError, whose message
    starts with the field name, raised as a SchemaError keyed by prefix + field."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        field, _, message = str(e).partition(" ")
        raise SchemaError(prefix + field, message) from None


def _delay(doc: dict, key: str) -> ShiftedExp:
    v = _get(doc, key)
    if not isinstance(v, dict):
        raise SchemaError(key, "must be an object with keys rate, shift")
    extra = set(v) - {"rate", "shift"}
    if extra:
        raise SchemaError(f"{key}.{sorted(extra)[0]}", "unknown key")
    rate, shift = _number(v, f"{key}.rate"), _number(v, f"{key}.shift")
    return _build(f"{key}.", ShiftedExp, rate=rate, shift=shift)


def parse_scenario(doc: dict, need_thresholds: bool = True):
    """Validate a scenario document and build (template, k1, k2).

    The JSON types and keys are checked here, the value ranges by the
    dataclasses. k1/k2 are None when absent and not required; any that are
    given are range-checked.
    """
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "scenario document must be a JSON object")
    extra = set(doc) - _SCENARIO_KEYS
    if extra:
        raise SchemaError(sorted(extra)[0], "unknown key")

    n = _integer(doc, "n")
    delay_I = _delay(doc, "delay_I")
    delay_II = _delay(doc, "delay_II")
    mix = _build("", StreamMix, _number(doc, "p1"))

    mode_name = _get(doc, "mode")
    if mode_name == "at_will":
        if "mu" in doc:
            raise SchemaError("mu", "only valid with mode = exogenous")
        mode = AtWill()
    elif mode_name == "exogenous":
        mode = _build("", Exogenous, _number(doc, "mu"))
    else:
        raise SchemaError("mode", f'must be "at_will" or "exogenous", got {mode_name!r}')

    k1 = _integer(doc, "k1", required=need_thresholds)
    k2 = _integer(doc, "k2", required=need_thresholds)
    template = _build("", ScenarioTemplate, delay_I, delay_II, mix, mode, n)
    if k1 is not None or k2 is not None:
        # An absent threshold stands in as 1, which every n >= 1 admits.
        _build("", template.with_thresholds, 1 if k1 is None else k1, 1 if k2 is None else k2)
    return template, k1, k2


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise SchemaError("<file>", str(e))
    except ValueError as e:  # a JSONDecodeError, or an integer beyond Python's digit limit
        raise SchemaError("<file>", f"invalid JSON: {e}")


def load_scenario_file(path: str, need_thresholds: bool = True):
    return parse_scenario(_load_json(path), need_thresholds=need_thresholds)


def _age_json(age: float):
    return "infinite" if math.isinf(age) else age


# -- commands ---------------------------------------------------------------


def _cmd_eval(args) -> int:
    template, k1, k2 = load_scenario_file(args.scenario, need_thresholds=not args.approx)
    if args.approx:
        for key in ("alpha1", "alpha2"):
            if getattr(args, key) is None:
                raise SchemaError(key, "required with --approx")
        scenario = _build("", template.with_alphas, args.alpha1, args.alpha2)
    else:
        for key in ("alpha1", "alpha2"):
            if getattr(args, key) is not None:
                raise SchemaError(key, "used only with --approx")
        scenario = template.with_thresholds(k1, k2)
    pair = age_pair(scenario)
    print(json.dumps({"age_I": _age_json(pair.age_I), "age_II": _age_json(pair.age_II)}))
    return EXIT_OK


def _sim_config(args, scenario: Scenario) -> SimConfig:
    return SimConfig(scenario, cycles=args.cycles, seed=args.seed,
                     replications=args.replications)


def _cmd_simulate(args) -> int:
    template, k1, k2 = load_scenario_file(args.scenario)
    cfg = _sim_config(args, template.with_thresholds(k1, k2))
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
    sim = simulate(_sim_config(args, scenario), threads=args.threads)

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


def _float_list(key: str, spec: str) -> list[float]:
    """The nonempty comma-separated floats of an option value."""
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise SchemaError(key, f"could not parse {spec!r} as comma-separated floats") from None
    if not values:
        raise SchemaError(key, "need a nonempty comma-separated list")
    return values


def _csv_cell(v):
    if isinstance(v, float) and math.isinf(v):
        return "infinite"
    return repr(v) if isinstance(v, float) else v


def _write_table(path: str, header, rows) -> None:
    """Write header and rows as CSV to path, and report the row count on stdout."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_csv_cell(v) for v in row] for row in rows)
    print(f"{len(rows)} rows")


def _cmd_pareto(args) -> int:
    template, _, _ = load_scenario_file(args.scenario, need_thresholds=False)
    betas = (list(np.linspace(0.0, 1.0, 33)) if args.betas is None
             else _float_list("betas", args.betas))
    frontier = pareto_frontier(template, betas, evaluator=args.evaluator, grid=args.grid)
    x1, x2 = ("alpha1", "alpha2") if args.evaluator == "approx" else ("k1", "k2")
    _write_table(args.out, ["beta", x1, x2, "age_I", "age_II", "objective"], [
        [p.beta, getattr(p, x1), getattr(p, x2), p.age_I, p.age_II, p.objective]
        for p in frontier
    ])
    return EXIT_OK


_SWEEP_PARAMS = ("n", "k1", "k2", "p1", "mu", "alpha1", "alpha2")


def _check_sweep_ratios(args) -> None:
    """Reject a --alpha1/--alpha2 that the sweep needs and lacks, or has and does
    not use: an alpha sweep fixes the other ratio, an n sweep both or neither."""
    param = args.param
    given = [key for key in ("alpha1", "alpha2") if getattr(args, key) is not None]
    if param in ("alpha1", "alpha2") and given in ([], [param]):
        raise SchemaError(param, "sweeping one alpha requires fixing the other "
                                 "via --alpha1/--alpha2")
    for key in given:
        if param == "n" and len(given) == 1:
            raise SchemaError(key, "a sweep over n takes --alpha1 and --alpha2 together")
        if param not in ("n", "alpha1", "alpha2") or key == param:
            raise SchemaError(key, f"not used by a sweep over {param}")


def _sweep_point(doc: dict, template: ScenarioTemplate, args, value: float):
    """age_pair of the scenario document with args.param set to value.

    An n sweep with both ratios fixed sets k = max(1, round(alpha * n)).
    """
    param = args.param
    alphas = {"alpha1": args.alpha1, "alpha2": args.alpha2}
    if param in alphas:
        alphas[param] = value
        return age_pair(_build("", template.with_alphas, **alphas))
    point = dict(doc, **{param: int(value) if param in ("n", "k1", "k2") else value})
    if param == "n" and None not in alphas.values():
        ratios = _build("", template.with_alphas, **alphas)
        point.update(k1=max(1, round(ratios.alpha1 * point["n"])),
                     k2=max(1, round(ratios.alpha2 * point["n"])))
    point_template, k1, k2 = parse_scenario(point)
    return age_pair(point_template.with_thresholds(k1, k2))


def _cmd_sweep(args) -> int:
    doc = _load_json(args.scenario)
    template, _, _ = parse_scenario(doc, need_thresholds=False)
    values = _float_list("values", args.values)
    if args.param in ("n", "k1", "k2"):
        bad = [v for v in values if not v.is_integer()]
        if bad:
            raise SchemaError("values", f"{args.param} needs integers, got {bad[0]!r}")
    _check_sweep_ratios(args)

    pairs = [_sweep_point(doc, template, args, v) for v in values]
    _write_table(args.out, ["param_value", "age_I", "age_II"],
                 [[v, p.age_I, p.age_II] for v, p in zip(values, pairs)])
    return EXIT_OK


# -- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-multicast",
        description="Average age of two update streams in an earliest-k1/k2 "
                    "multicast network: closed forms, simulation, optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim_args = argparse.ArgumentParser(add_help=False)
    sim_args.add_argument("scenario", help="scenario JSON file")
    sim_args.add_argument("--cycles", type=int, default=100_000)
    sim_args.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim_args.add_argument("--replications", type=int, default=10)
    sim_args.add_argument("--threads", type=int, default=1,
                          help="worker processes over replications (default 1: serial)")

    p = sub.add_parser("eval", help="evaluate the closed-form ages")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--approx", action="store_true", help="use the large-n forms")
    p.add_argument("--alpha1", type=float, help="threshold ratio for type I (--approx)")
    p.add_argument("--alpha2", type=float, help="threshold ratio for type II (--approx)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", parents=[sim_args], help="Monte Carlo age estimate")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", parents=[sim_args],
                       help="compare closed forms against simulation")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("pareto", help="weighted-optimum sweep over beta, CSV out")
    p.add_argument("scenario", help="scenario template JSON (k1/k2 ignored)")
    p.add_argument("--betas", help="comma-separated weights; default 33 even values")
    p.add_argument("--evaluator", choices=("exact", "approx"), default="exact")
    p.add_argument("--grid", type=int,
                   help="alpha grid size (approx only, 1 to 32768; default 512)")
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
    except (SchemaError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
