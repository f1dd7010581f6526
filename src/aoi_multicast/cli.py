"""Command-line surface: eval | simulate | validate | pareto | sweep.

Scenario input is JSON, structured results go to stdout as JSON, and table
outputs (pareto, sweep) are CSV files. All randomness is seed-explicit;
the default seed is a fixed constant, never environment entropy.

The CLI checks only the JSON structure and keys and the combinations of
options; the library checks each value. `sweep` parses a copy of the
document per value, with the swept key set, so its values pass the same
checks as the file. A rejected value raises a ValueError whose message
starts with its key, as in `p1 must lie in [0, 1], got 1.5`, or, for an
unknown key, which may hold a space, whose arguments are (key, message).
`main` alone prints it as `error: KEY: message`, and a RuntimeError, which
reports a run's outcome, as `error: message`.

Exit codes: 0 success, 1 validation failure, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
from .optimize import EXACT_LIMIT, ScenarioTemplate, pareto_frontier
from .orderstats import ShiftedExp, _check_integer, _check_range
from .sim import SimConfig, simulate

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_SCENARIO_KEYS = {"n", "k1", "k2", "delay_I", "delay_II", "p1", "mode", "mu"}


def _get(doc: dict, key: str):
    """The value of doc at the last part of the dotted key path; JSON null is
    a value, not an absent key."""
    name = key.rpartition(".")[2]
    if name not in doc:
        raise ValueError(f"{key} missing required key")
    return doc[name]


def _delay(doc: dict, key: str) -> ShiftedExp:
    v = _get(doc, key)
    if not isinstance(v, dict):
        raise ValueError(f"{key} must be an object with keys rate, shift")
    extra = set(v) - {"rate", "shift"}
    if extra:
        raise ValueError(f"{key}.{sorted(extra)[0]}", "unknown key")
    rate, shift = _get(v, f"{key}.rate"), _get(v, f"{key}.shift")
    try:
        return ShiftedExp(rate, shift)
    except ValueError as e:  # its message starts with the field name
        raise ValueError(f"{key}.{e}") from None


def parse_scenario(doc: dict, need_thresholds: bool = True):
    """Validate a scenario document and build (template, scenario).

    The JSON structure and keys are checked here, each value's type and range
    by the dataclasses. k1/k2 are required when need_thresholds is set; any
    that are given are checked. scenario is the template at the document's
    k1 and k2, or None unless both are given.
    """
    if not isinstance(doc, dict):
        raise ValueError("<root> scenario document must be a JSON object")
    extra = set(doc) - _SCENARIO_KEYS
    if extra:
        raise ValueError(sorted(extra)[0], "unknown key")

    # Required here, though a template may leave n out.
    n = _check_integer("n", _get(doc, "n"))
    delay_I = _delay(doc, "delay_I")
    delay_II = _delay(doc, "delay_II")
    mix = StreamMix(_get(doc, "p1"))

    mode_name = _get(doc, "mode")
    if mode_name == "at_will":
        if "mu" in doc:
            raise ValueError("mu only valid with mode = exogenous")
        mode = AtWill()
    elif mode_name == "exogenous":
        mode = Exogenous(_get(doc, "mu"))
    else:
        raise ValueError(f'mode must be "at_will" or "exogenous", got {mode_name!r}')

    template = ScenarioTemplate(delay_I, delay_II, mix, mode, n)
    given = {key: _get(doc, key) for key in ("k1", "k2") if need_thresholds or key in doc}
    # An absent threshold stands in as 1, which every n >= 1 admits.
    scenario = given and template.with_thresholds(**{"k1": 1, "k2": 1, **given})
    return template, scenario if len(given) == 2 else None


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ValueError(f"<file> {e}")
    except ValueError as e:  # a JSONDecodeError, or an integer beyond Python's digit limit
        raise ValueError(f"<file> invalid JSON: {e}")


def _cell(v):
    """v for JSON or CSV, which both write a float as its repr: "infinite" for
    an infinite float."""
    return "infinite" if isinstance(v, float) and math.isinf(v) else v


def _print_fields(result) -> None:
    """Print the fields of a result dataclass as one JSON object."""
    print(json.dumps({key: _cell(v) for key, v in dataclasses.asdict(result).items()}))


# -- commands ---------------------------------------------------------------


def _cmd_eval(args) -> int:
    template, scenario = parse_scenario(_load_json(args.scenario), need_thresholds=not args.approx)
    if args.approx:
        for key in ("alpha1", "alpha2"):
            if getattr(args, key) is None:
                raise ValueError(f"{key} required with --approx")
        scenario = template.with_alphas(args.alpha1, args.alpha2)
    else:
        for key in ("alpha1", "alpha2"):
            if getattr(args, key) is not None:
                raise ValueError(f"{key} used only with --approx")
    _print_fields(age_pair(scenario))
    return EXIT_OK


def _sim_config(args, scenario: Scenario) -> SimConfig:
    return SimConfig(scenario, cycles=args.cycles, seed=args.seed,
                     replications=args.replications)


def _cmd_simulate(args) -> int:
    cfg = _sim_config(args, parse_scenario(_load_json(args.scenario))[1])
    t0 = time.perf_counter()
    res = simulate(cfg, threads=args.threads)
    wall = time.perf_counter() - t0
    # Wall time goes to stderr so stdout stays byte-identical across
    # repeated runs with the same seed.
    print(f"wall_time_s: {wall:.3f}", file=sys.stderr)
    _print_fields(res)
    return EXIT_OK


def _cmd_validate(args) -> int:
    _check_range("tolerance", args.tolerance, 0, math.inf, open=True)
    _, scenario = parse_scenario(_load_json(args.scenario))
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
        raise ValueError(f"{key} could not parse {spec!r} as comma-separated floats") from None
    if not values:
        raise ValueError(f"{key} need a nonempty comma-separated list")
    return values


def _integer(param: str, token: str) -> int:
    """A --values token of n, k1 or k2 as an exact int; a float token such as
    1e7 only where it is integral and below 2^53, so that it names one int."""
    try:
        return int(token)
    except ValueError:
        value = float(token)  # _float_list has parsed it
    if value.is_integer() and abs(value) < 2**53:
        return int(value)
    raise ValueError(f"values {param} needs integers, got {token.strip()!r}; a float token "
                     "must be integral and below 2^53")


def _write_table(path: str, header, rows) -> None:
    """Write header and rows as CSV to path, and report the row count on stdout."""
    try:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows([_cell(v) for v in row] for row in rows)
    except OSError as e:
        raise ValueError(f"out {e}") from None
    print(f"{len(rows)} rows")


def _cmd_pareto(args) -> int:
    template, _ = parse_scenario(_load_json(args.scenario), need_thresholds=False)
    betas = (list(np.linspace(0.0, 1.0, 33)) if args.betas is None
             else _float_list("betas", args.betas))
    frontier = pareto_frontier(template, betas, evaluator=args.evaluator, grid=args.grid)
    if args.evaluator == "exact" and template.n > EXACT_LIMIT:
        print(f"pareto: n = {template.n} is above {EXACT_LIMIT}, so the search is "
              "coarse-to-fine and may miss the optimum", file=sys.stderr)
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
        raise ValueError(f"{param} sweeping one alpha requires fixing the other "
                         "via --alpha1/--alpha2")
    for key in given:
        if param == "n" and len(given) == 1:
            raise ValueError(f"{key} a sweep over n takes --alpha1 and --alpha2 together")
        if param not in ("n", "alpha1", "alpha2") or key == param:
            raise ValueError(f"{key} not used by a sweep over {param}")


def _sweep_point(doc: dict, template: ScenarioTemplate, args, value: float | int):
    """age_pair of the scenario document with args.param set to value.

    An n sweep with both ratios fixed sets k = max(1, round(alpha * n)),
    exact and a half to even, on alpha's shortest decimal: the ratio as typed.
    """
    param = args.param
    alphas = {"alpha1": args.alpha1, "alpha2": args.alpha2}
    if param in alphas:
        alphas[param] = value
        return age_pair(template.with_alphas(**alphas))
    point = dict(doc, **{param: value})
    if param == "n" and None not in alphas.values():
        from fractions import Fraction  # it loads decimal, 0.3 MiB that other verbs skip
        ratios = template.with_alphas(**alphas)
        point.update(k1=max(1, round(Fraction(repr(ratios.alpha1)) * point["n"])),
                     k2=max(1, round(Fraction(repr(ratios.alpha2)) * point["n"])))
    return age_pair(parse_scenario(point)[1])


def _cmd_sweep(args) -> int:
    doc = _load_json(args.scenario)
    template, _ = parse_scenario(doc, need_thresholds=False)
    values = _float_list("values", args.values)
    if args.param in ("n", "k1", "k2"):
        values = [_integer(args.param, tok) for tok in args.values.split(",") if tok.strip()]
    _check_sweep_ratios(args)

    pairs = [_sweep_point(doc, template, args, v) for v in values]
    # A value is written as a float, unless it is an integer that no float holds.
    _write_table(args.out, ["param_value", "age_I", "age_II"],
                 [[v if abs(v) >= 2**53 else float(v), p.age_I, p.age_II]
                  for v, p in zip(values, pairs)])
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
    sim_args.add_argument("--cycles", type=int, default=SimConfig.cycles)
    sim_args.add_argument("--seed", type=int, default=SimConfig.seed)
    sim_args.add_argument("--replications", type=int, default=SimConfig.replications)
    sim_args.add_argument("--threads", type=int, default=1,
                          help="forked worker processes over replications, at most one per "
                               "allowed CPU and pinned when one per CPU; serial where os.fork "
                               "is absent (default 1: serial)")

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
    except ValueError as e:  # keyed as the module docstring says
        key, message = e.args if len(e.args) == 2 else str(e).partition(" ")[::2]
        print(f"error: {key}: {message}", file=sys.stderr)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
