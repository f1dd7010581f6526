import csv
import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from aoi_multicast import sim
from aoi_multicast.analytic import Exogenous, Scenario, ScenarioApprox, StreamMix, age_pair
from aoi_multicast.cli import main
from aoi_multicast.optimize import EXACT_LIMIT
from aoi_multicast.orderstats import ShiftedExp

SCENARIO = {
    "n": 10,
    "k1": 3,
    "k2": 5,
    "delay_I": {"rate": 1.0, "shift": 1.0},
    "delay_II": {"rate": 2.0, "shift": 0.5},
    "p1": 0.6,
    "mode": "at_will",
}

SINGLE_NODE = {
    "n": 1,
    "k1": 1,
    "k2": 1,
    "delay_I": {"rate": 1.0, "shift": 0.0},
    "delay_II": {"rate": 1.0, "shift": 0.0},
    "p1": 1.0,
    "mode": "at_will",
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(doc, name="scen.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_verb(verb, scenario_path, out_path):
    """main() on verb = [name, *options], adding --out for the CSV verbs."""
    extra = ["--out", str(out_path)] if verb[0] in ("pareto", "sweep") else []
    return main([verb[0], scenario_path, *verb[1:], *extra])


# Inputs whose ages overflow in the closed-form kernel, with the error line.
OVERFLOW_CASES = [
    pytest.param(["eval", "--approx", "--alpha1", "1e-320", "--alpha2", "0.5"], {},
                 "error: age_I: must be finite, got inf", id="eval_approx"),
    # At p1 = 1e-307 every cell's E[S^2] overflows, so every age_I is inf.
    pytest.param(["pareto", "--betas", "0.5"], {"n": 20, "p1": 1e-307},
                 "error: age_I: must be finite, got inf", id="pareto"),
    # Above rate 1.34e154 rate^2 overflows and the variance reads 0, but
    # E[S^2] is below the smallest normal double anyway: the age is inf.
    *(pytest.param(["eval"], {"delay_I": {"rate": rate, "shift": 0.0},
                              "delay_II": {"rate": rate, "shift": 0.0}},
                   "error: age_I: must be finite, got inf", id=f"eval_underflow_{rate:g}")
      for rate in (1e160, 1e200)),
]

# 1/rate^2 is finite, and the ages are about 6e153, so the squared gaps of
# the sawtooth area overflow unless the simulator scales its time unit.
TINY_RATE = {"delay_I": {"rate": 2e-154, "shift": 1.0}}
# At p1 = 0.05 the replications' ages of stream I are about 2.5e155 and
# differ by about 5e154, so the squares in their standard error overflow
# unless the simulator scales the ages, and the closed forms overflow.
SIM_OVERFLOW = dict(p1=0.05, delay_I=TINY_RATE["delay_I"], delay_II=TINY_RATE["delay_I"])
# The inputs' checks admit no scenario whose replication ages overflow in the
# simulator's scaled time unit. In plain time units, SIM_OVERFLOW's sawtooth
# areas, and so its replication ages, overflow; this statement, run before
# the CLI, folds the areas so.
UNSCALED_FOLD = "import aoi_multicast.sim as s; F = s._AreaFold; s._AreaFold = lambda j: F(0)"
RUN = "from aoi_multicast.cli import run; run()"

EVERY_VERB = pytest.mark.parametrize("verb", [
    ["eval"],
    ["pareto", "--betas", "0.5"],
    ["sweep", "--param", "p1", "--values", "0.5"],
    ["simulate", "--cycles", "2000"],
], ids=lambda v: v[0])


# (patch, key, the rest of the error line) of scenario documents that
# `eval` rejects.
SCHEMA_VIOLATIONS = [
    ({"n": 0}, "n", "must be >= 1, got 0"),
    ({"k1": 11}, "k1", "must lie in [1, 10], got 11"),
    ({"p1": 1.5}, "p1", "must lie in [0, 1], got 1.5"),
    ({"mode": "bogus"}, "mode", 'must be "at_will" or "exogenous", got \'bogus\''),
    ({"mode": "exogenous"}, "mu", "missing required key"),
    ({"delay_I": {"rate": -1.0, "shift": 0.0}}, "delay_I.rate",
     "must be finite and > 0 with finite moments, got -1.0"),
    ({"surplus": 1}, "surplus", "unknown key"),
    ({"delay_I": {"rate": 1.0}}, "delay_I.shift", "missing required key"),
    ({"k1": 0}, "k1", "must lie in [1, 10], got 0"),
    ({"delay_II": {"rate": 1.0, "shift": -1.0}}, "delay_II.shift",
     "must be finite and >= 0 with finite moments, got -1.0"),
    # JSON null is a value of the wrong type, not an absent key.
    ({"p1": None}, "p1", "must be a number, got NoneType"),
    ({"mode": "exogenous", "mu": None}, "mu", "must be a number, got NoneType"),
    ({"delay_I": {"rate": 1.0, "shift": None}}, "delay_I.shift",
     "must be a number, got NoneType"),
    ({"n": None}, "n", "must be an integer, got NoneType"),
    ({"k1": None}, "k1", "must be an integer, got NoneType"),
    ({"n": "ten"}, "n", "must be an integer, got str"),
    ({"p1": "x"}, "p1", "must be a number, got str"),
    ({"delay_I": 3}, "delay_I", "must be an object with keys rate, shift"),
    ({"delay_I": {"rate": 1.0, "shift": 1.0, "scale": 2.0}}, "delay_I.scale", "unknown key"),
    ({"k2": 11}, "k2", "must lie in [1, 10], got 11"),
    ({"k2": 0}, "k2", "must lie in [1, 10], got 0"),
    ({"p1": math.nan}, "p1", "must lie in [0, 1], got nan"),
    ({"p1": math.inf}, "p1", "must lie in [0, 1], got inf"),
    ({"p1": -math.inf}, "p1", "must lie in [0, 1], got -inf"),
    # An unknown key is named whole, spaces and all.
    ({"a b": 1}, "a b", "unknown key"),
    ({"delay_II": {"rate": 1.0, "shift": 1.0, "x y": 2}}, "delay_II.x y", "unknown key"),
]


class TestEval:
    def test_single_node_zero_wait(self, scenario_file, capsys):
        rc = main(["eval", scenario_file(SINGLE_NODE)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"age_I": 2.0, "age_II": "infinite"}

    def test_symmetric_scenario_equal_ages(self, scenario_file, capsys):
        doc = dict(SCENARIO, k2=3, delay_II={"rate": 1.0, "shift": 1.0}, p1=0.5)
        rc = main(["eval", scenario_file(doc)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["age_I"] == out["age_II"]

    def test_matches_library_call(self, scenario_file, capsys):
        rc = main(["eval", scenario_file(SCENARIO)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        s = Scenario(
            10, 3, 5, ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(0.6)
        )
        pair = age_pair(s)
        assert (out["age_I"], out["age_II"]) == (pair.age_I, pair.age_II)

    def test_approx_mode(self, scenario_file, capsys):
        rc = main(
            ["eval", scenario_file(SCENARIO), "--approx",
             "--alpha1", "0.3", "--alpha2", "0.5"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["age_I"] > 0 and out["age_II"] > 0

    def test_approx_missing_alphas(self, scenario_file, capsys):
        for given, missing in [((), "alpha1"), (("--alpha1", "0.3"), "alpha2"),
                               (("--alpha2", "0.5"), "alpha1")]:
            rc = main(["eval", scenario_file(SCENARIO), "--approx", *given])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            assert captured.err.startswith(f"error: {missing}: required with --approx")

    @pytest.mark.parametrize("option", ["alpha1", "alpha2"])
    def test_alpha_without_approx_rejected(self, scenario_file, capsys, option):
        rc = main(["eval", scenario_file(SCENARIO), f"--{option}", "0.3"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {option}: used only with --approx")

    @pytest.mark.parametrize(
        "patch,key,message",
        SCHEMA_VIOLATIONS,
        # pytest's own ids for the patch and key columns alone.
        ids=[f"patch{i}-{key}" for i, (_, key, _) in enumerate(SCHEMA_VIOLATIONS)],
    )
    def test_schema_violation_names_key(self, scenario_file, capsys, patch, key, message):
        doc = dict(SCENARIO)
        doc.update(patch)
        rc = main(["eval", scenario_file(doc)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {key}: {message}\n"

    @EVERY_VERB
    @pytest.mark.parametrize("field", ["rate", "shift"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, scenario_file, tmp_path, capsys,
                                       verb, field, bad):
        # json.dumps writes NaN and Infinity, which json.load reads back.
        doc = dict(SCENARIO, delay_I=dict(SCENARIO["delay_I"], **{field: bad}))
        out_path = tmp_path / "x.csv"
        rc = run_verb(verb, scenario_file(doc), out_path)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: delay_I.{field}: must be finite")
        assert captured.err.count(field) == 1
        assert captured.out == "" and not out_path.exists()

    @EVERY_VERB
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_mu_rejected(self, scenario_file, tmp_path, capsys, verb, bad):
        doc = dict(SCENARIO, mode="exogenous", mu=bad)
        out_path = tmp_path / "x.csv"
        rc = run_verb(verb, scenario_file(doc), out_path)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: mu: must be finite")
        assert captured.out == "" and not out_path.exists()

    @pytest.mark.parametrize("verb", [["eval"], ["simulate", "--cycles", "2000"]],
                             ids=lambda v: v[0])
    @pytest.mark.parametrize(
        "patch,key",
        [
            ({"n": 10**20, "k1": 10**19, "k2": 5 * 10**19}, "n"),
            ({"delay_I": {"rate": 1e-320, "shift": 1.0}}, "delay_I.rate"),
            ({"delay_I": {"rate": 1e-200, "shift": 1.0}}, "delay_I.rate"),
            ({"delay_I": {"rate": 1.0, "shift": 1e308}}, "delay_I.shift"),
            ({"mode": "exogenous", "mu": 1e-200}, "mu"),
            # JSON integers of 401 digits, beyond the float range.
            ({"delay_I": {"rate": 10**400, "shift": 1.0}}, "delay_I.rate"),
            ({"p1": 10**400}, "p1"),
            ({"mode": "exogenous", "mu": 10**400}, "mu"),
        ],
    )
    def test_overflowing_input_rejected(self, scenario_file, tmp_path, capsys,
                                        verb, patch, key):
        rc = run_verb(verb, scenario_file(dict(SCENARIO, **patch)), tmp_path / "x.csv")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: {key}: must be")
        assert captured.out == ""

    @pytest.mark.parametrize("verb", [
        ["eval"],
        ["pareto", "--betas", "0.5"],
        ["sweep", "--param", "p1", "--values", "0.5"],
        ["validate", "--cycles", "2000", "--replications", "2", "--tolerance", "0.5"],
    ], ids=lambda v: v[0])
    def test_rate_beyond_sqrt_of_float_max(self, scenario_file, tmp_path, capsys, verb):
        # rate^2 overflows, but the variance of X_(k) is 0 and every age finite.
        doc = dict(SCENARIO, delay_I={"rate": 1e300, "shift": 1.0})
        rc = run_verb(verb, scenario_file(doc), tmp_path / "x.csv")
        captured = capsys.readouterr()
        assert rc == 0, captured.err

    @pytest.mark.parametrize(
        "verb,patch,message",
        [
            # E[M - 1] E[Y] ~ n E[Y] / (p1 k1) is finite, but its square overflows.
            pytest.param(["eval"], {"p1": 1e-300}, "error: age_I: must be finite, got inf", id="eval"),
            pytest.param(["simulate", "--cycles", "5000", "--replications", "3"], SIM_OVERFLOW,
                         "error: the simulated age of stream I overflows", id="simulate"),
            *OVERFLOW_CASES,
        ],
    )
    def test_overflowing_age_rejected(self, scenario_file, tmp_path, capsys, monkeypatch,
                                      verb, patch, message):
        if verb[0] == "simulate":  # as UNSCALED_FOLD does
            monkeypatch.setattr(sim, "_AreaFold", lambda j, fold=sim._AreaFold: fold(0))
        rc = run_verb(verb, scenario_file(dict(SCENARIO, **patch)), tmp_path / "x.csv")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(message)
        assert captured.out == ""

    @pytest.mark.parametrize("verb,patch,message", [
        pytest.param(["eval"], {"p1": 1e-300}, "error: age_I: must be finite, got inf", id="eval"),
        *OVERFLOW_CASES,
        *(pytest.param(["simulate", "--cycles", "5000", "--replications", "3", "--threads", t],
                       SIM_OVERFLOW, "error: the simulated age of stream I overflows",
                       id=f"simulate_threads{t}") for t in ("1", "2")),
    ])
    def test_overflow_prints_one_error_line(self, scenario_file, tmp_path, verb, patch, message):
        # In a fresh interpreter, with the default warning filters: the
        # kernel's overflow reaches stderr as the error line alone.
        argv = [verb[0], scenario_file(dict(SCENARIO, **patch)), *verb[1:]]
        if verb[0] == "pareto":
            argv += ["--out", str(tmp_path / "x.csv")]
        code = f"{UNSCALED_FOLD}; {RUN}" if verb[0] == "simulate" else RUN
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(message) and done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_at_a_tiny_rate_matches_eval(self, scenario_file, threads):
        # In a fresh interpreter, with the default warning filters: no
        # overflow, no warning, and ages within max(1 %, 3 se) of eval's.
        path = scenario_file(dict(SCENARIO, **TINY_RATE))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = {}
        for verb in (["eval"], ["simulate", "--cycles", "5000", "--replications", "3",
                                "--threads", threads]):
            done = subprocess.run([sys.executable, "-c", RUN, verb[0], path, *verb[1:]],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 0 and done.stderr.count("\n") <= 1, done.stderr
            out[verb[0]] = json.loads(done.stdout)
        for key in ("I", "II"):
            exact, got = out["eval"][f"age_{key}"], out["simulate"][f"age_{key}"]
            assert exact > 1e153
            assert abs(got - exact) <= max(0.01 * exact, 3 * out["simulate"][f"se_{key}"])

    def test_simulate_where_the_closed_forms_overflow(self, scenario_file, capsys):
        # The ages of SIM_OVERFLOW and their standard errors are finite, within
        # max(1 %, 3 se) of eval's. eval overflows there, so it runs in time
        # units of 2^-512, which scale every age by 2^512 and no bit else.
        doc = dict(SCENARIO, **SIM_OVERFLOW)
        assert main(["simulate", scenario_file(doc), "--cycles", "5000",
                     "--replications", "3"]) == 0
        got = json.loads(capsys.readouterr().out)
        scaled = {key: {"rate": math.ldexp(doc[key]["rate"], 512),
                        "shift": math.ldexp(doc[key]["shift"], -512)}
                  for key in ("delay_I", "delay_II")}
        assert main(["eval", scenario_file(dict(doc, **scaled))]) == 0
        exact = json.loads(capsys.readouterr().out)
        for key in ("I", "II"):
            ex = math.ldexp(exact[f"age_{key}"], 512)
            assert ex > 1e153 and 0 < got[f"se_{key}"] < math.inf
            assert abs(got[f"age_{key}"] - ex) <= max(0.01 * ex, 3 * got[f"se_{key}"])

    @pytest.mark.parametrize("n", [2**52, 2**63 - 1])
    def test_receiver_counts_beyond_float_integers(self, scenario_file, capsys, n):
        # Above 2^52, n - k + 1/2 is no longer a float; with zero shifts and
        # k = 1 the ages barely depend on n, so they must match n = 2^50's.
        doc = dict(SCENARIO, k1=1, k2=1, delay_I={"rate": 1.0, "shift": 0.0},
                   delay_II={"rate": 2.0, "shift": 0.0})
        ages = []
        for size in (2**50, n):
            assert main(["eval", scenario_file(dict(doc, n=size))]) == 0
            ages.append(json.loads(capsys.readouterr().out))
        for key in ("age_I", "age_II"):
            assert ages[1][key] == pytest.approx(ages[0][key], rel=1e-12)

    def test_missing_key(self, scenario_file, capsys):
        doc = dict(SCENARIO)
        del doc["delay_II"]
        rc = main(["eval", scenario_file(doc)])
        assert rc == 2
        assert "delay_II" in capsys.readouterr().err


class TestSimulate:
    def test_fixed_seed_identical_stdout(self, scenario_file, capsys):
        path = scenario_file(SCENARIO)
        args = ["simulate", path, "--cycles", "20000", "--seed", "9",
                "--replications", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_zero_wait_estimate(self, scenario_file, capsys):
        rc = main(
            ["simulate", scenario_file(SINGLE_NODE), "--cycles", "100000",
             "--seed", "3", "--replications", "8"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["age_I"] - 2.0) <= 3 * out["se_I"]
        assert out["age_II"] == "infinite"

    def test_agrees_with_eval(self, scenario_file, capsys):
        path = scenario_file(SCENARIO)
        assert main(["eval", path]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert main(
            ["simulate", path, "--cycles", "100000", "--seed", "13",
             "--replications", "6"]
        ) == 0
        sim = json.loads(capsys.readouterr().out)
        for key, se_key in (("age_I", "se_I"), ("age_II", "se_II")):
            tol = max(3 * sim[se_key], 0.01 * exact[key])
            assert abs(sim[key] - exact[key]) <= tol

    @pytest.mark.parametrize("doc", [SCENARIO, SINGLE_NODE], ids=["two_streams", "starved"])
    def test_stdout_is_the_library_result(self, scenario_file, capsys, doc):
        from aoi_multicast.sim import SimConfig, simulate

        assert main(["simulate", scenario_file(doc), "--cycles", "5000", "--seed", "5",
                     "--replications", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["age_I", "age_II", "se_I", "se_II", "deliveries_I",
                             "deliveries_II", "sim_time"]
        s = Scenario(doc["n"], doc["k1"], doc["k2"], ShiftedExp(**doc["delay_I"]),
                     ShiftedExp(**doc["delay_II"]), StreamMix(doc["p1"]))
        res = simulate(SimConfig(s, cycles=5000, seed=5, replications=3))
        expect = [res.age_I, res.age_II, res.se_I, res.se_II, res.deliveries_I,
                  res.deliveries_II, res.sim_time]
        assert list(out.values()) == ["infinite" if v == math.inf else v for v in expect]
        assert (out["age_II"] == "infinite") == (doc["p1"] == 1.0)

    @pytest.mark.parametrize("verb", ["simulate", "validate"])
    def test_warmup_option_gone(self, scenario_file, capsys, verb):
        rc = main([verb, scenario_file(SCENARIO), "--warmup", "10"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--warmup" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("verb", ["simulate", "validate"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, scenario_file, capsys, verb, threads):
        rc = main([verb, scenario_file(SCENARIO), "--cycles", "2000",
                   "--threads", threads])
        captured = capsys.readouterr()
        assert rc == 2
        assert "threads" in captured.err
        assert captured.out == ""

    def test_options_default_to_simconfig(self, scenario_file, monkeypatch, capsys):
        import aoi_multicast.cli as cli_mod
        from aoi_multicast.sim import SimConfig, SimResult

        seen = []

        def record(cfg, threads=1):
            seen.append(cfg)
            return SimResult(1.0, 1.0, 0.0, 0.0, 2, 2, 1.0)

        monkeypatch.setattr(cli_mod, "simulate", record)
        assert main(["simulate", scenario_file(SCENARIO)]) == 0
        scenario = Scenario(10, 3, 5, ShiftedExp(1.0, 1.0), ShiftedExp(2.0, 0.5), StreamMix(0.6))
        assert seen == [SimConfig(scenario)]

    def test_negative_seed_rejected(self, scenario_file, capsys):
        rc = main(["simulate", scenario_file(SCENARIO), "--seed", "-1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: seed: must be >= 0, got -1\n"


class TestValidate:
    def test_short_run_reports_se_and_z(self, scenario_file, capsys):
        rc = main(["validate", scenario_file(SCENARIO), "--cycles", "5000"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        passed = all(out[label]["pass"] for label in ("age_I", "age_II"))
        assert rc == (0 if passed else 1)
        assert out["result"] == ("PASS" if passed else "FAIL")
        for label in ("age_I", "age_II"):
            r = out[label]
            assert r["se"] > 0
            assert r["z"] == pytest.approx((r["simulated"] - r["exact"]) / r["se"])
            assert 0.01 * r["exact"] < 3 * r["se"]
            assert f"{label} run too short" in captured.err

    def test_single_replication_has_null_z(self, scenario_file, capsys):
        main(["validate", scenario_file(SCENARIO), "--cycles", "5000",
              "--replications", "1"])
        out = json.loads(capsys.readouterr().out)
        for label in ("age_I", "age_II"):
            assert out[label]["se"] == 0.0
            assert out[label]["z"] is None

    def test_pass(self, scenario_file, capsys):
        rc = main(
            ["validate", scenario_file(SCENARIO), "--cycles", "100000",
             "--seed", "17", "--replications", "6"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["result"] == "PASS"

    def test_fail_on_corrupted_threshold(self, scenario_file, capsys):
        # negative control: simulate k1=9 but judge against the k1=3 closed form
        import aoi_multicast.cli as cli_mod
        from aoi_multicast.sim import simulate

        path = scenario_file(SCENARIO)

        def corrupted(cfg, threads=1):
            bad = dataclasses.replace(cfg.scenario, k1=9)
            return simulate(dataclasses.replace(cfg, scenario=bad))

        orig = cli_mod.simulate
        cli_mod.simulate = corrupted
        try:
            rc = main(["validate", path, "--cycles", "50000", "--seed", "19",
                       "--replications", "4"])
        finally:
            cli_mod.simulate = orig
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["result"] == "FAIL"

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_rejected_before_simulating(self, scenario_file, capsys,
                                                      monkeypatch, tolerance):
        import aoi_multicast.cli as cli_mod

        def no_simulation(cfg, threads=1):
            raise AssertionError("simulated despite a bad tolerance")

        monkeypatch.setattr(cli_mod, "simulate", no_simulation)
        rc = main(["validate", scenario_file(SCENARIO), "--tolerance", tolerance])
        captured = capsys.readouterr()
        assert rc == 2
        assert "tolerance" in captured.err
        assert captured.out == ""

    def test_starved_stream_skipped(self, scenario_file, capsys):
        rc = main(
            ["validate", scenario_file(SINGLE_NODE), "--cycles", "100000",
             "--seed", "3", "--replications", "6"]
        )
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert rc == 0
        assert out["age_II"] == {"status": "skipped (starved)"}
        assert "starved" in captured.err
        assert "too short" not in captured.err


class TestPareto:
    def test_csv_output(self, scenario_file, tmp_path, capsys):
        doc = dict(SCENARIO, p1=0.5, k2=3, delay_II={"rate": 1.0, "shift": 1.0})
        out_path = tmp_path / "pareto.csv"
        rc = main(
            ["pareto", scenario_file(doc), "--betas", "0.2,0.5,0.8",
             "--out", str(out_path)]
        )
        assert rc == 0
        assert "rows" in capsys.readouterr().out
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["beta", "k1", "k2", "age_I", "age_II", "objective"]
        assert len(rows) >= 2
        # '.' decimal separator, parseable floats
        for row in rows[1:]:
            assert float(row[3]) > 0 and "." in row[3]

    def test_single_beta_single_row(self, scenario_file, tmp_path):
        doc = dict(SCENARIO, p1=0.5)
        out_path = tmp_path / "one.csv"
        rc = main(["pareto", scenario_file(doc), "--betas", "0.5",
                   "--out", str(out_path)])
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2

    def test_approx_evaluator_columns(self, scenario_file, tmp_path):
        doc = dict(SCENARIO, p1=0.5)
        out_path = tmp_path / "approx.csv"
        rc = main(
            ["pareto", scenario_file(doc), "--betas", "0.3,0.7",
             "--evaluator", "approx", "--grid", "64", "--out", str(out_path)]
        )
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:3] == ["beta", "alpha1", "alpha2"]

    def test_bad_betas(self, scenario_file, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        for spec, message in [(",", "need a nonempty comma-separated list"),
                              ("0.5,boom", "could not parse '0.5,boom'")]:
            rc = main(["pareto", scenario_file(SCENARIO), "--betas", spec,
                       "--out", str(out_path)])
            assert rc == 2 and not out_path.exists()
            assert capsys.readouterr().err.startswith(f"error: betas: {message}")

    @pytest.mark.parametrize("n", [EXACT_LIMIT, EXACT_LIMIT + 1])
    def test_coarse_to_fine_said_on_stderr(self, scenario_file, tmp_path, capsys, n):
        rc = main(["pareto", scenario_file(dict(SCENARIO, n=n)), "--betas", "0.5",
                   "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert rc == 0 and captured.out == "1 rows\n"
        assert captured.err == ("" if n == EXACT_LIMIT else
                                f"pareto: n = {n} is above {EXACT_LIMIT}, so the search is "
                                "coarse-to-fine and may miss the optimum\n")

    @pytest.mark.parametrize("grid", ["0", "-1", "32769"])
    def test_grid_below_one_rejected(self, scenario_file, tmp_path, capsys, grid):
        out_path = tmp_path / "x.csv"
        rc = main(["pareto", scenario_file(SCENARIO), "--evaluator", "approx",
                   "--grid", grid, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "grid" in captured.err
        assert captured.out == "" and not out_path.exists()

    @pytest.mark.parametrize("evaluator", [(), ("--evaluator", "exact")],
                             ids=["default", "exact"])
    @pytest.mark.parametrize("grid", ["64", "0"])
    def test_grid_without_approx_rejected(self, scenario_file, tmp_path, capsys,
                                          grid, evaluator):
        out_path = tmp_path / "x.csv"
        rc = main(["pareto", scenario_file(SCENARIO), *evaluator,
                   "--grid", grid, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out_path.exists()
        assert captured.err == f"error: grid: is used only with evaluator 'approx', got {grid}\n"


@pytest.mark.parametrize("verb", [
    ["pareto", "--betas", "0.5"],
    ["sweep", "--param", "p1", "--values", "0.5"],
    ["eval", "--approx", "--alpha1", "0.3", "--alpha2", "0.5"],
], ids=lambda v: v[0])
@pytest.mark.parametrize("patch,key", [({"k1": 0}, "k1"), ({"k2": 11}, "k2"), ({"n": 0}, "n")])
def test_given_thresholds_range_checked(scenario_file, tmp_path, capsys, verb, patch, key):
    # Verbs that do not need k1/k2 still reject out-of-range ones in the file.
    out_path = tmp_path / "x.csv"
    rc = run_verb(verb, scenario_file(dict(SCENARIO, **patch)), out_path)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {key}: must ")
    assert captured.out == "" and not out_path.exists()


@pytest.mark.parametrize("key", ["k1", "k2"])
def test_missing_threshold_rejected_where_used(scenario_file, tmp_path, capsys, key):
    # Only the verbs that evaluate the document's own thresholds need them.
    path = scenario_file({k: v for k, v in SCENARIO.items() if k != key})
    out_path = tmp_path / "x.csv"
    for verb in (["eval"], ["simulate", "--cycles", "2000"], ["validate", "--cycles", "2000"],
                 ["sweep", "--param", "p1", "--values", "0.5"]):
        rc = run_verb(verb, path, out_path)
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, ""), verb
        assert captured.err == f"error: {key}: missing required key\n"
        assert not out_path.exists()
    for verb in (["pareto", "--betas", "0.5"],
                 ["eval", "--approx", "--alpha1", "0.3", "--alpha2", "0.5"]):
        assert run_verb(verb, path, out_path) == 0, verb


@pytest.mark.parametrize("verb", [
    ["sweep", "--param", "n", "--values", "100"],
    ["eval", "--approx"],
], ids=lambda v: v[0])
@pytest.mark.parametrize("alpha1", ["-0.5", "1.5", "inf", "nan"])
def test_bad_ratio_rejected(scenario_file, tmp_path, capsys, verb, alpha1):
    out_path = tmp_path / "x.csv"
    rc = run_verb([*verb, "--alpha1", alpha1, "--alpha2", "0.5"],
                  scenario_file(SCENARIO), out_path)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: alpha1: must lie in (0, 1)")
    assert captured.out == "" and not out_path.exists()


@pytest.mark.parametrize("patch", [{"p1": 0}, {"p1": 1}, {"k1": 1, "k2": 10}],
                         ids=["p1=0", "p1=1", "k=1,n"])
def test_closed_ends_accepted(scenario_file, capsys, patch):
    assert main(["eval", scenario_file(dict(SCENARIO, **patch))]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb,name,interval,inside", [
    pytest.param(["eval", "--approx", "--alpha2=0.5", "--alpha1={}"], "alpha1:", "(0, 1)", (),
                 id="alpha1"),
    pytest.param(["eval", "--approx", "--alpha1=0.5", "--alpha2={}"], "alpha2:", "(0, 1)", (),
                 id="alpha2"),
    pytest.param(["pareto", "--betas=0.5,{}"], "beta:", "[0, 1]", ("0", "1"), id="beta"),
    pytest.param(["validate", "--cycles=2000", "--replications=2", "--tolerance={}"],
                 "tolerance:", "(0, inf)", ("1",), id="tolerance"),
])
@pytest.mark.parametrize("value", ["0", "1", "nan", "inf", "-inf", "-0.5"])
def test_option_interval_rule(scenario_file, tmp_path, capsys, verb, name, interval, inside,
                              value):
    # Each option's interval, at both ends, with NaN and both infinities: the
    # same rule and message as the scenario's fields.
    out_path = tmp_path / "x.csv"
    rc = run_verb([arg.format(value) for arg in verb], scenario_file(SCENARIO), out_path)
    captured = capsys.readouterr()
    if value in inside:
        assert rc == 0 and "error" not in captured.err
    else:
        assert rc == 2 and captured.out == "" and not out_path.exists()
        assert captured.err == f"error: {name} must lie in {interval}, got {float(value)}\n"


# A token that argparse cannot read as its option's number type is a usage
# error, printed by argparse with its usage block rather than as a keyed line.
@pytest.mark.parametrize("verb,option", [
    *((["simulate", f"--{option}={token}"], option) for option, token in
      (("cycles", "1e5"), ("seed", "1.5"), ("replications", "ten"), ("threads", "2.0"))),
    (["validate", "--tolerance=1%"], "tolerance"),
    (["pareto", "--evaluator=approx", "--grid=5e2"], "grid"),
    *((["eval", "--approx", *pair], option) for option, pair in
      (("alpha1", ("--alpha1=half", "--alpha2=0.5")), ("alpha2", ("--alpha1=0.5", "--alpha2=x")))),
    *((["sweep", "--param=n", "--values=10", *pair], option) for option, pair in
      (("alpha1", ("--alpha1=half", "--alpha2=0.5")), ("alpha2", ("--alpha1=0.5", "--alpha2=x")))),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unparsable_number_is_a_usage_error(scenario_file, tmp_path, capsys, verb, option):
    rc = run_verb(verb, scenario_file(SCENARIO), tmp_path / "x.csv")
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("usage: ")
    assert f"error: argument --{option}: invalid " in captured.err


# Values that the library or the file system rejects, each reported by main
# as one line keyed by the value's name.
@pytest.mark.parametrize("verb,patch,out,key", [
    *(pytest.param([verb, f"--{option}={value}"], {}, "x.csv", option, id=f"{verb}-{option}")
      for verb in ("simulate", "validate")
      for option, value in (("cycles", 0), ("replications", 0), ("seed", -1), ("threads", 0))),
    *(pytest.param(["pareto", "--evaluator=approx", f"--grid={grid}"], {}, "x.csv", "grid",
                   id=f"grid-{grid}") for grid in (0, 40000)),
    pytest.param(["pareto", "--betas=0.5"], {"p1": 1.0}, "x.csv", "beta", id="beta-starved"),
    *(pytest.param(verb, {}, out, "out", id=f"{verb[0]}-out-{name}")
      for verb in (["pareto", "--betas=0.5"], ["sweep", "--param=p1", "--values=0.5"])
      for name, out in (("missing-directory", "absent/x.csv"), ("directory", "."))),
])
def test_rejected_value_prints_one_keyed_line(scenario_file, tmp_path, capsys, verb, patch, out,
                                              key):
    out_path = tmp_path / out
    rc = run_verb(verb, scenario_file(dict(SCENARIO, **patch)), out_path)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert re.match(r"error: [^ :]+: ", captured.err) and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {key}: ")
    if key == "out":  # the OSError, naming the path
        assert captured.err.endswith(f": {str(out_path)!r}\n")
    assert out_path.is_dir() if out == "." else not out_path.exists()


@pytest.mark.parametrize("verb", [["eval"], ["sweep", "--param", "p1", "--values", "0.5"]],
                         ids=lambda v: v[0])
def test_integer_beyond_the_digit_limit_names_the_file(tmp_path, capsys, verb):
    # json.load refuses integers longer than Python's 4300-digit limit.
    path, out_path = tmp_path / "scen.json", tmp_path / "x.csv"
    path.write_text(json.dumps(SCENARIO).replace('"p1": 0.6', '"p1": ' + "1" * 5001))
    rc = run_verb(verb, str(path), out_path)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out_path.exists()
    assert captured.err.startswith("error: <file>: invalid JSON: ")


D_I, D_II, MIX = ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(0.6)
EXOGENOUS = dict(SCENARIO, mode="exogenous", mu=1.0)

# (param, values, options, scenario document, the scenario of one value built
# directly from the library's constructors)
SWEEP_CASES = [
    pytest.param("n", "5,10,1e3", (), SCENARIO,
                 lambda v: Scenario(int(v), 3, 5, D_I, D_II, MIX), id="n"),
    pytest.param("n", "1,3,1e2,1e7", ("--alpha1", "0.3", "--alpha2", "0.57"), SCENARIO,
                 lambda v: Scenario(int(v), max(1, round(Fraction("0.3") * int(v))),
                                    max(1, round(Fraction("0.57") * int(v))), D_I, D_II, MIX),
                 id="n-fixed-alphas"),
    pytest.param("k1", "1,2,10", (), SCENARIO,
                 lambda v: Scenario(10, int(v), 5, D_I, D_II, MIX), id="k1"),
    pytest.param("k2", "1,5,10", (), SCENARIO,
                 lambda v: Scenario(10, 3, int(v), D_I, D_II, MIX), id="k2"),
    pytest.param("p1", "0,0.05,0.5,1", (), SCENARIO,
                 lambda v: Scenario(10, 3, 5, D_I, D_II, StreamMix(v)), id="p1"),
    pytest.param("mu", "0.5,2,1e6", (), EXOGENOUS,
                 lambda v: Scenario(10, 3, 5, D_I, D_II, MIX, Exogenous(v)), id="mu"),
    pytest.param("alpha1", "0.1,0.5,0.9", ("--alpha2", "0.5"), SCENARIO,
                 lambda v: ScenarioApprox(v, 0.5, D_I, D_II, MIX), id="alpha1"),
    pytest.param("alpha2", "0.1,0.9", ("--alpha1", "0.3"), EXOGENOUS,
                 lambda v: ScenarioApprox(0.3, v, D_I, D_II, MIX, Exogenous(1.0)),
                 id="alpha2"),
]


class TestSweep:
    @pytest.mark.parametrize("param,values,options,doc,build", SWEEP_CASES)
    def test_rows_equal_direct_age_pair(self, scenario_file, tmp_path,
                                        param, values, options, doc, build):
        out_path = tmp_path / "s.csv"
        rc = main(["sweep", scenario_file(doc), "--param", param, "--values", values,
                   *options, "--out", str(out_path)])
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        expected = []
        for v in map(float, values.split(",")):
            pair = age_pair(build(v))
            expected.append([repr(v), *("infinite" if math.isinf(a) else repr(a)
                                        for a in (pair.age_I, pair.age_II))])
        assert rows == expected

    @pytest.mark.parametrize("param,values,doc,message", [
        pytest.param("p1", "0.5,1.5", SCENARIO, "p1: must lie in [0, 1]", id="p1-range"),
        pytest.param("mu", "1", SCENARIO, "mu: only valid with mode = exogenous",
                     id="mu-at-will"),
        pytest.param("p1", "0.5", {k: v for k, v in SCENARIO.items() if k != "k2"},
                     "k2: missing required key", id="k2-missing"),
        pytest.param("n", "2", SCENARIO, "k1: must lie in [1, 2]", id="n-below-k1"),
        pytest.param("mu", "1e400", EXOGENOUS, "mu: must be finite", id="mu-infinite"),
        pytest.param("p1", ",", SCENARIO, "values: need a nonempty comma-separated list",
                     id="values-empty"),
        pytest.param("p1", "0.5,boom", SCENARIO,
                     "values: could not parse '0.5,boom' as comma-separated floats",
                     id="values-not-a-float"),
        pytest.param("p1", "0.5", [], "<root>: scenario document must be a JSON object",
                     id="root-not-an-object"),
        pytest.param("p1", "0.5", None, "<file>: [Errno 2] No such file or directory",
                     id="file-missing"),
    ])
    def test_point_errors_name_the_key(self, scenario_file, tmp_path, capsys,
                                       param, values, doc, message):
        out_path = tmp_path / "x.csv"
        path = str(tmp_path / "absent.json") if doc is None else scenario_file(doc)
        rc = main(["sweep", path, "--param", param, "--values", values,
                   "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == "" and not out_path.exists()

    @pytest.mark.parametrize("param,options,message", [
        ("n", "--alpha1 0.3", "alpha1: a sweep over n takes --alpha1 and --alpha2 together"),
        ("n", "--alpha2 0.5", "alpha2: a sweep over n takes --alpha1 and --alpha2 together"),
        ("p1", "--alpha2 0.5", "alpha2: not used by a sweep over p1"),
        ("k1", "--alpha1 0.3 --alpha2 0.5", "alpha1: not used by a sweep over k1"),
        ("alpha1", "--alpha1 0.9 --alpha2 0.5", "alpha1: not used by a sweep over alpha1"),
        ("alpha2", "", "alpha2: sweeping one alpha requires fixing the other"),
    ], ids=["n-alpha1-only", "n-alpha2-only", "p1", "k1", "alpha1-swept", "alpha2-no-other"])
    def test_ratio_options_match_the_param(self, scenario_file, tmp_path, capsys,
                                           param, options, message):
        out_path = tmp_path / "x.csv"
        rc = main(["sweep", scenario_file(SCENARIO), "--param", param, "--values",
                   "10" if param in ("n", "k1") else "0.5", *options.split(),
                   "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out_path.exists()
        assert captured.err.startswith(f"error: {message}")

    def test_sweep_k1_single_stream_interior_minimum(self, scenario_file, tmp_path):
        doc = dict(SCENARIO, n=100, k1=1, k2=1, p1=1.0)
        out_path = tmp_path / "k1.csv"
        values = ",".join(str(k) for k in range(1, 101))
        rc = main(
            ["sweep", scenario_file(doc), "--param", "k1", "--values", values,
             "--out", str(out_path)]
        )
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["param_value", "age_I", "age_II"]
        ages = [float(r[1]) for r in rows[1:]]
        best = ages.index(min(ages))
        assert 0 < best < len(ages) - 1  # interior minimum in k1
        assert all(r[2] == "infinite" for r in rows[1:])  # p1 = 1 starves II

    def test_sweep_n_with_fixed_alphas_flattens(self, scenario_file, tmp_path):
        doc = dict(SCENARIO, p1=0.5)
        del doc["k1"], doc["k2"]
        out_path = tmp_path / "n.csv"
        rc = main(
            ["sweep", scenario_file(doc), "--param", "n",
             "--values", "100,1000,10000", "--alpha1", "0.5", "--alpha2", "0.5",
             "--out", str(out_path)]
        )
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))
        ages = [float(r[1]) for r in rows[1:]]
        assert abs(ages[2] - ages[1]) < abs(ages[1] - ages[0])
        assert abs(ages[2] - ages[1]) / ages[2] < 0.01

    def test_sweep_mu_monotone_toward_atwill(self, scenario_file, tmp_path):
        doc = dict(SCENARIO, mode="exogenous", mu=1.0)
        out_path = tmp_path / "mu.csv"
        rc = main(
            ["sweep", scenario_file(doc), "--param", "mu",
             "--values", "0.5,1,2,4,8,1000000", "--out", str(out_path)]
        )
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))
        ages = [float(r[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(ages, ages[1:]))
        aw = age_pair(
            Scenario(10, 3, 5, ShiftedExp(1, 1), ShiftedExp(2, 0.5), StreamMix(0.6))
        ).age_I
        assert ages[-1] == pytest.approx(aw, rel=1e-3)

    def test_unknown_param(self, scenario_file, tmp_path):
        rc = main(
            ["sweep", scenario_file(SCENARIO), "--param", "bogus",
             "--values", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2

    @pytest.mark.parametrize("param,values", [("k1", "2,2.5,3"), ("n", "10.7"), ("n", "1e16")])
    def test_non_integral_threshold_rejected(self, scenario_file, tmp_path, capsys,
                                             param, values):
        out_path = tmp_path / "x.csv"
        rc = main(
            ["sweep", scenario_file(SCENARIO), "--param", param, "--values", values,
             "--alpha1", "0.3", "--alpha2", "0.5", "--out", str(out_path)]
        )
        assert rc == 2
        assert "values" in capsys.readouterr().err
        assert not out_path.exists()

    def test_integral_float_n_accepted(self, scenario_file, tmp_path):
        out_path = tmp_path / "n.csv"
        rc = main(
            ["sweep", scenario_file(SCENARIO), "--param", "n", "--values", "1e2,1e3",
             "--alpha1", "0.3", "--alpha2", "0.5", "--out", str(out_path)]
        )
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == ["100.0", "1000.0"]

    def test_sweep_n_beyond_float_precision(self, scenario_file, tmp_path):
        # n reaches the exact forms as a Python int: 2^53 + 1 is not rounded
        # to 2^53, and 2^63 - 1, which eval accepts, not up to 2^63.
        doc = dict(SCENARIO, k1=1, k2=1, delay_I={"rate": 1.0, "shift": 0.0},
                   delay_II={"rate": 2.0, "shift": 0.0})
        out_path = tmp_path / "n.csv"
        values = [2**53 + 1, 2**63 - 1]
        rc = main(["sweep", scenario_file(doc), "--param", "n",
                   "--values", ",".join(map(str, values)), "--out", str(out_path)])
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        expected = []
        for n in values:
            pair = age_pair(Scenario(n, 1, 1, ShiftedExp(1.0), ShiftedExp(2.0), MIX))
            expected.append([str(n), repr(pair.age_I), repr(pair.age_II)])
        assert rows == expected

    def test_sweep_n_thresholds_round_the_decimal_ratio(self, scenario_file, tmp_path,
                                                        monkeypatch):
        # k = max(1, round(alpha n)) on the ratio as typed, a half to even. The
        # float product gives 85, ...365, ...992 and ...221760 at alpha = 0.57,
        # and 11 at 0.07 * 150 = 10.5.
        import aoi_multicast.cli as cli_mod
        from aoi_multicast.analytic import AgePair

        seen = []
        monkeypatch.setattr(cli_mod, "age_pair",
                            lambda s: seen.append((s.n, s.k1, s.k2)) or AgePair(1.0, 1.0))
        values = [150, 2**53 + 1, 10**17 + 3, 2**63 - 1]
        rc = main(["sweep", scenario_file(SCENARIO), "--param", "n",
                   "--values", ",".join(map(str, values)), "--alpha1", "0.57", "--alpha2", "0.07",
                   "--out", str(tmp_path / "n.csv")])
        assert rc == 0
        assert seen == [(150, 86, 10),
                        (2**53 + 1, 5134103575202366, 630503947831870),
                        (10**17 + 3, 57000000000000002, 7000000000000000),
                        (2**63 - 1, 5257322061007222210, 645636042579834306)]

    def test_sweep_n_to_a_trillion(self, scenario_file, tmp_path):
        from aoi_multicast.analytic import ScenarioApprox, StreamMix, age_pair
        from aoi_multicast.orderstats import ShiftedExp

        out_path = tmp_path / "n.csv"
        rc = main(
            ["sweep", scenario_file(SCENARIO), "--param", "n", "--values", "1e9,1e12",
             "--alpha1", "0.3", "--alpha2", "0.5", "--out", str(out_path)]
        )
        assert rc == 0
        with open(out_path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        approx = age_pair(ScenarioApprox(0.3, 0.5, ShiftedExp(1, 1), ShiftedExp(2, 0.5),
                                         StreamMix(0.6)))
        assert [r[0] for r in rows] == ["1000000000.0", "1000000000000.0"]
        for row, rel in zip(rows, (1e-8, 1e-11)):
            assert float(row[1]) == pytest.approx(approx.age_I, rel=rel)
            assert float(row[2]) == pytest.approx(approx.age_II, rel=rel)


# Modules a verb may load only when it needs them: numpy.ma never (numpy
# imports it lazily, on the first np.unique of a process), numpy.random for
# the simulator and decimal, which fractions loads, for an n sweep with fixed
# ratios. `--threads N > 1` forks its workers itself, so no verb loads
# multiprocessing or concurrent.futures; scipy, which only the tests use,
# never.
LAZY_MODULES = ("numpy.ma", "numpy.random", "multiprocessing", "concurrent.futures", "decimal",
                "scipy")
WIDE = dict(SCENARIO, n=10**6)  # above EXACT_LIMIT


def _lazy_modules_after(statement):
    """The LAZY_MODULES loaded once a fresh interpreter has imported the CLI
    and run ``statement``."""
    code = (f"import json, sys, aoi_multicast.cli as cli; {statement}; "
            f"print(json.dumps([m for m in {LAZY_MODULES!r} if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_scipy_unloaded():
    assert _lazy_modules_after("pass") == []


@pytest.mark.parametrize("doc,verb,expect", [
    (SCENARIO, ["eval"], []),
    (SCENARIO, ["eval", "--approx", "--alpha1", "0.3", "--alpha2", "0.5"], []),
    (SCENARIO, ["pareto", "--betas", "0.5"], []),
    (WIDE, ["pareto", "--betas", "0.25,0.5,0.75"], []),
    (SCENARIO, ["pareto", "--evaluator", "approx", "--grid", "64", "--betas", "0.5"], []),
    (SCENARIO, ["sweep", "--param", "p1", "--values", "0.5"], []),
    (SCENARIO, ["sweep", "--param", "n", "--values", "10", "--alpha1", "0.3", "--alpha2", "0.5"],
     ["decimal"]),
    (SCENARIO, ["simulate", "--cycles", "2000"], ["numpy.random"]),
    (SCENARIO, ["simulate", "--cycles", "2000", "--threads", "2", "--replications", "1"],
     ["numpy.random"]),
    (SCENARIO, ["simulate", "--cycles", "2000", "--threads", "2", "--replications", "2"],
     ["numpy.random"]),
    (SCENARIO, ["validate", "--cycles", "2000", "--replications", "2", "--tolerance", "0.5"],
     ["numpy.random"]),
], ids=["eval", "eval_approx", "pareto_exhaustive", "pareto_coarse_to_fine", "pareto_approx",
        "sweep", "sweep_n", "simulate", "simulate_one_replication", "simulate_threads", "validate"])
def test_verb_loads_only_its_modules(scenario_file, tmp_path, doc, verb, expect):
    # Each verb in a fresh interpreter, as the installed script runs it.
    argv = [verb[0], scenario_file(doc), *verb[1:]]
    if verb[0] in ("pareto", "sweep"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert _lazy_modules_after(f"assert cli.main({argv!r}) == 0") == expect


@pytest.mark.parametrize("extra,code", [([], 0), (["--approx"], 2)],
                         ids=["ok", "usage_error"])
def test_module_entry_point_matches_run(scenario_file, extra, code):
    # `python -m aoi_multicast.cli` behaves as the installed `aoi-multicast` script.
    argv = ["eval", scenario_file(SCENARIO), *extra]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    via_module, via_run = (
        subprocess.run([sys.executable, *prefix, *argv], env=env,
                       capture_output=True, text=True)
        for prefix in (["-m", "aoi_multicast.cli"], ["-c", RUN])
    )
    assert via_module.returncode == via_run.returncode == code
    assert via_module.stdout == via_run.stdout
    assert via_module.stdout.startswith('{"age_I"') if code == 0 else via_module.stderr


def test_run_freezes_the_import_heap_and_main_does_not(scenario_file):
    # run() freezes what the imports made, so the collections at exit skip
    # it; the count is read by an atexit hook, which runs before them.
    code = f"import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count())); {RUN}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, "eval", scenario_file(SCENARIO)],
                          env=env, check=True, capture_output=True, text=True)
    assert int(done.stdout.splitlines()[-1]) >= 10_000
    assert main(["eval", scenario_file(SCENARIO)]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("verb,code", [
    (["pareto", "--betas", "0,0.5,1", "--out"], 0),
    (["validate", "--cycles", "2000", "--replications", "2", "--tolerance", "1e-6"], 1),
    (["eval", "--approx"], 2),
    (["simulate", "--cycles", "2000", "--replications", "3", "--threads", "2"], 0),
], ids=["pareto_out", "validate_fail", "usage_error", "simulate_threads2"])
def test_run_exits_as_main(scenario_file, tmp_path, capsys, verb, code):
    # run() in a fresh interpreter, which freezes the import heap, gives
    # main()'s exit code, stdout, stderr (wall time aside) and CSV bytes.
    out = tmp_path / "out.csv"
    argv = [verb[0], scenario_file(SCENARIO), *verb[1:]]
    if argv[-1] == "--out":
        argv.append(str(out))

    def outcome(rc, stdout, stderr):
        csv_bytes = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return rc, stdout, re.sub(r"wall_time_s: .*\n", "", stderr), csv_bytes

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", RUN, *argv], env=env,
                          capture_output=True, text=True)
    via_run = outcome(done.returncode, done.stdout, done.stderr)
    assert via_run == outcome(main(argv), *capsys.readouterr())
    assert via_run[0] == code and (via_run[3] is not None) == (verb[0] == "pareto")
