#!/usr/bin/env python3
"""Benchmark of the aoi-multicast CLI verbs, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sim_wide --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke              # every workload once, checked
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference.json

Each operation is one verb in a fresh interpreter
(`python3 -c "from aoi_multicast.cli import run; run()"` with PYTHONPATH=src),
so it pays for imports and the harmonic cache as users do. The loop is
closed: one client, one verb at a time, no concurrency beyond the verb's own
`--threads`. A run sets up (SETUP_REPEATS tiny `eval` runs), then repeats
rounds of the workload's operations until `--seconds` have passed, then
checks every output. `--trace 1` instead runs one untraced round and the
same operations again under `trace_verb.py`, and reports per-layer metrics.

Times are reported in reference seconds: the speed of a shared host drifts
by 15-25 % over minutes, alike for every kind of work, so each operation is
bracketed by a fixed calibration kernel (`calibrate.py`, no aoi_multicast
code) and its wall time is scaled by CAL_REF_S / (calibration time). Raw
wall-time medians are printed beside them.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat the metrics for people.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
VERB = ("-c", "from aoi_multicast.cli import run; run()")
SETUP_REPEATS = 9
DEADLINE_S = 170.0  # every run ends well inside 180 s, whatever --seconds says
CAL_REF_S = 0.036  # calibration kernel time on a quiet 2-vCPU host


@dataclass
class Result:
    op: wl.Op
    round: object  # round index, "setup" or "post"
    wall: float
    cal: float  # mean calibration time just before and just after
    rss_mib: float
    stdout: str
    csv: str | None
    error: str | None = None
    parsed: object = None

    @property
    def ref_s(self) -> float:
        return self.wall * CAL_REF_S / self.cal


class Runner:
    """Runs verbs one at a time in fresh interpreters and keeps every result.

    Use as a context manager: it owns the calibration process.
    """

    def __init__(self, root: Path, workdir: str, seed: int):
        self.root, self.workdir, self.seed = root, workdir, seed
        self.env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
        }
        self.deadline = time.monotonic() + DEADLINE_S
        self.results: list[Result] = []
        self.calibrator = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.calibrator.stdin.close()
        try:
            self.calibrator.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.calibrator.kill()
            self.calibrator.wait()

    def calibration_s(self) -> float:
        self.calibrator.stdin.write("\n")
        self.calibrator.stdin.flush()
        return float(self.calibrator.stdout.readline())

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, op: wl.Op, round_, tracer: tuple = ()) -> Result:
        """Run `op`; `tracer` holds trace_verb.py's arguments for a traced run."""
        csv_path = Path(self.workdir) / f"{op.name}.csv"
        csv_path.unlink(missing_ok=True)
        launcher = (str(HERE / "trace_verb.py"), *tracer, "--") if tracer else VERB
        argv = [sys.executable, *launcher, *op.argv(self.workdir, self.seed)]
        cal = self.calibration_s()
        wall, rss, code, stdout, stderr = self._spawn(argv)
        cal = (cal + self.calibration_s()) / 2
        res = Result(op, round_, wall, cal, rss, stdout,
                     csv_path.read_text() if csv_path.exists() else None)
        if code != 0:
            res.error = f"exit code {code}: {stderr.strip()[-300:]}"
        self.results.append(res)
        return res

    def _spawn(self, argv):
        timeout = self.time_left()
        if timeout <= 0:
            return 0.0, 0.0, -1, "", "run deadline passed"
        out_path, err_path = (Path(self.workdir) / f"std{s}.txt" for s in ("out", "err"))
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root, start_new_session=True)
            # The verb's pool workers share its process group.
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                # wait4, not wait: its rusage gives the verb's peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_text(), err_path.read_text())


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- a run -------------------------------------------------------------------


def run_rounds(runner: Runner, workload: wl.Workload, seconds: float):
    """Closed loop of rounds until `seconds` have passed (at least one round)."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        i = len(rounds)
        rounds.append([runner.run(op, i) for op in workload.ops for _ in range(op.repeat)])
        longest = max(sum(r.wall for r in rnd) for rnd in rounds)
        if time.perf_counter() - t0 >= seconds or runner.time_left() < 2 * longest + 10:
            return rounds


def traced_round(runner: Runner, workload: wl.Workload, untraced: list[Result]) -> dict:
    """Rerun the round's operations traced; per-layer metrics from the spans."""
    traced, serial, memory, overhead = [], {}, [], 0.0
    for op in workload.ops:
        plain = next(r for r in untraced if r.op is op)
        npz = f"{runner.workdir}/{op.name}.spans.npz"
        res = runner.run(op, plain.round, (npz,))
        overhead += res.wall - plain.wall
        if res.error is None:
            traced.append((op, npz))
        npz = f"{runner.workdir}/{op.name}.memory.npz"
        if runner.run(op, plain.round, (npz, "--memory")).error is None:
            memory.append(npz)
        if op.verb == "simulate" and op.option("--threads", 1) > 1:
            i = op.options.index("--threads")
            one = dataclasses.replace(op, options=(*op.options[:i + 1], "1", *op.options[i + 2:]))
            npz = f"{runner.workdir}/{op.name}.serial.npz"
            if runner.run(one, plain.round, (npz,)).error is None:
                serial[op.name] = npz
    if not traced:
        return {}
    # Loaded only now: numpy in this process would raise the peak RSS that
    # wait4 reports for every verb started after it.
    import layers

    return layers.per_layer(traced, serial, memory, overhead, wl.FIRST_CALL_OP)


def check_results(results: list[Result], reference: dict) -> None:
    """Parse and check every result in place; a failure sets `error`."""
    for res in results:
        if res.error is None:
            try:
                res.parsed = wl.parse(res.op, res.stdout, res.csv)
            except wl.CheckError as e:
                res.error = str(e)
    peers: dict = {}
    for res in results:
        if res.error is None:
            peers.setdefault(res.round, {})[res.op.name] = res.parsed
    first_stdout: dict = {}
    for res in results:
        if res.error is not None:
            continue
        try:
            wl.check(res.op, res.parsed, reference.get(res.op.name),
                     {**peers.get("post", {}), **peers.get(res.round, {})})
            # Same seed, same stdout, whatever the worker count or tracing.
            if (res.op.verb == "simulate"
                    and first_stdout.setdefault(res.op.scenario, res.stdout) != res.stdout):
                raise wl.CheckError("stdout differs between runs with one seed")
        except wl.CheckError as e:
            res.error = str(e)


def e2e_metrics(setup: list[Result], rounds: list[list[Result]], ops, time_of) -> dict:
    med = statistics.median

    def op_median(op):
        return med(time_of(r) for rnd in rounds for r in rnd if r.op is op)

    return {
        "setup_s": med(time_of(r) for r in setup),
        "wall_s": med(sum(time_of(r) for r in rnd) for rnd in rounds),
        "op1_s": op_median(ops[0]),
        "op2_s": op_median(ops[1]),
        "peak_rss_mb": med(max(r.rss_mib for r in rnd) for rnd in rounds),
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = wl.WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text())
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        wl.write_scenarios(workdir)
        with Runner(root, workdir, seed) as runner:
            setup = [runner.run(wl.SETUP_OP, "setup") for _ in range(SETUP_REPEATS)]
            rounds = run_rounds(runner, workload, 0 if trace else seconds)
            for op in workload.post:
                runner.run(op, "post")
            layer_metrics = traced_round(runner, workload, rounds[0]) if trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_results(runner.results, reference)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "ops": workload.ops,
        "rounds": len(rounds),
        "setups": len(setup),
        "e2e": e2e_metrics(setup, rounds, workload.ops, lambda r: r.ref_s),
        "e2e_raw": e2e_metrics(setup, rounds, workload.ops, lambda r: r.wall),
        "calibration_s": statistics.median(r.cal for r in runner.results),
        "layers": layer_metrics,
        "attempted": len(runner.results),
        "failed": [r for r in runner.results if r.error is not None],
    }


# -- reporting ---------------------------------------------------------------


def environment(root: Path) -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    env = {"git": sha, "python": sys.version.split()[0], "nproc": os.cpu_count()}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = "missing"
    return env


def report(out: dict, spec: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit and sample count."""
    ops, e2e, raw, rounds = out["ops"], out["e2e"], out["e2e_raw"], out["rounds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"# workload {out['workload']}  seed {out['seed']}  trace {int(out['trace'])}  "
             f"calibration {out['calibration_s'] * 1e3:.2f} ms (reference {CAL_REF_S * 1e3:g} ms)"]
    counts = {"setup_s": f"median of {out['setups']} set-ups"}
    counts.update({k: f"median of {rounds} rounds" for k in ("wall_s", "peak_rss_mb")})
    counts.update({k: f"median of {rounds * op.repeat} runs" for k, op in zip(("op1_s", "op2_s"), ops)})
    labels = {"op1_s": f"{ops[0].name}_s", "op2_s": f"{ops[1].name}_s"}
    for key, value in e2e.items():
        label = f"{key} ({labels[key]})" if key in labels else key
        lines.append(f"{label:<32} {value:>12.6g} {units[key]:<6} {counts[key]}, "
                     f"raw {raw[key]:.6g}")
    if ops[0].verb == "simulate":
        rate = ops[0].cycles / e2e["op1_s"]
        lines.append(f"{'sim_cycles_per_s':<32} {rate:>12.6g} {'1/s':<6} "
                     f"cycles x replications / op1_s, raw {ops[0].cycles / raw['op1_s']:.6g}")
    n_failed = len(out["failed"])
    lines.append(f"{'error_rate':<32} {n_failed / out['attempted']:>12.6g} {'1':<6} "
                 f"{n_failed} of {out['attempted']} operations failed")
    for key, value in out["layers"].items():
        lines.append(f"{key:<32} {value:>12.6g} {units.get(key, ''):<6} traced round")
    for res in out["failed"]:
        lines.append(f"FAILED {res.op.name} (round {res.round}): {res.error}")
    return lines


def result_line(out: dict, spec: dict) -> str:
    section = "per_layer" if out["trace"] else "end_to_end"
    values = out["layers"] if out["trace"] else out["e2e"]
    return json.dumps({
        "correct": not out["failed"] and bool(values),
        "attempted": out["attempted"],
        "failed": len(out["failed"]),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in spec[section]},
    })


def record_reference(root: Path) -> None:
    """Store the outputs of every deterministic operation as the reference."""
    ops = {wl.SETUP_OP}
    for workload in wl.WORKLOADS.values():
        ops.update(op for op in workload.ops + workload.post if op.verb != "simulate")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        wl.write_scenarios(workdir)
        reference = {}
        with Runner(root, workdir, seed=0) as runner:
            for op in sorted(ops, key=lambda o: o.name):
                res = runner.run(op, "record")
                if res.error is not None:
                    raise SystemExit(f"{op.name}: {res.error}")
                reference[op.name] = wl.parse(op, res.stdout, res.csv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, untraced and traced, with checks")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aoi_multicast" / "cli.py").is_file():
        print(f"perfbench: no src/aoi_multicast/cli.py under {root}; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.record_reference:
        record_reference(root)
        return 0
    print("# " + json.dumps(environment(root)))
    if args.smoke:
        ok = True
        for name in wl.WORKLOADS:
            for trace in (False, True):
                out = run_workload(root, name, args.seed, 0, trace)
                print("\n".join(report(out, spec)), flush=True)
                ok = ok and not out["failed"]
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    out = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report(out, spec)))
    print(result_line(out, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
