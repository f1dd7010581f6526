"""Per-layer metrics derived from the spans that `trace_verb.py` records.

A span's layer is the module part of its name (`cli`, `sim`, `optimize`,
`analytic`, `orderstats`). Its self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import numpy as np


class OpSpans:
    """The span table of one traced verb run."""

    def __init__(self, path: str):
        with np.load(path) as z:
            names = [str(s) for s in z["names"]]
            tags = [str(s) for s in z["tags"]]
            name_idx, tag_idx = z["name"], z["tag"]
            self.parent = z["parent"].astype(np.int64)
            self.dur = z["end"] - z["start"]
            self.import_s = float(z["import_s"])
        self.name = np.array(names, dtype=object)[name_idx]
        self.layer = np.array([n.partition(".")[0] for n in names], dtype=object)[name_idx]
        self.tag = np.array(tags, dtype=object)[tag_idx]
        child = self.parent >= 0
        self.self_time = self.dur - np.bincount(
            self.parent[child], weights=self.dur[child], minlength=self.dur.size
        )
        self.parent_layer = np.where(child, self.layer[np.maximum(self.parent, 0)], "")

    def layer_entry(self, layer: str) -> np.ndarray:
        """Mask of spans entering `layer` from another layer."""
        return (self.layer == layer) & (self.parent_layer != layer)

    def first_orderstats_call_of_last_row(self) -> float:
        """Duration of the first orderstats call under the last analytic call
        that the CLI made directly (the last row of a sweep)."""
        root = np.flatnonzero(self.name == "cli.main")
        rows = np.flatnonzero((self.layer == "analytic") & np.isin(self.parent, root))
        if rows.size == 0:
            return 0.0
        calls = np.flatnonzero((self.parent == rows[-1]) & (self.layer == "orderstats"))
        return float(self.dur[calls[0]]) if calls.size else 0.0


def _mean_us(values: np.ndarray) -> float:
    return float(values.mean() * 1e6) if values.size else 0.0


def per_layer(traced, serial_sim, memory, overhead_s, first_call_op):
    """Per-layer metrics of one traced round, from the files trace_verb.py wrote.

    traced: list of (Op, spans file), one per operation of the round;
    serial_sim: {op name: spans file} of simulate ops rerun with one worker;
    memory: files of the tracemalloc reruns;
    overhead_s: traced minus untraced verb wall time, summed over the ops.
    """
    traced = [(op, OpSpans(path)) for op, path in traced]
    serial_sim = {name: OpSpans(path) for name, path in serial_sim.items()}
    peak_bytes = 0
    for path in memory:
        with np.load(path) as z:
            peak_bytes = max(peak_bytes, int(z["peak_bytes"]))
    cat = {
        key: np.concatenate([getattr(s, key) for _, s in traced])
        for key in ("layer", "parent_layer", "tag", "dur", "self_time")
    }
    layer, dur, self_time = cat["layer"], cat["dur"], cat["self_time"]
    analytic = layer == "analytic"
    orderstats = layer == "orderstats"

    pair_s = pairs = 0
    sim_serial_s = sim_cycles = sim_capacity_s = 0.0
    first_call_s = 0.0
    for op, spans in traced:
        if op.pairs:
            pair_s += float(spans.dur[spans.layer_entry("optimize")].sum())
            pairs += op.pairs
        if op.verb == "simulate":
            pool_s = float(spans.dur[spans.name == "sim.simulate"].sum())
            serial = serial_sim.get(op.name, spans)
            sim_serial_s += float(serial.dur[serial.name == "sim.simulate"].sum())
            sim_cycles += op.cycles
            sim_capacity_s += op.option("--threads", 1) * pool_s
        if op.name == first_call_op:
            first_call_s = spans.first_orderstats_call_of_last_row()

    return {
        "cli.self_s": float(self_time[layer == "cli"].sum()),
        "cli.import_s": float(np.mean([s.import_s for _, s in traced])),
        "sim.ns_per_cycle_serial": sim_serial_s / sim_cycles * 1e9 if sim_cycles else 0.0,
        "sim.parallel_efficiency": sim_serial_s / sim_capacity_s if sim_capacity_s else 0.0,
        "optimize.self_s": float(self_time[layer == "optimize"].sum()),
        "optimize.age_pair_calls": int(np.count_nonzero(analytic & (cat["parent_layer"] == "optimize"))),
        "optimize.us_per_threshold_pair": pair_s / pairs * 1e6 if pairs else 0.0,
        "analytic.calls": int(np.count_nonzero(analytic)),
        "analytic.us_per_call_exact": _mean_us(dur[analytic & (cat["tag"] == "Scenario")]),
        "analytic.self_us_per_call": _mean_us(self_time[analytic]),
        "analytic.us_per_call_approx": _mean_us(dur[analytic & (cat["tag"] == "ScenarioApprox")]),
        "orderstats.calls": int(np.count_nonzero(orderstats)),
        "orderstats.us_per_call": _mean_us(dur[orderstats]),
        "orderstats.first_call_s_n1e7": first_call_s,
        "orderstats.traced_peak_mb": peak_bytes / 2**20,
        "trace.overhead_s": overhead_s,
    }
