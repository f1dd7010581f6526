"""Run one aoi-multicast verb with spans recorded at the layer boundaries.

    PYTHONPATH=src python3 perfbench/trace_verb.py OUT.npz [--memory] -- VERB ARGS...

Every public function of `orderstats`, `analytic`, `optimize` and `sim` is
wrapped, by function identity, wherever another `aoi_multicast` module has
bound it, so a span marks one call across a layer boundary. The verb itself
runs inside the root span `cli.main`. Spans (name, start, end, parent, tag =
type name of the first argument) are kept in memory and written to OUT.npz
when the verb returns.

With --memory no spans are recorded. Instead tracemalloc runs for the whole
verb and OUT.npz gets the largest traced-memory peak seen inside one
`orderstats` call, above the memory in use when the call began.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array

LAYERS = ("orderstats", "analytic", "optimize", "sim")


class Spans:
    """Append-only span table in flat arrays; row i is the i-th call entered."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._tag_ids: dict[str, int] = {}
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def _tag_id(self, args) -> int:
        key = type(args[0]).__name__ if args else ""
        tid = self._tag_ids.get(key)
        if tid is None:
            tid = self._tag_ids[key] = len(self.tags)
            self.tags.append(key)
        return tid

    def wrap(self, fn, span_name: str):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        name, tag, parent, start, end, stack = (
            self.name, self.tag, self.parent, self.start, self.end, self.stack
        )
        tag_id = self._tag_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            tag.append(tag_id(args))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t
                stack.pop()

        return traced


class OrderstatsPeak:
    """Largest tracemalloc peak inside one call, above the memory in use at entry."""

    def __init__(self):
        self.peak = 0

    def wrap(self, fn, span_name: str):
        if not span_name.startswith("orderstats."):
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        return traced


def install(recorder) -> None:
    """Rebind each layer's public functions, in every other package module."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"aoi_multicast.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = (fn, recorder.wrap(fn, f"{layer}.{attr}"))
    for modname, mod in list(sys.modules.items()):
        if modname != "aoi_multicast" and not modname.startswith("aoi_multicast."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value and value.__module__ != modname:
                setattr(mod, attr, hit[1])


def main(argv: list[str]) -> int:
    out, memory = argv[0], "--memory" in argv[1:argv.index("--")]
    verb_argv = argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    from aoi_multicast import cli

    import_s = time.perf_counter() - t0
    import numpy as np

    recorder = OrderstatsPeak() if memory else Spans()
    install(recorder)
    if memory:
        tracemalloc.start()
        rc = cli.main(verb_argv)
        tracemalloc.stop()
        np.savez(out, import_s=import_s, peak_bytes=recorder.peak)
        return rc
    rc = recorder.wrap(cli.main, "cli.main")(verb_argv)
    np.savez(
        out,
        import_s=import_s,
        names=np.array(recorder.names, dtype=str),
        tags=np.array(recorder.tags, dtype=str),
        **{col: np.asarray(getattr(recorder, col))
           for col in ("name", "tag", "parent", "start", "end")},
    )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
