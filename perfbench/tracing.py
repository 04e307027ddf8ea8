"""In-memory span tracer for the traced benchmark run.

Spans are recorded around public functions of ``pimsim`` by replacing them,
at every module binding that holds them, with a timing wrapper.  Each span
keeps its name, start, end, parent span and operation id.  Nothing is
wrapped unless :meth:`Tracer.install` is called, so metric runs execute the
package unmodified.

Self time of a span is its duration minus the durations of its direct
children; summing self times by name attributes every traced second to
exactly one layer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, owner, attribute): owner is a module path, or a module path
# and class name joined by ":"; functions are replaced at every pimsim
# module that binds the same object.
SPANS = (
    ("memsys.init", "pimsim.memsys:MemorySystem", "__init__"),
    ("memsys.access", "pimsim.memsys:MemorySystem", "access"),
    # the listener each engine registers in MemorySystem.dram_listeners
    ("engine.trigger", "pimsim.engine:PimGemvEngine", "_on_dram"),
    ("engine.execute", "pimsim.engine:PimGemvEngine", "execute"),
    ("engine.verify", "pimsim.engine:PimGemvEngine", "verify_trigger_integrity"),
    ("layout.convert", "pimsim.layout", "convert_to_pim_aware"),
    ("layout.smc", "pimsim.layout", "smc_copy"),
    ("layout.placement", "pimsim.layout", "burst_address_of_tile"),
    ("layout.placement", "pimsim.layout", "model_placements"),
    ("presets.pim_weight_bytes", "pimsim.presets", "pim_weight_bytes"),
    ("runtime.prefill", "pimsim.runtime", "run_prefill"),
    ("runtime.decode", "pimsim.runtime", "run_decode"),
    ("runtime.ddb_schedule", "pimsim.runtime", "build_ddb_schedule"),
    ("cli.main", "pimsim.cli", "main"),
)

# Call counters without timing, for functions called too often, or too
# briefly, for a span to be worth its cost.
COUNTS = (
    ("runtime.layer_plan", "pimsim.runtime", "layer_plan"),
    ("cost", "pimsim.cost", "gemm_time"),
    ("cost", "pimsim.cost", "smc_time"),
    ("cost", "pimsim.cost", "decode_token_time"),
    ("cost", "pimsim.cost", "capacity_report"),
    ("dram.decode_address", "pimsim.dram", "decode_address"),
    ("dram.encode_coord", "pimsim.dram", "encode_coord"),
)


def self_times(parents: np.ndarray, starts: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    dur = ends - starts
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested],
                        minlength=len(dur))
    return dur - child


class Tracer:
    """Records spans and call counts in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.current_op = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # wrapping the package
    # ------------------------------------------------------------------
    def install(self):
        """Wrap every entry of SPANS and COUNTS; undo with :meth:`uninstall`."""
        for table, make in ((SPANS, self.timed), (COUNTS, self.counted)):
            for name, owner, attr in table:
                module, _, cls = owner.partition(":")
                if cls:
                    target = getattr(sys.modules[module], cls)
                    self._patch(target, attr, make(name, getattr(target, attr)))
                    continue
                original = getattr(sys.modules[module], attr)
                wrapped = make(name, original)
                for binding in _bindings_of(original):
                    self._patch(binding, attr, wrapped)

    def _patch(self, owner, attr: str, wrapped):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def table(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int64),
                "op": np.array(self.op, dtype=np.int64),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def summary(self) -> dict[str, dict]:
        """Per span name: number of spans, total and self seconds."""
        t = self.table()
        own = self_times(t["parent"], t["start"], t["end"])
        n = len(self.names)
        calls = np.bincount(t["name_id"], minlength=n)
        total = np.bincount(t["name_id"], weights=t["end"] - t["start"],
                            minlength=n)
        self_s = np.bincount(t["name_id"], weights=own, minlength=n)
        out = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                      "self_s": float(self_s[i])}
               for i, name in enumerate(self.names)}
        for name, count in self.counts.items():
            out[name] = {"calls": count, "total_s": 0.0, "self_s": 0.0}
        return out

    def save(self, path):
        """Write every span to an ``.npz`` file (names in ``names``)."""
        np.savez(path, names=np.array(self.names), **self.table())


def _bindings_of(fn) -> list:
    """Every loaded pimsim module that binds ``fn`` under its own name."""
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "pimsim" or name.startswith("pimsim."))
            and mod is not None and mod.__dict__.get(fn.__name__) is fn]
