"""Outside-in tracing of pgmq's public functions.

`Tracer.installed()` replaces each traced function at every module attribute
that binds it (``from .cost import sequence_cost`` binds it in
``pgmq.passes`` too) and each traced method on its class, and puts the
originals back on exit.  The wrappers call straight through, so results are
unchanged.  Every call records a span (name, start, end, parent) in flat
arrays that stay in memory until `summary()` reduces them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (defining module, function) pairs traced at every binding site.
FUNCTIONS = (
    ("qasm", "parse_qasm_file"), ("qasm", "to_zz_basis"),
    ("circuit", "layerize"), ("circuit", "form_su4_blocks"),
    ("circuit", "to_unitary"), ("circuit", "gate_apply"),
    ("circuit", "pauli_gate"),
    ("su4", "minimize_block_phase"),
    ("gadgets", "commute_cnot"), ("gadgets", "simplify"),
    ("gadgets", "fanout_to_mq"),
    ("passes", "pg_left"), ("passes", "pg_right"),
    ("passes", "conjugation_cost_matrix"), ("passes", "norm_reduction_step"),
    ("passes", "optimize"),
    ("cost", "sequence_cost"), ("cost", "realize"), ("cost", "nuclear_norm"),
    ("cost", "metrics"),
    ("serialize", "dumps"),
    ("noise", "monte_carlo_fidelity"), ("noise", "probabilities"),
)
# (module, class, method, span name): constructors are traced through the
# dataclass __post_init__ hook, which __init__ looks up on the class.
METHODS = (
    ("circuit", "SingleQubit", "__post_init__", "circuit.SingleQubit"),
    ("passes", "CompiledProgram", "realized_circuit",
     "passes.CompiledProgram.realized_circuit"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.proposals = 0      # norm_reduction_step results with improved=True

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str):
        nid = self._id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        observe = span.startswith("passes.norm_reduction_step")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe and result[2]:
                self.proposals += 1
            return result
        return traced

    @contextmanager
    def installed(self):
        """Trace the listed functions and methods for the `with` body."""
        modules = {name[len("pgmq."):]: mod for name, mod in
                   list(sys.modules.items()) if name.startswith("pgmq.")}
        undo = []
        try:
            for home, attr in FUNCTIONS:
                original = getattr(modules[home], attr)
                for site, mod in modules.items():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            # span "<home>.<attr>@<site>": the module whose
                            # binding the caller looked the name up in
                            undo.append((mod, key, value))
                            setattr(mod, key, self._wrap(
                                original, f"{home}.{attr}@{site}"))
            for home, cls_name, attr, span in METHODS:
                cls = getattr(modules[home], cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, span))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds.  A span's self
        time is its duration minus the time its child spans cover."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]),
                                "total_ms": 1e3 * float(total[i]),
                                "self_ms": 1e3 * float(self_s[i])}
                for i in range(k) if calls[i]}


def by_function(spans: dict) -> dict:
    """Merge the binding sites of each function: "cost.realize@passes" and
    "cost.realize@cost" both count toward "cost.realize"."""
    out: dict = {}
    for span, stats in spans.items():
        agg = out.setdefault(span.split("@")[0],
                             {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for key in agg:
            agg[key] += stats[key]
    return out
