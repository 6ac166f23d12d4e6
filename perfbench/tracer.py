"""Span and counter recording around calls into the package's layers.

The tracer patches timing wrappers into the module namespaces where
callers look functions up.  Package modules import functions by name
(``from .obstacle import solve_vi``), so wrapping only the defining
module would miss every call made from inside the package: each entry
of ``LAYERS`` lists all the namespaces that hold a reference.

Spans carry (name, start, end, parent, instance).  The per-time-step
tridiagonal solves (``TransitionSlice.apply``/``apply_adjoint``) run a
few hundred thousand times per solve, so they are aggregated instead of
recorded one by one: their count and busy time are kept, and their time
is charged to the enclosing span so self times still add up.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# layer name -> (defining module, attribute, namespaces that hold a reference)
LAYERS = {
    "model_core.build_transition_operator": (
        "mfgstop.model_core", "build_transition_operator",
        ("mfgstop.model_core", "mfgstop.cli", "mfgstop.lp_oracle")),
    "measures.moment": ("mfgstop.measures", "moment",
                        ("mfgstop.mfg", "mfgstop.reward", "mfgstop.cli")),
    "measures.convex_combine": ("mfgstop.measures", "convex_combine", ("mfgstop.mfg",)),
    "measures.is_admissible": ("mfgstop.measures", "is_admissible",
                               ("mfgstop.measures", "mfgstop.cli")),
    "reward.evaluate_reward": ("mfgstop.reward", "evaluate_reward",
                               ("mfgstop.reward", "mfgstop.mfg", "mfgstop.cli")),
    "reward.potential_value": ("mfgstop.reward", "potential_value", ("mfgstop.mfg",)),
    "reward.directional_gain": ("mfgstop.reward", "directional_gain", ("mfgstop.mfg",)),
    "obstacle.solve_vi": ("mfgstop.obstacle", "solve_vi", ("mfgstop.mfg", "mfgstop.cli")),
    "obstacle.complementarity_report": ("mfgstop.obstacle", "complementarity_report",
                                        ("mfgstop.cli",)),
    "forward.stopped_forward_measure": ("mfgstop.forward", "stopped_forward_measure",
                                        ("mfgstop.mfg", "mfgstop.cli")),
    "forward.fokker_planck_residual": ("mfgstop.forward", "fokker_planck_residual",
                                       ("mfgstop.cli",)),
    "forward.measure_ledger": ("mfgstop.forward", "measure_ledger",
                               ("mfgstop.mfg", "mfgstop.cli")),
    "lp_oracle.audit": ("mfgstop.lp_oracle", "test_function_audit", ("mfgstop.cli",)),
    "montecarlo.simulate_paths": ("mfgstop.montecarlo", "simulate_paths", ("mfgstop.cli",)),
    "mfg.best_response": ("mfgstop.mfg", "best_response", ("mfgstop.mfg",)),
    "mfg.line_search": ("mfgstop.mfg", "line_search", ("mfgstop.mfg",)),
    "mfg.fixed_point_solve": ("mfgstop.mfg", "fixed_point_solve",
                              ("mfgstop.mfg", "mfgstop.cli")),
    "cli.load_config": ("mfgstop.cli", "load_config", ("mfgstop.cli",)),
    "cli.build_instance": ("mfgstop.cli", "build_instance", ("mfgstop.cli",)),
    "cli.grid_csv_text": ("mfgstop.cli", "grid_csv_text", ("mfgstop.cli",)),
    "cli.write": ("mfgstop.cli", "_write", ("mfgstop.cli",)),
    "cli.read_grid_csv": ("mfgstop.cli", "read_grid_csv", ("mfgstop.cli",)),
    "cli.solve_mfg": ("mfgstop.cli", "run_solve_mfg", ("mfgstop.cli",)),
    "cli.verify": ("mfgstop.cli", "run_verify", ("mfgstop.cli",)),
    "cli.mc_check": ("mfgstop.cli", "run_mc_check", ("mfgstop.cli",)),
}

# hot per-step calls, aggregated: layer name -> method of TransitionSlice
LEAF_METHODS = {
    "model_core.slice_apply": "apply",
    "model_core.slice_apply_adjoint": "apply_adjoint",
}


def _after_build(tracer, op):
    tracer.counts["model_core.slices"] += len(op.slices)
    tracer.counts["model_core.dense_bytes"] += sum(
        getattr(getattr(s, "_dense", None), "nbytes", 0) for s in op.slices)


def _after_simulate(tracer, mc):
    # every path tallied at a slice k < K is advanced one Euler step
    n = mc.stats.n_paths
    K = mc.family.K
    tracer.counts["montecarlo.path_steps"] += int(round(float(mc.family.masses[:K].sum()) * n))
    tracer.counts["montecarlo.noise_bytes"] += n * K * 8


def _after_solve(tracer, result):
    tracer.solves.append((tracer.instance, result.iterations, list(result.trace.rho)))


def _before_write(tracer, args):
    tracer.counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


AFTER = {
    "model_core.build_transition_operator": _after_build,
    "montecarlo.simulate_paths": _after_simulate,
    "mfg.fixed_point_solve": _after_solve,
}
BEFORE = {"cli.write": _before_write}


class Tracer:
    """In-memory spans and counts; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, instance]
        self.counts = Counter()
        self.leaf_s = defaultdict(float)
        self.leaf_child_s = defaultdict(float)  # span index -> aggregated leaf time
        self.solves = []         # (instance, FW iterations, step sizes)
        self.instance = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.instance])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
                counts[name] += 1
            if after is not None:
                after(self, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, name, fn):
        stack, counts, leaf_s, child = self._stack, self.counts, self.leaf_s, self.leaf_child_s

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                counts[name] += 1
                leaf_s[name] += dt
                if stack:
                    child[stack[-1]] += dt

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (home, attr, namespaces) in LAYERS.items():
            fn = getattr(importlib.import_module(home), attr)
            wrapped = self._wrap(name, fn)
            for ns in namespaces:
                mod = importlib.import_module(ns)
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        cls = importlib.import_module("mfgstop.model_core").TransitionSlice
        for name, meth in LEAF_METHODS.items():
            self._saved.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, self._wrap_leaf(name, cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    # derived quantities

    def inclusive_s(self, name, instance=None):
        """Summed span durations, counting nested calls of the same name once."""
        total = 0.0
        for nm, t0, t1, parent, inst in self.spans:
            if nm != name or (instance is not None and inst != instance):
                continue
            if self._has_ancestor(parent, name):
                continue
            total += t1 - t0
        return total

    def _has_ancestor(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def self_times(self):
        """Per layer: span time not covered by child spans or aggregated leaf calls."""
        child = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (nm, t0, t1, _, _) in enumerate(self.spans):
            out[nm] += (t1 - t0) - child[i] - self.leaf_child_s[i]
        for nm, s in self.leaf_s.items():
            out[nm] += s
        return dict(out)

    def children_count(self, parent_name, child_name):
        return sum(1 for nm, _, _, parent, _ in self.spans
                   if nm == child_name and parent >= 0 and self.spans[parent][0] == parent_name)

    def dump(self, path, meta):
        payload = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "instance"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "leaf_s": dict(self.leaf_s),
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
