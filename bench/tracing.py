"""Spans around the program's public functions, recorded from outside it.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, the index of the enclosing span, and an optional tag
computed from the arguments.  Spans stay in memory and are written once, when
the run ends.  Wrappers record nothing while the tracer is inactive, so the
benchmark's own checks, which call some of the same functions, leave no spans.

hybrid_solver binds solve_tridiagonal by name at import, so that function is
replaced in both modules.  Every other wrapped function is reached through
its module attribute.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# (module, function, span name, tag from the call's arguments, modules that
# bind the function by name)
TARGETS = (
    ("fem_core", "solve_tridiagonal", "fem_core.solve_tridiagonal", None, ("hybrid_solver",)),
    ("fem_core", "assemble_mass", "fem_core.assemble", None, ()),
    ("fem_core", "assemble_stiffness", "fem_core.assemble", None, ()),
    ("fem_core", "assemble_convection", "fem_core.assemble", None, ()),
    ("hybrid_solver", "run_simulation", "hybrid_solver.run_simulation", None, ()),
    ("hybrid_solver", "build_system", "hybrid_solver.build_system", None, ()),
    ("hybrid_solver", "step_imex", "hybrid_solver.step_imex", None, ()),
    ("hybrid_solver", "write_simulation_csv", "hybrid_solver.write_simulation_csv", None, ()),
    ("ryr_markov", "step_backward_euler", "ryr_markov.step_backward_euler", None, ()),
    ("datasets", "build_ode_dataset", "datasets.build_ode_dataset", None, ()),
    ("datasets", "label_signals", "datasets.label_signals", None, ()),
    ("datasets", "save_samples", "datasets.save_samples", None, ()),
    ("surrogate_net", "train", "surrogate_net.train", None, ()),
    ("surrogate_net", "loss", "surrogate_net.loss", lambda a, k: len(a[1]), ()),
    ("surrogate_net", "backward", "surrogate_net.backward", lambda a, k: len(a[1]), ()),
    ("surrogate_net", "adam_step", "surrogate_net.adam_step", None, ()),
    ("surrogate_net", "predict_next_probability", "surrogate_net.predict_next_probability", None, ()),
    ("convergence", "run_convergence_study", "convergence.run_convergence_study", None, ()),
    ("convergence", "steady_case_error", "convergence.steady_case_error", lambda a, k: a[0], ()),
    ("convergence", "transient_case_error", "convergence.transient_case_error", lambda a, k: a[0], ()),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self.tags = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.round_starts = []  # index of the first span of each round
        self.active = False
        self._stack = []
        self._originals = []

    def wrap(self, fn, name, tag):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.tags.append(tag(args, kwargs) if tag else None)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self, package) -> None:
        for module_name, attr, name, tag, aliases in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, tag)
            for holder in (module,) + tuple(getattr(package, a) for a in aliases):
                self._originals.append((holder, attr, getattr(holder, attr)))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._originals):
            setattr(holder, attr, original)
        self._originals.clear()

    def begin_round(self) -> None:
        self.round_starts.append(len(self.names))

    def save(self, path) -> None:
        """All spans in one .npz: name table, per-span name id, tag, parent, start, end."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            names=np.array(table),
            name_id=np.array([ids[n] for n in self.names], dtype=np.int32),
            tag=np.array([-1 if t is None else t for t in self.tags], dtype=np.int64),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
            round_start=np.array(self.round_starts, dtype=np.int64),
        )

    def layer_stats(self) -> "LayerStats":
        return LayerStats(self)


class LayerStats:
    """Per-name call counts per round, durations and self times."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        self.names = np.array(tracer.names, dtype=object)
        self.tags = np.array([-1 if t is None else t for t in tracer.tags], dtype=np.int64)
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.dur = np.array(tracer.ends) - np.array(tracer.starts)
        child = np.zeros(n)
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        bounds = list(tracer.round_starts) + [n]
        self.round_of = np.zeros(n, dtype=np.int64)
        for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            self.round_of[lo:hi] = r
        self.rounds = len(tracer.round_starts)

    def mask(self, name, tag=None):
        m = self.names == name
        if tag is not None:
            m &= self.tags == tag
        return m

    def calls_per_round(self, name) -> list:
        m = self.mask(name)
        return [int(np.sum(m & (self.round_of == r))) for r in range(self.rounds)]

    def calls(self, name) -> int:
        """Calls in one round.  Rounds repeat the same work, so they agree."""
        per_round = self.calls_per_round(name)
        if len(set(per_round)) != 1:
            raise RuntimeError(f"{name}: call counts differ between rounds: {per_round}")
        return per_round[0]

    def median(self, name, tag=None, self_time=False) -> float:
        m = self.mask(name, tag)
        values = (self.self_time if self_time else self.dur)[m]
        return float(np.median(values)) if values.size else 0.0

    def percentile(self, name, q) -> float:
        values = self.dur[self.mask(name)]
        return float(np.percentile(values, q)) if values.size else 0.0

    def round_total(self, name) -> float:
        """Median over rounds of the time spent in name per round."""
        m = self.mask(name)
        totals = [float(np.sum(self.dur[m & (self.round_of == r)])) for r in range(self.rounds)]
        return float(np.median(totals)) if totals else 0.0

    def nested_calls(self, name, ancestor) -> int:
        """Calls of name per round made (at any depth) inside an ancestor span."""
        inside = np.zeros(len(self.names), dtype=bool)
        anc = self.mask(ancestor)
        idx = np.nonzero(self.mask(name))[0]
        for i in idx:
            p = self.parents[i]
            while p >= 0 and not anc[p]:
                p = self.parents[p]
            inside[i] = p >= 0
        counts = [int(np.sum(inside & (self.round_of == r))) for r in range(self.rounds)]
        if len(set(counts)) != 1:
            raise RuntimeError(f"{name} in {ancestor}: counts differ between rounds: {counts}")
        return counts[0]
