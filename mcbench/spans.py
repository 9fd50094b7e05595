"""In-memory spans around the calls ``run_benchmark`` makes into each layer.

While a Tracer is installed, the module attributes that the Monte Carlo
loop reaches are replaced by wrappers that record one span per call:
its name (``<layer>.<function>``), start and end in nanoseconds, the
index of the enclosing span, and the trial the call belongs to.  The
wrappers live here, not in the package, so the package runs unchanged
when no Tracer is installed.  Spans named in CAPTURED also keep the
call's arguments and result for the correctness checks.

A Tracer records one thread: the parent of a span is read from a stack,
so it must not be installed around ``run_benchmark(cfg, threads > 1)``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from qecbench import bench, decoders
from qecbench.f2 import F2Matrix

# (owner, attribute, span name).  bp_decode is reached both from the
# harness and from bp_osd, so it is wrapped in both modules.
TARGETS = (
    (bench, "build_code", "homology.build_code"),
    (bench, "depolarizing_problem", "noise.problem"),
    (bench, "sample_depolarizing", "noise.sample"),
    (bench, "depolarizing_fault_vector", "noise.fault_vector"),
    (bench, "bp_decode", "decoders.bp"),
    (decoders, "bp_decode", "decoders.bp"),
    (bench, "bp_osd", "decoders.bp_osd"),
    (decoders, "osd_w", "decoders.osd"),
    (bench, "exhaustive_mld", "decoders.mld"),
    (bench, "success", "decoders.success"),
    (F2Matrix, "matvec", "f2.matvec"),
    (F2Matrix, "eliminate", "f2.eliminate"),
)
CAPTURED = frozenset({
    "noise.fault_vector", "decoders.bp", "decoders.bp_osd", "decoders.osd",
    "decoders.mld", "decoders.success",
})


class Tracer:
    """Spans and captured calls of the run_benchmark calls made through it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, trial)
        self.captures: dict[str, list[tuple]] = defaultdict(list)  # (trial, args, result)
        self._stack: list[int] = []
        self.trial: int | None = None

    def _wrap(self, name, fn):
        spans, stack, captures = self.spans, self._stack, self.captures
        capture = name in CAPTURED

        def traced(*args, **kwargs):
            index, trial = len(spans), self.trial
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, trial)
            if capture:
                captures[name].append((trial, args, out))
            return out

        return traced

    def _trial_rng(self, fn):
        # the RNG stream of trial t is drawn before the trial body runs,
        # so this is where the trial id changes
        traced = self._wrap("bench.trial_rng", fn)

        def trial_rng(seed, rate_index, trial):
            self.trial = trial
            return traced(seed, rate_index, trial)

        return trial_rng

    def _make_trial(self, fn):
        def make_trial(*args, **kwargs):
            return self._wrap("bench.trial", fn(*args, **kwargs))

        return make_trial

    @contextmanager
    def installed(self):
        """Route the package's calls through this tracer's wrappers."""
        patches = [(owner, attr, self._wrap(name, vars(owner)[attr]))
                   for owner, attr, name in TARGETS]
        patches.append((bench, "_trial_rng", self._trial_rng(bench._trial_rng)))
        patches.append((bench, "_make_trial", self._make_trial(bench._make_trial)))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def run(self, cfg):
        """run_benchmark(cfg) on one thread, recorded as a bench.run span."""
        self.trial = None
        with self.installed():
            return self._wrap("bench.run", bench.run_benchmark)(cfg)


class SpanTable:
    """Column view of a tracer's spans with inclusive and self durations."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.names = np.array([s[0] for s in spans], dtype=object)
        start = np.array([s[1] for s in spans], dtype=np.int64)
        end = np.array([s[2] for s in spans], dtype=np.int64)
        parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.in_trial = np.array([s[4] is not None for s in spans], dtype=bool)
        self.duration = end - start
        covered = np.zeros(len(spans), dtype=np.int64)
        nested = parent >= 0
        np.add.at(covered, parent[nested], self.duration[nested])
        self.self_time = self.duration - covered

    def select(self, name: str, in_trial: bool = True) -> np.ndarray:
        return (self.names == name) & (self.in_trial == in_trial)

    def layer(self, layer: str) -> np.ndarray:
        prefix = layer + "."
        return np.array([n.startswith(prefix) for n in self.names], dtype=bool)


def write_spans(path, tracers) -> None:
    """Tab-separated spans of every traced round, one line per span."""
    with open(path, "w") as fh:
        fh.write("round\tindex\tname\tstart_ns\tend_ns\tparent\ttrial\n")
        for round_index, tracer in enumerate(tracers):
            for index, (name, start, end, parent, trial) in enumerate(tracer.spans):
                trial_text = "" if trial is None else trial
                fh.write(f"{round_index}\t{index}\t{name}\t{start}\t{end}\t"
                         f"{parent}\t{trial_text}\n")
