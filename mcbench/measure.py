"""One benchmark run of one workload: set-up, timed rounds, checks.

A run calls run_benchmark on rounds of trials until the time is up,
and between rounds sets the workload's code and problem up again and
again (setup_s).
Round k draws its trials from seed 1000 * seed + k, so every round is
new work and the same seed gives the same rounds.  Untraced, it reports
the end-to-end metrics; traced, it runs every round twice, untraced and
traced, and reports per-layer metrics from the traced twins' spans.
Both re-check the decoders' outputs on traced rounds (see checks.py).
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from qecbench.bench import BenchmarkConfig, build_code, run_benchmark
from qecbench.errors import CapacityExceeded, Unsatisfiable
from qecbench.noise import depolarizing_problem

import checks
from hostspeed import REFERENCE_SLICE_S, HostSpeed
from mld_reference import mld_reference
from spans import SpanTable, Tracer, write_spans

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_SECONDS = 1.5  # wall time of the set-up repeats, spread over the run


@dataclass(frozen=True)
class Workload:
    code: str
    noise: str
    decoder: str
    rate: float
    round_trials: int   # 0.5 to 3 s of work on a 2-core 2.0 GHz VM
    thread_trials: int  # trials of the threads=1 vs threads=2 check

    def config(self, seed: int, trials: int | None = None) -> BenchmarkConfig:
        return BenchmarkConfig(code=self.code, noise=self.noise, decoder=self.decoder,
                               rates=(self.rate,), trials=trials or self.round_trials,
                               seed=seed)

    @property
    def osd_order(self) -> int | None:
        kind, _, order = self.decoder.partition(" ")
        return int(order or 0) if kind == "bp+osd" else None


# The two surface 9 workloads share round sizes, so round k of both
# decodes the same trials and their BP work is identical.
WORKLOADS = {
    "surface9-bposd0": Workload("surface 9", "split-xz", "bp+osd 0", 0.05, 100, 40),
    "surface9-bposd2": Workload("surface 9", "split-xz", "bp+osd 2", 0.05, 100, 10),
    "surface5-lowp-bp": Workload("surface 5", "split-xz", "bp", 0.01, 3000, 500),
    "surface2-xzy-mld": Workload("surface 2", "xzy", "mld", 0.05, 800, 150),
}


def round_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


class Runner:
    """Calls run_benchmark and counts attempted and failed trials.

    A rate point that raises CapacityExceeded or Unsatisfiable aborts,
    so all of its trials count as failed operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, cfg, call=run_benchmark):
        """Returns the round's RateRecord, or None when it raised."""
        self.attempted += cfg.trials
        try:
            return call(cfg).records[0]
        except (CapacityExceeded, Unsatisfiable) as err:
            print(f"round seed {cfg.seed}: {type(err).__name__}: {err}", file=sys.stderr)
            self.failed += cfg.trials
            return None


@dataclass
class Round:
    """One round of trials, and its traced twin when there is one."""

    cfg: BenchmarkConfig
    record: object = None  # RateRecord; None until run, or when the rate point raised
    slice_seconds: float = 0.0  # calibration slices inside record.wall_time
    tracer: Tracer | None = None
    traced_record: object = None

    @property
    def work_seconds(self) -> float:
        """The trial loop's wall time as run_benchmark reports it, less slices."""
        return self.record.wall_time - self.slice_seconds

    def run(self, runner: Runner, host: HostSpeed) -> None:
        before = host.snapshot()
        with host.between_trials():
            self.record = runner(self.cfg)
        self.slice_seconds = host.snapshot()[0] - before[0]

    def trace(self, runner: Runner) -> None:
        self.tracer = Tracer()
        self.traced_record = runner(self.cfg, self.tracer.run)


class SetupTimer:
    """Repeats of build_code(spec) plus depolarizing_problem.

    Each repeat follows a calibration slice and is divided by that
    slice's slowdown.  The repeats are spread over the run, between
    rounds, so that like the rounds they see every speed the host runs
    at during the run, not only the speed of its first seconds.
    """

    def __init__(self, workload: Workload, host: HostSpeed):
        self.workload, self.host = workload, host
        self.raw: list[float] = []
        self.normalised: list[float] = []
        self.spent = 0.0

    def repeat_until(self, spent_s: float) -> None:
        """Repeat until spent_s seconds of wall time went into repeats."""
        code, rate, noise = self.workload.code, self.workload.rate, self.workload.noise
        while self.spent < spent_s:
            began = perf_counter()
            slowdown = self.host.sample() / REFERENCE_SLICE_S
            start = perf_counter()
            depolarizing_problem(build_code(code), rate, noise)
            end = perf_counter()
            self.raw.append(end - start)
            self.normalised.append(self.raw[-1] / slowdown)
            self.spent += end - began

    def medians(self) -> tuple[float, float]:
        """The (normalised, raw) median seconds of a repeat."""
        return statistics.median(self.normalised), statistics.median(self.raw)


def check_rounds(workload: Workload, rounds: list[Round], reference) -> list[str]:
    """Checks on every traced round, and the MLD failure count overall."""
    problems = []
    for rnd in rounds:
        record = rnd.traced_record
        if record is None or rnd.record is None:
            continue
        found = []
        untraced = (rnd.record.failures, rnd.record.mean_iterations)
        traced = (record.failures, record.mean_iterations)
        if traced != untraced:
            found.append(f"traced run gives {traced} (failures, mean iterations), "
                         f"untraced {untraced}")
        recount, missing = checks.rescored_failures(rnd.tracer, record.trials)
        found += missing
        if recount != record.failures:
            found.append(f"rescoring counts {recount} failures, "
                         f"run_benchmark reports {record.failures}")
        if workload.osd_order is not None:
            found += checks.osd_outputs_valid(rnd.tracer)
        if workload.osd_order:
            found += checks.osd_order_holds(rnd.tracer)
        if reference is not None:
            found += checks.mld_matches_reference(rnd.tracer, reference)
        problems += [f"round seed {rnd.cfg.seed}: {p}" for p in found]
    done = [rnd.record for rnd in rounds if rnd.record is not None]
    if reference is not None and done:
        problems += checks.failures_within_reference(
            sum(r.failures for r in done), sum(r.trials for r in done), reference)
    return problems


def check_threads(workload: Workload, seed: int, runner: Runner) -> list[str]:
    """threads=2 gives the same failures and mean iterations as threads=1."""
    cfg = workload.config(round_seed(seed, 0), workload.thread_trials)
    one = runner(cfg, lambda c: run_benchmark(c, threads=1))
    two = runner(cfg, lambda c: run_benchmark(c, threads=2))
    if one is None or two is None:
        return []
    if (one.failures, one.mean_iterations) != (two.failures, two.mean_iterations):
        return [f"threads=2 gives {two.failures} failures / {two.mean_iterations} "
                f"iterations, threads=1 gives {one.failures} / {one.mean_iterations}"]
    return []


def layer_metrics(workload: Workload, tracers: list[Tracer]) -> dict[str, tuple]:
    """Per-layer figures from the spans of the traced rounds.

    Times are means over every traced round; counts come from round 0
    alone, so they repeat exactly at a fixed seed.  Spans outside any
    trial (the set-up inside run_benchmark) feed only the *_ms figures.
    """
    tables = [SpanTable(t) for t in tracers]
    trials = workload.round_trials * len(tables)

    def total(name, in_trial=True, field="duration"):
        return sum(int(getattr(t, field)[t.select(name, in_trial)].sum()) for t in tables)

    def calls(name, in_trial=True):
        return sum(int(t.select(name, in_trial).sum()) for t in tables)

    def mean_us(name):
        n = calls(name)
        return total(name) / n / 1e3 if n else 0.0

    def mean_ms(name):
        n = calls(name, in_trial=False)
        return total(name, in_trial=False) / n / 1e6 if n else 0.0

    def layer_self_us(layer):
        ns = sum(int(t.self_time[t.layer(layer) & t.in_trial].sum()) for t in tables)
        return ns / trials / 1e3

    def first_calls(name):
        return int(tables[0].select(name).sum())

    bp = [out for _, _, out in tracers[0].captures["decoders.bp"]]
    ranks: dict[int, int] = {}
    candidates = 0
    for _, (h, _, _, w), _ in tracers[0].captures["decoders.osd"]:
        if id(h) not in ranks:
            ranks[id(h)] = h.rank()
        free = h.cols - ranks[id(h)]
        candidates += sum(math.comb(free, i) for i in range(min(w, free) + 1))
    harness_ns = total("bench.run", in_trial=False, field="self_time") \
        + total("bench.trial", field="self_time")

    return {
        "decoders.bp_us": (mean_us("decoders.bp"), "us"),
        "decoders.bp_calls": (len(bp), "count"),
        "decoders.bp_iterations": (sum(r.iterations_used for r in bp), "count"),
        "decoders.bp_converged": (sum(bool(r.converged) for r in bp), "count"),
        "decoders.osd_us": (mean_us("decoders.osd"), "us"),
        "decoders.osd_calls": (first_calls("decoders.osd"), "count"),
        "decoders.osd_candidates": (candidates, "count"),
        "f2.eliminate_us": (mean_us("f2.eliminate"), "us"),
        "f2.eliminate_calls": (first_calls("f2.eliminate"), "count"),
        "f2.matvec_us": (mean_us("f2.matvec"), "us"),
        "f2.matvec_calls": (first_calls("f2.matvec"), "count"),
        "bench.trial_rng_us": (mean_us("bench.trial_rng"), "us"),
        "noise.sample_us": (mean_us("noise.sample"), "us"),
        "decoders.success_us": (mean_us("decoders.success"), "us"),
        "decoders.mld_us": (mean_us("decoders.mld"), "us"),
        "decoders.mld_calls": (first_calls("decoders.mld"), "count"),
        "bench.self_us_per_trial": (harness_ns / trials / 1e3, "us"),
        "noise.self_us_per_trial": (layer_self_us("noise"), "us"),
        "f2.self_us_per_trial": (layer_self_us("f2"), "us"),
        "decoders.self_us_per_trial": (layer_self_us("decoders"), "us"),
        "homology.build_code_ms": (mean_ms("homology.build_code"), "ms"),
        "noise.problem_ms": (mean_ms("noise.problem"), "ms"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    workload = WORKLOADS[name]
    runner, host = Runner(), HostSpeed()
    setup = SetupTimer(workload, host)
    rounds: list[Round] = []
    start = host.snapshot()
    began = perf_counter()
    while not rounds or perf_counter() < began + seconds:
        setup.repeat_until(SETUP_SECONDS * (perf_counter() - began) / seconds)
        rnd = Round(workload.config(round_seed(seed, len(rounds))))
        if trace and len(rounds) % 2:  # alternate which twin runs first
            rnd.trace(runner)
            rnd.run(runner, host)
        else:
            rnd.run(runner, host)
            if trace:
                rnd.trace(runner)
        rounds.append(rnd)
    setup.repeat_until(SETUP_SECONDS)
    setup_s, setup_raw_s = setup.medians()
    slowdown = HostSpeed.slowdown(start, host.snapshot())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:  # traced repeat of round 0, for the checks only
        rounds[0].trace(runner)

    reference = None
    if workload.decoder == "mld" and workload.noise == "xzy":
        reference = mld_reference(build_code(workload.code), workload.rate)
    problems = check_rounds(workload, rounds, reference)
    problems += check_threads(workload, seed, runner)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    done = [rnd for rnd in rounds if rnd.record is not None]
    work_s = sum(rnd.work_seconds for rnd in done)
    raw_tps = sum(rnd.record.trials for rnd in done) / work_s if work_s else 0.0
    print(f"{name}  host slowdown = {slowdown:.4g}, raw trials_per_s = {raw_tps:.6g} trials/s, "
          f"raw setup_s = {setup_raw_s:.6g} s")
    if trace:
        twins = [rnd for rnd in done if rnd.traced_record is not None]
        metrics = layer_metrics(workload, [r.tracer for r in twins]) if twins else {}
        overhead = sum(r.traced_record.wall_time for r in twins) \
            / sum(r.work_seconds for r in twins) if twins else 1.0
        metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
        metrics["bench.raw_trials_per_s"] = (raw_tps, "trials/s")
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(OUT_DIR / f"{name}.spans.tsv", [r.tracer for r in twins])
    else:
        metrics = {
            "trials_per_s": (raw_tps * slowdown, "trials/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
