"""Monte Carlo estimation of logical error rates.

A benchmark sweeps physical rates, draws one error per trial from a
per-trial RNG stream, decodes, and scores with the degeneracy-aware
success predicate.  Results carry Wilson 95% intervals so rare-event
points near zero failures stay honest.  Everything downstream of the
seed is deterministic: trial t at rate index r always uses
SeedSequence(seed, spawn_key=(r, t)), and trials run in order on the
calling thread.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .classical import LinearCode, hamming74, repetition, transpose_code
from .decoders import (
    BpConfig,
    bp_decode,
    bp_osd,
    exhaustive_mld,
    exhaustive_mwd,
    success,
)
from .descriptors import load
from .homology import hypergraph_product, surface_code
from .noise import (
    DecodingProblem,
    classical_problem,
    decoding_problem,
    depolarizing_fault_vector,
    depolarizing_problem,
    sample_bsc,
    sample_depolarizing,
    uniform_prior,
)
from .quantum import CssCode, five_qubit_code

WILSON_Z = 1.959963984540054  # two-sided 95%

_NOISE_KINDS = ("bsc", "xzy", "split-xz", "generic")
_DECODER_KINDS = ("bp", "bp+osd", "mwd", "mld")


# -- code and decoder specs ----------------------------------------------------


def build_code(spec: str):
    """Parse a code spec string into a code object.

    Grammar: ``repetition N | hamming | fivequbit | surface L |
    hgp <spec> <spec> | transpose <spec> | problem PATH``.  The
    operands of hgp and transpose are classical codes; ``problem PATH``
    reads any file descriptors.load accepts.
    """
    tokens = spec.split()
    code, rest = _parse_code(tokens)
    if rest:
        raise ValueError(f"trailing tokens in code spec: {' '.join(rest)}")
    return code


def _parse_code(tokens):
    if not tokens:
        raise ValueError("empty code spec")
    head, rest = tokens[0], tokens[1:]
    if head in ("repetition", "surface", "problem") and not rest:
        raise ValueError(f"code spec {head!r} needs an argument")
    if head == "repetition":
        return repetition(int(rest[0])), rest[1:]
    if head == "hamming":
        return hamming74(), rest
    if head == "fivequbit":
        return five_qubit_code(), rest
    if head == "surface":
        return surface_code(int(rest[0])), rest[1:]
    if head == "transpose":
        inner, rest = _parse_classical(rest, head)
        return transpose_code(inner), rest
    if head == "hgp":
        a, rest = _parse_classical(rest, head)
        b, rest = _parse_classical(rest, head)
        return hypergraph_product(a, b), rest
    if head == "problem":
        return load(rest[0]), rest[1:]
    raise ValueError(f"unknown code spec {head!r}")


def _parse_classical(tokens, head):
    code, rest = _parse_code(tokens)
    if not isinstance(code, LinearCode):
        raise ValueError(f"{head} needs classical codes, not {code!r}")
    return code, rest


def parse_decoder(spec: str) -> tuple[str, int]:
    """Split a decoder spec into (kind, reprocessing order).

    Grammar: ``bp | bp+osd [W] | mwd | mld``, with ``bposd`` an alias
    of ``bp+osd``; the order is 0 unless bp+osd names one.
    """
    if not isinstance(spec, str) or not spec.split():
        raise ValueError(f"decoder spec must be a non-empty string, not {spec!r}")
    tokens = spec.split()
    kind = "bp+osd" if tokens[0] == "bposd" else tokens[0]
    if kind not in _DECODER_KINDS:
        raise ValueError(f"unknown decoder {kind!r}")
    if len(tokens) > (2 if kind == "bp+osd" else 1):
        raise ValueError(f"too many arguments in decoder spec {spec!r}")
    order = int(tokens[1]) if len(tokens) > 1 else 0
    if order < 0:
        raise ValueError("reprocessing order must be >= 0")
    return kind, order


# -- configuration -------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything a benchmark run depends on, seed included."""

    code: str
    noise: str
    decoder: str
    rates: tuple[float, ...]
    trials: int
    seed: int = 0
    max_seconds: float = math.inf
    bp: BpConfig = field(default_factory=BpConfig)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial per rate")
        rates = tuple(float(r) for r in self.rates)
        if not rates:
            raise ValueError("need at least one physical rate")
        for r in rates:
            if not 0.0 < r <= 0.5:
                raise ValueError(f"rate {r} outside (0, 0.5]")
        object.__setattr__(self, "rates", rates)
        if self.noise not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if not self.max_seconds > 0:  # also refuses NaN
            raise ValueError("max_seconds must be positive")
        parse_decoder(self.decoder)


@dataclass(frozen=True)
class RateRecord:
    rate: float
    trials: int
    failures: int
    logical_error_rate: float
    ci_low: float
    ci_high: float
    mean_iterations: float
    wall_time: float


@dataclass(frozen=True)
class BenchmarkResult:
    config: BenchmarkConfig
    records: tuple[RateRecord, ...]


def wilson_interval(failures: int, trials: int, z: float = WILSON_Z):
    """95% score interval for a binomial proportion."""
    if not 0 <= failures <= trials or trials < 1:
        raise ValueError("need 0 <= failures <= trials, trials >= 1")
    phat = failures / trials
    denom = trials + z * z
    center = (failures + z * z / 2.0) / denom
    half = z * math.sqrt(failures * (trials - failures) / trials + z * z / 4.0) / denom
    return max(0.0, center - half), min(1.0, center + half)


# -- trial execution -----------------------------------------------------------


def _trial_rng(seed: int, rate_index: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(rate_index, trial))
    return np.random.Generator(np.random.Philox(ss))


def decode(problem: DecodingProblem, s: np.ndarray, kind: str, order: int,
           bp_cfg: BpConfig):
    """Correct syndrome s: returns (correction, converged, iterations).

    kind is a parse_decoder kind other than mld, which picks a logical
    class rather than a correction and is handled by its callers.
    """
    if kind == "bp":
        res = bp_decode(problem, s, bp_cfg)
    elif kind == "bp+osd":
        res = bp_osd(problem, s, bp_cfg, order)
    elif kind == "mwd":
        return exhaustive_mwd(problem, s), True, 0
    else:
        raise ValueError(f"decoder {kind!r} returns a class, not a correction")
    return res.correction, res.converged, res.iterations_used


def _noise(code, noise: str, rate: float):
    """Returns (problems, rng -> one fault vector per problem)."""
    if noise == "bsc":
        if not isinstance(code, LinearCode):
            raise ValueError("bsc noise expects a classical code")
        problem = classical_problem(code, rate)
    elif noise == "generic":  # independent flips on the fault columns of a problem file
        if not isinstance(code, DecodingProblem):
            raise ValueError("generic noise expects a saved decoding problem")
        problem = decoding_problem(code.h, code.l, uniform_prior(code.h.cols, rate))
    elif not isinstance(code, CssCode):
        raise ValueError("depolarizing noise expects a CSS code")
    elif noise == "xzy":
        return ((depolarizing_problem(code, rate, "xzy"),), lambda rng: (
            depolarizing_fault_vector(sample_depolarizing(code.n, rate, rng)),))
    else:
        def split(rng):
            err = sample_depolarizing(code.n, rate, rng)
            return err.z, err.x  # the Z-fault problem comes first

        return depolarizing_problem(code, rate, "split-xz"), split
    return (problem,), lambda rng: (sample_bsc(problem.prior, rng),)


def _make_trial(code, cfg: BenchmarkConfig, rate: float):
    """Returns (rng -> (failed, iterations)) for one rate point."""
    kind, order = parse_decoder(cfg.decoder)
    problems, sample = _noise(code, cfg.noise, rate)

    def run(problem, e):
        s = problem.h.matvec(e)
        if kind == "mld":
            # class output; the trivial coset need not win at s = 0,
            # so no zero-syndrome shortcut here
            winner = exhaustive_mld(problem, s)
            return bool(np.array_equal(winner, problem.l.matvec(e))), 0
        if s.any():
            c, _, iters = decode(problem, s, kind, order, cfg.bp)
        else:
            c, iters = np.zeros(problem.h.cols, dtype=np.uint8), 0
        return success(c, e, problem).success, iters

    def trial(rng):
        # no short cut after a failure: iterations count every problem
        failed, iterations = False, 0
        for problem, e in zip(problems, sample(rng)):
            ok, iters = run(problem, e)
            failed, iterations = failed or not ok, iterations + iters
        return failed, iterations

    return trial


def run_benchmark(cfg: BenchmarkConfig, threads: int = 1) -> BenchmarkResult:
    """Sweep the configured rates; deterministic for a fixed seed.

    Rate points started after max_seconds has elapsed are dropped.
    mean_iterations counts decoder iterations only; trials short-cut on
    an all-zero syndrome contribute zero.  A CapacityExceeded from the
    decoder propagates and aborts the rate point.  Trials run serially;
    threads must be >= 1 and is otherwise unused.
    """
    if threads < 1:
        raise ValueError("need at least one worker")
    code = build_code(cfg.code)
    start = time.monotonic()
    records = []
    for rate_index, rate in enumerate(cfg.rates):
        if time.monotonic() - start > cfg.max_seconds:
            break
        trial = _make_trial(code, cfg, rate)
        t0 = time.monotonic()
        outcomes = [trial(_trial_rng(cfg.seed, rate_index, t))
                    for t in range(cfg.trials)]
        failures, iters = map(sum, zip(*outcomes))
        low, high = wilson_interval(failures, cfg.trials)
        records.append(RateRecord(
            rate=rate,
            trials=cfg.trials,
            failures=failures,
            logical_error_rate=failures / cfg.trials,
            ci_low=low,
            ci_high=high,
            mean_iterations=iters / cfg.trials,
            wall_time=time.monotonic() - t0,
        ))
    return BenchmarkResult(config=cfg, records=tuple(records))


# -- result serialization ------------------------------------------------------

CSV_FIELDS = ("rate", "trials", "failures", "ler", "ci_low", "ci_high",
              "mean_iters", "seconds")


def result_rows(result: BenchmarkResult) -> list[list[str]]:
    rows = []
    for r in result.records:
        rows.append([
            f"{r.rate:.10g}", str(r.trials), str(r.failures),
            f"{r.logical_error_rate:.10g}", f"{r.ci_low:.10g}",
            f"{r.ci_high:.10g}", f"{r.mean_iterations:.10g}",
            f"{r.wall_time:.3f}",
        ])
    return rows


def csv_text(result: BenchmarkResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows(result_rows(result))
    return buf.getvalue()


def write_json(result: BenchmarkResult, path) -> None:
    doc = {
        "config": asdict(result.config),
        "records": [asdict(r) for r in result.records],
    }
    doc["config"]["max_seconds"] = (
        None if math.isinf(result.config.max_seconds)
        else result.config.max_seconds
    )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# -- config files --------------------------------------------------------------

_CONFIG_KEYS = ("code", "noise", "decoder", "rates", "trials", "seed",
                "max_seconds", "bp_iterations", "bp_variant")


def read_config(path) -> BenchmarkConfig:
    """Flat ``key = value`` file; '#' starts a comment.

    Keys: code, noise, decoder, rates (whitespace- or comma-separated),
    trials, seed, max_seconds, bp_iterations, bp_variant.
    """
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    for required in ("code", "noise", "decoder", "rates", "trials"):
        if required not in values:
            raise ValueError(f"config is missing {required!r}")
    bp_kwargs = {}
    if "bp_iterations" in values:
        bp_kwargs["max_iterations"] = int(values["bp_iterations"])
    if "bp_variant" in values:
        bp_kwargs["variant"] = values["bp_variant"]
    return BenchmarkConfig(
        code=values["code"],
        noise=values["noise"],
        decoder=values["decoder"],
        rates=tuple(float(tok) for tok in values["rates"].replace(",", " ").split()),
        trials=int(values["trials"]),
        seed=int(values.get("seed", "0")),
        max_seconds=float(values.get("max_seconds", "inf")),
        bp=BpConfig(**bp_kwargs),
    )
