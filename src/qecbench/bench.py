"""Monte Carlo estimation of logical error rates.

A benchmark sweeps physical rates, draws one error per trial from a
per-trial RNG stream, decodes, and scores with the degeneracy-aware
success predicate.  Results carry Wilson 95% intervals so rare-event
points near zero failures stay honest.  Everything downstream of the
seed is deterministic: trial t at rate index r always draws from the
Philox stream keyed by SeedSequence(seed, spawn_key=(r, t)), and trials
run in order on the calling thread.  A block of _BLOCK trials, or of the
fewer that its rate point has left, is sampled at once: one Philox per
thread is reset to each of the block's keys, and array operations turn
its raw words into a fresh Generator's draws, and one [H; L] parity per
problem over the block's fault rows gives every trial's syndrome and
logical class.  For bp and bp+osd, the block's distinct nonzero
syndromes that memo does not hold are decoded then, per problem in BP
batches of at most decoders.BP_SLOTS message slots
(decoders.bp_prefetch), whose answers the problem keeps until its next
block.  Every trial still calls the decoder entry points: bp_decode reads
those answers, decoders.memo answers a syndrome repeated at a rate point,
and success scores a correction equal to the error without a parity.
"""

from __future__ import annotations

import csv
import io
import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .classical import LinearCode, hamming74, repetition, transpose_code
from .decoders import (
    BpConfig,
    bp_decode,
    bp_osd,
    bp_prefetch,
    exhaustive_mld,
    exhaustive_mwd,
    memo,
    success,
)
from .descriptors import load
from .homology import hypergraph_product, surface_code
from .noise import (
    DecodingProblem,
    classical_problem,
    decoding_problem,
    depolarizing_fault_vector,
    depolarizing_fault_vector as _fault_rows,
    depolarizing_problem,
    flips,
    pauli_flips,
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
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in (self.trials, self.seed)):
            raise ValueError("trials and seed must be integers")
        if self.seed < 0:  # SeedSequence's own error names no field
            raise ValueError("seed must be >= 0")
        if not 1 <= self.trials < 2**32:  # a trial's spawn-key word is one uint32
            raise ValueError("trials must be in [1, 2**32)")
        rates = tuple(float(r) for r in self.rates)
        if not rates:
            raise ValueError("need at least one physical rate")
        for r in rates:
            if not 0.0 < r <= 0.5:
                raise ValueError(f"rate {r} outside (0, 0.5]")
        object.__setattr__(self, "rates", rates)
        for name in ("trials", "seed"):  # write_json cannot serialise numpy integers
            object.__setattr__(self, name, int(getattr(self, name)))
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


_BLOCK = 1024  # trials whose Philox keys are hashed and whose faults are drawn together


def _hash(v: np.ndarray, init: int, mult: int, skip: int = 0) -> np.ndarray:
    """SeedSequence's hashmix of row i < 4 of v, its constant init * mult**(skip + i)."""
    c = np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(skip, skip + 5)],
                 dtype=np.uint32)[:, None]
    v = (v ^ c[:-1]) * c[1:]
    return v ^ v >> np.uint32(16)


def _block_keys(seed: int, rate_index: int, block: int) -> np.ndarray:
    """Philox keys of a block of trials t, one row each: numpy's (after O'Neill's
    seed_seq) SeedSequence(seed, spawn_key=(rate_index, t)).generate_state(2, np.uint64)
    with t as a vector.  t is the last entropy word, so the pool of spawn_key
    (rate_index,) holds the words before it (the seed's, padded to 4, and r),
    4 hashmixes each."""
    pool = np.random.SeedSequence(seed, spawn_key=(rate_index,)).pool[:, None]
    t = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint32)
    steps = 4 * (max(-(-seed.bit_length() // 32), 4) + 1)
    h = _hash(t, 0x43B0D7E5, 0x931E8875, steps)  # INIT_A, MULT_A
    v = np.uint32(0xCA01F9DD) * pool - np.uint32(0x4973F715) * h  # MIX_MULT_L, MIX_MULT_R
    v = _hash(v ^ v >> np.uint32(16), 0x8B51F9DD, 0x58F38DED).astype(np.uint64)  # INIT_B, MULT_B
    return (v[0::2] | v[1::2] << np.uint64(32)).T  # uint32 pairs read little-endian


class _Streams(threading.local):
    """Per thread: one reused Philox, the state it is reset to, one block's keys."""

    def __init__(self):
        self.bits = self.block = None  # importing the module builds no Philox
        self.key = {"counter": [0] * 4, "key": None}  # the state setter reads lists fast
        self.state = {"bit_generator": "Philox", "state": self.key, "buffer": [0] * 4,
                      "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


_streams = _Streams()


def _trial_rng(seed: int, rate_index: int, trial: int) -> tuple[np.ndarray, int]:
    """(keys, row): trial's row in the Philox keys of its block of _BLOCK trials t,
    those of SeedSequence(seed, spawn_key=(rate_index, t)).  A block's trials share
    one keys array, and so one _block_draws.  trial and rate_index must be < 2**32."""
    s = _streams
    block = (int(seed), rate_index, trial // _BLOCK)
    if s.block != block:
        s.block, s.keys = block, _block_keys(*block)
    return s.keys, trial % _BLOCK


_LEMIRE_MIN = 1  # integers(0, 3) redraws h if 3 h mod 2**32 < (2**32 - 3) % 3 = 1: if h < 1


def _block_draws(keys: np.ndarray, n: int, kinds: bool):
    """(u, kind): per row of keys, what Generator(Philox(key=row)) draws with
    random(n) and then, if kinds, integers(0, 3, n) (else kind is None).  This
    thread's one Philox is reset to each key for its raw words w, converted as
    numpy does: (w >> 11) * 2**-53, and (h * 3) >> 32 over halves h, low first.
    """
    s = _streams
    if s.bits is None:
        s.bits = np.random.Philox(0)
    width = n + (n + 1) // 2 if kinds else n
    raw = np.empty((len(keys), width), "<u8")  # little-endian, so "<u4" halves go low first
    for row, key in zip(raw, keys.tolist()):
        s.key["key"] = key
        s.bits.state = s.state
        row[:] = s.bits.random_raw(width)
    u = (raw[:, :n] >> np.uint64(11)) * 2.0**-53
    if not kinds:
        return u, None
    h = raw[:, n:].view("<u4")[:, :n]
    kind = np.add(h > 0x55555555, h > 0xAAAAAAAA, dtype=np.uint8)  # (h * 3) >> 32, by bounds
    for row in np.flatnonzero((h < _LEMIRE_MIN).any(axis=1)):  # about n / 2**32 per row
        g = np.random.Generator(np.random.Philox(key=keys[row]))
        u[row], kind[row] = g.random(n), g.integers(0, 3, n)
    return u, kind


def sample_depolarizing(keys: np.ndarray, n: int, rate: float):
    """(x, z) uint8 bits of depolarizing noise on n qubits, one row per key."""
    return pauli_flips(*_block_draws(keys, n, True), rate)


def sample_trials(noise: str, n: int, rate: float, seed: int, trials: int):
    """Yield the faults of run_benchmark's trials 0..trials-1 at rate index 0, one
    block of up to _BLOCK rows at a time: bsc flips, else depolarizing (x, z)."""
    for block in range(-(-trials // _BLOCK)):
        keys = _block_keys(int(seed), 0, block)[:trials - block * _BLOCK]
        yield (flips(_block_draws(keys, n, False)[0], rate) if noise == "bsc"
               else sample_depolarizing(keys, n, rate))


def decode(problem: DecodingProblem, s: np.ndarray, kind: str, order: int,
           bp_cfg: BpConfig):
    """Correct syndrome s: returns (correction, converged, iterations).

    kind is a parse_decoder kind other than mld, which picks a logical
    class rather than a correction and is handled by its callers.  A
    repeated s is answered from decoders.memo, with a read-only correction.
    """
    if kind not in ("bp", "bp+osd", "mwd"):
        raise ValueError(f"decoder {kind!r} returns a class, not a correction")

    def run(s):
        if kind == "mwd":
            return exhaustive_mwd(problem, s), True, 0
        res = (bp_decode(problem, s, bp_cfg) if kind == "bp"
               else bp_osd(problem, s, bp_cfg, order))
        return res.correction, res.converged, res.iterations_used
    return memo(problem, (kind, order, bp_cfg), s, run)


def _noise(code, noise: str, rate: float):
    """Returns (problems, (keys, rows) -> (faults, row -> fault vectors)): a
    block of trials draws one (rows, cols) faults array per problem from the
    first rows of its keys, and trials read rows."""
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
    else:
        def pauli(keys, rows):
            x, z = sample_depolarizing(keys[:rows], code.n, rate)
            if noise == "split-xz":  # the Z-fault problem comes first
                return (z, x), lambda row: (z[row], x[row])
            # a call per trial too: mcbench reads each trial's fault vector from
            # it, so the block's rows come from a binding that it does not wrap
            return ((_fault_rows(x, z),),
                    lambda row: (depolarizing_fault_vector(x[row], z[row]),))

        problems = depolarizing_problem(code, rate, noise)
        return (problems if noise == "split-xz" else (problems,)), pauli

    def bsc(keys, rows):
        f = flips(_block_draws(keys[:rows], problem.h.cols, False)[0], problem.prior.p)
        return (f,), lambda row: (f[row],)

    return (problem,), bsc


def _make_trial(code, cfg: BenchmarkConfig, rate: float):
    """Returns ((keys, row) -> (failed, iterations)) for one rate point.  One
    [H; L] parity per problem gives every syndrome and class L e of a block."""
    kind, order = parse_decoder(cfg.decoder)
    problems, sample = _noise(code, cfg.noise, rate)
    zeros = [np.zeros(p.h.cols, dtype=np.uint8) for p in problems]  # c at s = 0
    block = [None, None, None]  # keys, per problem (parities, s != 0 by row), row -> faults
    blocks = 0  # blocks so far: run_benchmark runs the trials in order

    def trial(stream):
        nonlocal blocks
        keys, row = stream
        if block[0] is not keys:  # draw the rows that the rate point reads
            faults, vectors = sample(keys, cfg.trials - _BLOCK * blocks)
            hls = [p.tanner_hl.parity(f) for p, f in zip(problems, faults)]
            nonzero = [hl[:, :p.h.rows].any(axis=1) for p, hl in zip(problems, hls)]
            block[:] = keys, [(hl, nz.tolist()) for hl, nz in zip(hls, nonzero)], vectors
            if kind in ("bp", "bp+osd"):  # BP batches over the block's nonzero syndromes
                for p, hl, nz in zip(problems, hls, nonzero):
                    bp_prefetch(p, hl[:, :p.h.rows][nz], cfg.bp, (kind, order, cfg.bp))
            blocks += 1
        # no short cut after a failure: iterations count every problem
        failed, iterations = False, 0
        for problem, (hl, nonzero), e, zero in zip(problems, block[1], block[2](row), zeros):
            s, iters = hl[row, :problem.h.rows], 0
            if kind == "mld":
                # class output; the trivial coset need not win at s = 0, so
                # no zero-syndrome shortcut here.  The class L e is uint8 like
                # exhaustive_mld's, so equal bytes are equal classes.
                ok = exhaustive_mld(problem, s).tobytes() == hl[row, problem.h.rows:].tobytes()
            else:
                if nonzero[row]:
                    c, _, iters = decode(problem, s, kind, order, cfg.bp)
                else:
                    c = zero
                ok = success(c, e, problem).success
            failed, iterations = failed or not ok, iterations + iters
        return failed, iterations

    return trial


def run_benchmark(cfg: BenchmarkConfig, threads: int = 1) -> BenchmarkResult:
    """Sweep the configured rates; deterministic for a fixed seed.

    Rate points started after max_seconds has elapsed are dropped.
    mean_iterations counts decoder iterations only; trials short-cut on
    an all-zero syndrome contribute zero.  A CapacityExceeded from the
    decoder propagates and aborts the rate point.  Trials run serially;
    threads must be >= 1 and is otherwise unused.  A repeated syndrome is
    looked up (decoders.memo) and adds its stored iteration count.
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


def csv_text(result: BenchmarkResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in result.records:
        writer.writerow([
            f"{r.rate:.10g}", str(r.trials), str(r.failures),
            f"{r.logical_error_rate:.10g}", f"{r.ci_low:.10g}",
            f"{r.ci_high:.10g}", f"{r.mean_iterations:.10g}",
            f"{r.wall_time:.3f}",
        ])
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
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
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
