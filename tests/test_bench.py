"""Monte Carlo benchmark: determinism, intervals, config parsing."""

import itertools
import json
import math

import numpy as np
import pytest

from qecbench.bench import (
    BenchmarkConfig,
    build_code,
    csv_text,
    decode,
    parse_decoder,
    read_config,
    run_benchmark,
    wilson_interval,
    write_json,
)
from qecbench.classical import LinearCode, hamming74
from qecbench.decoders import BpConfig, exhaustive_mld, success
from qecbench.errors import CapacityExceeded
from qecbench.homology import surface_code
from qecbench.descriptors import save_problem
from qecbench.noise import (
    classical_problem,
    depolarizing_fault_vector,
    depolarizing_problem,
)
from qecbench.quantum import StabilizerCode, css_code, four_two_two_checks


def test_config_validation():
    good = dict(code="hamming", noise="bsc", decoder="bp", rates=(0.1,), trials=5)
    BenchmarkConfig(**good)
    with pytest.raises(ValueError):
        BenchmarkConfig(**{**good, "trials": 0})
    with pytest.raises(ValueError):
        BenchmarkConfig(**{**good, "rates": (0.6,)})
    with pytest.raises(ValueError):
        BenchmarkConfig(**{**good, "rates": (0.0,)})
    with pytest.raises(ValueError):
        BenchmarkConfig(**{**good, "rates": ()})
    with pytest.raises(ValueError):
        BenchmarkConfig(**{**good, "noise": "amplitude-damping"})
    with pytest.raises(ValueError):
        BenchmarkConfig(**{**good, "decoder": "mwd 3"})
    with pytest.raises(ValueError):
        BenchmarkConfig(**{**good, "decoder": "bp+osd -1"})
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError):
            BenchmarkConfig(**{**good, "max_seconds": bad})


def test_wilson_interval_reference_values():
    low, high = wilson_interval(5, 10)
    assert low == pytest.approx(0.2365931, abs=1e-6)
    assert high == pytest.approx(0.7634069, abs=1e-6)
    low, high = wilson_interval(0, 100)
    assert low == 0.0
    assert high == pytest.approx(0.0369931, abs=1e-6)
    with pytest.raises(ValueError):
        wilson_interval(3, 2)


def test_wilson_interval_contains_the_point_estimate():
    for trials in (1, 7, 100):
        for failures in range(trials + 1):
            low, high = wilson_interval(failures, trials)
            assert low <= failures / trials <= high


def test_build_code_grammar():
    assert isinstance(build_code("hamming"), LinearCode)
    assert build_code("repetition 5").h.rows == 4
    surf = build_code("surface 3")
    assert (surf.n, surf.k) == (13, 1)
    hgp = build_code("hgp repetition 3 transpose repetition 3")
    assert hgp.hx.to_dense().tolist() == surf.hx.to_dense().tolist()
    assert isinstance(build_code("fivequbit"), StabilizerCode)
    with pytest.raises(ValueError):
        build_code("surface 3 extra")
    with pytest.raises(ValueError):
        build_code("toric 4")


def test_vanishing_rate_has_no_failures():
    cfg = BenchmarkConfig(code="repetition 5", noise="bsc", decoder="mwd",
                          rates=(1e-4,), trials=500, seed=1)
    res = run_benchmark(cfg)
    assert res.records[0].failures == 0
    assert res.records[0].ci_low == 0.0


def test_benchmark_covers_all_noise_kinds(tmp_path):
    runs = [
        BenchmarkConfig(code="hamming", noise="bsc", decoder="bp",
                        rates=(0.02, 0.05), trials=40, seed=3),
        BenchmarkConfig(code="surface 2", noise="xzy", decoder="mld",
                        rates=(0.05,), trials=40, seed=3),
        BenchmarkConfig(code="surface 2", noise="split-xz", decoder="bp+osd 1",
                        rates=(0.05,), trials=40, seed=3),
    ]
    hx, hz = four_two_two_checks()
    problem = depolarizing_problem(css_code(hx, hz), 0.1, "xzy")
    path = tmp_path / "p.json"
    save_problem(problem, path)
    runs.append(BenchmarkConfig(code=f"problem {path}", noise="generic",
                                decoder="mwd", rates=(0.03,), trials=40, seed=3))
    for cfg in runs:
        res = run_benchmark(cfg)
        assert len(res.records) == len(cfg.rates)
        for rec in res.records:
            assert 0 <= rec.failures <= rec.trials
            assert rec.ci_low <= rec.logical_error_rate <= rec.ci_high
            assert rec.wall_time >= 0


def test_noise_code_pairing_is_checked():
    cfg = BenchmarkConfig(code="hamming", noise="xzy", decoder="mld",
                          rates=(0.05,), trials=5)
    with pytest.raises(ValueError):
        run_benchmark(cfg)
    cfg = BenchmarkConfig(code="surface 2", noise="bsc", decoder="mld",
                          rates=(0.05,), trials=5)
    with pytest.raises(ValueError):
        run_benchmark(cfg)


def test_seed_determinism_and_thread_independence():
    cfg = BenchmarkConfig(code="surface 2", noise="split-xz", decoder="bp+osd 1",
                          rates=(0.03, 0.08), trials=120, seed=11)
    a = run_benchmark(cfg)
    b = run_benchmark(cfg)
    c = run_benchmark(cfg, threads=4)
    def stats(res):
        return [(r.rate, r.trials, r.failures, r.logical_error_rate,
                 r.ci_low, r.ci_high, r.mean_iterations) for r in res.records]
    assert stats(a) == stats(b) == stats(c)
    with pytest.raises(ValueError):
        run_benchmark(cfg, threads=0)
    shifted = run_benchmark(
        BenchmarkConfig(**{**cfg.__dict__, "seed": 12}))
    assert stats(shifted) != stats(a)


def test_capacity_guard_aborts_the_rate_point():
    cfg = BenchmarkConfig(code="surface 3", noise="xzy", decoder="mld",
                          rates=(0.05,), trials=3)
    with pytest.raises(CapacityExceeded):
        run_benchmark(cfg)


def test_max_seconds_drops_remaining_rates():
    cfg = BenchmarkConfig(code="hamming", noise="bsc", decoder="bp",
                          rates=(0.05,), trials=5, max_seconds=1e-9)
    res = run_benchmark(cfg)
    assert res.records == ()


def exact_failure_probability(code, p):
    """Enumerate the depolarizing channel against the MLD decoder."""
    problem = depolarizing_problem(code, p, "xzy")
    weights = {"I": 1 - p, "X": p / 3, "Z": p / 3, "Y": p / 3}
    cache = {}
    q = 0.0
    from qecbench.pauli import PauliOperator
    for pattern in itertools.product("IXZY", repeat=code.n):
        prob = math.prod(weights[c] for c in pattern)
        err = PauliOperator.from_string("".join(pattern))
        f = depolarizing_fault_vector(err)
        s = problem.h.matvec(f)
        key = s.tobytes()
        if key not in cache:
            cache[key] = exhaustive_mld(problem, s)
        if not np.array_equal(cache[key], problem.l.matvec(f)):
            q += prob
    return q


def coverage_probability(q, trials):
    """Exact chance that the Wilson interval covers the true rate q."""
    log_q, log_1q = math.log(q), math.log1p(-q)
    total = 0.0
    for f in range(trials + 1):
        low, high = wilson_interval(f, trials)
        if low <= q <= high:
            log_mass = (math.lgamma(trials + 1) - math.lgamma(f + 1)
                        - math.lgamma(trials - f + 1)
                        + f * log_q + (trials - f) * log_1q)
            total += math.exp(log_mass)
    return total


def test_wilson_coverage_of_the_exact_mld_rate():
    hx, hz = four_two_two_checks()
    code = css_code(hx, hz)
    q = exact_failure_probability(code, 0.15)
    assert 0.0 < q < 0.5
    assert coverage_probability(q, 300) >= 0.93
    cfg = BenchmarkConfig(code="surface 2", noise="xzy", decoder="mld",
                          rates=(0.15,), trials=300, seed=5)
    rec = run_benchmark(cfg).records[0]
    q_surf = exact_failure_probability(surface_code(2), 0.15)
    assert rec.ci_low <= q_surf <= rec.ci_high


def test_csv_and_json_outputs(tmp_path):
    cfg = BenchmarkConfig(code="hamming", noise="bsc", decoder="bp",
                          rates=(0.04,), trials=60, seed=2)
    res = run_benchmark(cfg)
    text = csv_text(res)
    lines = text.strip().splitlines()
    assert lines[0] == "rate,trials,failures,ler,ci_low,ci_high,mean_iters,seconds"
    assert len(lines) == 2

    csv_path = tmp_path / "out.csv"
    csv_path.write_text(csv_text(res))
    assert csv_path.read_text() == text

    # identical seeds agree byte-for-byte on everything but wall time
    again = csv_text(run_benchmark(cfg))
    mask = lambda t: [",".join(l.split(",")[:-1]) for l in t.strip().splitlines()]
    assert mask(again) == mask(text)

    json_path = tmp_path / "out.json"
    write_json(res, json_path)
    doc = json.loads(json_path.read_text())
    assert doc["config"]["code"] == "hamming"
    assert doc["config"]["max_seconds"] is None
    assert doc["records"][0]["failures"] == res.records[0].failures


def test_read_config(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "# surface sweep\n"
        "code = surface 3\n"
        "noise = split-xz\n"
        "decoder = bp+osd 2   # reprocessing order 2\n"
        "rates = 0.01, 0.02 0.05\n"
        "trials = 100\n"
        "seed = 9\n"
        "bp_iterations = 16\n"
    )
    cfg = read_config(path)
    assert cfg.code == "surface 3"
    assert cfg.rates == (0.01, 0.02, 0.05)
    assert cfg.trials == 100 and cfg.seed == 9
    assert cfg.bp.max_iterations == 16
    assert math.isinf(cfg.max_seconds)

    bad = tmp_path / "bad.cfg"
    bad.write_text("code = hamming\nnoise = bsc\nwat = 1\n")
    with pytest.raises(ValueError):
        read_config(bad)
    missing = tmp_path / "missing.cfg"
    missing.write_text("code = hamming\n")
    with pytest.raises(ValueError):
        read_config(missing)


PINNED = [
    ("hamming", "bsc", "bp", 0.05, 28, 134),
    ("hamming", "bsc", "mld", 0.05, 11, 0),
    ("repetition 7", "bsc", "mwd", 0.1, 1, 0),
    ("surface 2", "xzy", "mld", 0.05, 21, 0),
    ("surface 3", "xzy", "bp+osd 1", 0.05, 8, 653),
    ("surface 3", "split-xz", "bp", 0.05, 20, 669),
    ("surface 3", "split-xz", "bp+osd 2", 0.05, 17, 669),
    ("surface 2", "split-xz", "mwd", 0.05, 40, 0),
    ("problem", "generic", "bp+osd 0", 0.05, 73, 4576),
]


@pytest.mark.parametrize("code,noise,decoder,rate,failures,iterations", PINNED)
def test_pinned_counts_per_noise_and_decoder(tmp_path, code, noise, decoder,
                                             rate, failures, iterations):
    """Every trial path keeps its seeded failure and iteration counts."""
    if code == "problem":
        path = tmp_path / "p.json"
        save_problem(depolarizing_problem(
            css_code(*four_two_two_checks()), 0.1, "xzy"), path)
        code = f"problem {path}"
    cfg = BenchmarkConfig(code=code, noise=noise, decoder=decoder,
                          rates=(rate,), trials=300, seed=5)
    rec = run_benchmark(cfg).records[0]
    assert (rec.failures, rec.mean_iterations) == (failures, iterations / 300)


PINNED_MIN_SUM = [
    ("surface 3", "split-xz", "bp", 20, 675),
    ("surface 3", "xzy", "bp+osd 1", 7, 629),
]


@pytest.mark.parametrize("code,noise,decoder,failures,iterations", PINNED_MIN_SUM)
def test_pinned_min_sum_counts(code, noise, decoder, failures, iterations):
    """The min-sum check update keeps its seeded failure and iteration counts."""
    cfg = BenchmarkConfig(code=code, noise=noise, decoder=decoder, rates=(0.05,),
                          trials=300, seed=5, bp=BpConfig(variant="min-sum"))
    rec = run_benchmark(cfg).records[0]
    assert (rec.failures, rec.mean_iterations) == (failures, iterations / 300)


def test_parse_decoder_spellings_and_errors():
    assert parse_decoder("bp") == ("bp", 0)
    assert parse_decoder("bp+osd") == parse_decoder("bposd") == ("bp+osd", 0)
    assert parse_decoder("bposd 2") == parse_decoder(" bp+osd  2") == ("bp+osd", 2)
    assert parse_decoder("mld") == ("mld", 0)
    for bad in ("", "  ", "osd", "mwd 1", "bp+osd -1", "bp+osd two",
                "bp+osd 1 2", 3, None):
        with pytest.raises(ValueError):
            parse_decoder(bad)
    problem = classical_problem(hamming74(), 0.1)
    with pytest.raises(ValueError):
        decode(problem, np.array([1, 0, 0], dtype=np.uint8), "mld", 0, BpConfig())
