"""Monte Carlo benchmark: determinism, intervals, config parsing."""

import itertools
import json
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qecbench import bench, decoders
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
from qecbench.errors import CapacityExceeded, Unsatisfiable
from qecbench.homology import surface_code
from qecbench.descriptors import save_problem
from qecbench.f2 import F2Matrix
from qecbench.noise import (
    classical_problem,
    decoding_problem,
    depolarizing_fault_vector,
    depolarizing_problem,
    flips,
    pauli_flips,
    uniform_prior,
)
from qecbench.pauli import PauliOperator
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
    for field, bad in (("trials", True), ("seed", True), ("trials", 2.5), ("seed", 1.5),
                       ("seed", -1)):
        with pytest.raises(ValueError, match=field):
            BenchmarkConfig(**{**good, field: bad})


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
        f = depolarizing_fault_vector(err.x, err.z)
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


def test_numpy_integer_settings_round_trip_through_json(tmp_path):
    """numpy trials, seed and max_iterations are kept as Python ints, so
    write_json serialises them and the file reads back as the int run's."""
    base = dict(code="hamming", noise="bsc", decoder="bp", rates=(0.04,))
    docs = []
    for trials, seed, iters in ((60, 2, 8), (np.int64(60), np.uint64(2), np.int32(8))):
        cfg = BenchmarkConfig(**base, trials=trials, seed=seed,
                              bp=BpConfig(max_iterations=iters))
        assert type(cfg.trials) is type(cfg.seed) is type(cfg.bp.max_iterations) is int
        path = tmp_path / f"{len(docs)}.json"
        write_json(run_benchmark(cfg), path)
        with open(path) as fh:
            doc = json.load(fh)
        for record in doc["records"]:
            del record["wall_time"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[1]["config"]["bp"]["max_iterations"] == 8


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
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text(path.read_text() + "trials = 200\n")
    with pytest.raises(ValueError, match=re.escape(f"{repeated}:9: repeated key 'trials'")):
        read_config(repeated)


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


@pytest.mark.parametrize("decoder,failures,iterations", [("bp", 18, 580), ("bp+osd 1", 15, 580)])
def test_pinned_counts_with_empty_checks(tmp_path, decoder, failures, iterations):
    """A problem file whose H has zero-degree checks, one of them last,
    keeps its seeded counts (edge-list parities skip empty rows)."""
    code = surface_code(3)
    h = np.insert(code.hx.to_dense(), [2, code.hx.rows], 0, axis=0)
    path = tmp_path / "p.json"
    save_problem(decoding_problem(F2Matrix.from_dense(h), code.lx,
                                  uniform_prior(code.n, 0.1)), path)
    cfg = BenchmarkConfig(code=f"problem {path}", noise="generic", decoder=decoder,
                          rates=(0.05,), trials=300, seed=5)
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


# -- the per-problem memo of decoder answers ----------------------------------


def without_seconds(result) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text(result).splitlines()]


def row_runs(tmp_path):
    """(code, noise, decoder) over every noise kind and decoder."""
    path = tmp_path / "p.json"
    save_problem(depolarizing_problem(css_code(*four_two_two_checks()), 0.1, "xzy"), path)
    runs = [("hamming", "bsc", d) for d in ("bp", "bp+osd 2", "mwd", "mld")]
    runs += [(f"problem {path}", "generic", d) for d in ("bp+osd 0", "mwd", "mld")]
    runs += [("surface 2", "xzy", d) for d in ("mld", "bp+osd 2")]
    runs += [("surface 3", "split-xz", d) for d in ("bp", "bp+osd 0")]
    runs += [("surface 2", "split-xz", "mwd")]
    return runs


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
def test_memo_leaves_every_row_unchanged(tmp_path, monkeypatch, seed, variant):
    """run_benchmark with the memo gives the rows of the uncached path."""
    for code, noise, decoder in row_runs(tmp_path):
        cfg = BenchmarkConfig(code=code, noise=noise, decoder=decoder, rates=(0.03, 0.1),
                              trials=80, seed=seed, bp=BpConfig(variant=variant))
        cached = without_seconds(run_benchmark(cfg))
        monkeypatch.setattr(decoders, "MEMO_LIMIT", 0)
        uncached = without_seconds(run_benchmark(cfg))
        monkeypatch.setattr(bench, "bp_prefetch", lambda *args: None)  # BP as batches of one
        lone = without_seconds(run_benchmark(cfg))
        monkeypatch.undo()
        assert cached == uncached, (code, noise, decoder)
        assert lone == uncached, (code, noise, decoder)


def test_memo_stops_storing_at_its_limit(monkeypatch):
    monkeypatch.setattr(decoders, "MEMO_LIMIT", 2)
    problem = classical_problem(hamming74(), 0.1)
    syndromes = [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=3)]
    for s in syndromes + syndromes[::-1]:
        c, converged, iterations = decode(problem, s, "bp+osd", 1, BpConfig())
        fresh = classical_problem(hamming74(), 0.1)
        c0, converged0, iterations0 = decode(fresh, s, "bp+osd", 1, BpConfig())
        assert np.array_equal(c, c0) and (converged, iterations) == (converged0, iterations0)
        assert np.array_equal(problem.h.matvec(c), s)
    assert len(problem.answers) == 2
    assert [key[-1] for key in problem.answers] == [s.tobytes() for s in syndromes[:2]]


def test_memo_stops_storing_at_its_byte_limit(monkeypatch):
    # a stored bp+osd answer costs its 3 syndrome bytes and 7 correction bytes
    monkeypatch.setattr(decoders, "MEMO_BYTES", 2 * (3 + 7) - 1)
    problem = classical_problem(hamming74(), 0.1)
    syndromes = [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=3)]
    for s in syndromes + syndromes[::-1]:
        c, converged, iterations = decode(problem, s, "bp+osd", 1, BpConfig())
        fresh = classical_problem(hamming74(), 0.1)
        c0, converged0, iterations0 = decode(fresh, s, "bp+osd", 1, BpConfig())
        assert np.array_equal(c, c0) and (converged, iterations) == (converged0, iterations0)
    # the second answer reaches the limit, so no third is stored
    assert [key[-1] for key in problem.answers] == [s.tobytes() for s in syndromes[:2]]
    assert problem.answers.nbytes == 2 * (3 + 7)
    exhaustive_mld(problem, syndromes[3])
    assert len(problem.answers) == 2


def test_memo_never_stores_an_exception():
    # the rows of H sum to zero, so a syndrome of odd weight has no solution
    cycle = decoding_problem(F2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
                             F2Matrix.from_dense([[1, 1, 1]]), uniform_prior(3, 0.1))
    wide = depolarizing_problem(surface_code(3), 0.05, "xzy")  # too many columns for MLD
    odd, short = np.array([1, 0, 0], dtype=np.uint8), np.array([1, 0], dtype=np.uint8)
    calls = [
        (Unsatisfiable, lambda: decode(cycle, odd, "bp+osd", 0, BpConfig())),
        (Unsatisfiable, lambda: decode(cycle, odd, "mwd", 0, BpConfig())),
        (Unsatisfiable, lambda: exhaustive_mld(cycle, odd)),
        (CapacityExceeded, lambda: exhaustive_mld(wide, np.zeros(wide.h.rows, np.uint8))),
    ]
    calls += [(ValueError, lambda kind=kind: decode(cycle, short, kind, 0, BpConfig()))
              for kind in ("bp", "bp+osd", "mwd")]
    calls += [(ValueError, lambda: decode(cycle, odd[:, None], "bp", 0, BpConfig())),
              (ValueError, lambda: exhaustive_mld(cycle, short))]
    decode(cycle, odd, "bp", 0, BpConfig())  # stored: a 2-D s must not reach it
    for error, call in calls:
        for _ in range(3):
            with pytest.raises(error):
                call()
    assert len(cycle.answers) == 1 and not wide.answers


def test_memo_keys_name_kind_order_and_bp_config():
    problem = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
    e = np.zeros(problem.h.cols, dtype=np.uint8)
    e[[0, 4, 8]] = 1
    s = problem.h.matvec(e)
    settings = [("bp", 0, BpConfig()), ("bp", 0, BpConfig(max_iterations=1)),
                 ("bp", 0, BpConfig(variant="min-sum")), ("bp+osd", 0, BpConfig()),
                 ("bp+osd", 1, BpConfig(max_iterations=1)),
                 ("bp+osd", 2, BpConfig(max_iterations=1)), ("mwd", 0, BpConfig())]
    for _ in range(2):
        for kind, order, cfg in settings:
            c, converged, iterations = decode(problem, s, kind, order, cfg)
            fresh = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
            c0, converged0, iterations0 = decode(fresh, s, kind, order, cfg)
            assert np.array_equal(c, c0), (kind, order, cfg)
            assert (converged, iterations) == (converged0, iterations0)
        assert np.array_equal(exhaustive_mld(problem, s), exhaustive_mld(
            depolarizing_problem(surface_code(3), 0.05, "split-xz")[0], s))
        assert len(problem.answers) == len(settings) + 1


def test_stored_answers_cannot_be_changed_through_a_caller():
    problem = classical_problem(hamming74(), 0.1)
    s = np.array([1, 1, 0], dtype=np.uint8)
    c = decode(problem, s, "bp+osd", 0, BpConfig())[0]
    kept = c.copy()
    with pytest.raises(ValueError, match="read-only"):
        c[0] ^= 1
    assert np.array_equal(decode(problem, s, "bp+osd", 0, BpConfig())[0], kept)
    winner = exhaustive_mld(problem, s)
    kept = winner.copy()
    winner ^= 1  # a fresh copy: the caller may write to it
    assert np.array_equal(exhaustive_mld(problem, s), kept)


def bp_rows(problem, n=24, seed=0):
    """n distinct nonzero syndromes of random faults on problem."""
    rng, rows = np.random.default_rng(seed), {}
    while len(rows) < n:
        s = problem.tanner.parity((rng.random(problem.h.cols) < 0.1).view(np.uint8))
        if s.any():
            rows.setdefault(s.tobytes(), s)
    return np.array(list(rows.values()))


def bp_outcome(result):
    return (result.correction.tobytes(), result.converged, result.iterations_used,
            result.posterior_llr.tobytes())


@pytest.mark.parametrize("cfg", [BpConfig(), BpConfig(variant="min-sum", max_iterations=3)])
def test_prefetched_bp_answers_equal_cold_calls(cfg):
    problem = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
    rows = bp_rows(problem)
    decoders.bp_prefetch(problem, np.concatenate([rows, rows[::-1]]), cfg)
    assert len(problem.answers.bp) == len(rows) and not problem.answers  # memo stores none
    for s in rows:
        got = decoders.bp_decode(problem, s, cfg)
        assert bp_outcome(decoders.bp_decode(problem, s, cfg)) == bp_outcome(got)  # read, not taken
        cold = decoders.bp_decode(depolarizing_problem(surface_code(3), 0.05, "split-xz")[0], s, cfg)
        assert bp_outcome(got) == bp_outcome(cold)
        assert not got.correction.flags.writeable and not got.posterior_llr.flags.writeable


def test_memo_freezes_and_counts_every_array_of_an_answer(monkeypatch):
    problem = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
    rows = bp_rows(problem, 6)
    for s in rows:
        decode(problem, s, "bp+osd", 0, BpConfig())
    answers = problem.answers
    sizes = [len(key[-1]) + c.nbytes for key, (c, _, _) in answers.items()]
    assert len(sizes) == 6 and answers.nbytes == sum(sizes)
    assert sizes[0] == problem.h.rows + problem.h.cols
    assert not any(c.flags.writeable for c, _, _ in answers.values())
    # an answer of two arrays counts and freezes both
    pair = decoders.memo(problem, ("pair",), rows[0], lambda s: (np.zeros(3), 1, np.ones(5)))
    assert answers.nbytes == sum(sizes) + problem.h.rows + 8 * (3 + 5)
    assert not pair[0].flags.writeable and not pair[2].flags.writeable
    # the byte limit counts the corrections: two answers reach it, so no third is kept
    monkeypatch.setattr(decoders, "MEMO_BYTES", 2 * sizes[0] - 1)
    fresh = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
    for s in rows:
        decode(fresh, s, "bp+osd", 0, BpConfig())
    assert len(fresh.answers) == 2 and fresh.answers.nbytes == 2 * sizes[0]
    # the BP table stays apart from memo's count, and its arrays are read-only too
    decoders.bp_prefetch(fresh, rows, BpConfig())
    assert len(fresh.answers.bp) == 6 and fresh.answers.nbytes == 2 * sizes[0]
    for c, _, _, posterior in fresh.answers.bp.values():
        assert not c.flags.writeable and not posterior.flags.writeable


@pytest.mark.parametrize("other", [BpConfig(variant="min-sum"), BpConfig(max_iterations=31),
                                   BpConfig(llr_clamp=29.0), BpConfig(early_stop=False)])
def test_bp_answers_are_served_to_their_own_config_only(other):
    """Prefetched answers replaced by a marker reach bp_decode under the
    config they were made for, and under no other."""
    problem = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
    rows = bp_rows(problem, 8)
    decoders.bp_prefetch(problem, rows, BpConfig())
    marker = (np.ones(problem.h.cols, dtype=np.uint8), False, -1, np.zeros(problem.h.cols))
    problem.answers.bp = dict.fromkeys(problem.answers.bp, marker)
    for s in rows:
        assert decoders.bp_decode(problem, s).iterations_used == -1
        got = decoders.bp_decode(problem, s, other)
        cold = decoders.bp_decode(depolarizing_problem(surface_code(3), 0.05, "split-xz")[0], s, other)
        assert bp_outcome(got) == bp_outcome(cold)


def test_prefetch_skips_the_rows_that_memo_holds():
    """Rows held under decode's key are not batched; the last call's table
    is replaced, not consulted, and a call with nothing to do empties it."""
    problem = depolarizing_problem(surface_code(3), 0.05, "split-xz")[0]
    rows, cfg, batched = bp_rows(problem, 10), BpConfig(), []
    held, shape = ("bp+osd", 0, cfg), (problem.h.rows,)
    decode(problem, rows[0], "bp+osd", 0, cfg)  # held under decode's key
    decoders.bp_prefetch(problem, rows[1:2], cfg)  # in the table, which the next call replaces
    batch = decoders.bp_batch

    def counted(problem, s, cfg):
        batched.extend(map(bytes, s))
        return batch(problem, s, cfg)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(decoders, "bp_batch", counted)
        decoders.bp_prefetch(problem, np.concatenate([rows, rows]), cfg, held)
        assert batched == [s.tobytes() for s in rows[1:]]
        assert list(problem.answers.bp) == [(cfg, shape, s.tobytes()) for s in rows[1:]]
        decoders.bp_prefetch(problem, rows[:1], cfg, held)
    assert batched == [s.tobytes() for s in rows[1:]] and problem.answers.bp == {}


@pytest.mark.parametrize("code,noise,decoder,trials", [
    ("surface 3", "split-xz", "bp", 300),
    ("surface 3", "split-xz", "bp+osd 1", 100),
    ("hamming", "bsc", "bp", 200),
    ("surface 5", "split-xz", "bp", 256),  # blocks of more than 32 distinct syndromes
])
def test_run_benchmark_answers_every_bp_call_from_one_batch_per_block(monkeypatch, code, noise,
                                                                       decoder, trials):
    """Each bp_decode call of a run finds its answer stored: the batches
    decode exactly as many rows as there are calls, so no trial decodes its
    own syndrome and no batch decodes a row that no trial reads.  Each
    problem runs at most one batch per block of trials, of at most _BLOCK
    rows."""
    batch, decode_bp, block_keys = decoders.bp_batch, decoders.bp_decode, bench._block_keys
    block, batches, rows, calls = [None], [], [], []

    def keyed_block(*args):
        block[0] = args
        return block_keys(*args)

    def counted_batch(problem, s, cfg):
        batches.append((id(problem), block[0]))
        rows.append(len(s))
        return batch(problem, s, cfg)

    def counted_decode(*args):
        calls.append(1)
        return decode_bp(*args)

    monkeypatch.setattr(bench._streams, "block", None)  # no keys cached from another run
    monkeypatch.setattr(bench, "_block_keys", keyed_block)
    monkeypatch.setattr(decoders, "bp_batch", counted_batch)
    monkeypatch.setattr(decoders, "bp_decode", counted_decode)
    monkeypatch.setattr(bench, "bp_decode", counted_decode)
    run_benchmark(BenchmarkConfig(code=code, noise=noise, decoder=decoder, rates=(0.05, 0.1),
                                  trials=trials, seed=2))
    assert len(calls) > 10 and sum(rows) == len(calls) and max(rows) <= bench._BLOCK
    assert None not in batches and len(set(batches)) == len(batches)


@pytest.mark.parametrize("limit", ["MEMO_LIMIT", "MEMO_BYTES"])
@pytest.mark.parametrize("decoder", ["bp", "bp+osd 1"])
def test_a_full_memo_still_gets_one_bp_batch_per_problem_and_block(monkeypatch, limit,
                                                                   decoder):
    """Once memo stores nothing more, each problem still runs exactly one
    bp_batch per block of trials, and bp_decode never runs one of its own."""
    batch, decode_bp, block_keys = decoders.bp_batch, decoders.bp_decode, bench._block_keys
    blocks, batches, inside = [], [], [False]

    def keyed_block(*args):
        blocks.append(args)
        return block_keys(*args)

    def counted_batch(problem, s, cfg):
        batches.append((id(problem), blocks[-1], inside[0]))
        return batch(problem, s, cfg)

    def counted_decode(*args):
        inside[0] = True
        try:
            return decode_bp(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(decoders, limit, 0)
    monkeypatch.setattr(bench._streams, "block", None)  # no keys cached from another run
    monkeypatch.setattr(bench, "_block_keys", keyed_block)
    monkeypatch.setattr(decoders, "bp_batch", counted_batch)
    monkeypatch.setattr(decoders, "bp_decode", counted_decode)
    monkeypatch.setattr(bench, "bp_decode", counted_decode)
    run_benchmark(BenchmarkConfig(code="surface 3", noise="split-xz", decoder=decoder,
                                  rates=(0.05, 0.1), trials=300, seed=2))
    assert len(blocks) == 6 and len(set(blocks)) == 6  # three blocks per rate point
    assert not any(lone for _, _, lone in batches)
    assert len(batches) == 2 * len(blocks) and len(set(batches)) == len(batches)


@pytest.mark.parametrize("code,noise,decoder,problems", [
    ("surface 2", "xzy", "mld", 1),
    ("hamming", "bsc", "mld", 1),
    ("surface 3", "split-xz", "bp", 2),
    ("hamming", "bsc", "bp+osd 1", 1),
    ("repetition 5", "bsc", "mwd", 1),
])
def test_every_trial_reaches_the_scored_entry_point(monkeypatch, code, noise, decoder,
                                                    problems):
    """Each trial calls bench.exhaustive_mld (mld) or bench.success once per
    problem, even when its syndrome was seen before: mcbench rescores every
    trial from what these calls return."""
    name = "exhaustive_mld" if decoder == "mld" else "success"
    wrapped, calls = getattr(bench, name), []

    def counted(*args):
        calls.append(1)
        return wrapped(*args)

    monkeypatch.setattr(bench, name, counted)
    cfg = BenchmarkConfig(code=code, noise=noise, decoder=decoder, rates=(0.05, 0.1),
                          trials=150, seed=1)
    run_benchmark(cfg)
    assert len(calls) == 2 * 150 * problems


# -- trial streams -------------------------------------------------------------


def fresh_trial_rng(seed, rate_index, trial):
    """A new SeedSequence, Philox and Generator: the stream of one trial."""
    ss = np.random.SeedSequence(seed, spawn_key=(rate_index, trial))
    return np.random.Generator(np.random.Philox(ss))


def sample_bsc(prior, rng):
    """Independent Bernoulli(p_i) flip pattern: the per-trial bsc sampler."""
    return flips(rng.random(len(prior)), prior.p)


def sample_depolarizing(n, p, rng):
    """Per qubit: identity with prob 1-p, else X, Y, or Z uniformly: the
    per-trial depolarizing sampler."""
    return PauliOperator(*pauli_flips(rng.random(n), rng.integers(0, 3, n), p), 0)


def per_trial_noise(code, noise, rate):
    """_noise as it was before block draws: (problems, rng -> one fault vector
    per problem), sampled with sample_bsc or sample_depolarizing."""
    if noise == "bsc":
        problem = classical_problem(code, rate)
    elif noise == "generic":
        problem = decoding_problem(code.h, code.l, uniform_prior(code.h.cols, rate))
    elif noise == "xzy":
        def xzy(rng):
            err = sample_depolarizing(code.n, rate, rng)
            x, z = err.x, err.z
            return (np.concatenate([x & ~z, z & ~x, x & z]).astype(np.uint8),)

        return (depolarizing_problem(code, rate, "xzy"),), xzy
    else:
        def split(rng):
            err = sample_depolarizing(code.n, rate, rng)
            return err.z, err.x

        return depolarizing_problem(code, rate, "split-xz"), split
    return (problem,), lambda rng: (sample_bsc(problem.prior, rng),)


def per_trial_path(monkeypatch):
    """Make run_benchmark draw each trial's faults from its own fresh Generator,
    as a block of one row."""
    def noise(code, kind, rate):
        problems, sample = per_trial_noise(code, kind, rate)

        def block(rng):
            faults = sample(rng)
            return [e[None] for e in faults], lambda row: faults

        return problems, block

    monkeypatch.setattr(bench, "_trial_rng",
                        lambda seed, r, t: (fresh_trial_rng(seed, r, t), 0))
    monkeypatch.setattr(bench, "_noise", noise)


B = bench._BLOCK
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**130 + 5,
                np.int64(2**40 + 7), np.uint64(2**64 - 1), np.uint64(3)]


def draws(rng, n):
    return rng.random(n).tobytes() + rng.integers(0, 3, n).tobytes()


def block_draws(stream, n):
    keys, row = stream
    u, kind = bench._block_draws(keys, n, True)
    return u[row].tobytes() + kind[row].astype(np.int64).tobytes()


@settings(max_examples=80)
@given(st.lists(st.tuples(st.sampled_from(STREAM_SEEDS), st.sampled_from([0, 1, 7]),
                          st.sampled_from([0, B - 1, B, B + 1, 5 * B + 3])),
                min_size=1, max_size=8),
       st.integers(1, 40))
def test_trial_streams_match_a_fresh_seed_sequence(calls, n):
    """Each call gives the trial's row of its block, also after a jump back to
    an earlier block or a repeat of the same trial."""
    for seed, rate_index, trial in calls:
        assert (block_draws(bench._trial_rng(seed, rate_index, trial), n)
                == draws(fresh_trial_rng(seed, rate_index, trial), n))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STREAM_SEEDS), st.sampled_from([0, 1, 7]), st.integers(0, 2),
       st.integers(1, 300), st.booleans())
def test_block_draws_are_a_fresh_generators_draws(seed, rate_index, block, n, kinds):
    """Row t of a block's uniforms and kinds is random(n) then integers(0, 3, n)
    of trial t's own Generator, for every row from one block edge to the next."""
    keys, _ = bench._trial_rng(seed, rate_index, block * B)
    u, kind = bench._block_draws(keys, n, kinds)
    assert u.shape == (B, n) and (kind is None) == (not kinds)
    for row in range(B):
        rng = fresh_trial_rng(seed, rate_index, block * B + row)
        assert u[row].tobytes() == rng.random(n).tobytes()
        if kinds:
            assert np.array_equal(kind[row], rng.integers(0, 3, n))


def test_only_a_zero_half_is_rejected():
    """Lemire's method for integers(0, 3) redraws a half h when 3 h mod 2**32
    is below (2**32 - 3) % 3, which holds for h = 0 alone."""
    assert bench._LEMIRE_MIN == (2**32 - 3) % 3 == 1
    assert [3 * h % 2**32 < 1 for h in (0, 1, 2**32 // 3, 2**32 - 1)] == [True] + [False] * 3


@pytest.mark.parametrize("n", [1, 6, 41])
def test_rejected_rows_are_redrawn_unchanged(monkeypatch, n):
    """Rows sent through the fallback Generator keep the block's draws."""
    keys, _ = bench._trial_rng(3, 1, B)
    want = bench._block_draws(keys, n, True)
    monkeypatch.setattr(bench, "_LEMIRE_MIN", 2**30)  # a quarter of the halves
    got = bench._block_draws(keys, n, True)
    assert got[0].tobytes() == want[0].tobytes() and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("seed,rate_index,block", [(0, 0, 0), (2**130 + 5, 7, 3),
                                                   (np.uint64(2**63 + 1), 1, 1)])
def test_block_keys_are_the_seed_sequence_keys(seed, rate_index, block):
    keys = bench._block_keys(int(seed), rate_index, block)
    want = [np.random.SeedSequence(seed, spawn_key=(rate_index, t)).generate_state(2, np.uint64)
            for t in range(block * B, (block + 1) * B)]
    assert keys.dtype == np.uint64 and keys.tobytes() == np.array(want).tobytes()


def test_a_short_rate_point_hashes_one_block(monkeypatch):
    calls, block_keys = [], bench._block_keys

    def counted(*args):
        calls.append(args)
        return block_keys(*args)

    monkeypatch.setattr(bench, "_block_keys", counted)
    monkeypatch.setattr(bench._streams, "block", None)  # forget the block hashed last
    run_benchmark(BenchmarkConfig(code="surface 3", noise="split-xz", decoder="bp",
                                  rates=(0.05,), trials=100, seed=1))
    assert calls == [(1, 0, 0)]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("variant", ["sum-product", "min-sum"])
def test_block_streams_leave_every_row_unchanged(tmp_path, monkeypatch, seed, variant):
    """run_benchmark gives the rows of per-trial sampling on a fresh Generator."""
    for code, noise, decoder in row_runs(tmp_path):
        # hamming and surface 2 cross a block boundary at both rates
        trials = B + 20 if code in ("hamming", "surface 2") else 80
        cfg = BenchmarkConfig(code=code, noise=noise, decoder=decoder, rates=(0.03, 0.1),
                              trials=trials, seed=seed, bp=BpConfig(variant=variant))
        blocked = without_seconds(run_benchmark(cfg))
        per_trial_path(monkeypatch)
        fresh = without_seconds(run_benchmark(cfg))
        monkeypatch.undo()
        assert blocked == fresh, (code, noise, decoder)


def test_threads_keep_their_own_streams(monkeypatch):
    """Two run_benchmark calls at once on two threads give their serial rows,
    with every block drawn while the other thread is drawing one too."""
    cfgs = [BenchmarkConfig(code="hamming", noise="bsc", decoder="bp", rates=(0.05, 0.1),
                            trials=B + 200, seed=3),
            BenchmarkConfig(code="repetition 5", noise="bsc", decoder="bp+osd 1",
                            rates=(0.02, 0.1), trials=B + 200, seed=11)]
    serial = [without_seconds(run_benchmark(cfg)) for cfg in cfgs]
    meet, draw = threading.Barrier(2, timeout=10), bench._block_draws

    def draw_in_step(keys, n, kinds):
        try:
            meet.wait()
        except threading.BrokenBarrierError:  # the other thread has finished
            pass
        return draw(keys, n, kinds)

    def worker(i):
        try:
            rows[i] = without_seconds(run_benchmark(cfgs[i]))
        finally:
            meet.abort()

    monkeypatch.setattr(bench, "_block_draws", draw_in_step)
    rows = [None, None]
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert rows == serial


def test_trials_must_fit_one_spawn_key_word():
    good = dict(code="hamming", noise="bsc", decoder="bp", rates=(0.1,))
    for trials in (2**32 - 1, np.uint64(2**32 - 1)):
        BenchmarkConfig(**good, trials=trials)
    for trials in (2**32, np.uint64(2**32), 2**64):
        with pytest.raises(ValueError, match="trials"):
            BenchmarkConfig(**good, trials=trials)


def test_wide_and_numpy_seeds_keep_their_streams(monkeypatch):
    base = dict(code="surface 2", noise="xzy", decoder="mld", rates=(0.05, 0.1), trials=B + 60)
    rows = without_seconds(run_benchmark(BenchmarkConfig(**base, seed=3)))
    for seed in (np.int64(3), np.uint64(3)):
        assert without_seconds(run_benchmark(BenchmarkConfig(**base, seed=seed))) == rows
    wide = BenchmarkConfig(**base, seed=2**130 + 5)
    blocked = without_seconds(run_benchmark(wide))
    per_trial_path(monkeypatch)
    assert without_seconds(run_benchmark(wide)) == blocked
