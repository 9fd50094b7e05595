"""What mcbench needs of the package: the names its spans wrap, a traced
run whose trials its checks can rescore, and a fault vector per xzy trial.
mcbench/ is put on sys.path and only read: no bytecode is written there."""

import sys
from pathlib import Path

import pytest

from qecbench import bench
from qecbench.bench import BenchmarkConfig, run_benchmark

MCBENCH = Path(__file__).resolve().parents[1] / "mcbench"

# shaped like mcbench's four workloads, with fewer trials: each runs one
# block of trials and then this many more, so its rescoring crosses a block
WORKLOADS = [
    ("surface 9", "split-xz", "bp+osd 0", 0.05, 130),
    ("surface 9", "split-xz", "bp+osd 2", 0.05, 130),
    ("surface 5", "split-xz", "bp", 0.01, 300),
    ("surface 2", "xzy", "mld", 0.05, 300),
]


@pytest.fixture(scope="module")
def mcbench():
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(MCBENCH))
    sys.dont_write_bytecode = True
    try:
        import checks
        import spans
        yield checks, spans
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(MCBENCH))
        for name in ("checks", "spans", "mld_reference"):
            sys.modules.pop(name, None)


def test_bench_binds_every_wrapped_name(mcbench):
    """A name missing here makes Tracer.installed raise KeyError, and every
    benchmark run with it."""
    _, spans = mcbench
    for owner, attr, _ in spans.TARGETS:
        assert attr in vars(owner), attr
    assert {"_trial_rng", "_make_trial", "sample_depolarizing"} <= vars(bench).keys()
    with spans.Tracer().installed():
        pass


@pytest.mark.parametrize("code,noise,decoder,rate,past", WORKLOADS)
def test_traced_runs_rescore_every_trial(mcbench, code, noise, decoder, rate, past):
    checks, spans = mcbench
    cfg = BenchmarkConfig(code=code, noise=noise, decoder=decoder, rates=(rate,),
                          trials=bench._BLOCK + past, seed=1000)
    tracer = spans.Tracer()
    record, = tracer.run(cfg).records
    assert checks.rescored_failures(tracer, cfg.trials) == (record.failures, [])
    assert run_benchmark(cfg).records[0].failures == record.failures


def test_xzy_draws_one_fault_vector_per_trial(mcbench):
    """MLD rescoring reads each trial's fault vector from its own call."""
    _, spans = mcbench
    cfg = BenchmarkConfig(code="surface 2", noise="xzy", decoder="mld", rates=(0.05,),
                          trials=bench._BLOCK + 2, seed=1)
    tracer = spans.Tracer()
    tracer.run(cfg)
    calls = tracer.captures["noise.fault_vector"]
    assert [trial for trial, _, _ in calls] == list(range(cfg.trials))


def test_each_depolarizing_block_draw_is_a_noise_sample_span(mcbench):
    """noise.sample times sample_depolarizing, called once per block of trials."""
    _, spans = mcbench
    cfg = BenchmarkConfig(code="surface 5", noise="split-xz", decoder="bp", rates=(0.01,),
                          trials=bench._BLOCK + 2, seed=1)
    tracer = spans.Tracer()
    tracer.run(cfg)
    assert [name for name, *_ in tracer.spans].count("noise.sample") == 2
