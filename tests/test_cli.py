"""Command-line interface: subcommands, exit codes, file outputs."""

import hashlib
import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qecbench import bench
from qecbench.bench import BenchmarkConfig, run_benchmark
from qecbench.cli import cli_main
from qecbench.descriptors import save_problem
from qecbench.f2 import F2Matrix, from_alist, write_alist
from qecbench.noise import (
    classical_problem,
    decoding_problem,
    depolarizing_problem,
    uniform_prior,
)
from qecbench.pauli import PauliOperator
from qecbench.quantum import css_code, four_two_two_checks
from qecbench.bench import build_code


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_code_classical_alist_to_stdout(capsys):
    code, out, _ = run(capsys, "build-code", "repetition", "4")
    assert code == 0
    h = from_alist(out)
    assert (h.rows, h.cols) == (3, 4)


def test_build_code_surface_writes_descriptor_and_alists(tmp_path, capsys):
    out = tmp_path / "surf.json"
    code, text, _ = run(capsys, "build-code", "surface", "3", "--out", str(out))
    assert code == 0
    assert "[[13,1]]" in text
    for suffix in (".hx.alist", ".hz.alist"):
        header = (tmp_path / f"surf{suffix}").read_text().split("\n", 1)[0]
        assert header.split()[0] == "13"  # columns per check matrix


def test_build_code_stabilizer_needs_out(capsys):
    code, _, err = run(capsys, "build-code", "fivequbit")
    assert code == 1
    assert "--out" in err


def test_build_code_rejects_problem_spec(tmp_path, capsys):
    hx, hz = four_two_two_checks()
    path = tmp_path / "p.json"
    save_problem(depolarizing_problem(css_code(hx, hz), 0.1, "xzy"), path)
    code, _, err = run(capsys, "build-code", "problem", str(path))
    assert code == 1
    assert "not a code" in err


@pytest.mark.parametrize("spec", ["transpose surface 3", "hgp surface 2 hamming",
                                  "hgp fivequbit hamming", "transpose fivequbit"])
def test_build_code_non_classical_operand_exits_one(tmp_path, capsys, spec):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "build-code", *spec.split(), "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "classical" in err
    assert not out.exists()


def test_build_code_outputs_load_back_as_operands(tmp_path, capsys):
    alist = tmp_path / "r.alist"
    assert run(capsys, "build-code", "repetition", "3", "--out", str(alist))[0] == 0
    code, out, _ = run(capsys, "build-code", "transpose", "problem", str(alist))
    assert code == 0
    assert from_alist(out) == build_code("transpose repetition 3").h
    surface = tmp_path / "s2.json"
    assert run(capsys, "build-code", "surface", "2", "--out", str(surface))[0] == 0
    code, text, _ = run(capsys, "build-code", "problem", str(surface),
                        "--out", str(tmp_path / "again.json"))
    assert code == 0 and "[[5,1]]" in text


@pytest.mark.parametrize("spec", ["repetition", "surface", "problem", "hgp hamming"])
def test_build_code_missing_argument_exits_one(capsys, spec):
    code, _, err = run(capsys, "build-code", *spec.split())
    assert code == 1
    assert err.startswith("error:")


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "build-code" in out


def test_foliate_writes_graph_json(tmp_path, capsys):
    out = tmp_path / "fol.json"
    code, text, _ = run(capsys, "foliate", "surface", "2", "--layers", "2",
                        "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert {"vertices", "edges", "detectors", "logical_supports"} <= doc.keys()
    assert len(doc["vertices"]) == 14
    assert "14 vertices" in text


def test_foliate_reduces_the_adjacency_once(tmp_path, capsys, monkeypatch):
    # the logical supports and the detectors share the kernel foliate
    # keeps; the summary line counts the detectors in the document written
    shapes = []
    kernel_basis = F2Matrix.kernel_basis

    def counted(self):
        shapes.append((self.rows, self.cols))
        return kernel_basis(self)

    monkeypatch.setattr(F2Matrix, "kernel_basis", counted)
    out = tmp_path / "fol.json"
    code, text, _ = run(capsys, "foliate", "surface", "3", "--layers", "3",
                        "--out", str(out))
    assert code == 0
    assert text.startswith("57 vertices, 86 edges, 18 detectors, 1 logical supports")
    assert shapes.count((57, 57)) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e5e751fc9aec472981eb1a80ea53d33ab217fe907e30692add4ef1a71f58d1f1")


def test_foliate_rejects_non_css(capsys):
    code, _, err = run(capsys, "foliate", "fivequbit", "--layers", "2",
                       "--out", "/tmp/nope.json")
    assert code == 1
    assert "CSS" in err


def test_out_of_memory_exits_two_without_traceback(monkeypatch, tmp_path, capsys):
    def exhausted(code, layers):
        raise MemoryError("Unable to allocate 10.8 GiB for an array")

    monkeypatch.setattr("qecbench.cli.foliate", exhausted)
    code, _, err = run(capsys, "foliate", "surface", "3", "--layers", "2000",
                       "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_oversized_alist_exits_two_before_allocating(monkeypatch, tmp_path, capsys):
    """The header's rows x cols is checked against f2.DENSE_BYTES before the
    dense array is made; a small budget keeps a broken guard to 4 MB."""
    monkeypatch.setattr("qecbench.f2.DENSE_BYTES", 1 << 20)
    big, small = tmp_path / "big.alist", tmp_path / "small.alist"
    write_alist(F2Matrix(2000, 2000), big)  # zero degrees: 12 kB of text
    write_alist(F2Matrix(500, 2000), small)
    code, _, err = run(capsys, "build-code", "problem", str(big))
    assert code == 2
    assert err.startswith("error:") and "DENSE_BYTES" in err and "Traceback" not in err
    code, out, err = run(capsys, "build-code", "problem", str(small))
    assert (code, err) == (0, "")
    assert out == small.read_text()


@pytest.mark.parametrize("spec", ["surface 100000", "repetition 100000"])
def test_oversized_codes_exit_two_before_allocating(capsys, spec):
    """repetition 100000's H alone would take 9.3 GiB; the size is checked
    against f2.DENSE_BYTES first, so the traced peak stays small."""
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "build-code", *spec.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith("error:") and "DENSE_BYTES" in err and "Traceback" not in err
    assert peak < 64 << 20


def test_oversized_foliation_exits_two_before_allocating(tmp_path, capsys):
    """foliate surface 2 --layers 100000 would need a 456 GiB adjacency
    matrix; its vertex count is checked against f2.DENSE_BYTES before any
    per-vertex list is built, so the traced peak stays small."""
    out = tmp_path / "g.json"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "foliate", "surface", "2", "--layers", "100000",
                           "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and not out.exists()
    assert err.startswith("error:") and "DENSE_BYTES" in err and "Traceback" not in err
    assert peak < 64 << 20


def test_oversized_hypergraph_product_exits_two_before_allocating(monkeypatch, tmp_path, capsys):
    """hx and hz of the product are checked before kron builds them; a small
    budget keeps a broken guard to about 20 MB, and a product inside it
    builds as before."""
    monkeypatch.setattr("qecbench.f2.DENSE_BYTES", 1 << 20)
    out = tmp_path / "code.json"
    code, _, err = run(capsys, "build-code", "hgp", "repetition", "40", "repetition", "40",
                       "--out", str(out))
    assert code == 2 and not out.exists()
    assert err.startswith("error:") and "hypergraph product" in err and "Traceback" not in err
    code, _, err = run(capsys, "build-code", "hgp", "repetition", "12", "repetition", "12",
                       "--out", str(out))
    assert (code, err) == (0, "") and out.exists()


def test_sample_bsc_draws_are_seeded(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(capsys, "sample", "repetition", "6", "--noise", "bsc",
                         "--rate", "0.2", "--trials", "5", "--seed", "11",
                         "--out", str(out))
        assert code == 0
    assert out1.read_text() == out2.read_text()
    doc = json.loads(out1.read_text())
    assert len(doc["draws"]) == 5
    assert all(len(d) == 6 and set(d) <= {"0", "1"} for d in doc["draws"])


def test_sample_xzy_draws_pauli_strings(capsys):
    code, out, _ = run(capsys, "sample", "surface", "2", "--noise", "xzy",
                       "--rate", "0.3", "--trials", "4", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert all(len(d) == 6 and set(d[1:]) <= set("IXZY") for d in doc["draws"])


def test_sample_noise_code_mismatch(capsys):
    code, _, err = run(capsys, "sample", "surface", "2", "--noise", "bsc",
                       "--rate", "0.1", "--trials", "1")
    assert code == 1
    assert "classical" in err


@pytest.mark.parametrize("trials", ["0", str(2**32)])
def test_sample_trials_must_fit_one_spawn_key_word(capsys, trials):
    code, out, err = run(capsys, "sample", "repetition", "3", "--noise", "bsc",
                         "--rate", "0.1", "--trials", trials)
    assert (code, out) == (1, "")
    assert "trials must be in [1, 2**32)" in err


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("spec,noise,decoder,rate", [("repetition 6", "bsc", "bp", 0.2),
                                                     ("surface 2", "xzy", "mld", 0.1)])
def test_sample_replays_the_benchmark_trials(monkeypatch, capsys, seed, spec, noise,
                                             decoder, rate):
    """Draw t of sample is the fault that run_benchmark scores in trial t at
    rate index 0, for the same seed and rate."""
    target = "success" if noise == "bsc" else "depolarizing_fault_vector"
    scored, wrapped = [], getattr(bench, target)

    def captured(*args):
        # success(c, e, problem); depolarizing_fault_vector(x, z)
        scored.append(args[1] if noise == "bsc" else args)
        return wrapped(*args)

    monkeypatch.setattr(bench, target, captured)
    run_benchmark(BenchmarkConfig(code=spec, noise=noise, decoder=decoder,
                                  rates=(rate, 0.3), trials=300, seed=seed))
    code, out, _ = run(capsys, "sample", *spec.split(), "--noise", noise, "--rate",
                       str(rate), "--trials", "300", "--seed", str(seed))
    assert code == 0
    draws = json.loads(out)["draws"]
    assert len(draws) == 300 and len(scored) == 600  # both rate points, in order
    for draw, fault in zip(draws, scored):
        if noise == "bsc":
            assert draw == "".join(map(str, fault))
        else:
            err = PauliOperator.from_string(draw)
            assert np.array_equal(err.x, fault[0]) and np.array_equal(err.z, fault[1])


def write_request(tmp_path, problem, **fields):
    save_problem(problem, tmp_path / "problem.json")
    req = {"problem": "problem.json", **fields}
    path = tmp_path / "request.json"
    path.write_text(json.dumps(req))
    return path


def test_decode_zero_syndrome_returns_zero_correction(tmp_path, capsys):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    req = write_request(tmp_path, problem, syndrome="0000", decoder="bp")
    code, out, _ = run(capsys, "decode", str(req))
    assert code == 0
    response = json.loads(out)
    assert response["correction"] == "00000"
    assert response["converged"] is True


def test_decode_bposd_fixes_single_fault(tmp_path, capsys):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    req = write_request(tmp_path, problem, syndrome="1000", decoder="bposd",
                        cfg={"order": 1, "iterations": 16})
    code, out, _ = run(capsys, "decode", str(req), "--out",
                       str(tmp_path / "resp.json"))
    assert code == 0
    response = json.loads((tmp_path / "resp.json").read_text())
    assert response["correction"] == "10000"


def test_decode_mld_reports_class_and_representative(tmp_path, capsys):
    hx, hz = four_two_two_checks()
    problem = depolarizing_problem(css_code(hx, hz), 0.1, "xzy")
    req = write_request(tmp_path, problem, syndrome="100", decoder="mld")
    code, out, _ = run(capsys, "decode", str(req))
    assert code == 0
    response = json.loads(out)
    rep = np.array([int(c) for c in response["correction"]], dtype=np.uint8)
    cls = np.array([int(c) for c in response["logical_class"]], dtype=np.uint8)
    s = np.array([1, 0, 0], dtype=np.uint8)
    assert np.array_equal(problem.h.matvec(rep), s)
    assert np.array_equal(problem.l.matvec(rep), cls)


def test_decode_capacity_guard_exits_two(tmp_path, capsys):
    problem = depolarizing_problem(build_code("surface 3"), 0.05, "xzy")
    req = write_request(tmp_path, problem, syndrome="0" * 12, decoder="mld")
    code, _, err = run(capsys, "decode", str(req))
    assert code == 2
    assert "MLD" in err


def test_decode_unsatisfiable_syndrome_exits_two(tmp_path, capsys):
    # a zero check row can never fire, so syndrome 01 has no preimage
    h = F2Matrix.from_dense(np.array([[1, 1, 0], [0, 0, 0]], dtype=np.uint8))
    l = F2Matrix.from_dense(np.array([[1, 1, 1]], dtype=np.uint8))
    problem = decoding_problem(h, l, uniform_prior(3, 0.1))
    req = write_request(tmp_path, problem, syndrome="01", decoder="mwd")
    code, _, err = run(capsys, "decode", str(req))
    assert code == 2


def test_decode_request_validation(tmp_path, capsys):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    req = write_request(tmp_path, problem, syndrome="0000", decoder="nope")
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1 and "unknown decoder" in err

    req = write_request(tmp_path, problem, syndrome="00", decoder="bp")
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1 and "syndrome" in err

    req = write_request(tmp_path, problem, decoder="bp")
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1 and "missing" in err

    req = write_request(tmp_path, problem, syndrome="0000", decoder="bp",
                        cfg={"wat": 3})
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1 and "unknown decoder cfg" in err


def test_decode_bposd_is_an_alias_of_bp_osd(tmp_path, capsys):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    responses = []
    for decoder, cfg in (("bposd", {"order": 1}), ("bp+osd 1", {}),
                         ("bp+osd", {"order": 1})):
        req = write_request(tmp_path, problem, syndrome="1010", decoder=decoder,
                            cfg=cfg)
        code, out, _ = run(capsys, "decode", str(req))
        assert code == 0
        responses.append(json.loads(out))
    assert responses[0] == responses[1] == responses[2]


@pytest.mark.parametrize("fields", [
    {"syndrome": 101, "decoder": "bp"},
    {"syndrome": "0000", "decoder": 7},
    {"syndrome": "0000", "decoder": "bp", "cfg": ["order"]},
    {"syndrome": "0000", "decoder": "bp", "cfg": {"iterations": [1]}},
    {"syndrome": "0000", "decoder": "bp", "cfg": {"iterations": 2.9}},
    {"syndrome": "0000", "decoder": "bp", "cfg": {"iterations": "3"}},
    {"syndrome": "0000", "decoder": "bposd", "cfg": {"order": True}},
    {"syndrome": "0000", "decoder": "bposd", "cfg": {"order": 1.7}},
    {"syndrome": "0000", "decoder": "bp", "cfg": {"variant": 1}},
    {"syndrome": "0000", "decoder": "bposd", "cfg": {"order": -1}},
])
def test_decode_non_string_fields_exit_one(tmp_path, capsys, fields):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    req = write_request(tmp_path, problem, **fields)
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1
    assert err.startswith("error:")


def test_decode_refuses_a_code_file(tmp_path, capsys):
    run(capsys, "build-code", "surface", "2", "--out", str(tmp_path / "s2.json"))
    req = tmp_path / "request.json"
    req.write_text(json.dumps({"problem": "s2.json", "syndrome": "0000",
                               "decoder": "bp"}))
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1
    assert err.startswith("error:") and "names a code, not a decoding problem" in err


@pytest.mark.parametrize("key", ["H", "L", "prior"])
def test_decode_descriptor_missing_a_file_exits_one(tmp_path, capsys, key):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    req = write_request(tmp_path, problem, syndrome="0000", decoder="bp")
    descriptor = tmp_path / "problem.json"
    doc = json.loads(descriptor.read_text())
    del doc[key]
    descriptor.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("decoder", ["bposd", "mld"])
def test_decode_nan_prior_exits_one(tmp_path, capsys, decoder):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    req = write_request(tmp_path, problem, syndrome="1000", decoder=decoder)
    (tmp_path / "problem.prior.csv").write_text("nan\n" * 5)
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1
    assert err.startswith("error:") and "[0, 0.5]" in err


@pytest.mark.parametrize("entry", ["9", "-1"])
def test_decode_alist_row_index_out_of_range_exits_one(tmp_path, capsys, entry):
    problem = classical_problem(build_code("repetition 5"), 0.1)
    req = write_request(tmp_path, problem, syndrome="0000", decoder="bp")
    alist = tmp_path / "problem.h.alist"
    lines = alist.read_text().splitlines()
    lines[4] = " ".join([entry] + lines[4].split()[1:])  # column 0's first row
    alist.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "decode", str(req))
    assert code == 1
    assert err.startswith("error:")


BENCH_CFG = """\
# toy sweep
code = repetition 5
noise = bsc
decoder = bp+osd 1
rates = 0.05, 0.1
trials = 150
seed = 3
"""


def test_benchmark_stdout_csv(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG)
    code, out, _ = run(capsys, "benchmark", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rate,trials,failures,ler,ci_low,ci_high,mean_iters,seconds"
    assert len(lines) == 3


def test_benchmark_bsc_on_an_alist_with_redundant_checks(tmp_path, capsys):
    # the 3-cycle code: checks 12/23/13, any one of them redundant
    alist = tmp_path / "cycle3.alist"
    write_alist(F2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), alist)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG.replace("repetition 5", f"problem {alist}"))
    code, out, err = run(capsys, "benchmark", str(cfg))
    assert code == 0, err
    assert len(out.strip().split("\n")) == 3


def mask_seconds(csv_doc: str) -> str:
    rows = [line.split(",") for line in csv_doc.strip().split("\n")]
    return "\n".join(",".join(row[:-1]) for row in rows)


def test_benchmark_same_seed_identical_output(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG)
    texts = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code, _, _ = run(capsys, "benchmark", str(cfg), "--out", str(out))
        assert code == 0
        texts.append(out.read_text())
    # wall time is the only physically nondeterministic column
    assert mask_seconds(texts[0]) == mask_seconds(texts[1])


def test_benchmark_seed_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG)
    _, base, _ = run(capsys, "benchmark", str(cfg))
    _, same, _ = run(capsys, "benchmark", str(cfg), "--seed", "3")
    _, other, _ = run(capsys, "benchmark", str(cfg), "--seed", "4", "--threads", "2")
    assert mask_seconds(base) == mask_seconds(same)
    assert mask_seconds(base) != mask_seconds(other)


def test_benchmark_negative_seed_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG)
    code, out, err = run(capsys, "benchmark", str(cfg), "--seed", "-1")
    assert code == 1 and not out
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


def test_benchmark_trials_beyond_one_spawn_key_word_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG.replace("trials = 150", f"trials = {2**32}"))
    code, out, err = run(capsys, "benchmark", str(cfg))
    assert code == 1 and not out
    assert err.startswith("error:") and "trials" in err and "Traceback" not in err


def test_benchmark_repeated_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG + "seed = 4\n")  # BENCH_CFG sets seed = 3
    lineno = len(BENCH_CFG.splitlines()) + 1
    code, out, err = run(capsys, "benchmark", str(cfg))
    assert code == 1 and not out
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{cfg}:{lineno}: repeated key 'seed'" in err


def test_benchmark_json_output(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_CFG)
    out = tmp_path / "res.json"
    code, _, _ = run(capsys, "benchmark", str(cfg), "--format", "json",
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["code"] == "repetition 5"
    assert len(doc["records"]) == 2

    code, _, err = run(capsys, "benchmark", str(cfg), "--format", "json")
    assert code == 1 and "--out" in err


def test_benchmark_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "benchmark", str(tmp_path / "absent.cfg"))
    assert code == 1


# -- boundary fuzz ------------------------------------------------------------

FILE_TOKENS = {"r.alist", "s.json", "f.json", "p.json", "q.json", "absent.json"}
CLASSICAL_SPECS = [["hamming"], ["repetition", "3"], ["problem", "r.alist"]]
OTHER_SPECS = [["fivequbit"], ["surface", "2"], ["surface", "3"], ["problem", "s.json"],
               ["problem", "f.json"], ["problem", "p.json"], ["problem", "q.json"]]
BAD_TOKENS = ["x", "0", "1", "repetition", "hgp", "problem", "absent.json"]
MUTATION_TOKENS = ["0", "1", "9", "-1", " ", "\n", "{", "}", "[]", '"', ",", ":",
                   "nan", "x", "null", "QX"]


def _concat(parts):
    return [tok for part in parts for tok in part]


def _often(valid, rare):
    """Draws from valid about four times as often as from rare."""
    return st.sampled_from(list(valid) * 4 + list(rare))


def _edit_spec(spec, where, drop, token):
    i = int(where * len(spec))
    if drop and len(spec) > 1:  # an empty spec is an argparse usage error
        return spec[:i] + spec[i + 1:]
    return spec[:i] + [token] + spec[i:]


classical = st.recursive(
    st.sampled_from(CLASSICAL_SPECS),
    lambda inner: st.tuples(st.just(["transpose"]), inner).map(_concat),
    max_leaves=2)
operand = _often(CLASSICAL_SPECS, OTHER_SPECS) | classical
grammar_specs = st.one_of(
    st.sampled_from(CLASSICAL_SPECS + OTHER_SPECS),
    st.tuples(st.just(["transpose"]), operand).map(_concat),
    st.tuples(st.just(["hgp"]), operand, operand).map(_concat))
# a spec from the grammar, sometimes with one token dropped or one bad token added
specs = st.tuples(grammar_specs, st.none() | st.tuples(
    st.floats(0.0, 1.0), st.booleans(), st.sampled_from(BAD_TOKENS))).map(
    lambda t: t[0] if t[1] is None else _edit_spec(t[0], *t[1]))


configs = st.fixed_dictionaries({
    "noise": _often(["bsc", "xzy", "split-xz", "generic"], ["erasure"]),
    "decoder": _often(["bp", "bposd 1", "bp+osd", "mwd", "mld"], ["osd", "bp+osd x"]),
    "rates": _often(["0.1", "0.05, 0.2"], ["0.7", "x", ""]),
    "trials": _often(["3"], ["0", "x"]),
}, optional={
    "max_seconds": _often(["inf", "5"], ["nan", "0"]),
    "bp_iterations": _often(["4"], ["0", "x"]),
    "bp_variant": _often(["min-sum", "sum-product"], ["max-product"]),
    "seed": _often(["1", "7"], ["-1"]),
})
requests = st.fixed_dictionaries({
    "problem": _often(["p.json", "q.json"], ["s.json", "r.alist", "absent.json"]),
    "syndrome": _often(["00", "10", "11", "0000", "1010", "0110"], ["1", 5]),
    "decoder": _often(["bp", "bposd", "bp+osd 1", "mwd", "mld"], ["nope"]),
}, optional={"cfg": _often([{"order": 1}, {"iterations": 3}, {}],
                           [{"iterations": 0}, {"variant": "x"}, [1]])})
commands = st.one_of(
    st.tuples(st.sampled_from(["build-code", "sample-bsc", "sample-xzy", "foliate"]),
              specs, st.none()),
    st.tuples(st.just("benchmark"), specs, configs),
    st.tuples(st.just("decode"), st.just([]), requests),
)
mutations = st.none() | st.tuples(
    st.sampled_from(["r.alist", "s.json", "s.hx.alist", "f.json", "p.json",
                     "p.h.alist", "p.prior.csv", "q.json", "q.l.alist", "c.cfg",
                     "req.json"]),
    st.sampled_from(["delete", "insert", "replace"]),
    st.floats(0.0, 1.0),
    st.integers(1, 4),
    st.sampled_from(MUTATION_TOKENS),
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Valid inputs for every command: what build-code and save_problem write."""
    base = tmp_path_factory.mktemp("fuzz")
    for spec, name in (("repetition 3", "r.alist"), ("surface 2", "s.json"),
                       ("fivequbit", "f.json")):
        assert cli_main(["build-code", *spec.split(), "--out", str(base / name)]) == 0
    save_problem(classical_problem(build_code("repetition 3"), 0.1), base / "p.json")
    save_problem(depolarizing_problem(build_code("surface 2"), 0.1, "xzy"),
                 base / "q.json")
    return {path.name: path.read_text() for path in base.iterdir()}


def write_case(d, files, command):
    """Write the inputs of one case into d and return its argv."""
    for name, text in files.items():
        (d / name).write_text(text)
    kind, spec, fields = command
    spec = [str(d / tok) if tok in FILE_TOKENS else tok for tok in spec]
    (d / "c.cfg").write_text(f"code = {' '.join(spec)}\n" + "".join(
        f"{key} = {value}\n" for key, value in (fields or {}).items()
        if kind == "benchmark"))
    (d / "req.json").write_text(json.dumps(fields if kind == "decode" else {}))
    out = str(d / "out.json")
    return {
        "build-code": ["build-code", *spec, "--out", out],
        "sample-bsc": ["sample", *spec, "--noise", "bsc", "--rate", "0.1",
                       "--trials", "2"],
        "sample-xzy": ["sample", *spec, "--noise", "xzy", "--rate", "0.1",
                       "--trials", "2"],
        "foliate": ["foliate", *spec, "--layers", "2", "--out", out],
        "benchmark": ["benchmark", str(d / "c.cfg"), "--format", "json",
                      "--out", out],
        "decode": ["decode", str(d / "req.json")],
    }[kind]


def mutate(path, op, where, length, token):
    text = path.read_text()
    i = int(where * len(text))
    if op == "delete":
        text = text[:i] + text[i + length:]
    elif op == "insert":
        text = text[:i] + token + text[i:]
    else:
        text = text[:i] + token + text[i + length:]
    path.write_text(text)


@settings(max_examples=200)
@given(command=commands, mutation=mutations)
@example(command=("build-code", ["transpose", "surface", "3"], None), mutation=None)
@example(command=("build-code", ["hgp", "fivequbit", "hamming"], None), mutation=None)
@example(command=("benchmark", ["problem", "s.json"],
                  {"noise": "xzy", "decoder": "bp", "rates": "0.1", "trials": "3",
                   "max_seconds": "nan"}), mutation=None)
def test_cli_boundary_fuzz(fuzz_files, tmp_path_factory, command, mutation):
    """Mutated specs, files, configs and requests never escape as exceptions."""
    d = tmp_path_factory.mktemp("case")
    argv = write_case(d, fuzz_files, command)
    if mutation is not None:
        mutate(d / mutation[0], *mutation[1:])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli_main(argv)
    assert status in (0, 1, 2)
    if status:
        lines = err.getvalue().splitlines()
        assert lines and all(line.startswith("error:") for line in lines), lines
