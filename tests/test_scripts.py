"""The scripts under scripts/ and the ``python -m qecbench`` round trip
run to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qecbench.bench import build_code

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=300)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


@pytest.mark.parametrize("name, args", [
    ("decoder_comparison.py", ["--trials", "50"]),
    ("mld_gap.py", ["--code", "422"]),
])
def test_script_exits_zero(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_threshold_sweep_writes_csv(tmp_path):
    proc = run_script("threshold_sweep.py", "--sides", "2", "--trials", "20",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "surface_2.csv").read_text().startswith("rate,")


def qecbench(*args):
    proc = run_python("-m", "qecbench", *args)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


def benchmark_rows(tmp_path, code, noise):
    """CSV rows of a small seeded sweep, without the wall-time column."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"code = {code}\nnoise = {noise}\ndecoder = bp+osd 1\n"
                   "rates = 0.05, 0.1\ntrials = 40\nseed = 4\n")
    lines = qecbench("benchmark", str(cfg)).stdout.strip().splitlines()
    assert lines[0].endswith(",seconds") and len(lines) == 3
    return [line.rsplit(",", 1)[0] for line in lines]


@pytest.mark.parametrize("spec, out, noises", [
    ("repetition 5", "r5.alist", ["bsc"]),
    ("hamming", "hamming.alist", ["bsc"]),
    ("surface 3", "s3.json", ["split-xz", "xzy"]),
    ("hgp hamming transpose hamming", "hgp.json", ["split-xz", "xzy"]),
], ids=["repetition 5", "hamming", "surface 3", "hgp hamming transpose hamming"])
def test_build_code_output_benchmarks_like_its_spec(tmp_path, spec, out, noises):
    path = tmp_path / out
    qecbench("build-code", *spec.split(), "--out", str(path))
    for noise in noises:
        direct = benchmark_rows(tmp_path, spec, noise)
        assert direct == benchmark_rows(tmp_path, f"problem {path}", noise)
    if spec.startswith("hgp"):
        # the [[58,16]] code fails often enough that equal rows say something
        assert any(row.split(",")[2] != "0" for row in direct[1:])


def test_stabilizer_descriptor_loads_back(tmp_path):
    path = tmp_path / "five.json"
    qecbench("build-code", "fivequbit", "--out", str(path))
    assert build_code(f"problem {path}").h == build_code("fivequbit").h
