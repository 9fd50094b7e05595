"""The scripts under scripts/ run to completion at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


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
