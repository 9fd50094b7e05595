"""The one loader for code and problem files: old problem files and malformed input."""

import numpy as np
import pytest

from qecbench.bench import build_code
from qecbench.cli import cli_main
from qecbench.descriptors import load
from qecbench.noise import DecodingProblem, classical_problem

REPETITION3_ALIST = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"


def test_problem_descriptor_as_written_before_loads(tmp_path):
    # byte for byte what save_problem wrote for classical_problem(repetition 3, 0.1)
    (tmp_path / "old.json").write_text(
        '{\n  "H": "old.h.alist",\n  "L": "old.l.alist",\n'
        '  "prior": "old.prior.csv"\n}\n')
    (tmp_path / "old.h.alist").write_text(REPETITION3_ALIST)
    (tmp_path / "old.l.alist").write_text("3 1\n1 1\n0 0 1\n1\n0\n0\n1\n3\n")
    (tmp_path / "old.prior.csv").write_text("0.10000000000000001\n" * 3)
    problem = load(tmp_path / "old.json")
    want = classical_problem(build_code("repetition 3"), 0.1)
    assert isinstance(problem, DecodingProblem)
    assert problem.h == want.h and problem.l == want.l
    assert np.array_equal(problem.prior.p, want.prior.p)


SIDECARS = {"h.alist": REPETITION3_ALIST, "bad.alist": "3 2\n1 2\n",
            "p.csv": "0.1\n0.1\n0.1\n", "bad.csv": "0.1\n0.x\n0.1\n"}


@pytest.mark.parametrize("text, message", [
    ("garbage\n", "truncated alist"),
    ("[1, 2]\n", "truncated alist"),
    ("3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 9\n", "inconsistent"),
    ("{", "Expecting property name"),
    ("  {}", "needs file names under 'H', 'L', 'prior'"),
    ('{"H": "h.alist", "L": "h.alist"}', "'prior'"),
    ('{"H": "bad.alist", "L": "h.alist", "prior": "p.csv"}', "bad.alist: truncated"),
    ('{"H": "h.alist", "L": "h.alist", "prior": "bad.csv"}', "bad.csv: could not"),
    ('{"H_X": "h.alist"}', "needs file names under 'H_X', 'H_Z'"),
    ('{"H_X": "h.alist", "H_Z": "bad.alist", "n": 3, "k": 1}', "bad.alist:"),
    ('{"H_X": "h.alist", "H_Z": "h.alist", "n": 3, "k": 1}', "Hx Hz^T != 0"),
    ('{"generators": "XX"}', "list of Pauli strings"),
    ('{"generators": ["XQ"], "n": 2, "k": 1}', "not a Pauli string"),
    ('{"generators": ["XX", "ZZ"], "n": 3, "k": 0}', "n=3, k=0"),
    ('{"generators": ["XX", "ZI"], "n": 2, "k": 0}', "do not mutually commute"),
    ('{"generators": ["XX", "ZZ"]}', "n=None"),
])
def test_malformed_file_exits_one_naming_its_path(tmp_path, capsys, text, message):
    for name, body in SIDECARS.items():
        (tmp_path / name).write_text(body)
    path = tmp_path / "code.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + str(path).replace("\\", "\\\\")):
        load(path)
    assert cli_main(["build-code", "problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err

