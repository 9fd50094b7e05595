"""Code and problem files: every writer, and one loader for all of them.

Classical codes are MacKay alist files.  CSS codes, stabilizer codes
and decoding problems are JSON descriptors; their matrices live in
alist sidecars named relative to the descriptor, and a problem's prior
in a one-value-per-line text file.  ``load`` reads back every file the
``save_*`` writers and ``build-code`` produce; the foliation export is
an output for other tools and is not read back.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classical import LinearCode, linear_code
from .errors import CapacityExceeded, QecError
from .f2 import from_alist, read_alist, write_alist
from .graphstate import FoliatedState, detectors
from .noise import DecodingProblem, Prior, decoding_problem
from .pauli import PauliOperator
from .quantum import CssCode, StabilizerCode, css_code, stabilizer_code


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def save_problem(problem: DecodingProblem, json_path) -> None:
    """JSON descriptor with sibling alist files for H, L and a prior CSV."""
    json_path = Path(json_path)
    h_path = json_path.with_suffix(".h.alist")
    l_path = json_path.with_suffix(".l.alist")
    p_path = json_path.with_suffix(".prior.csv")
    write_alist(problem.h, h_path)
    write_alist(problem.l, l_path)
    np.savetxt(p_path, problem.prior.p, fmt="%.17g")
    _write_json({"H": h_path.name, "L": l_path.name, "prior": p_path.name},
                json_path)


def save_css_code(css: CssCode, json_path, name: str = "css") -> None:
    """JSON descriptor with sibling alist files for Hx and Hz."""
    json_path = Path(json_path)
    hx_path = json_path.with_suffix(".hx.alist")
    hz_path = json_path.with_suffix(".hz.alist")
    write_alist(css.hx, hx_path)
    write_alist(css.hz, hz_path)
    _write_json({"name": name, "n": css.n, "k": css.k,
                 "H_X": hx_path.name, "H_Z": hz_path.name}, json_path)


def save_stabilizer_code(code: StabilizerCode, path) -> None:
    """JSON descriptor listing the generators as signed Pauli strings."""
    gens = [code.generator(i).to_string() for i in range(code.h.rows)]
    _write_json({"n": code.n, "k": code.k, "generators": gens}, path)


def save_foliation(state: FoliatedState, json_path) -> dict:
    """Write and return the graph JSON: labelled vertices, edges, detectors, logical supports."""
    doc = {
        "vertices": [
            {"id": v, "layer": state.layer_of[v], "kind": state.kind_of[v],
             "parity": state.parity[v]}
            for v in range(state.n_vertices)
        ],
        "edges": [[u, v] for u, v in state.edges],
        "detectors": [sorted(d) for d in detectors(state)],
        "logical_supports": [sorted(s) for s in state.logical_supports],
    }
    _write_json(doc, json_path)
    return doc


def load(path) -> LinearCode | CssCode | StabilizerCode | DecodingProblem:
    """Read any file the writers produce.

    A file whose first non-blank character is ``{`` is a JSON
    descriptor: ``H``/``L``/``prior`` name a decoding problem,
    ``H_X``/``H_Z`` a CSS code and ``generators`` a stabilizer code.
    Any other file is an alist holding a classical check matrix.
    Malformed content raises ValueError prefixed with the path; a matrix
    above f2.DENSE_BYTES raises CapacityExceeded, so the CLI exits 2.
    """
    path = Path(path)
    try:
        text = path.read_text()
        if not text.lstrip().startswith("{"):
            return linear_code(from_alist(text))
        return _from_descriptor(path, json.loads(text))
    except CapacityExceeded as err:
        raise CapacityExceeded(f"{path}: {err}") from err
    except (ValueError, QecError) as err:
        raise ValueError(f"{path}: {err}") from err


def _files(path: Path, doc: dict, kind: str, keys: tuple[str, ...]) -> list[Path]:
    if not all(isinstance(doc.get(key), str) for key in keys):
        names = ", ".join(repr(key) for key in keys)
        raise ValueError(f"a {kind} descriptor needs file names under {names}")
    return [path.parent / doc[key] for key in keys]


def _read(file: Path, parse):
    """parse(file), naming the sidecar in any ValueError it raises."""
    try:
        return parse(file)
    except ValueError as err:
        raise ValueError(f"{file.name}: {err}") from err


def _read_prior(file: Path) -> Prior:
    return Prior(np.array([float(tok) for tok in file.read_text().split()]))


def _check_parameters(doc: dict, code) -> None:
    # the stored n and k are outside input; they must match what was built
    if (doc.get("n"), doc.get("k")) != (code.n, code.k):
        raise ValueError(f"descriptor says n={doc.get('n')!r}, k={doc.get('k')!r}"
                         f" but the stored code is [[{code.n},{code.k}]]")


def _from_descriptor(path: Path, doc):
    if not isinstance(doc, dict):
        raise ValueError("a descriptor must be a JSON object")
    if "generators" in doc:
        gens = doc["generators"]
        if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
            raise ValueError("'generators' must be a list of Pauli strings")
        code = stabilizer_code([PauliOperator.from_string(g) for g in gens])
        _check_parameters(doc, code)
        return code
    if "H_X" in doc or "H_Z" in doc:
        files = _files(path, doc, "CSS", ("H_X", "H_Z"))
        code = css_code(*(_read(f, read_alist) for f in files))
        _check_parameters(doc, code)
        return code
    h_file, l_file, p_file = _files(path, doc, "problem", ("H", "L", "prior"))
    return decoding_problem(_read(h_file, read_alist), _read(l_file, read_alist),
                            _read(p_file, _read_prior))
