"""Command-line front end.

Five subcommands cover the workbench surface: ``build-code`` writes
check matrices that the ``problem PATH`` spec reads back, ``foliate``
exports measurement graphs with their detector sets, ``sample`` draws
the faults of benchmark trials, ``decode`` answers a one-shot request and
``benchmark`` sweeps physical rates from a config file.  Exit status
is 0 on success, 1 on usage or input errors and 2 when a capacity
guard trips or a syndrome is unsatisfiable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (build_code, csv_text, decode, parse_decoder, read_config,
                    run_benchmark, sample_trials, write_json)
from .classical import LinearCode
from .decoders import BpConfig, exhaustive_mld
from .descriptors import load, save_css_code, save_foliation, save_stabilizer_code
from .errors import CapacityExceeded, NoSolution, QecError, Unsatisfiable
from .f2 import to_alist, vstack
from .graphstate import foliate
from .noise import DecodingProblem
from .pauli import PauliOperator
from .quantum import CssCode, StabilizerCode


def _bits_from_string(text: str, expect: int, what: str) -> np.ndarray:
    text = text.strip()
    if len(text) != expect or set(text) - {"0", "1"}:
        raise ValueError(f"{what} must be a string of {expect} 0/1 characters")
    return np.array([int(c) for c in text], dtype=np.uint8)


def _bits_to_string(vec: np.ndarray) -> str:
    return "".join(str(int(b)) for b in vec)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# -- build-code ----------------------------------------------------------


def _cmd_build_code(args: argparse.Namespace) -> int:
    spec = " ".join(args.spec)
    code = build_code(spec)
    if isinstance(code, LinearCode):
        _emit(to_alist(code.h), args.out)
        if args.out is not None:
            print(f"[{code.n},{code.k}] check matrix -> {args.out}")
        return 0
    if not isinstance(code, (CssCode, StabilizerCode)):
        raise ValueError(f"'{spec}' names a decoding problem, not a code")
    if args.out is None:
        raise ValueError("stabilizer codes write a JSON descriptor; pass --out")
    if isinstance(code, CssCode):
        save_css_code(code, Path(args.out), name=spec)
        print(f"[[{code.n},{code.k}]] hx {code.hx.rows}x{code.hx.cols}"
              f" hz {code.hz.rows}x{code.hz.cols} -> {args.out}")
        return 0
    save_stabilizer_code(code, Path(args.out))
    print(f"[[{code.n},{code.k}]] {code.h.rows} generators -> {args.out}")
    return 0


# -- foliate ---------------------------------------------------------------


def _cmd_foliate(args: argparse.Namespace) -> int:
    code = build_code(" ".join(args.spec))
    if not isinstance(code, CssCode):
        raise ValueError("foliation needs a CSS code")
    state = foliate(code, args.layers)
    doc = save_foliation(state, Path(args.out))
    print(f"{state.n_vertices} vertices, {len(state.edges)} edges,"
          f" {len(doc['detectors'])} detectors,"
          f" {len(state.logical_supports)} logical supports -> {args.out}")
    return 0


# -- sample ----------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    code = build_code(" ".join(args.spec))
    if not 0.0 < args.rate <= 0.5:
        raise ValueError("rate must lie in (0, 0.5]")
    if not 1 <= args.trials < 2**32:  # a trial's spawn-key word is one uint32
        raise ValueError("trials must be in [1, 2**32)")
    bsc = args.noise == "bsc"
    if not isinstance(code, LinearCode if bsc else CssCode):
        raise ValueError(f"{args.noise} sampling needs a {'classical' if bsc else 'CSS'} code")
    blocks = sample_trials(args.noise, code.n, args.rate, args.seed, args.trials)
    draws = ([_bits_to_string(f) for b in blocks for f in b] if bsc else
             [PauliOperator(x, z).to_string() for b in blocks for x, z in zip(*b)])
    doc = {"code": " ".join(args.spec), "noise": args.noise, "rate": args.rate,
           "trials": args.trials, "seed": args.seed, "draws": draws}
    _emit(json.dumps(doc, indent=1) + "\n", args.out)
    return 0


# -- decode ----------------------------------------------------------------


def _decode_cfg(raw: dict, order: int) -> tuple[BpConfig, int]:
    """Translate the request's cfg block; unknown keys are an error and
    ``order`` overrides the decoder spec's order."""
    if not isinstance(raw, dict):
        raise ValueError("decode request 'cfg' must be a JSON object")
    types = {"iterations": int, "variant": str, "order": int}
    extra = set(raw) - set(types)
    if extra:
        raise ValueError(f"unknown decoder cfg keys: {sorted(extra)}")
    for key, value in raw.items():
        # exact types: int() would truncate 2.9, and true is an int subclass
        if type(value) is not types[key]:
            raise ValueError(f"decoder cfg '{key}' must be {types[key].__name__},"
                             f" got {value!r}")
    kwargs = {"max_iterations": raw["iterations"]} if "iterations" in raw else {}
    if "variant" in raw:
        kwargs["variant"] = raw["variant"]
    return BpConfig(**kwargs), raw.get("order", order)


def _cmd_decode(args: argparse.Namespace) -> int:
    request_path = Path(args.request)
    request = json.loads(request_path.read_text())
    if not isinstance(request, dict):
        raise ValueError("decode request must be a JSON object")
    for key in ("problem", "syndrome", "decoder"):
        if key not in request:
            raise ValueError(f"decode request is missing '{key}'")
        if not isinstance(request[key], str):
            raise ValueError(f"decode request '{key}' must be a string")
    kind, order = parse_decoder(request["decoder"])
    problem_path = Path(request["problem"])
    if not problem_path.is_absolute():
        problem_path = request_path.parent / problem_path
    problem = load(problem_path)
    if not isinstance(problem, DecodingProblem):
        raise ValueError(f"{problem_path} names a code, not a decoding problem")
    s = _bits_from_string(request["syndrome"], problem.h.rows, "syndrome")
    cfg, order = _decode_cfg(request.get("cfg", {}), order)

    if kind != "mld":
        c, converged, iterations = decode(problem, s, kind, order, cfg)
        response = {"correction": _bits_to_string(c), "converged": converged,
                    "iterations": iterations}
    else:
        cls = exhaustive_mld(problem, s)
        stacked = vstack([problem.h, problem.l])
        rhs = np.concatenate([s, cls]).astype(np.uint8)
        try:
            rep = stacked.solve_columns(range(stacked.cols), rhs)
        except NoSolution as err:
            raise Unsatisfiable("no error realizes the winning class") from err
        response = {"correction": _bits_to_string(rep), "converged": True,
                    "iterations": 0, "logical_class": _bits_to_string(cls)}
    _emit(json.dumps(response, indent=1) + "\n", args.out)
    return 0


# -- benchmark ---------------------------------------------------------------


def _cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = run_benchmark(cfg, threads=args.threads)
    if args.format == "csv":
        _emit(csv_text(result), args.out)
    else:
        if args.out is None:
            raise ValueError("json results need --out")
        write_json(result, args.out)
    if args.out is not None:
        for rec in result.records:
            print(f"p={rec.rate:g} failures={rec.failures}/{rec.trials}"
                  f" ler={rec.logical_error_rate:.3g}"
                  f" ci=[{rec.ci_low:.3g},{rec.ci_high:.3g}]")
        print(f"-> {args.out}")
    return 0


# -- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qecbench",
                                     description="decoding workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-code", help="write a code's check matrices")
    p.add_argument("spec", nargs="+",
                   help="hamming | repetition N | fivequbit | surface L |"
                        " hgp <spec> <spec> | transpose <spec> | problem PATH")
    p.add_argument("--out", help="alist (classical) or JSON descriptor path")
    p.set_defaults(func=_cmd_build_code)

    p = sub.add_parser("foliate", help="export a measurement graph")
    p.add_argument("spec", nargs="+", help="CSS code spec")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--out", required=True, help="graph JSON path")
    p.set_defaults(func=_cmd_foliate)

    p = sub.add_parser("sample", help="draw the faults of benchmark trials")
    p.add_argument("spec", nargs="+", help="code spec")
    p.add_argument("--noise", choices=("bsc", "xzy"), required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON path (stdout when omitted)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decode", help="answer a one-shot decode request")
    p.add_argument("request", help="request JSON path")
    p.add_argument("--out", help="response JSON path (stdout when omitted)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("benchmark", help="sweep rates from a config file")
    p.add_argument("config", help="flat key=value config path")
    p.add_argument("--out", help="results path (stdout CSV when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config file's seed")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted (>= 1) but unused: trials run serially")
    p.set_defaults(func=_cmd_benchmark)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (CapacityExceeded, Unsatisfiable, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))
