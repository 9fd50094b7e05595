"""Exact decoder success probabilities on small degenerate codes.

Enumerates every depolarizing error pattern and computes the
syndrome-weighted success probability of the two oracle decoders.  The
gap between them is the price of ignoring degeneracy: minimum-weight
decoding commits to a single coset representative where
maximum-likelihood decoding sums over the whole class.  On the
distance-2 surface code the gap is strict; on the [[4,1,2]] code the
competing classes tie in summed mass, so the picks differ but the gap
stays zero.
"""

import argparse
import csv
import sys

import numpy as np

from qecbench.decoders import exhaustive_mld, exhaustive_mwd
from qecbench.f2 import F2Matrix, span_blocks
from qecbench.homology import surface_code
from qecbench.noise import depolarizing_problem
from qecbench.quantum import css_code, four_two_two_checks


def exact_rates(problem):
    h_dense = problem.h.to_dense()
    l_dense = problem.l.to_dense()
    # the span of the identity rows is every error pattern, in counting order
    errors = np.concatenate(list(span_blocks(F2Matrix.identity(problem.h.cols))))
    p = problem.prior.p
    probs = np.prod(np.where(errors == 1, p, 1.0 - p), axis=1)
    syndromes = errors @ h_dense.T % 2
    classes = errors @ l_dense.T % 2
    mld = mwd = 0.0
    for s in np.unique(syndromes, axis=0):
        mask = (syndromes == s).all(axis=1)
        hit = probs * mask
        mld += hit[(classes == exhaustive_mld(problem, s)).all(axis=1)].sum()
        cls = problem.l.matvec(exhaustive_mwd(problem, s))
        mwd += hit[(classes == cls).all(axis=1)].sum()
    return mld, mwd


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--code", choices=("surface2", "422"), default="surface2")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3])
    parser.add_argument("--out", help="CSV path (stdout table when omitted)")
    args = parser.parse_args()

    code = surface_code(2) if args.code == "surface2" else css_code(
        *four_two_two_checks())
    rows = []
    for p in args.rates:
        problem = depolarizing_problem(code, p, "xzy")
        mld, mwd = exact_rates(problem)
        rows.append((p, mld, mwd, mld - mwd))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["p", "mld_success", "mwd_success", "gap"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["p", "mld_success", "mwd_success", "gap"])
        for row in rows:
            writer.writerow([f"{v:.10g}" for v in row])


if __name__ == "__main__":
    main()
