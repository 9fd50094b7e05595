"""Exact failure probability of maximum-likelihood decoding on surface 2.

Computed from the code's check and logical matrices alone, without any
qecbench decoder:

1. Every fault pattern f over the 3n X/Z/Y columns of the ``xzy``
   layout gets its prior probability under the decoder's model
   (independent faults, p/3 per column), its syndrome and its logical
   class.  Summing per (syndrome, class) gives the class sums an MLD
   decoder maximises; the winning classes of a syndrome are those
   whose sum lies within TIE_RTOL of the largest (ties are real here:
   the code has distance 2, so some syndromes split evenly).
2. Every one of the 4^n Pauli errors gets its probability under the
   true depolarizing channel (identity 1-p, X/Y/Z p/3 each).  An error
   fails when its class differs from the one the decoder picks for its
   syndrome.  On a tied syndrome the pick may be any winning class, so
   the reference is an interval [p_low, p_high]: the failure
   probability with the most and the least favourable pick.

Run ``python3 mcbench/mld_reference.py`` from the repository root to
print the reference for the surface2-xzy-mld workload's code and rate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TIE_RTOL = 1e-9


def _bits(count: int, width: int) -> np.ndarray:
    return ((np.arange(count)[:, None] >> np.arange(width)) & 1).astype(np.int64)


def _index(bits: np.ndarray) -> np.ndarray:
    return bits @ (1 << np.arange(bits.shape[1]))


@dataclass(frozen=True)
class MldReference:
    """Winning classes per syndrome and the exact failure interval.

    Syndromes list the hz checks (X faults) before the hx checks (Z
    faults); class bits are (lx . z, lz . x), the row order of the
    ``xzy`` problem's logical matrix.
    """

    rate: float
    winners: tuple[frozenset[int], ...]  # indexed by syndrome integer
    p_low: float
    p_high: float


def _syndrome_and_class(x, z, hx, hz, lx, lz):
    syndrome = np.concatenate([(x @ hz.T) & 1, (z @ hx.T) & 1], axis=1)
    logical = np.concatenate([(z @ lx.T) & 1, (x @ lz.T) & 1], axis=1)
    return _index(syndrome), _index(logical)


def mld_reference(code, rate: float) -> MldReference:
    """Exact reference for ``code`` (a small CssCode) at depolarizing rate."""
    hx, hz, lx, lz = (m.to_dense().astype(np.int64)
                      for m in (code.hx, code.hz, code.lx, code.lz))
    n = code.n
    n_syndromes = 1 << (hx.shape[0] + hz.shape[0])
    n_classes = 1 << (lx.shape[0] + lz.shape[0])

    faults = _bits(1 << (3 * n), 3 * n)
    fx, fz, fy = faults[:, :n], faults[:, n:2 * n], faults[:, 2 * n:]
    syn, cls = _syndrome_and_class(fx ^ fy, fz ^ fy, hx, hz, lx, lz)
    q = rate / 3.0
    weight = faults.sum(axis=1)
    prior = q ** weight * (1.0 - q) ** (3 * n - weight)
    sums = np.zeros((n_syndromes, n_classes))
    np.add.at(sums, (syn, cls), prior)
    top = sums.max(axis=1, keepdims=True)
    winning = sums >= top * (1.0 - TIE_RTOL)

    # each qubit: 0 = I, 1 = X, 2 = Z, 3 = Y
    paulis = (np.arange(4 ** n)[:, None] // 4 ** np.arange(n)) % 4
    x = ((paulis == 1) | (paulis == 3)).astype(np.int64)
    z = ((paulis == 2) | (paulis == 3)).astype(np.int64)
    hits = (paulis != 0).sum(axis=1)
    truth = (rate / 3.0) ** hits * (1.0 - rate) ** (n - hits)
    syn, cls = _syndrome_and_class(x, z, hx, hz, lx, lz)
    mass = np.zeros((n_syndromes, n_classes))
    np.add.at(mass, (syn, cls), truth)

    p_low = p_high = 0.0
    for s in range(n_syndromes):
        total = mass[s].sum()
        fails = [total - mass[s, c] for c in np.nonzero(winning[s])[0]]
        p_low += min(fails)
        p_high += max(fails)
    winners = tuple(frozenset(int(c) for c in np.nonzero(row)[0]) for row in winning)
    return MldReference(rate=rate, winners=winners, p_low=p_low, p_high=p_high)


def _log_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P[X >= k] (upper) or P[X <= k] for X ~ Binomial(n, p), 0 < p < 1."""
    ks = range(k, n + 1) if upper else range(0, k + 1)
    logs = [_log_pmf(j, n, p) for j in ks]
    if not logs:
        return 0.0
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from measure import WORKLOADS
    from qecbench.bench import build_code

    workload = WORKLOADS["surface2-xzy-mld"]
    ref = mld_reference(build_code(workload.code), workload.rate)
    print(f"{workload.code}, {workload.noise}, p={workload.rate}")
    for s, classes in enumerate(ref.winners):
        tie = " (tie)" if len(classes) > 1 else ""
        print(f"  syndrome {s:2d}: winning classes {sorted(classes)}{tie}")
    print(f"P_fail in [{ref.p_low:.6f}, {ref.p_high:.6f}]")


if __name__ == "__main__":
    main()
