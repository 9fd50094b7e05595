"""Correctness checks that recompute the decoders' answers outside them.

Each check returns a list of problems; an empty list means it passed.
Scoring is redone here with dense numpy products, so a fault in the
packed GF(2) arithmetic or in ``success`` cannot hide itself.
"""

from __future__ import annotations

import numpy as np

from qecbench.decoders import osd0

from mld_reference import MldReference, binomial_tail

# a failure count this unlikely under the exact reference is a fault
REFERENCE_ALPHA = 1e-6


def _dense(matrix, cache: dict) -> np.ndarray:
    key = id(matrix)
    if key not in cache:
        cache[key] = (matrix, matrix.to_dense().astype(np.int64))
    return cache[key][1]


def _times(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (matrix @ np.asarray(v, dtype=np.int64)) & 1


def soft_weight(c: np.ndarray, soft: np.ndarray) -> float:
    """The cost osd_w minimises: total |soft| over the flipped bits."""
    return float(np.abs(np.asarray(soft, dtype=np.float64))[np.asarray(c) == 1].sum())


def rescored_failures(tracer, trials: int) -> tuple[int, list[str]]:
    """Failing trials recounted from the captured decoder outputs.

    Non-MLD trials pass through ``success(c, e, problem)``: valid means
    H(c+e) = 0, success means valid and L(c+e) = 0, and a trial fails
    when any of its calls fails.  MLD trials return a logical class,
    which fails when it differs from L e for the trial's fault vector.
    """
    dense: dict = {}
    failed: set[int] = set()
    seen: set[int] = set()
    for trial, (c, e, problem), _ in tracer.captures["decoders.success"]:
        seen.add(trial)
        residual = (np.asarray(c, dtype=np.int64) + np.asarray(e, dtype=np.int64)) & 1
        valid = not _times(_dense(problem.h, dense), residual).any()
        if not (valid and not _times(_dense(problem.l, dense), residual).any()):
            failed.add(trial)
    errors = {trial: e for trial, _, e in tracer.captures["noise.fault_vector"]}
    for trial, (problem, _), winner in tracer.captures["decoders.mld"]:
        seen.add(trial)
        if not np.array_equal(winner, _times(_dense(problem.l, dense), errors[trial])):
            failed.add(trial)
    problems = []
    if len(seen) != trials:
        problems.append(f"captured outputs of {len(seen)} trials, expected {trials}")
    return len(failed), problems


def osd_outputs_valid(tracer) -> list[str]:
    """Every bp_osd correction c satisfies H c = s."""
    dense: dict = {}
    problems = []
    for trial, (problem, s, *_), result in tracer.captures["decoders.bp_osd"]:
        if not np.array_equal(_times(_dense(problem.h, dense), result.correction), s):
            problems.append(f"trial {trial}: bp_osd correction misses the syndrome")
    return problems


def osd_order_holds(tracer) -> list[str]:
    """Each osd_w result weighs at most what osd0 returns on its inputs.

    The order-w sweep includes the weight-0 candidate, which is the
    osd0 solution, so the sweep's best can only be lighter.
    """
    problems = []
    for trial, (h, s, soft, w), c in tracer.captures["decoders.osd"]:
        best, zero = soft_weight(c, soft), soft_weight(osd0(h, s, soft), soft)
        if best > zero:
            problems.append(f"trial {trial}: osd_w order {w} weight {best} > osd0 {zero}")
    return problems


def mld_matches_reference(tracer, reference: MldReference) -> list[str]:
    """Each exhaustive_mld class is a winning class of its syndrome."""
    problems = []
    for trial, (_, s), winner in tracer.captures["decoders.mld"]:
        syndrome = int(np.asarray(s, dtype=np.int64) @ (1 << np.arange(len(s))))
        cls = int(np.asarray(winner, dtype=np.int64) @ (1 << np.arange(len(winner))))
        if cls not in reference.winners[syndrome]:
            problems.append(f"trial {trial}: class {cls} does not win syndrome {syndrome}")
    return problems


def failures_within_reference(failures: int, trials: int,
                              reference: MldReference) -> list[str]:
    """The failure count is not in a REFERENCE_ALPHA binomial tail."""
    low = binomial_tail(failures, trials, reference.p_low, upper=False)
    high = binomial_tail(failures, trials, reference.p_high, upper=True)
    if low < REFERENCE_ALPHA or high < REFERENCE_ALPHA:
        return [f"{failures} failures in {trials} trials: tail probability "
                f"{min(low, high):.3g} against P_fail in "
                f"[{reference.p_low:.6f}, {reference.p_high:.6f}]"]
    return []
