"""Strong-branching score vectors.

Every integer variable gets the look-ahead score built from the two LPs with
its bound floored/ceiled at the least-norm relaxation optimum; continuous
variables score 0.  An infinite score (a branching direction with an
infeasible child LP) is stored as the sentinel -1.

A child whose box on x_j holds an optimal point of the relaxation has
optimum f*, so its delta is 0 without a solve.  The optimal points known are
HiGHS's vertex, x* with entries within ``SNAP_TOL`` of an integer snapped to
it (so a variable integral at x* has deltas (0, 0)), and the optimum of each
solved child whose delta is 0; the call keeps only each variable's least and
greatest value over them.

The relaxation is solved by ``solve_lp``.  The child LPs of one call run on
one hot-started HiGHS model (``lp._ChildLps``), built for the first child
that no known point settles; ``solve`` gives a child's optimum and point,
in variable order, down child first.
No model outlives the call, so a call's output does not depend on earlier
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import MilpInstance
from .lp import LpStatus, _ChildLps, min_norm_solution, solve_lp

__all__ = ["SbScores", "ScoreRule", "PRODUCT_RULE", "UndefinedScoresError", "sb_scores"]

SNAP_TOL = 1e-9


class UndefinedScoresError(RuntimeError):
    """SB is undefined: the LP relaxation is infeasible or unbounded."""


@dataclass(frozen=True)
class ScoreRule:
    """How the down/up objective increases combine into one score.

    The product rule is the default definition; the linear rule weighs the
    down increase by mu and the up increase by 1 - mu."""

    kind: str = "product"
    mu: float = 0.5

    def combine(self, delta_down: float, delta_up: float) -> float:
        if self.kind == "product":
            return delta_down * delta_up
        if self.kind == "linear":
            return self.mu * delta_down + (1.0 - self.mu) * delta_up
        raise ValueError(f"unknown score rule {self.kind!r}")


PRODUCT_RULE = ScoreRule("product")


@dataclass(frozen=True)
class SbScores:
    """Score vector plus the relaxation facts it was derived from.

    scores[j] is >= 0, or exactly -1.0 when one of the child LPs is
    infeasible (infinite score).  deltas[j] holds the raw (down, up)
    objective increases with +inf for infeasible children.  A delta is 0,
    with no child LP solved, when a known optimal point of the relaxation
    lies in that child; both are when x_star[j] is integral within
    SNAP_TOL."""

    scores: np.ndarray
    f_star: float
    x_star: np.ndarray
    deltas: np.ndarray  # (n, 2)


def _snap(x: np.ndarray) -> np.ndarray:
    """x with each entry within SNAP_TOL of an integer replaced by it."""
    nearest = np.round(x)
    return np.where(np.abs(x - nearest) <= SNAP_TOL, nearest, x)


def sb_scores(inst: MilpInstance, rule: ScoreRule = PRODUCT_RULE) -> SbScores:
    """Score every variable of a MILP whose relaxation is feasible and
    bounded; raises ``UndefinedScoresError`` otherwise."""
    relax = solve_lp(inst)
    if relax.status != LpStatus.OPTIMAL:
        raise UndefinedScoresError(f"LP relaxation {relax.status.value}; SB undefined")
    f_star = relax.objective
    x_star = min_norm_solution(inst, f_star, duals=relax.duals)
    snapped = _snap(x_star)
    # each variable's least and greatest value over the optimal points seen
    lowest, highest = np.minimum(relax.x, snapped), np.maximum(relax.x, snapped)

    n = inst.n
    scores = np.zeros(n)
    deltas = np.zeros((n, 2))
    children = None  # built for the first child that no known optimal point settles
    for j in range(n):
        if not inst.integer[j]:
            continue
        xj = float(snapped[j])
        for side, (lo, hi) in enumerate([(inst.lower[j], math.floor(xj)), (math.ceil(xj), inst.upper[j])]):
            if lo <= lowest[j] <= hi or lo <= highest[j] <= hi:
                continue  # an optimal point lies in this child, so its optimum is f*
            if children is None:
                children = _ChildLps(inst, f_star)
            # bound changes only shrink the feasible set, so clamp solver noise
            objective, point = children.solve(j, lo, hi)
            deltas[j, side] = max(objective - f_star, 0.0)
            if deltas[j, side] == 0.0:  # the child's optimum is a relaxation optimum too
                lowest, highest = np.minimum(lowest, point), np.maximum(highest, point)
        d_down, d_up = deltas[j]
        scores[j] = -1.0 if math.isinf(d_down) or math.isinf(d_up) else rule.combine(d_down, d_up)
    return SbScores(scores=scores, f_star=f_star, x_star=x_star, deltas=deltas)
