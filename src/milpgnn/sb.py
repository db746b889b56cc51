"""Strong-branching score vectors.

Every integer variable gets the look-ahead score built from the two LPs with
its bound floored/ceiled at the least-norm relaxation optimum; continuous
variables score 0.  An infinite score (a branching direction with an
infeasible child LP) is stored as the sentinel -1.

A variable that is integral at the least-norm point x* (within ``SNAP_TOL``)
needs no child LP: the snapped x* lies in both children, so both child optima
are f* and its deltas are (0, 0) without a solve.

The relaxation is solved by ``solve_lp``.  The child LPs of one call run on
one hot-started HiGHS model (``lp._ChildLps``), built for the first variable
that needs them and solved in variable order, down child first.  No model
outlives the call, so a call's output does not depend on earlier calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import MilpInstance
from .lp import LpStatus, _ChildLps, min_norm_solution, solve_lp

__all__ = [
    "SbScores",
    "ScoreRule",
    "PRODUCT_RULE",
    "RelaxationInfeasibleError",
    "RelaxationUnboundedError",
    "sb_scores",
]

SNAP_TOL = 1e-9


class RelaxationInfeasibleError(RuntimeError):
    """SB is undefined: the LP relaxation is infeasible."""


class RelaxationUnboundedError(RuntimeError):
    """SB is undefined: the LP relaxation is unbounded."""


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
    objective increases with +inf for infeasible children; it is (0, 0),
    with no child LP solved, when x_star[j] is integral within SNAP_TOL."""

    scores: np.ndarray
    f_star: float
    x_star: np.ndarray
    deltas: np.ndarray  # (n, 2)


def _snap(v: float) -> float:
    nearest = round(v)
    return nearest if abs(v - nearest) <= SNAP_TOL else v


def sb_scores(inst: MilpInstance, rule: ScoreRule = PRODUCT_RULE) -> SbScores:
    """Score every variable of a MILP whose relaxation is feasible and
    bounded; raises otherwise."""
    relax = solve_lp(inst)
    if relax.status == LpStatus.INFEASIBLE:
        raise RelaxationInfeasibleError("LP relaxation infeasible; SB undefined")
    if relax.status == LpStatus.UNBOUNDED:
        raise RelaxationUnboundedError("LP relaxation unbounded; SB undefined")
    f_star = relax.objective
    x_star = min_norm_solution(inst, f_star, duals=relax.duals)

    n = inst.n
    scores = np.zeros(n)
    deltas = np.zeros((n, 2))
    children = None  # built for the first variable that needs its child LPs
    for j in range(n):
        if not inst.integer[j]:
            continue
        xj = _snap(float(x_star[j]))
        if xj == math.floor(xj) and inst.lower[j] <= xj <= inst.upper[j]:
            # the snapped x* lies in both children, so both optima are f*
            scores[j] = rule.combine(0.0, 0.0)
            continue
        if children is None:
            children = _ChildLps(inst, f_star)
        # bound changes only shrink the feasible set, so clamp solver noise
        d_down = max(children.objective(j, inst.lower[j], math.floor(xj)) - f_star, 0.0)
        d_up = max(children.objective(j, math.ceil(xj), inst.upper[j]) - f_star, 0.0)
        deltas[j] = (d_down, d_up)
        if math.isinf(d_down) or math.isinf(d_up):
            scores[j] = -1.0
        else:
            scores[j] = rule.combine(d_down, d_up)
    return SbScores(scores=scores, f_star=f_star, x_star=x_star, deltas=deltas)
