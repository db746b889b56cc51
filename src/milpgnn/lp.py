"""LP relaxations and the minimal-l2-norm optimal solution.

``solve_lp`` relaxes integrality and solves with HiGHS (deterministic dual
simplex via scipy's ``linprog``), optionally with a single variable's bounds
replaced, and reports the answer's KKT residual.  Strong branching solves
the relaxation through it.  Its child LPs run on ``_ChildLps`` instead: one
HiGHS model per instance, built once from the triplets through scipy's
bundled HiGHS binding, where each child starts hot from the relaxation's
optimal basis with one variable's bounds replaced.  The model's relaxation
optimum must agree with ``solve_lp``'s, or it refuses to solve any child.
``min_norm_solution`` picks the unique least-norm point of the optimal face
with a primal active-set QP, which raises ``LpNumericalError`` when its
iteration budget runs out; only the tests check its answer's KKT residual
(``min_norm_kkt_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy
from scipy.optimize import linprog, lsq_linear

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # a private module: scipy may move or drop it
    raise ImportError(
        f"milpgnn needs scipy's bundled HiGHS binding scipy.optimize._highspy._core, "
        f"which the installed scipy {scipy.__version__} does not provide (tested with scipy 1.17.x)"
    ) from exc

from .instance import MilpInstance, Sense

__all__ = [
    "LpStatus",
    "LpOutcome",
    "BoundOverride",
    "LpNumericalError",
    "solve_lp",
    "check_kkt",
    "min_norm_solution",
    "min_norm_kkt_residual",
]


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpNumericalError(RuntimeError):
    """The backend failed to converge on this instance."""


@dataclass(frozen=True)
class BoundOverride:
    """Replacement bounds for a single variable.  An empty interval is legal
    and simply yields an infeasible LP."""

    j: int
    lower: float
    upper: float


@dataclass(frozen=True)
class LpDuals:
    """Multipliers with the sign convention

        c = A' y + z_lower - z_upper,

    y_i >= 0 for >= rows, y_i <= 0 for <= rows, free for = rows,
    z_lower >= 0, z_upper >= 0, complementary to the active bounds."""

    y: np.ndarray
    z_lower: np.ndarray
    z_upper: np.ndarray


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    objective: float | None = None
    x: np.ndarray | None = None
    duals: LpDuals | None = None
    primal_residual: float = 0.0
    kkt_residual: float = 0.0


def _effective_bounds(inst: MilpInstance, override: BoundOverride | None):
    lower = inst.lower.copy()
    upper = inst.upper.copy()
    if override is not None:
        if not 0 <= override.j < inst.n:
            raise IndexError(f"override index {override.j} out of range")
        lower[override.j] = override.lower
        upper[override.j] = override.upper
    return lower, upper


def _row_sign(inst: MilpInstance) -> np.ndarray:
    """+1 on >= rows, -1 on <= rows, 0 on = rows: inequality rows read sign * (Ax - b) >= 0."""
    return np.select([inst.senses == Sense.GE, inst.senses == Sense.LE], [1.0, -1.0], 0.0)


def solve_lp(inst: MilpInstance, override: BoundOverride | None = None) -> LpOutcome:
    """Solve the LP relaxation (integrality ignored), optionally with one
    variable's bounds replaced."""
    lower, upper = _effective_bounds(inst, override)
    if np.any(lower > upper):
        return LpOutcome(status=LpStatus.INFEASIBLE)
    if inst.n == 0:
        # Nothing to solve: the rows read 0 o b_i, and when all of them hold
        # the empty point with zero multipliers is optimal.
        x = np.zeros(0)
        if _primal_residual(inst, np.zeros(inst.m), x, lower, upper) > 0.0:
            return LpOutcome(status=LpStatus.INFEASIBLE)
        return LpOutcome(status=LpStatus.OPTIMAL, objective=0.0, x=x, duals=LpDuals(np.zeros(inst.m), x, x))

    a = inst.dense_matrix()
    sign = _row_sign(inst)
    le, ge, eq = sign < 0, sign > 0, sign == 0
    # <= rows first, then the >= rows negated; HiGHS's pivots follow this order
    a_ub = np.vstack([a[le], -a[ge]]) if (le.any() or ge.any()) else None
    b_ub = np.concatenate([inst.b[le], -inst.b[ge]]) if a_ub is not None else None
    a_eq = a[eq] if eq.any() else None
    b_eq = inst.b[eq] if a_eq is not None else None

    res = linprog(
        inst.c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    if res.status == 2:
        return LpOutcome(status=LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpOutcome(status=LpStatus.UNBOUNDED)
    if res.status != 0:
        raise LpNumericalError(f"LP backend failure: {res.message}")

    x = np.asarray(res.x, dtype=float)
    # Map HiGHS marginals back to per-row multipliers in our convention;
    # scipy returns empty marginals for an absent block.
    y = np.zeros(inst.m)
    mub = np.asarray(res.ineqlin.marginals, dtype=float)
    n_le = int(le.sum())
    y[le] = mub[:n_le]  # <= rows: y <= 0
    y[ge] = -mub[n_le:]  # >= rows were negated: flip sign back, y >= 0
    y[eq] = np.asarray(res.eqlin.marginals, dtype=float)
    z_lower = np.maximum(np.asarray(res.lower.marginals, dtype=float), 0.0)
    z_upper = np.maximum(-np.asarray(res.upper.marginals, dtype=float), 0.0)
    duals = LpDuals(y=y, z_lower=z_lower, z_upper=z_upper)

    primal = _primal_residual(inst, a @ x, x, lower, upper)
    kkt = check_kkt(inst, x, duals, override=override)
    return LpOutcome(
        status=LpStatus.OPTIMAL,
        objective=float(res.fun),
        x=x,
        duals=duals,
        primal_residual=primal,
        kkt_residual=kkt,
    )


class _ChildLps:
    """The LP relaxation as one HiGHS model, for solving the child LPs of
    strong branching.

    The model is built once from the triplets, column-wise, with
    ``_row_sign``'s rows as ranges: >= rows [b, +inf], <= rows [-inf, b],
    = rows [b, b].  Its relaxation is solved once and its optimal basis
    kept.  The optimum must agree with ``f_star`` (``solve_lp``'s) within
    1e-9 relative (absolute below |f_star| = 1), or building raises
    ``LpNumericalError``.  Each child starts from the kept basis; still, the
    children of one instance must be solved on a fresh model in a fixed
    order to repeat bit for bit, since HiGHS keeps state beyond the basis
    between runs."""

    def __init__(self, inst: MilpInstance, f_star: float):
        sign = _row_sign(inst)
        order = np.argsort(inst.a_cols, kind="stable")
        model = _highs.HighsLp()
        model.num_col_, model.num_row_ = inst.n, inst.m
        model.col_cost_, model.col_lower_, model.col_upper_ = inst.c, inst.lower, inst.upper
        model.row_lower_ = np.where(sign < 0, -np.inf, inst.b)
        model.row_upper_ = np.where(sign > 0, np.inf, inst.b)
        matrix = model.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = inst.n, inst.m
        matrix.start_ = np.concatenate([[0], np.cumsum(np.bincount(inst.a_cols, minlength=inst.n))])
        matrix.index_ = inst.a_rows[order]
        matrix.value_ = inst.a_vals[order]
        self._lower, self._upper = inst.lower, inst.upper
        self._highs = _highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        if self._highs.passModel(model) == _highs.HighsStatus.kError:
            raise LpNumericalError("LP backend refused the relaxation's model")
        status = self._run()
        if status != _highs.HighsModelStatus.kOptimal:
            raise LpNumericalError(f"LP backend failure on the relaxation's model: {self._highs.modelStatusToString(status)}")
        objective = self._highs.getInfo().objective_function_value
        if abs(objective - f_star) > 1e-9 * max(1.0, abs(f_star)):
            raise LpNumericalError(f"the relaxation's model has optimum {objective!r}, but the LP optimum is {f_star!r}")
        self._basis = self._highs.getBasis()

    def _run(self):
        """Solve the model as it stands; its model status."""
        self._highs.run()
        return self._highs.getModelStatus()

    def objective(self, j: int, lower: float, upper: float) -> float:
        """Optimum of the relaxation with x_j's bounds replaced by [lower,
        upper]; +inf when that child is infeasible (or unbounded, which as
        a restriction of a bounded LP it is only numerically)."""
        if lower > upper:
            return math.inf
        self._highs.setBasis(self._basis)
        self._highs.changeColBounds(j, lower, upper)
        try:
            status = self._run()
            objective = self._highs.getInfo().objective_function_value
        finally:
            self._highs.changeColBounds(j, self._lower[j], self._upper[j])
        if status == _highs.HighsModelStatus.kOptimal:
            return objective
        if status in (_highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kUnbounded):
            return math.inf
        raise LpNumericalError(f"LP backend failure on the child LP of x_{j}: {self._highs.modelStatusToString(status)}")


def _primal_residual(inst: MilpInstance, ax: np.ndarray, x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Largest violation of a row or a finite bound at x, given ax = A x;
    0 when x is feasible.  NaN violations are skipped."""
    sign = _row_sign(inst)
    gap = inst.b - ax
    rows = np.where(sign == 0, np.abs(gap), sign * gap)
    with np.errstate(invalid="ignore"):
        bounds = np.concatenate([lower - x, x - upper])
    viol = np.concatenate([rows, bounds[np.isfinite(bounds)]])
    return max(0.0, float(np.fmax.reduce(viol, initial=0.0)))


def check_kkt(inst: MilpInstance, x: np.ndarray, duals: LpDuals, override: BoundOverride | None = None) -> float:
    """Max violation across stationarity, feasibility, sign constraints and
    complementary slackness of a candidate primal/dual pair."""
    lower, upper = _effective_bounds(inst, override)
    a = inst.dense_matrix()
    x = np.asarray(x, dtype=float)
    y, zl, zu = duals.y, duals.z_lower, duals.z_upper
    ax = a @ x
    res = float(np.max(np.abs(inst.c - a.T @ y - zl + zu), initial=0.0))
    res = max(res, _primal_residual(inst, ax, x, lower, upper))
    # y_i has its inequality row's sign and y_i * slack_i = 0; z >= 0, with
    # z * gap = 0 at a finite bound and z = 0 at an infinite one (gap 1).
    sign = _row_sign(inst)
    ineq = sign != 0
    with np.errstate(invalid="ignore"):
        lo_gap = np.where(np.isfinite(lower), x - lower, 1.0)
        hi_gap = np.where(np.isfinite(upper), upper - x, 1.0)
    slack = (ax - inst.b)[ineq]
    terms = [-sign[ineq] * y[ineq], np.abs(y[ineq] * slack), -zl, -zu, np.abs(zl * lo_gap), np.abs(zu * hi_gap)]
    return max(res, float(np.fmax.reduce(np.concatenate(terms), initial=0.0)))


class _OptimalFaceInfeasible(RuntimeError):
    pass


def _face_constraints(inst: MilpInstance, f_star: float):
    """Equalities Ex=e (c'x = f_star, then the = rows) and inequalities Gx>=h
    (the other rows in >= form, then each variable's finite lower and upper
    bound, variable by variable) describing the optimal face."""
    a = inst.dense_matrix()
    sign = _row_sign(inst)
    eq, ineq = sign == 0, sign != 0
    e_mat = np.vstack([inst.c, a[eq]])
    e_rhs = np.concatenate([[f_star], inst.b[eq]])
    eye = np.eye(inst.n)
    bound_rows = np.stack([eye, -eye], axis=1).reshape(2 * inst.n, inst.n)
    bound_rhs = np.stack([inst.lower, -inst.upper], axis=1).reshape(-1)
    finite = np.isfinite(bound_rhs)
    g_mat = np.vstack([sign[ineq, None] * a[ineq], bound_rows[finite]])
    g_rhs = np.concatenate([sign[ineq] * inst.b[ineq], bound_rhs[finite]])
    return e_mat, e_rhs, g_mat, g_rhs


def _min_norm_on_working_set(c_mat: np.ndarray, d: np.ndarray):
    """argmin ||x||^2 s.t. Cx=d, plus the multipliers; tolerant of rank
    deficiency via least squares on the normal system."""
    gram = c_mat @ c_mat.T
    lam, *_ = np.linalg.lstsq(gram, d, rcond=None)
    return c_mat.T @ lam, lam


def _stationarity_residual(c_mat: np.ndarray, n_eq: int, x: np.ndarray) -> float:
    """Residual of x = C' lam with lam >= 0 on the rows from n_eq on; least
    squares under the sign bounds find a certificate whenever one exists."""
    lb = np.full(c_mat.shape[0], -np.inf)
    lb[n_eq:] = 0.0
    sol = lsq_linear(c_mat.T, x, bounds=(lb, np.full(c_mat.shape[0], np.inf)))
    return float(np.max(np.abs(c_mat.T @ sol.x - x), initial=0.0))


def _stationarity_certified(c_mat: np.ndarray, n_eq: int, x: np.ndarray) -> bool:
    """True iff x is the optimum of the working-set subproblem after all."""
    return _stationarity_residual(c_mat, n_eq, x) <= 1e-9 * (1.0 + float(np.max(np.abs(x), initial=0.0)))


def _ratio_test(g_mat: np.ndarray, g_rhs: np.ndarray, x: np.ndarray, p: np.ndarray, working: list[int]) -> tuple[float, int]:
    """Longest step alpha <= 1 along p from x that keeps the rows off the
    working set feasible, and the row that blocks it (-1 if none does).

    g'p comes for every row in one product; only rows off the working set
    with g'p < -1e-12 can block, and their steps come as one array.  A scan
    in row order keeps the first step that undercuts the current alpha by
    more than 1e-14, so near-ties go to the lowest row index."""
    gp = g_mat @ p
    gp[working] = 0.0
    cand = np.flatnonzero(gp < -1e-12)
    steps = (g_rhs[cand] - g_mat[cand] @ x) / gp[cand]
    alpha, blocker = 1.0, -1
    for k, step in zip(cand.tolist(), steps.tolist()):
        if step < alpha - 1e-14:
            alpha, blocker = max(step, 0.0), k
    return alpha, blocker


def min_norm_solution(inst: MilpInstance, f_star: float, x0: np.ndarray | None = None) -> np.ndarray:
    """Unique minimizer of ||x||_2 over the optimal face
    {Ax o b, l <= x <= u, c'x = f_star}.

    Primal active-set iteration on min 0.5 x'x; ties in the ratio test and
    the multiplier drop break by lowest row index for determinism.  The
    ratio test (``_ratio_test``) is one array expression over all rows of
    the face: it computes the steps of the candidate rows together and
    scans only those, in row order.
    """
    if x0 is None:
        outcome = solve_lp(inst)
        if outcome.status != LpStatus.OPTIMAL:
            raise _OptimalFaceInfeasible("LP relaxation has no optimum")
        if abs(outcome.objective - f_star) > 1e-6 * (1.0 + abs(f_star)):
            raise ValueError(f"f_star {f_star} is not the LP optimum {outcome.objective}")
        x0 = outcome.x
    e_mat, e_rhs, g_mat, g_rhs = _face_constraints(inst, f_star)
    x = np.asarray(x0, dtype=float).copy()
    n_eq = e_mat.shape[0]
    working: list[int] = []
    max_iter = 50 * (inst.m + inst.n + g_mat.shape[0] + 1)

    for _ in range(max_iter):
        c_mat = np.vstack([e_mat, g_mat[working]]) if working else e_mat
        d = np.concatenate([e_rhs, g_rhs[working]]) if working else e_rhs
        target, lam = _min_norm_on_working_set(c_mat, d)
        p = target - x
        at_target = np.max(np.abs(p), initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(x), initial=0.0))
        if at_target:
            lam_ineq = lam[n_eq:]
            negative = np.flatnonzero(lam_ineq < -1e-9)
            if negative.size == 0:
                return x
            # On rank-deficient working sets the plain least-squares
            # multipliers may look negative although a valid nonnegative
            # certificate exists; check against all active rows before
            # dropping anything.
            active = g_mat @ x - g_rhs <= 1e-8 if g_mat.size else np.zeros(0, dtype=bool)
            full = np.vstack([e_mat, g_mat[active]]) if active.any() else e_mat
            if _stationarity_certified(full, n_eq, x):
                return x
            # Bland's rule (lowest index) to rule out cycling on degeneracy
            working.pop(int(negative[0]))
            continue
        alpha, blocker = _ratio_test(g_mat, g_rhs, x, p, working)
        x = x + alpha * p
        if blocker >= 0:
            working.append(blocker)
        working.sort()
    raise LpNumericalError("active-set QP failed to converge")


def min_norm_kkt_residual(inst: MilpInstance, f_star: float, x: np.ndarray) -> float:
    """KKT residual of the least-norm QP at x: stationarity of 0.5||x||^2
    against the face constraints, plus feasibility and complementarity."""
    e_mat, e_rhs, g_mat, g_rhs = _face_constraints(inst, f_star)
    res = float(np.max(np.abs(e_mat @ x - e_rhs), initial=0.0))
    slack = g_mat @ x - g_rhs if g_mat.size else np.zeros(0)
    res = max(res, float(np.max(-slack, initial=0.0)))
    active = slack <= 1e-8 if g_mat.size else np.zeros(0, dtype=bool)
    c_mat = np.vstack([e_mat, g_mat[active]]) if active.any() else e_mat
    # stationarity: x = E' mu + G_active' lam with lam >= 0
    return max(res, _stationarity_residual(c_mat, e_mat.shape[0], x))
