"""LP relaxations and the minimal-l2-norm optimal solution.

``solve_lp`` relaxes integrality and solves with HiGHS (deterministic dual
simplex via scipy's ``linprog``), and reports the answer's KKT residual.
It and the certificates read the bounds from the instance alone, so an LP
with other bounds is another ``MilpInstance``.  Strong branching solves
the relaxation through ``solve_lp``.  Its child LPs run on ``_ChildLps``
instead: one HiGHS model per instance, built once from the triplets
through scipy's bundled HiGHS binding, where each child starts hot from
the relaxation's optimal basis with one variable's bounds replaced.  The
model's relaxation optimum must agree with ``solve_lp``'s, or it refuses to
solve any child.  ``min_norm_solution`` picks the unique least-norm point
of the optimal face, read off the relaxation's duals: one projection when
that lands in the face, else HiGHS's QP, bounded by ``_QP_ITERATION_LIMIT``
iterations, with an enforced stationarity certificate.  Only the tests
check the answer's full KKT residual (``min_norm_kkt_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy
from scipy.optimize import linprog, nnls

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


_SIGN_OF_SENSE = np.array([-1.0, 0.0, 1.0])  # indexed by Sense code: LE, EQ, GE


def _row_sign(inst: MilpInstance) -> np.ndarray:
    """+1 on >= rows, -1 on <= rows, 0 on = rows: inequality rows read sign * (Ax - b) >= 0."""
    return _SIGN_OF_SENSE[inst.senses]


def solve_lp(inst: MilpInstance) -> LpOutcome:
    """Solve the LP relaxation (integrality ignored) within the instance's
    bounds."""
    if inst.n == 0:
        # Nothing to solve: the rows read 0 o b_i, and when all of them hold
        # the empty point with zero multipliers is optimal.
        x = np.zeros(0)
        if _primal_residual(inst, np.zeros(inst.m), x) > 0.0:
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
        bounds=list(zip(inst.lower, inst.upper)),
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

    primal = _primal_residual(inst, a @ x, x)
    kkt = check_kkt(inst, x, duals)
    return LpOutcome(
        status=LpStatus.OPTIMAL,
        objective=float(res.fun),
        x=x,
        duals=duals,
        primal_residual=primal,
        kkt_residual=kkt,
    )


def _row_ranges(inst: MilpInstance):
    """``_row_sign``'s rows as ranges: >= rows [b, +inf], <= rows [-inf, b], = rows [b, b]."""
    sign = _row_sign(inst)
    return np.where(sign < 0, -np.inf, inst.b), np.where(sign > 0, np.inf, inst.b)


def _highs_model(inst: MilpInstance, cost, lower, upper, row_lower, row_upper, what: str):
    """A silent HiGHS instance holding min cost'x over row_lower <= Ax <=
    row_upper, lower <= x <= upper, with A passed column-wise from the
    triplets; ``what`` names the model in the error raised when HiGHS
    refuses it."""
    order = np.argsort(inst.a_cols, kind="stable")
    model = _highs.HighsLp()
    model.num_col_, model.num_row_ = inst.n, inst.m
    model.col_cost_, model.col_lower_, model.col_upper_ = cost, lower, upper
    model.row_lower_, model.row_upper_ = row_lower, row_upper
    matrix = model.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = inst.n, inst.m
    matrix.start_ = np.concatenate([[0], np.cumsum(np.bincount(inst.a_cols, minlength=inst.n))])
    matrix.index_ = inst.a_rows[order]
    matrix.value_ = inst.a_vals[order]
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.passModel(model) == _highs.HighsStatus.kError:
        raise LpNumericalError(f"LP backend refused {what}")
    return highs


class _ChildLps:
    """The LP relaxation as one HiGHS model (``_highs_model``, rows as
    ``_row_ranges``), for solving the child LPs of strong branching.

    The relaxation is solved once and its optimal basis kept.  The optimum
    must agree with ``f_star`` (``solve_lp``'s) within 1e-9 relative
    (absolute below |f_star| = 1), or building raises ``LpNumericalError``.
    Each child starts from the kept basis; still, the children of one
    instance must be solved on a fresh model in a fixed order to repeat bit
    for bit, since HiGHS keeps state beyond the basis between runs.  The
    last child's solution is kept for ``point``, since restoring the bounds
    invalidates HiGHS's own."""

    def __init__(self, inst: MilpInstance, f_star: float):
        self._lower, self._upper = inst.lower, inst.upper
        self._highs = _highs_model(inst, inst.c, inst.lower, inst.upper, *_row_ranges(inst), "the relaxation's model")
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
        upper]; +inf when that child is infeasible.  A child that HiGHS
        calls unbounded restricts an optimal relaxation, so that status is
        a tolerance artefact and raises ``LpNumericalError``."""
        if lower > upper:
            return math.inf
        self._highs.setBasis(self._basis)
        self._highs.changeColBounds(j, lower, upper)
        try:
            status = self._run()
            objective = self._highs.getInfo().objective_function_value
            self._solution = self._highs.getSolution()  # a copy
        finally:
            self._highs.changeColBounds(j, self._lower[j], self._upper[j])
        if status == _highs.HighsModelStatus.kOptimal:
            return objective
        if status == _highs.HighsModelStatus.kInfeasible:
            return math.inf
        if status == _highs.HighsModelStatus.kUnbounded:
            raise LpNumericalError(f"LP backend failure on the child LP of x_{j}: unbounded below an optimal relaxation")
        raise LpNumericalError(f"LP backend failure on the child LP of x_{j}: {self._highs.modelStatusToString(status)}")

    def point(self) -> np.ndarray:
        """The optimal point of the child that ``objective`` solved last."""
        return np.asarray(self._solution.col_value, dtype=float)


def _primal_residual(inst: MilpInstance, ax: np.ndarray, x: np.ndarray) -> float:
    """Largest violation of a row or a finite bound at x, given ax = A x;
    0 when x is feasible.  NaN violations are skipped."""
    sign = _row_sign(inst)
    gap = inst.b - ax
    rows = np.where(sign == 0, np.abs(gap), sign * gap)
    with np.errstate(invalid="ignore"):
        bounds = np.concatenate([inst.lower - x, x - inst.upper])
    viol = np.concatenate([rows, bounds[np.isfinite(bounds)]])
    return max(0.0, float(np.fmax.reduce(viol, initial=0.0)))


def check_kkt(inst: MilpInstance, x: np.ndarray, duals: LpDuals) -> float:
    """Max violation across stationarity, feasibility, sign constraints and
    complementary slackness of a candidate primal/dual pair, against the
    instance's rows and bounds."""
    a = inst.dense_matrix()
    x = np.asarray(x, dtype=float)
    y, zl, zu = duals.y, duals.z_lower, duals.z_upper
    ax = a @ x
    res = float(np.max(np.abs(inst.c - a.T @ y - zl + zu), initial=0.0))
    res = max(res, _primal_residual(inst, ax, x))
    # y_i has its inequality row's sign and y_i * slack_i = 0; z >= 0, with
    # z * gap = 0 at a finite bound and z = 0 at an infinite one (gap 1).
    sign = _row_sign(inst)
    ineq = sign != 0
    with np.errstate(invalid="ignore"):
        lo_gap = np.where(np.isfinite(inst.lower), x - inst.lower, 1.0)
        hi_gap = np.where(np.isfinite(inst.upper), inst.upper - x, 1.0)
    slack = (ax - inst.b)[ineq]
    terms = [-sign[ineq] * y[ineq], np.abs(y[ineq] * slack), -zl, -zu, np.abs(zl * lo_gap), np.abs(zu * hi_gap)]
    return max(res, float(np.fmax.reduce(np.concatenate(terms), initial=0.0)))


_FACE_TOL = 1e-9  # duals above it mark the optimal face; stage 1 and the certificate accept within it
# HiGHS's default QP iteration limit is 2**31 - 1, which a stalled QP never
# reaches.  Stage 2 took at most 125 iterations on 300 set covers 30x60 at
# density 0.1, and none on random instances or cycle covers.
_QP_ITERATION_LIMIT = 100_000


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


def _stationarity_residual(inst: MilpInstance, f_star: float, x: np.ndarray) -> float:
    """Largest entry of x - E' mu - G_active' lam, with lam >= 0 and the
    active rows those within 1e-8 of their bound at x, minimised by
    ``nnls`` with mu split into two non-negative parts; it is 0 exactly
    when x is stationary for min 0.5||x||^2 on ``_face_constraints``."""
    if inst.n == 0:  # scipy's nnls returns uninitialised values on a matrix with no rows
        return 0.0
    e_mat, _, g_mat, g_rhs = _face_constraints(inst, f_star)
    basis = np.vstack([e_mat, -e_mat, g_mat[g_mat @ x - g_rhs <= 1e-8]]).T
    lam, _ = nnls(basis, x, maxiter=50 * basis.shape[1])
    return float(np.max(np.abs(basis @ lam - x), initial=0.0))


def _stationarity_certified(inst: MilpInstance, f_star: float, x: np.ndarray) -> bool:
    """True iff x is stationary on the optimal face, within 1e-9 (1 + ||x||_inf)."""
    return _stationarity_residual(inst, f_star, x) <= _FACE_TOL * (1.0 + float(np.max(np.abs(x), initial=0.0)))


def _min_norm_on_working_set(c_mat: np.ndarray, d: np.ndarray) -> np.ndarray:
    """argmin ||x|| over the least-squares solutions of Cx = d: the
    projection of 0 onto {Cx = d} when that set is not empty."""
    return np.linalg.lstsq(c_mat, d, rcond=None)[0]


def min_norm_solution(
    inst: MilpInstance, f_star: float, x0: np.ndarray | None = None, duals: LpDuals | None = None
) -> np.ndarray:
    """Unique minimizer of ||x||_2 over the optimal face
    {Ax o b, l <= x <= u, c'x = f_star}.

    A feasible x is optimal iff it is complementary to optimal duals
    (``duals``, else the relaxation is solved here), so the face is the
    feasible set with each row whose |y_i| > 1e-9 tight and each variable
    whose z_lower (z_upper) > 1e-9 fixed at that bound.  Stage 1 projects 0
    onto those equalities; the projection is the answer if it meets every
    row, finite bound and c'x = f_star within 1e-9 relative.  Otherwise
    stage 2 solves min 0.5||x||^2 on the face with HiGHS's QP, and a status
    other than optimal (``_QP_ITERATION_LIMIT`` iterations reached among
    them), or an answer without ``_stationarity_certified``, raises
    ``LpNumericalError``.  ``x0`` is not used; it is kept for callers
    that pass the relaxation's vertex."""
    if duals is None:
        outcome = solve_lp(inst)
        if outcome.status != LpStatus.OPTIMAL:
            raise ValueError(f"the LP relaxation has no optimum ({outcome.status.value})")
        if abs(outcome.objective - f_star) > 1e-6 * (1.0 + abs(f_star)):
            raise ValueError(f"f_star {f_star} is not the LP optimum {outcome.objective}")
        duals = outcome.duals
    tight = (inst.senses == Sense.EQ) | (np.abs(duals.y) > _FACE_TOL)
    at_lower = (duals.z_lower > _FACE_TOL) & np.isfinite(inst.lower)
    at_upper = (duals.z_upper > _FACE_TOL) & np.isfinite(inst.upper) & ~at_lower
    fixed = at_lower | at_upper
    fixed_at = np.where(at_lower, inst.lower, inst.upper)[fixed]

    a = inst.dense_matrix()
    c_mat = np.vstack([a[tight], np.eye(inst.n)[fixed]])
    x = _min_norm_on_working_set(c_mat, np.concatenate([inst.b[tight], fixed_at]))
    scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
    if (
        _primal_residual(inst, a @ x, x) <= _FACE_TOL * scale
        and abs(float(inst.c @ x) - f_star) <= _FACE_TOL * max(1.0, abs(f_star))
    ):
        return x

    row_lower, row_upper = _row_ranges(inst)
    row_lower[tight] = row_upper[tight] = inst.b[tight]
    lower, upper = inst.lower.copy(), inst.upper.copy()
    lower[fixed] = upper[fixed] = fixed_at
    highs = _highs_model(inst, np.zeros(inst.n), lower, upper, row_lower, row_upper, "the least-norm QP")
    for option in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
        highs.setOptionValue(option, 1e-10)
    highs.setOptionValue("qp_iteration_limit", _QP_ITERATION_LIMIT)
    diag = np.arange(inst.n)  # the identity Hessian as (dim, nonzeros, format, start, index, value)
    highs.passHessian(inst.n, inst.n, _highs.HessianFormat.kTriangular.value, np.append(diag, inst.n), diag, np.ones(inst.n))
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise LpNumericalError(f"least-norm QP failure: {highs.modelStatusToString(status)}")
    x = np.asarray(highs.getSolution().col_value, dtype=float)
    if not _stationarity_certified(inst, f_star, x):
        raise LpNumericalError("least-norm QP answer is not stationary on the optimal face")
    return x


def min_norm_kkt_residual(inst: MilpInstance, f_star: float, x: np.ndarray) -> float:
    """KKT residual of the least-norm QP at x: stationarity of 0.5||x||^2
    against the face constraints, plus feasibility."""
    e_mat, e_rhs, g_mat, g_rhs = _face_constraints(inst, f_star)
    res = float(np.max(np.abs(e_mat @ x - e_rhs), initial=0.0))
    res = max(res, float(np.max(g_rhs - g_mat @ x, initial=0.0)))
    return max(res, _stationarity_residual(inst, f_star, x))
