"""Independent brute-force oracles used to validate the solver stack.

Nothing here calls the package's LP or QP code: optima come from enumerating
candidate active sets, and the minimum-norm point on the optimal face from a
dense pseudo-inverse projection.  Exponential in problem size by design —
only for small instances.

The LP-certificate references compute the primal and KKT residuals and the
optimal-face system row by row and variable by variable, with the package's
own sign and ordering conventions, so the array code can be compared with
them bit for bit.

The solved-path strong-branching reference is the one exception to the
first rule: it takes the package's relaxation and least-norm point and then
solves both child LPs of every integer variable as instances (``child``)
through ``solve_lp``, so it checks the shortcut that skips the children of a
variable integral at that point, and the hot-started child model.

The color-refinement references intern exact signature tuples through a
dictionary, node by node and pair by pair, and find tractability witnesses
by a nested loop over every block entry.  They call nothing in the package's
``wl`` or ``fwl`` modules.  ``unique_row_ids`` is numpy's own row numbering,
which the package's row ranking must equal bit for bit.

The network references at the end run the 2-FGNN one graph at a time on the
explicit concatenated pair tensors, recompute each ReLU mask from the layer
input, and step Adam array by array.  Of the package's ``nn`` module they use
only the parameter containers, ``encode_graph`` and ``grad``.
"""

import dataclasses
import itertools
import math
import struct

import numpy as np

from milpgnn import nn
from milpgnn.instance import MilpInstance, Sense
from milpgnn.lp import LpStatus, min_norm_solution, solve_lp
from milpgnn.sb import SbScores, _snap

FEAS_TOL = 1e-8
BIG = 1e6  # artificial box used to detect unboundedness
# The least-norm projection accepts only points this close to the face, so
# that no point just off it, and nearer 0, beats the true one.
FACE_TOL = 1e-10


def child(inst: MilpInstance, j: int, lower: float, upper: float) -> MilpInstance | None:
    """``inst`` with x_j's bounds replaced by [lower, upper]: one child LP of
    strong branching as an instance; None when that interval is empty."""
    if lower > upper:
        return None
    lo, hi = inst.lower.copy(), inst.upper.copy()
    lo[j], hi[j] = lower, upper
    return dataclasses.replace(inst, lower=lo, upper=hi)


def _feasible(inst: MilpInstance, x: np.ndarray, lower, upper, tol: float = FEAS_TOL) -> bool:
    if (x < lower - tol).any() or (x > upper + tol).any():
        return False
    ax = inst.dense_matrix() @ x
    for i in range(inst.m):
        if inst.senses[i] == Sense.LE and ax[i] > inst.b[i] + tol:
            return False
        if inst.senses[i] == Sense.GE and ax[i] < inst.b[i] - tol:
            return False
        if inst.senses[i] == Sense.EQ and abs(ax[i] - inst.b[i]) > tol:
            return False
    return True


def brute_force_lp(inst: MilpInstance):
    """Vertex enumeration on the feasible region boxed into [-BIG, BIG].

    Returns (status, objective, vertices) with status 'optimal',
    'infeasible', or 'unbounded'.  Unbounded means the boxed optimum rests on
    an artificial bound: the true problem improves beyond any box.
    """
    n = inst.n
    a = inst.dense_matrix()
    lower, upper = inst.lower, inst.upper
    boxed_lower = np.maximum(lower, -BIG)
    boxed_upper = np.minimum(upper, BIG)

    rows: list[tuple[np.ndarray, float]] = [(a[i], float(inst.b[i])) for i in range(inst.m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e.copy(), float(boxed_lower[j])))
        rows.append((e.copy(), float(boxed_upper[j])))

    best = math.inf
    best_pts: list[np.ndarray] = []
    for combo in itertools.combinations(range(len(rows)), n):
        mat = np.array([rows[k][0] for k in combo])
        rhs = np.array([rows[k][1] for k in combo])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, rhs)
        if not _feasible(inst, x, boxed_lower, boxed_upper):
            continue
        obj = float(inst.c @ x)
        if obj < best - 1e-9:
            best, best_pts = obj, [x]
        elif obj <= best + 1e-9:
            best_pts.append(x)
    if not best_pts:
        return "infeasible", None, []
    for x in best_pts:
        for j in range(n):
            if lower[j] < -BIG and x[j] <= -BIG + FEAS_TOL:
                return "unbounded", None, []
            if upper[j] > BIG and x[j] >= BIG - FEAS_TOL:
                return "unbounded", None, []
    return "optimal", best, best_pts


def brute_force_min_norm(inst: MilpInstance, f_star: float):
    """Minimum-ℓ2-norm point on the optimal face, by projecting 0 onto every
    candidate face system and keeping the best feasible projection."""
    n = inst.n
    a = inst.dense_matrix()
    eqs: list[tuple[np.ndarray, float]] = [(inst.c.astype(float), float(f_star))]
    for i in range(inst.m):
        if inst.senses[i] == Sense.EQ:
            eqs.append((a[i], float(inst.b[i])))
    cands: list[tuple[np.ndarray, float]] = []
    for i in range(inst.m):
        if inst.senses[i] != Sense.EQ:
            cands.append((a[i], float(inst.b[i])))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        for v in (inst.lower[j], inst.upper[j]):
            if math.isfinite(v):
                cands.append((e.copy(), float(v)))

    best = None
    best_norm = math.inf
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(range(len(cands)), r):
            mat = np.array([v for v, _ in eqs] + [cands[k][0] for k in combo])
            rhs = np.array([d for _, d in eqs] + [cands[k][1] for k in combo])
            x = np.linalg.pinv(mat) @ rhs
            if np.abs(mat @ x - rhs).max() > 1e-7:
                continue  # inconsistent system
            if not _feasible(inst, x, inst.lower, inst.upper, FACE_TOL):
                continue
            if abs(float(inst.c @ x) - f_star) > 1e-6:
                continue
            nrm = float(x @ x)
            if nrm < best_norm - 1e-12:
                best_norm = nrm
                best = x
    return best


# --------------------------------------------------------------------------
# LP certificates: the feasibility and KKT residuals and the optimal-face
# system, written row by row and variable by variable


def primal_residual(inst: MilpInstance, x: np.ndarray) -> float:
    """Largest violation of a row or a finite bound at x; 0 when feasible."""
    a = inst.dense_matrix()
    ax = a @ x if inst.m else np.zeros(0)
    viol = [0.0]
    for i in range(inst.m):
        if inst.senses[i] == Sense.LE:
            viol.append(ax[i] - inst.b[i])
        elif inst.senses[i] == Sense.GE:
            viol.append(inst.b[i] - ax[i])
        else:
            viol.append(abs(ax[i] - inst.b[i]))
    with np.errstate(invalid="ignore"):
        lo = inst.lower - x
        hi = x - inst.upper
    viol.extend(v for v in lo if math.isfinite(v))
    viol.extend(v for v in hi if math.isfinite(v))
    return max(0.0, max(viol))


def check_kkt(inst: MilpInstance, x: np.ndarray, duals) -> float:
    """Max violation across stationarity, feasibility, sign constraints and
    complementary slackness of x and duals (y, z_lower, z_upper) under
    ``c = A'y + z_lower - z_upper``."""
    lower, upper = inst.lower, inst.upper
    a = inst.dense_matrix()
    x = np.asarray(x, dtype=float)
    y, zl, zu = duals.y, duals.z_lower, duals.z_upper

    stationarity = inst.c - (a.T @ y if inst.m else 0.0) - zl + zu
    res = float(np.max(np.abs(stationarity))) if inst.n else 0.0
    res = max(res, primal_residual(inst, x))

    ax = a @ x if inst.m else np.zeros(0)
    for i in range(inst.m):
        slack = ax[i] - inst.b[i]
        if inst.senses[i] == Sense.LE:
            res = max(res, y[i], abs(y[i] * slack))
        elif inst.senses[i] == Sense.GE:
            res = max(res, -y[i], abs(y[i] * slack))
    for j in range(inst.n):
        res = max(res, -zl[j], -zu[j])
        if math.isfinite(lower[j]):
            res = max(res, abs(zl[j] * (x[j] - lower[j])))
        else:
            res = max(res, abs(zl[j]))
        if math.isfinite(upper[j]):
            res = max(res, abs(zu[j] * (upper[j] - x[j])))
        else:
            res = max(res, abs(zu[j]))
    return res


def face_constraints(inst: MilpInstance, f_star: float):
    """Equalities Ex=e and inequalities Gx>=h describing the optimal face."""
    a = inst.dense_matrix()
    e_rows, e_rhs, g_rows, g_rhs = [inst.c], [f_star], [], []
    for i in range(inst.m):
        if inst.senses[i] == Sense.EQ:
            e_rows.append(a[i])
            e_rhs.append(inst.b[i])
        elif inst.senses[i] == Sense.GE:
            g_rows.append(a[i])
            g_rhs.append(inst.b[i])
        else:
            g_rows.append(-a[i])
            g_rhs.append(-inst.b[i])
    eye = np.eye(inst.n)
    for j in range(inst.n):
        if math.isfinite(inst.lower[j]):
            g_rows.append(eye[j])
            g_rhs.append(inst.lower[j])
        if math.isfinite(inst.upper[j]):
            g_rows.append(-eye[j])
            g_rhs.append(-inst.upper[j])
    e_mat = np.asarray(e_rows)
    g_mat = np.asarray(g_rows) if g_rows else np.zeros((0, inst.n))
    return e_mat, np.asarray(e_rhs), g_mat, np.asarray(g_rhs)


# --------------------------------------------------------------------------
# strong branching with every child LP solved


def sb_scores_solved(inst: MilpInstance, rule):
    """``sb.sb_scores`` without its shortcut: both children of every integer
    variable are solved, also where x* is already integral."""
    relax = solve_lp(inst)
    assert relax.status == LpStatus.OPTIMAL
    f_star = relax.objective
    x_star = min_norm_solution(inst, f_star, duals=relax.duals)
    snapped = _snap(x_star)
    scores = np.zeros(inst.n)
    deltas = np.zeros((inst.n, 2))
    for j in range(inst.n):
        if not inst.integer[j]:
            continue
        xj = float(snapped[j])
        for side, (lower, upper) in enumerate([(inst.lower[j], math.floor(xj)), (math.ceil(xj), inst.upper[j])]):
            sub = child(inst, j, lower, upper)
            out = solve_lp(sub) if sub is not None else None  # an empty interval scores +inf
            deltas[j, side] = max(out.objective - f_star, 0.0) if out is not None and out.status == LpStatus.OPTIMAL else math.inf
        d_down, d_up = deltas[j]
        scores[j] = -1.0 if math.isinf(d_down) or math.isinf(d_up) else rule.combine(d_down, d_up)
    return SbScores(scores=scores, f_star=f_star, x_star=x_star, deltas=deltas)


# --------------------------------------------------------------------------
# gradients


def finite_difference_grad(fn, arrays, h=1e-5, samples=40, seed=0):
    """Central finite differences of scalar fn() w.r.t. random entries of the
    given parameter arrays.  Yields (array index, entry index, fd value)."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        ai = int(rng.integers(len(arrays)))
        arr = arrays[ai]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        fp = fn()
        arr[idx] = orig - h
        fm = fn()
        arr[idx] = orig
        yield ai, idx, (fp - fm) / (2.0 * h)


# --------------------------------------------------------------------------
# color refinement: dictionary interning of exact signature tuples


def unique_row_ids(rows: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of each row of an integer or float matrix,
    from numpy's sort of the rows as one structured value each; floats
    compare by value, so -0.0 and 0.0 share a rank."""
    return np.unique(rows, axis=0, return_inverse=True)[1]


def _fkey(v: float):
    # -0.0 + 0.0 is +0.0, so the two zeros, which compare equal, share one key
    return struct.pack("<d", v + 0.0)


class _Interner:
    def __init__(self):
        self._table: dict = {}

    def __call__(self, key) -> int:
        return self._table.setdefault(key, len(self._table))


def _group(colors):
    by_color: dict = {}
    for idx, c in enumerate(colors):
        by_color.setdefault(c, []).append(idx)
    return tuple(tuple(v) for v in sorted(by_color.values()))


def _joint_partition(colorings):
    """Partition of the disjoint union of every color array's cells."""
    by_color: dict = {}
    idx = 0
    for kind, colors in enumerate(itertools.chain.from_iterable(colorings)):
        for c in np.asarray(colors).flat:
            by_color.setdefault((kind % 2, int(c)), []).append(idx)
            idx += 1
    return frozenset(tuple(v) for v in by_color.values())


def _to_stability(colorings, refine_once):
    part = _joint_partition(colorings)
    rounds = 0
    while True:
        nxt = refine_once(colorings)
        nxt_part = _joint_partition(nxt)
        if nxt_part == part:
            return colorings, rounds
        colorings, part = nxt, nxt_part
        rounds += 1


def _wl_to_stability(graphs):
    intern = _Interner()
    colorings, adjacency = [], []
    for g in graphs:
        cons = [[] for _ in range(g.m)]
        var = [[] for _ in range(g.n)]
        for i, j, w in zip(g.a_rows.tolist(), g.a_cols.tolist(), g.a_vals.tolist()):
            cons[i].append((j, w))
            var[j].append((i, w))
        adjacency.append((cons, var))
        cv = [intern(("V", _fkey(float(g.b[i])), int(g.senses[i]))) for i in range(g.m)]
        cw = [
            intern(("W", *(_fkey(float(x[j])) for x in (g.c, g.lower, g.upper)), int(g.integer[j])))
            for j in range(g.n)
        ]
        colorings.append((cv, cw))

    def refine_once(colorings):
        intern = _Interner()
        out = []
        for (cons, var), (cv, cw) in zip(adjacency, colorings):
            sig_v = [("V", cv[i], tuple(sorted((cw[j], _fkey(w)) for j, w in nb))) for i, nb in enumerate(cons)]
            sig_w = [("W", cw[j], tuple(sorted((cv[i], _fkey(w)) for i, w in nb))) for j, nb in enumerate(var)]
            out.append(([intern(s) for s in sig_v], [intern(s) for s in sig_w]))
        return out

    return _to_stability(colorings, refine_once)


def stable_partition(g):
    """(classes_v, classes_w, rounds_to_converge) of WL refinement on one graph."""
    ((cv, cw),), rounds = _wl_to_stability([g])
    return _group(cv), _group(cw), rounds


def wl_indistinguishable(g1, g2) -> bool:
    (cv1, cw1), (cv2, cw2) = _wl_to_stability([g1, g2])[0]
    return sorted(cv1) == sorted(cv2) and cw1 == cw2


def mp_tractability_witness(inst):
    """None if every stable-partition block of A is constant, else the first
    (p, q, i, i2, j, j2) with A[i, j] != A[i2, j2], where (i, j) is the first
    entry of block (p, q), scanning p, q, i2, j2 in order."""
    from milpgnn.instance import build_graph

    classes_v, classes_w, _ = stable_partition(build_graph(inst))
    a = inst.dense_matrix()
    for p, rows in enumerate(classes_v):
        for q, cols in enumerate(classes_w):
            for i in rows:
                for j in cols:
                    if a[i, j] != a[rows[0], cols[0]]:
                        return (p, q, rows[0], i, cols[0], j)
    return None


def _fwl2_to_stability(graphs):
    intern = _Interner()
    colorings = []
    for g in graphs:
        a = g.dense_matrix()
        vkeys = [(_fkey(float(g.b[i])), int(g.senses[i])) for i in range(g.m)]
        wkeys = [
            (*(_fkey(float(x[j])) for x in (g.c, g.lower, g.upper)), int(g.integer[j]))
            for j in range(g.n)
        ]
        vw = [[intern(("VW", vkeys[i], wkeys[j], _fkey(a[i, j]))) for j in range(g.n)] for i in range(g.m)]
        ww = [[intern(("WW", wkeys[j1], wkeys[j2], int(j1 == j2))) for j2 in range(g.n)] for j1 in range(g.n)]
        colorings.append((vw, ww))

    def refine_once(colorings):
        intern = _Interner()
        out = []
        for vw, ww in colorings:
            m, n = len(vw), len(ww)
            nvw = [
                [intern(("VW", vw[i][j], tuple(sorted((ww[j1][j], vw[i][j1]) for j1 in range(n))))) for j in range(n)]
                for i in range(m)
            ]
            nww = [
                [intern(("WW", ww[j1][j2], tuple(sorted((vw[i][j2], vw[i][j1]) for i in range(m))))) for j2 in range(n)]
                for j1 in range(n)
            ]
            out.append((nvw, nww))
        return out

    return _to_stability(colorings, refine_once)


def fwl2_stable(g):
    """(class count, rounds) of 2-FWL refinement on one graph."""
    ((vw, ww),), rounds = _fwl2_to_stability([g])
    return len({c for row in vw for c in row} | {c for row in ww for c in row}), rounds


def fwl2_indistinguishable(g1, g2) -> bool:
    (vw1, ww1), (vw2, ww2) = _fwl2_to_stability([g1, g2])[0]
    flat = lambda rows: sorted(c for row in rows for c in row)
    return flat(vw1) == flat(vw2) and flat(ww1) == flat(ww2)


def fwl2_indistinguishable_W(g1, g2) -> bool:
    (vw1, ww1), (vw2, ww2) = _fwl2_to_stability([g1, g2])[0]
    column = lambda rows, j: sorted(row[j] for row in rows)
    return all(column(vw1, j) == column(vw2, j) and column(ww1, j) == column(ww2, j) for j in range(g1.n))


# --------------------------------------------------------------------------
# networks: per-graph 2-FGNN with explicit pair tensors, per-array Adam


def mlp_forward(mlp, x):
    """An ``nn.Mlp`` applied to x: (..., in_dim).  Returns (y, cache)."""
    lead = x.shape[:-1]
    h = x.reshape(-1, x.shape[-1])
    inputs = []
    last = len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        h = h @ w + b
        if k < last or mlp.output_relu:
            h = np.maximum(h, 0.0)
    return h.reshape(*lead, h.shape[-1]), (lead, inputs)


def mlp_backward(mlp, cache, dy):
    """Returns (dx, [dW0, db0, dW1, db1, ...]); each ReLU mask is recomputed
    from the cached layer input."""
    lead, inputs = cache
    d = dy.reshape(-1, dy.shape[-1])
    last = len(mlp.weights) - 1
    grads = [None] * (2 * len(mlp.weights))
    for k in range(last, -1, -1):
        if k < last or mlp.output_relu:
            z = inputs[k] @ mlp.weights[k] + mlp.biases[k]
            d = d * (z > 0.0)
        grads[2 * k] = inputs[k].T @ d
        grads[2 * k + 1] = d.sum(axis=0)
        d = d @ mlp.weights[k].T
    return d.reshape(*lead, d.shape[-1]), grads


def fgnn2_forward(params, g):
    """2-FGNN outputs for one graph and the cache for ``fgnn2_backward``."""
    xv, xw, a = nn.encode_graph(g)
    m, n, d = g.m, g.n, params.dim
    s_in = np.concatenate(
        [
            np.broadcast_to(xv[:, None, :], (m, n, nn.CONS_FEATURES)),
            np.broadcast_to(xw[None, :, :], (m, n, nn.VAR_FEATURES)),
            a[:, :, None],
        ],
        axis=2,
    )
    t_in = np.concatenate(
        [
            np.broadcast_to(xw[:, None, :], (n, n, nn.VAR_FEATURES)),
            np.broadcast_to(xw[None, :, :], (n, n, nn.VAR_FEATURES)),
            np.eye(n)[:, :, None],
        ],
        axis=2,
    )
    s, s_cache = mlp_forward(params.p0, s_in)  # (m, n, d)
    t, t_cache = mlp_forward(params.q0, t_in)  # (n, n, d)
    layer_caches = []
    for layer in params.msg_layers:
        # message into s[i, j]: sum over j1 of f(t[j1, j], s[i, j1])
        zs = np.concatenate(
            [
                np.broadcast_to(np.transpose(t, (1, 0, 2))[None, :, :, :], (m, n, n, d)),
                np.broadcast_to(s[:, None, :, :], (m, n, n, d)),
            ],
            axis=3,
        )
        f_out, f_c = mlp_forward(layer["f"], zs)
        s_new, p_c = mlp_forward(layer["p"], np.concatenate([s, f_out.sum(axis=2)], axis=2))
        # message into t[j1, j2]: sum over i of g(s[i, j2], s[i, j1])
        zt = np.concatenate(
            [
                np.broadcast_to(np.transpose(s, (1, 0, 2))[None, :, :, :], (n, n, m, d)),
                np.broadcast_to(np.transpose(s, (1, 0, 2))[:, None, :, :], (n, n, m, d)),
            ],
            axis=3,
        )
        g_out, g_c = mlp_forward(layer["g"], zt)
        t_new, q_c = mlp_forward(layer["q"], np.concatenate([t, g_out.sum(axis=2)], axis=2))
        layer_caches.append((f_c, p_c, g_c, q_c))
        s, t = s_new, t_new
    y, r_c = mlp_forward(params.readout, np.concatenate([s.sum(axis=0), t.sum(axis=0)], axis=1))
    return y[:, 0], (s_cache, t_cache, layer_caches, r_c, (m, n))


def fgnn2_backward(params, cache, dy):
    """Flat gradients, in ``GnnParams.flat`` order, for output gradient dy."""
    s_cache, t_cache, layer_caches, r_c, (m, n) = cache
    d = params.dim
    d_rin, r_grads = mlp_backward(params.readout, r_c, dy[:, None])
    ds = np.broadcast_to(d_rin[None, :, :d], (m, n, d)).copy()
    dt = np.broadcast_to(d_rin[None, :, d:], (n, n, d)).copy()
    layer_grads = []
    for layer, (f_c, p_c, g_c, q_c) in zip(reversed(params.msg_layers), reversed(layer_caches)):
        d_pin, p_grads = mlp_backward(layer["p"], p_c, ds)
        ds_prev = d_pin[..., :d].copy()
        d_msg_s = d_pin[..., d:]
        dzs, f_grads = mlp_backward(layer["f"], f_c, np.broadcast_to(d_msg_s[:, :, None, :], (m, n, n, d)))
        # zs[i, j, j1] = (t[j1, j], s[i, j1])
        dt_prev = np.transpose(dzs[..., :d].sum(axis=0), (1, 0, 2))
        ds_prev += dzs[..., d:].sum(axis=1)
        d_qin, q_grads = mlp_backward(layer["q"], q_c, dt)
        dt_prev += d_qin[..., :d]
        d_msg_t = d_qin[..., d:]
        dzt, g_grads = mlp_backward(layer["g"], g_c, np.broadcast_to(d_msg_t[:, :, None, :], (n, n, m, d)))
        # zt[j1, j2, i] = (s[i, j2], s[i, j1])
        ds_prev += np.transpose(dzt[..., :d].sum(axis=0), (1, 0, 2))
        ds_prev += np.transpose(dzt[..., d:].sum(axis=1), (1, 0, 2))
        ds, dt = ds_prev, dt_prev
        layer_grads.append([p_grads, q_grads, f_grads, g_grads])
    _, p0_grads = mlp_backward(params.p0, s_cache, ds)
    _, q0_grads = mlp_backward(params.q0, t_cache, dt)
    flat = p0_grads + q0_grads
    for p_grads, q_grads, f_grads, g_grads in reversed(layer_grads):
        flat += p_grads + q_grads + f_grads + g_grads
    return flat + r_grads


def fgnn2_grad(params, dataset):
    """(loss, flat grads) of 0.5 * sum of squared errors, graph by graph."""
    total = 0.0
    acc = [np.zeros_like(a) for a in params.flat()]
    for g, target in dataset:
        y, cache = fgnn2_forward(params, g)
        err = y - np.asarray(target, dtype=float)
        total += 0.5 * float(err @ err)
        for slot, piece in zip(acc, fgnn2_backward(params, cache, err)):
            slot += piece
    return total, acc


def adam_train(params, dataset, cfg):
    """``nn.train`` with Adam stepped array by array; gradients from
    ``nn.grad``.  Adam's betas and epsilon and the rate decay are written out
    here rather than read from ``nn``, so a changed constant there shows.
    Returns (trained params, curve)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = params.copy()
    arrays = params.flat()
    m_state = [np.zeros_like(a) for a in arrays]
    v_state = [np.zeros_like(a) for a in arrays]
    curve = []
    for epoch in range(cfg.epochs):
        value, grads = nn.grad(params, dataset)
        if value <= 1e-12:
            lr = min(1e-7, cfg.learning_rate)
        elif value <= 1e-6:
            lr = min(1e-6, cfg.learning_rate)
        else:
            lr = cfg.learning_rate
        curve.append((epoch, value, lr))
        if cfg.target_loss is not None and value <= cfg.target_loss:
            break
        t = epoch + 1
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        for a, gr, ms, vs in zip(arrays, grads, m_state, v_state):
            ms *= beta1
            ms += (1.0 - beta1) * gr
            vs *= beta2
            vs += (1.0 - beta2) * gr * gr
            a -= lr * (ms / bias1) / (np.sqrt(vs / bias2) + eps)
    return params, curve
