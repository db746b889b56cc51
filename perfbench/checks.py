"""Output checks that do not go through the package's own solvers.

Every function takes the instance as the raw JSON document the program was
given, plus the program's output, and returns a list of problems (empty when
the output is right).  LP optima come from this module's own
``scipy.optimize.linprog`` calls on A assembled from the triplets; the
least-norm certificate is a non-negative least-squares fit; stable partitions
and WL verdicts come from a plain colour refinement written here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, nnls

SB_TOL = 1e-9  # scores, f* and x* agree to this, relative to max(1, |value|)
SNAP_TOL = 1e-9  # x*_j this close to an integer branches as that integer
FEAS_TOL = 1e-8
STATIONARITY_TOL = 1e-7
MPGNN_TIE_TOL = 1e-12
FD_TOL = 1e-4

_INF = {"-inf": -math.inf, "+inf": math.inf, "inf": math.inf}


def close(a: float, b: float, tol: float = SB_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class Lp:
    """The relaxation of one instance document, as dense arrays."""

    def __init__(self, doc: dict):
        self.m, self.n = doc["m"], doc["n"]
        self.a = np.zeros((self.m, self.n))
        for i, j, v in doc["A"]:
            self.a[i, j] = v
        self.b = np.asarray(doc["b"], dtype=float)
        self.c = np.asarray(doc["c"], dtype=float)
        self.senses = list(doc["senses"])
        self.lower = np.array([_INF.get(v, v) if isinstance(v, str) else v for v in doc["lower"]], dtype=float)
        self.upper = np.array([_INF.get(v, v) if isinstance(v, str) else v for v in doc["upper"]], dtype=float)
        self.integer = list(doc["integer"])

    def solve(self, lower=None, upper=None):
        """Optimum value, or None when infeasible."""
        lower = self.lower if lower is None else lower
        upper = self.upper if upper is None else upper
        if np.any(lower > upper):
            return None
        # every row as G x <= h, equalities apart
        ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
        for i, s in enumerate(self.senses):
            if s == 0:
                ub_rows.append(self.a[i])
                ub_rhs.append(self.b[i])
            elif s == 2:
                ub_rows.append(-self.a[i])
                ub_rhs.append(-self.b[i])
            else:
                eq_rows.append(self.a[i])
                eq_rhs.append(self.b[i])
        res = linprog(
            self.c,
            A_ub=np.array(ub_rows) if ub_rows else None,
            b_ub=np.array(ub_rhs) if ub_rows else None,
            A_eq=np.array(eq_rows) if eq_rows else None,
            b_eq=np.array(eq_rhs) if eq_rows else None,
            bounds=[(lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None) for lo, hi in zip(lower, upper)],
            method="highs",
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        return float(res.fun)

    def face(self, f_star: float):
        """Optimal face as E x = e and G x >= h."""
        e_rows, e_rhs, g_rows, g_rhs = [self.c], [f_star], [], []
        for i, s in enumerate(self.senses):
            if s == 1:
                e_rows.append(self.a[i])
                e_rhs.append(self.b[i])
            else:
                sign = 1.0 if s == 2 else -1.0
                g_rows.append(sign * self.a[i])
                g_rhs.append(sign * self.b[i])
        for j in range(self.n):
            unit = np.zeros(self.n)
            unit[j] = 1.0
            if math.isfinite(self.lower[j]):
                g_rows.append(unit)
                g_rhs.append(self.lower[j])
            if math.isfinite(self.upper[j]):
                g_rows.append(-unit)
                g_rhs.append(-self.upper[j])
        return np.array(e_rows), np.array(e_rhs), np.array(g_rows).reshape(-1, self.n), np.array(g_rhs)


def least_norm_problems(lp: Lp, f_star: float, x: np.ndarray) -> list[str]:
    """x is feasible, optimal, and x = E'mu + G_active'lam with lam >= 0: the
    KKT conditions of min ||x||^2 over the optimal face, which are sufficient."""
    e, e_rhs, g, g_rhs = lp.face(f_star)
    scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
    out = []
    if np.max(np.abs(e @ x - e_rhs), initial=0.0) > FEAS_TOL * scale * max(1.0, abs(f_star)):
        out.append("x* leaves the optimal face's equalities")
    slack = g @ x - g_rhs
    if np.min(slack, initial=0.0) < -FEAS_TOL * scale:
        out.append("x* violates a constraint or bound")
    active = g[slack <= FEAS_TOL * scale]
    basis = np.vstack([e, -e, active]).T  # mu split into two non-negative parts
    _, residual = nnls(basis, x, maxiter=50 * basis.shape[1])
    if residual > STATIONARITY_TOL * scale:
        out.append(f"x* is not the least-norm optimum (stationarity residual {residual:.3g})")
    return out


def _snap(v: float) -> float:
    nearest = round(v)
    return nearest if abs(v - nearest) <= SNAP_TOL else v


def sb_problems(doc: dict, out: dict) -> list[str]:
    """Re-derive f*, certify x*, re-solve both children of every integer
    variable at the returned x*, and recombine with the product rule."""
    lp = Lp(doc)
    f_star = lp.solve()
    if f_star is None or not close(out["f_star"], f_star):
        return [f"f* {out['f_star']} differs from the reference {f_star}"]
    x = np.asarray(out["x_star"], dtype=float)
    problems = least_norm_problems(lp, f_star, x)
    scores = out["scores"]
    for j in range(lp.n):
        if not lp.integer[j]:
            expect = 0.0
        else:
            xj = _snap(float(x[j]))
            up_lo, down_hi = lp.lower.copy(), lp.upper.copy()
            down_hi[j] = math.floor(xj)
            up_lo[j] = math.ceil(xj)
            down, up = lp.solve(upper=down_hi), lp.solve(lower=up_lo)
            if down is None or up is None:
                expect = -1.0
            else:
                expect = max(down - f_star, 0.0) * max(up - f_star, 0.0)
        if not close(scores[j], expect):
            problems.append(f"score of variable {j} is {scores[j]!r}, reference {expect!r}")
    return problems


def cycle_cover_problems(cycles: list[list[int]], out: dict) -> list[str]:
    """Closed form for a union of covering cycles: x* = 1/2 everywhere, f* =
    n/2, score 1/4 on odd cycles of length >= 3 and 0 on the rest."""
    n = sum(len(c) for c in cycles)
    problems = []
    if not close(out["f_star"], n / 2):
        problems.append(f"f* {out['f_star']} is not n/2 = {n / 2}")
    if any(not close(v, 0.5) for v in out["x_star"]):
        problems.append("x* is not 1/2 everywhere")
    for cyc in cycles:
        expect = 0.25 if len(cyc) >= 3 and len(cyc) % 2 else 0.0
        for j in cyc:
            if not close(out["scores"][j], expect):
                problems.append(f"score of variable {j} on a {len(cyc)}-cycle is {out['scores'][j]!r}, expected {expect}")
    return problems


# --------------------------------------------------------------------------
# colour refinement


def _dense(doc: dict):
    lp = Lp(doc)
    rows = [(float(b), int(s)) for b, s in zip(lp.b, lp.senses)]
    cols = [(float(c), float(lo), float(hi), bool(k)) for c, lo, hi, k in zip(lp.c, lp.lower, lp.upper, lp.integer)]
    return lp.a, rows, cols


def _relabel(keys) -> list[int]:
    table: dict = {}
    return [table.setdefault(k, len(table)) for k in keys]


def _classes(colors) -> list[list[int]]:
    by: dict[int, list[int]] = {}
    for idx, c in enumerate(colors):
        by.setdefault(c, []).append(idx)
    return sorted(by.values())


def coarsest_partition(doc: dict):
    """Coarsest equitable partition refining the node features.  Features
    and weights compare as numbers, so -0.0 and 0.0 are one value."""
    a, rows, cols = _dense(doc)
    nz_r = [[(j, a[i, j]) for j in np.flatnonzero(a[i])] for i in range(a.shape[0])]
    nz_c = [[(i, a[i, j]) for i in np.flatnonzero(a[:, j])] for j in range(a.shape[1])]
    cv = _relabel(("V",) + f for f in rows)
    cw = _relabel(("W",) + f for f in cols)
    count = len(set(cv)) + len(set(cw))
    while True:
        nv = _relabel((cv[i], tuple(sorted((cw[j], w) for j, w in nz_r[i]))) for i in range(len(cv)))
        nw = _relabel((cw[j], tuple(sorted((cv[i], w) for i, w in nz_c[j]))) for j in range(len(cw)))
        new = len(set(nv)) + len(set(nw))
        cv, cw = nv, nw
        if new == count:
            return _classes(cv), _classes(cw)
        count = new


def disjoint_union(doc_a: dict, doc_b: dict) -> dict:
    """One instance document holding both, b's nodes numbered after a's."""
    out = {key: list(doc_a[key]) + list(doc_b[key]) for key in ("c", "b", "senses", "lower", "upper", "integer")}
    out["m"], out["n"] = doc_a["m"] + doc_b["m"], doc_a["n"] + doc_b["n"]
    out["A"] = list(doc_a["A"]) + [[i + doc_a["m"], j + doc_a["n"], v] for i, j, v in doc_b["A"]]
    return out


def wl_indistinguishable(doc_a: dict, doc_b: dict) -> bool:
    """WL cannot tell a from b, in the sense the SB labels need: in the
    coarsest equitable partition of their disjoint union every constraint
    class holds as many rows of a as of b, and variable j of a shares its
    class with variable j of b."""
    classes_v, classes_w = coarsest_partition(disjoint_union(doc_a, doc_b))
    m, n = doc_a["m"], doc_a["n"]
    if (m, n) != (doc_b["m"], doc_b["n"]):
        return False
    class_of = {j: k for k, cls in enumerate(classes_w) for j in cls}
    return all(2 * sum(i < m for i in cls) == len(cls) for cls in classes_v) and all(
        class_of[j] == class_of[n + j] for j in range(n)
    )


def _blocks(a, classes_v, classes_w):
    for p, rows in enumerate(classes_v):
        for q, cols in enumerate(classes_w):
            yield p, q, rows, cols, a[np.ix_(rows, cols)]


def tractability_problems(doc: dict, out: dict, code: int) -> list[str]:
    """The returned partition covers every node once, respects features, is
    equitable and equals the coarsest one; the verdict and exit code say
    whether every block of A is constant."""
    a, rows, cols = _dense(doc)
    classes_v = [sorted(c) for c in out["I"]]
    classes_w = [sorted(c) for c in out["J"]]
    problems = []
    if sorted(i for c in classes_v for i in c) != list(range(len(rows))) or sorted(
        j for c in classes_w for j in c
    ) != list(range(len(cols))):
        return ["partition does not cover every node exactly once"]
    for classes, feats in ((classes_v, rows), (classes_w, cols)):
        if any(len({feats[k] for k in c}) != 1 for c in classes):
            problems.append("a class mixes node features")
    for p, q, r, c, block in _blocks(a, classes_v, classes_w):
        if len({tuple(sorted(row[row != 0])) for row in block}) > 1 or len(
            {tuple(sorted(col[col != 0])) for col in block.T}
        ) > 1:
            problems.append(f"partition is not equitable at block ({p}, {q})")
            break
    if (sorted(classes_v), sorted(classes_w)) != coarsest_partition(doc):
        problems.append("partition is not the coarsest equitable one")
    tractable = all((block == block.flat[0]).all() for *_, block in _blocks(a, classes_v, classes_w) if block.size)
    if out["tractable"] != tractable:
        problems.append(f"verdict tractable={out['tractable']} but the blocks say {tractable}")
    if code != (0 if out["tractable"] else 3):
        problems.append(f"exit code {code} does not match the verdict")
    if not out["tractable"]:
        w = out["witness"]
        if w is None or a[w[2], w[4]] == a[w[3], w[5]]:
            problems.append("witness does not point at two different entries")
    return problems


def compare_problems(out: dict, code: int, same_multiset: bool, same_columns: bool) -> list[str]:
    """fwl2-compare on two cycle covers: the whole-multiset verdict holds iff
    the cycle-length multisets agree; the per-column verdict implies it, and
    holds when the variables are not relabelled."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if out["indistinguishable"] != same_multiset:
        problems.append(f"indistinguishable={out['indistinguishable']}, expected {same_multiset}")
    if out["indistinguishable_W"] and not out["indistinguishable"]:
        problems.append("indistinguishable_W without indistinguishable")
    if same_columns and not out["indistinguishable_W"]:
        problems.append("row-permuted twins are separated by indistinguishable_W")
    return problems


def reproduce_problems(out: dict, code: int) -> list[str]:
    """The paper's facts about the 8-cycle and the split instance."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if any(not close(v, 0.0) for v in out["sb_cycle8"]):
        problems.append("cycle8 SB scores are not all 0")
    expect_split = [0.25] * 6 + [0.0, 0.0]
    if len(out["sb_split"]) != 8 or any(not close(v, e) for v, e in zip(out["sb_split"], expect_split)):
        problems.append("split SB scores are not (0.25 x6, 0, 0)")
    if any(not close(f, 4.0) for f in out["f_star"]):
        problems.append("f* is not 4 for both instances")
    if out["wl_indistinguishable"] is not True:
        problems.append("WL separates the pair")
    if out["mp_tractable"] != [False, False]:
        problems.append("an instance of the pair is called tractable")
    if out["fwl2_indistinguishable"] is not False:
        problems.append("2-FWL does not separate the pair")
    if not out["mpgnn_max_output_diff"] <= MPGNN_TIE_TOL:
        problems.append(f"MP-GNN outputs differ by {out['mpgnn_max_output_diff']}")
    return problems


# --------------------------------------------------------------------------
# gradients


def gradient_samples(arrays, count: int, seed: int) -> list[tuple[int, tuple]]:
    """Parameter entries to check: (array index, entry index) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(len(arrays)))
        out.append((k, tuple(int(rng.integers(s)) for s in arrays[k].shape)))
    return out


def gradient_problems(loss_fn, arrays, grads, samples, h: float = 1e-6) -> list[str]:
    """Central finite differences of loss_fn() at the sampled parameter
    entries against the analytic gradient.

    Along one parameter the network is piecewise linear and the loss
    piecewise quadratic, so away from a ReLU kink the central difference is
    exact at any step.  Steps h and h/2 that disagree therefore show a kink
    within h, where no difference quotient measures the gradient: such an
    entry is skipped, and the check fails if more than half are skipped."""
    problems, kinks = [], 0
    for k, idx in samples:
        orig = arrays[k][idx]
        quotients = []
        for step in (h, h / 2):
            arrays[k][idx] = orig + step
            up = loss_fn()
            arrays[k][idx] = orig - step
            down = loss_fn()
            quotients.append((up - down) / (2 * step))
        arrays[k][idx] = orig
        fd, an = quotients[0], float(grads[k][idx])
        scale = max(1.0, abs(fd), abs(an))
        if abs(quotients[0] - quotients[1]) > 1e-6 * scale:
            kinks += 1
        elif abs(fd - an) > FD_TOL * scale:
            problems.append(f"gradient entry {k}{idx}: analytic {an!r}, finite difference {fd!r}")
    if kinks * 2 > len(samples):
        problems.append(f"{kinks} of {len(samples)} sampled entries sit within h of a kink")
    return problems
