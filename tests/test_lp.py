import collections
import dataclasses
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milpgnn import cli, lp
from milpgnn.gen import counterexample_pair, gen_random, gen_set_cover
from milpgnn.instance import MilpInstance, Sense, permute, serialize_instance
from milpgnn.lp import (
    LpDuals,
    LpNumericalError,
    LpStatus,
    check_kkt,
    min_norm_kkt_residual,
    min_norm_solution,
    solve_lp,
)

import oracles
from oracles import brute_force_lp, brute_force_min_norm, child


def _status_name(status: LpStatus) -> str:
    return {
        LpStatus.OPTIMAL: "optimal",
        LpStatus.INFEASIBLE: "infeasible",
        LpStatus.UNBOUNDED: "unbounded",
    }[status]


class TestSolveAgainstOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_status_and_objective_match(self, seed):
        inst = gen_random(seed, m=3, n=5, nnz=8)
        status, objective, _ = brute_force_lp(inst)
        out = solve_lp(inst)
        assert _status_name(out.status) == status
        if status == "optimal":
            assert out.objective == pytest.approx(objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_child_instance_matches_oracle(self, seed):
        inst = gen_random(seed, m=3, n=5, nnz=8)
        sub = child(inst, 2, float(inst.lower[2]), float(0.5 * (inst.lower[2] + inst.upper[2])))
        status, objective, _ = brute_force_lp(sub)
        out = solve_lp(sub)
        assert _status_name(out.status) == status
        if status == "optimal":
            assert out.objective == pytest.approx(objective, abs=1e-6)

    def test_empty_child_interval_is_infeasible_without_a_solve(self, monkeypatch):
        inst = counterexample_pair()[1]
        children = lp._ChildLps(inst, solve_lp(inst).objective)
        runs = collections.Counter()
        run = lp._ChildLps._run

        def counting(self):
            runs["run"] += 1
            return run(self)

        monkeypatch.setattr(lp._ChildLps, "_run", counting)
        assert children.objective(0, 1.0, 0.0) == math.inf
        assert runs["run"] == 0
        assert children.objective(0, 0.0, 0.0) == pytest.approx(4.5, abs=1e-9)
        assert runs["run"] == 1


class TestKkt:
    @pytest.mark.parametrize("seed", range(30))
    def test_residual_small_on_solved_instances(self, seed):
        inst = gen_random(seed, m=4, n=8, nnz=16)
        out = solve_lp(inst)
        if out.status == LpStatus.OPTIMAL:
            assert check_kkt(inst, out.x, out.duals) <= 1e-8

    def test_counterexample_duals_certify(self):
        for inst in counterexample_pair():
            out = solve_lp(inst)
            assert out.status == LpStatus.OPTIMAL
            assert check_kkt(inst, out.x, out.duals) <= 1e-8


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), perm_seed=st.integers(0, 10_000))
    def test_objective_is_permutation_invariant(self, seed, perm_seed):
        inst = gen_random(seed, m=3, n=6, nnz=9)
        rng = np.random.default_rng(perm_seed)
        p = permute(inst, rng.permutation(3), rng.permutation(6))
        a, b = solve_lp(inst), solve_lp(p)
        assert a.status == b.status
        if a.status == LpStatus.OPTIMAL:
            assert a.objective == pytest.approx(b.objective, abs=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_tightening_bounds_never_improves(self, seed):
        inst = gen_random(seed, m=3, n=6, nnz=9)
        out = solve_lp(inst)
        if out.status != LpStatus.OPTIMAL:
            return
        j = seed % inst.n
        mid = 0.5 * (inst.lower[j] + inst.upper[j])
        tightened = solve_lp(child(inst, j, float(inst.lower[j]), float(mid)))
        if tightened.status == LpStatus.OPTIMAL:
            assert tightened.objective >= out.objective - 1e-9


class TestMinNorm:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_projection(self, seed):
        inst = gen_random(seed, m=2, n=4, nnz=5)
        out = solve_lp(inst)
        if out.status != LpStatus.OPTIMAL:
            return
        x = min_norm_solution(inst, out.objective, x0=out.x)
        oracle = brute_force_min_norm(inst, out.objective)
        assert oracle is not None
        assert np.abs(x - oracle).max() <= 1e-6

    @pytest.mark.parametrize("seed", range(30))
    def test_kkt_certificate(self, seed):
        inst = gen_random(seed, m=3, n=6, nnz=9)
        out = solve_lp(inst)
        if out.status != LpStatus.OPTIMAL:
            return
        x = min_norm_solution(inst, out.objective, x0=out.x)
        assert min_norm_kkt_residual(inst, out.objective, x) <= 1e-8

    # Set covers have degenerate optimal faces, where the least-norm point
    # most often needs stage 2.
    @pytest.mark.parametrize("seed", range(8))
    def test_set_cover_matches_brute_force_projection(self, seed):
        inst = gen_set_cover(seed, 3, 5, 0.4)
        out = solve_lp(inst)
        x = min_norm_solution(inst, out.objective, x0=out.x)
        assert np.abs(x - brute_force_min_norm(inst, out.objective)).max() <= 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_set_cover_kkt_certificate(self, seed):
        inst = gen_set_cover(seed, 10, 20, 0.2)
        out = solve_lp(inst)
        x = min_norm_solution(inst, out.objective, x0=out.x)
        assert min_norm_kkt_residual(inst, out.objective, x) <= 1e-8

    def test_counterexample_min_norm_is_half(self):
        for inst in counterexample_pair():
            out = solve_lp(inst)
            assert out.objective == pytest.approx(4.0, abs=1e-9)
            x = min_norm_solution(inst, out.objective, x0=out.x)
            assert np.abs(x - 0.5).max() <= 1e-9

    def test_norm_never_exceeds_vertex_norm(self):
        for seed in range(10):
            inst = gen_random(seed, m=3, n=5, nnz=8)
            out = solve_lp(inst)
            if out.status != LpStatus.OPTIMAL:
                continue
            x = min_norm_solution(inst, out.objective, x0=out.x)
            assert x @ x <= out.x @ out.x + 1e-7


@st.composite
def min_norm_instances(draw):
    """A set cover 3x5 at density 0.4, or a random 3x6 instance whose
    bounds are each finite or infinite and whose rows take any sense."""
    seed = draw(st.integers(0, 2**20))
    if draw(st.booleans()):
        return gen_set_cover(seed, 3, 5, 0.4)
    inst = gen_random(seed, m=3, n=6, nnz=9)

    def finite():
        return np.array(draw(st.lists(st.booleans(), min_size=6, max_size=6)))

    return dataclasses.replace(
        inst,
        lower=np.where(finite(), inst.lower, -np.inf),
        upper=np.where(finite(), inst.upper, np.inf),
        senses=draw(st.lists(st.sampled_from(list(Sense)), min_size=3, max_size=3)),
    )


# seed 24 of the set covers 3x5 needs stage 2, and its least-norm point is
# 0.5 away from the vertex HiGHS returns; seed 1 ends at stage 1
STAGE_2_COVER, STAGE_1_COVER = gen_set_cover(24, 3, 5, 0.4), gen_set_cover(1, 3, 5, 0.4)
# with free x2 and x5, x3 only bounded above and x4 only below, and rows
# (=, =, <=): a projection 2.2e-9 off a row lies nearer 0 than x*, so an
# oracle that accepts points 1e-8 off the face returns it
_LOOSE = gen_random(530174, m=3, n=6, nnz=9)
NEAR_FACE = dataclasses.replace(
    _LOOSE,
    lower=np.where(np.isin(np.arange(6), [2, 3, 5]), -np.inf, _LOOSE.lower),
    upper=np.where(np.isin(np.arange(6), [2, 4, 5]), np.inf, _LOOSE.upper),
    senses=[Sense.EQ, Sense.EQ, Sense.LE],
)


def _plant_qp(monkeypatch, method, answer):
    """The least-norm QP's HiGHS instance answers ``method()`` with
    ``answer(real answer)``; every other model is left as it is."""
    build = lp._highs_model

    def planted(*args):
        highs = build(*args)
        if args[-1] != "the least-norm QP":
            return highs
        qp = types.SimpleNamespace(**{name: getattr(highs, name) for name in dir(highs) if not name.startswith("_")})
        setattr(qp, method, lambda: answer(getattr(highs, method)()))
        return qp

    monkeypatch.setattr(lp, "_highs_model", planted)


class TestMinNormStages:
    """Stage 1 (one projection) and stage 2 (HiGHS's QP, certified) against
    the brute-force projection, and the failures stage 2 must raise."""

    def test_matches_brute_force_on_both_stages(self, monkeypatch):
        counts = collections.Counter()
        certify = lp._stationarity_certified

        def counting(*args):
            counts["stage 2"] += 1
            return certify(*args)

        monkeypatch.setattr(lp, "_stationarity_certified", counting)

        @settings(max_examples=40, deadline=None)
        @given(inst=min_norm_instances())
        @example(inst=STAGE_2_COVER)
        @example(inst=STAGE_1_COVER)
        @example(inst=NEAR_FACE)
        def agrees(inst):
            out = solve_lp(inst)
            if out.status != LpStatus.OPTIMAL:
                return
            counts["calls"] += 1
            x = min_norm_solution(inst, out.objective, duals=out.duals)
            oracle = brute_force_min_norm(inst, out.objective)
            assert oracles.primal_residual(inst, oracle) <= oracles.FACE_TOL
            # the oracle's pseudo-inverse is the less accurate of the two on
            # large points
            assert np.abs(x - oracle).max() <= 1e-9 * (1.0 + np.abs(oracle).max())

        agrees()
        assert 0 < counts["stage 2"] < counts["calls"], counts

    def test_a_qp_that_is_not_optimal_raises(self, monkeypatch, capsys, tmp_path):
        _plant_qp(monkeypatch, "getModelStatus", lambda real: lp._highs.HighsModelStatus.kIterationLimit)
        out = solve_lp(STAGE_2_COVER)
        with pytest.raises(LpNumericalError, match="least-norm QP failure: Iteration limit"):
            min_norm_solution(STAGE_2_COVER, out.objective, duals=out.duals)
        path = tmp_path / "cover.json"
        path.write_text(serialize_instance(STAGE_2_COVER))
        assert cli.main(["sb-score", str(path)]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: least-norm QP failure")

    def test_a_perturbed_qp_answer_is_not_certified(self, monkeypatch):
        out = solve_lp(STAGE_2_COVER)
        x = min_norm_solution(STAGE_2_COVER, out.objective, duals=out.duals)
        assert lp._stationarity_certified(STAGE_2_COVER, out.objective, x)
        # halfway to the vertex: still on the optimal face, but not least-norm
        moved = 0.5 * (x + out.x)
        assert np.abs(moved - x).max() >= 0.2
        assert not lp._stationarity_certified(STAGE_2_COVER, out.objective, moved)
        _plant_qp(monkeypatch, "getSolution", lambda real: types.SimpleNamespace(col_value=moved))
        with pytest.raises(LpNumericalError, match="not stationary"):
            min_norm_solution(STAGE_2_COVER, out.objective, duals=out.duals)


def _bits(v):
    v = np.asarray(v)
    return v.dtype.str, v.shape, v.tobytes()


VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-100.0, 100.0))


@st.composite
def certificate_cases(draw):
    """An instance with <=, >= and = rows and finite, one-sided and free
    bounds (m or n may be 0), an arbitrary point x, arbitrary multipliers
    and an objective value."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 5))

    def vec(k):
        return np.array(draw(st.lists(VALUES, min_size=k, max_size=k)), dtype=float)

    lower, upper = [], []
    for _ in range(n):
        lo, hi = sorted(draw(st.lists(VALUES, min_size=2, max_size=2)))
        lower.append(draw(st.sampled_from([lo, -np.inf])))
        upper.append(draw(st.sampled_from([hi, np.inf])))
    cells = [k for k in range(m * n) if draw(st.booleans())]
    inst = MilpInstance(
        m=m, n=n, c=vec(n), b=vec(m), senses=draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)),
        lower=lower, upper=upper, integer=[False] * n,
        a_rows=[k // n for k in cells], a_cols=[k % n for k in cells],
        a_vals=[draw(VALUES.filter(lambda v: v != 0.0)) for _ in cells],
    )
    duals = LpDuals(y=vec(m), z_lower=vec(n), z_upper=vec(n))
    return inst, vec(n), duals, draw(VALUES)


def _empty_side_case(m, n):
    """An instance with no rows or no variables, and a point off its face."""
    inst = MilpInstance(
        m=m, n=n, c=np.ones(n), b=-np.ones(m), senses=np.arange(m) % 3, lower=-np.ones(n), upper=np.full(n, np.inf),
        integer=[False] * n, a_rows=[], a_cols=[], a_vals=[],
    )
    return inst, np.full(n, -2.0), LpDuals(y=np.ones(m), z_lower=-np.ones(n), z_upper=np.ones(n)), 3.0


class TestCertificatesAgainstLoopOracle:
    """The array certificates equal the row-by-row loops in ``oracles`` bit
    for bit, on points and multipliers that are neither feasible nor
    optimal."""

    @settings(max_examples=300, deadline=None)
    @given(case=certificate_cases())
    @example(case=_empty_side_case(0, 3))
    @example(case=_empty_side_case(3, 0))
    def test_bitwise_equal(self, case):
        inst, x, duals, f_star = case
        got = lp._primal_residual(inst, inst.dense_matrix() @ x, x)
        assert _bits(got) == _bits(oracles.primal_residual(inst, x))
        assert _bits(check_kkt(inst, x, duals)) == _bits(oracles.check_kkt(inst, x, duals))
        for got, want in zip(lp._face_constraints(inst, f_star), oracles.face_constraints(inst, f_star)):
            assert _bits(got) == _bits(want)

    # x0 in [0, 2], x1 free, x2 in [0, 1]; rows x0 + x1 <= 2, x0 >= -5,
    # x1 = 0; c = 0.  At x = (2, 0, 0.5) with zero multipliers every term is
    # 0; each case below makes one term the largest, "overridden bound violation"
    # on the child LP with x2 in [0, 0.25].
    KKT_TERMS = {
        "stationarity": (dict(zu=[0.5, 0, 0]), 0.5),
        "row violation": (dict(x=[2, -3, 0.5]), 3.0),
        "bound violation": (dict(x=[2, 0, 1.25]), 0.25),
        "overridden bound violation": (dict(x2_upper=0.25), 0.25),
        "row multiplier sign": (dict(y=[0.7, 0, -0.7], zu=[0.7, 0, 0]), 0.7),
        "row complementarity": (dict(y=[0, 0.3, 0], zu=[0.3, 0, 0]), 2.1),
        "bound multiplier sign": (dict(zl=[0, 0, -0.4], zu=[0, 0, -0.4]), 0.4),
        "bound complementarity": (dict(zl=[0, 0, 0.6], zu=[0, 0, 0.6]), 0.3),
        "infinite-bound multiplier": (dict(zl=[0, 0.8, 0], zu=[0, 0.8, 0]), 0.8),
    }

    @pytest.mark.parametrize("term", list(KKT_TERMS))
    def test_each_term_can_be_the_largest(self, term):
        inst = MilpInstance(
            m=3, n=3, c=np.zeros(3), b=[2.0, -5.0, 0.0], senses=[Sense.LE, Sense.GE, Sense.EQ],
            lower=[0.0, -np.inf, 0.0], upper=[2.0, np.inf, 1.0], integer=[False] * 3,
            a_rows=[0, 0, 1, 2], a_cols=[0, 1, 0, 1], a_vals=[1.0, 1.0, 1.0, 1.0],
        )
        change, expected = self.KKT_TERMS[term]
        args = dict(x=[2, 0, 0.5], y=[0, 0, 0], zl=[0, 0, 0], zu=[0, 0, 0], x2_upper=1.0) | change
        inst = child(inst, 2, 0.0, args["x2_upper"])
        x = np.array(args["x"], dtype=float)
        duals = LpDuals(*(np.array(args[k], dtype=float) for k in ("y", "zl", "zu")))
        got = check_kkt(inst, x, duals)
        assert got == pytest.approx(expected, rel=1e-12)
        assert _bits(got) == _bits(oracles.check_kkt(inst, x, duals))


MISSING_BINDING = """
import sys
import scipy.optimize._highspy as highspy

# scipy itself imported the binding; hide it as a scipy without it would
del highspy._core
sys.modules["scipy.optimize._highspy._core"] = None
try:
    import milpgnn.lp
except ImportError as exc:
    print(exc)
else:
    print("imported")
"""


def test_a_missing_highs_binding_names_the_scipy_version():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", MISSING_BINDING], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert "scipy.optimize._highspy._core" in proc.stdout
    assert f"the installed scipy {scipy.__version__} does not provide" in proc.stdout
