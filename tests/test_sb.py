import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milpgnn import cli, gen, lp
from milpgnn.gen import counterexample_pair, gen_random, gen_set_cover
from milpgnn.instance import MilpInstance, Sense, permute, serialize_instance
from milpgnn.lp import LpNumericalError, LpStatus, solve_lp
from milpgnn.sb import (
    PRODUCT_RULE,
    RelaxationInfeasibleError,
    RelaxationUnboundedError,
    ScoreRule,
    sb_scores,
)

from oracles import brute_force_lp, brute_force_min_norm, child, sb_scores_solved


def oracle_sb(inst: MilpInstance):
    """Recompute scores end-to-end with the brute-force oracles only."""
    status, f_star, _ = brute_force_lp(inst)
    assert status == "optimal"
    x_star = brute_force_min_norm(inst, f_star)
    scores = np.zeros(inst.n)
    for j in range(inst.n):
        if not inst.integer[j]:
            continue
        xj = float(x_star[j])
        nearest = round(xj)
        if abs(xj - nearest) <= 1e-9:
            xj = nearest
        deltas = []
        for lower, upper in [(inst.lower[j], math.floor(xj)), (math.ceil(xj), inst.upper[j])]:
            sub = child(inst, j, lower, upper)
            status, f_child, _ = brute_force_lp(sub) if sub is not None else ("infeasible", None, [])
            deltas.append(max(f_child - f_star, 0.0) if status == "optimal" else math.inf)
        d_down, d_up = deltas
        scores[j] = -1.0 if math.isinf(d_down) or math.isinf(d_up) else d_down * d_up
    return scores


class TestFrozenValues:
    def test_cycle_scores_are_zero(self):
        scores = sb_scores(counterexample_pair()[0]).scores
        assert np.abs(scores).max() <= 1e-9

    def test_split_scores(self):
        expected = np.array([0.25] * 6 + [0.0, 0.0])
        scores = sb_scores(counterexample_pair()[1]).scores
        assert np.abs(scores - expected).max() <= 1e-9

    def test_relaxation_facts(self):
        for inst in counterexample_pair():
            result = sb_scores(inst)
            assert result.f_star == pytest.approx(4.0, abs=1e-9)
            assert np.abs(result.x_star - 0.5).max() <= 1e-9

    def test_split_child_optima(self):
        inst = counterexample_pair()[1]
        result = sb_scores(inst)
        assert np.abs(result.deltas[0] - 0.5).max() <= 1e-9  # 4.5 - 4 both ways


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_small_random_instances(self, seed):
        inst = gen_random(seed, m=2, n=4, nnz=5)
        if solve_lp(inst).status != LpStatus.OPTIMAL:
            return
        mine = sb_scores(inst).scores
        ref = oracle_sb(inst)
        finite = (ref >= 0) & (mine >= 0)
        assert (mine < 0) .tolist() == (ref < 0).tolist()
        if finite.any():
            assert np.abs(mine[finite] - ref[finite]).max() <= 1e-7

    # Tiny covers: many of their variables are integral at x*, so sb_scores
    # skips those children while the oracle solves them.
    @pytest.mark.parametrize("seed", range(8))
    def test_small_set_covers(self, seed):
        inst = gen_set_cover(seed, 3, 4, 0.5)
        assert np.abs(sb_scores(inst).scores - oracle_sb(inst)).max() <= 1e-7


def cycle_cover(lengths: list[int], seed: int) -> MilpInstance:
    """Covering rows x_a + x_b >= 1 along disjoint cycles of the given
    lengths, over variable labels and rows shuffled by ``seed``."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(sum(lengths)).tolist()
    pairs, pos = [], 0
    for size in lengths:
        cycle = labels[pos : pos + size]
        pos += size
        pairs += [(cycle[k], cycle[(k + 1) % size]) for k in range(size)]
    return gen._covering_instance([pairs[i] for i in rng.permutation(len(pairs))], len(pairs))


@st.composite
def cycle_covers(draw) -> MilpInstance:
    """``cycle_cover`` on drawn lengths, as the benchmark's cycle-cover
    family builds them."""
    return cycle_cover(draw(st.lists(st.integers(2, 7), min_size=1, max_size=4)), draw(st.integers(0, 2**32 - 1)))


@st.composite
def skip_instances(draw) -> tuple[str, MilpInstance]:
    family = draw(st.sampled_from(["set-cover", "set-cover with = rows", "random", "random with infinite bounds", "cycles"]))
    if family == "cycles":
        return family, draw(cycle_covers())
    seed = draw(st.integers(0, 10_000))
    if family.startswith("set-cover"):
        inst = gen_set_cover(seed, 10, 20, 0.2)
        if family == "set-cover with = rows":
            eq = np.array(draw(st.lists(st.booleans(), min_size=inst.m, max_size=inst.m)))
            inst = dataclasses.replace(inst, senses=np.where(eq, Sense.EQ, inst.senses).astype(np.int8))
        return family, inst
    inst = gen_random(seed, m=3, n=6, nnz=9)
    if family == "random with infinite bounds":
        free_below = np.array(draw(st.lists(st.booleans(), min_size=inst.n, max_size=inst.n)))
        free_above = np.array(draw(st.lists(st.booleans(), min_size=inst.n, max_size=inst.n)))
        inst = dataclasses.replace(inst, lower=np.where(free_below, -np.inf, inst.lower), upper=np.where(free_above, np.inf, inst.upper))
    return family, inst


class TestSkipAgainstSolvedPath:
    """A variable integral at x* gets deltas (0, 0) without a child LP; the
    oracle that solves every child through ``solve_lp`` must agree with
    the hot-started child LPs and the skips."""

    def test_matches_oracle(self, monkeypatch):
        skips_on_set_cover = []
        solves = []
        child_objective = lp._ChildLps.objective

        def counting_objective(*args, **kwargs):
            solves.append(1)
            return child_objective(*args, **kwargs)

        monkeypatch.setattr(lp._ChildLps, "objective", counting_objective)

        @settings(max_examples=40, deadline=None)
        @given(case=skip_instances(), rule=st.sampled_from([PRODUCT_RULE, ScoreRule("linear", 0.3)]))
        @example(case=("set-cover", gen_set_cover(0, 10, 20, 0.2)), rule=PRODUCT_RULE)
        def agrees(case, rule):
            family, inst = case
            if solve_lp(inst).status != LpStatus.OPTIMAL:
                return
            solves.clear()
            mine = sb_scores(inst, rule)
            ref = sb_scores_solved(inst, rule)
            assert np.array_equal(mine.x_star, ref.x_star) and mine.f_star == ref.f_star
            assert ((mine.scores < 0) == (ref.scores < 0)).all()
            assert np.abs(mine.scores - ref.scores).max(initial=0.0) <= 1e-9
            assert (np.isinf(mine.deltas) == np.isinf(ref.deltas)).all()
            finite = np.isfinite(ref.deltas)
            assert np.abs(mine.deltas[finite] - ref.deltas[finite]).max(initial=0.0) <= 1e-9
            if family == "set-cover":
                skips_on_set_cover.append(2 * int(inst.integer.sum()) - len(solves))

        agrees()
        assert max(skips_on_set_cover) > 0


ALL_EVEN, ALL_ODD, MIXED = [4, 6, 10, 10], [3, 5, 7], [2, 3, 4, 5, 8, 9]


class TestKnownOptimalPoints:
    """A child whose box on x_j holds a relaxation optimum seen so far (the
    vertex, x*, or a solved child with delta 0) is settled without an LP."""

    @pytest.mark.parametrize(
        "inst",
        [pytest.param(gen_random(seed), id=f"random-{seed}") for seed in (0, 2, 4, 5, 7)]
        + [pytest.param(gen_set_cover(seed, 30, 60, 0.1), id=f"set-cover-{seed}") for seed in range(3)]
        + [
            pytest.param(cycle_cover(lengths, seed), id=f"cycles-{kind}-{seed}")
            for kind, lengths in (("even", ALL_EVEN), ("odd", ALL_ODD), ("mixed", MIXED))
            for seed in range(2)
        ],
    )
    def test_matches_the_every_child_oracle(self, inst):
        mine, ref = sb_scores(inst), sb_scores_solved(inst, PRODUCT_RULE)
        assert mine.f_star == ref.f_star
        assert ((mine.scores < 0) == (ref.scores < 0)).all()
        assert np.abs(mine.scores - ref.scores).max() <= 1e-9
        assert (np.isinf(mine.deltas) == np.isinf(ref.deltas)).all()
        finite = np.isfinite(ref.deltas)
        assert np.abs(mine.deltas[finite] - ref.deltas[finite]).max() <= 1e-9

    @staticmethod
    def runs(monkeypatch, inst) -> int:
        """How many times ``sb_scores(inst)`` runs a ``_ChildLps`` model,
        the relaxation's run included."""
        count = []
        run = lp._ChildLps._run

        def counting(self):
            count.append(1)
            return run(self)

        monkeypatch.setattr(lp._ChildLps, "_run", counting)
        sb_scores(inst)
        return len(count)

    def test_even_cycles_skip_most_children(self, monkeypatch):
        # every variable takes both 0 and 1 at optimal points, which the
        # first solved children reveal
        inst = cycle_cover(ALL_EVEN, 0)
        assert self.runs(monkeypatch, inst) < inst.n

    def test_odd_cycles_solve_every_child(self, monkeypatch):
        # the relaxation's only optimum is x = 1/2
        inst = cycle_cover(ALL_ODD, 0)
        assert self.runs(monkeypatch, inst) == 2 * inst.n + 1


class TestRepeatability:
    """No solver state outlives a call: the same instance gives the same
    bits first, again, and after other instances were scored."""

    def test_bitwise_equal_across_calls(self):
        insts = [gen_set_cover(0, 30, 60, 0.1), gen_random(2), counterexample_pair()[1], gen_random(5)]
        first = [sb_scores(inst) for inst in insts]
        again = [sb_scores(inst) for inst in insts]
        later = [sb_scores(inst) for inst in reversed(insts)][::-1]
        for ref, *others in zip(first, again, later):
            assert np.isfinite(ref.deltas).any() and (ref.deltas > 0).any()
            for other in others:
                assert other.f_star == ref.f_star
                for field in ("scores", "deltas", "x_star"):
                    assert getattr(other, field).tobytes() == getattr(ref, field).tobytes(), field


Status = lp._highs.HighsModelStatus


def _children_report(monkeypatch, status):
    """Every child LP reports ``status``; the relaxation's model solves as it is."""
    run = lp._ChildLps._run

    def patched(self):
        real = run(self)
        return status if hasattr(self, "_basis") else real

    monkeypatch.setattr(lp._ChildLps, "_run", patched)


class TestChildLpStatuses:
    """The child model's statuses map as linprog's do in ``solve_lp``,
    except that an unbounded child of an optimal relaxation is a numerical
    failure."""

    def test_optimal_gives_the_objective(self, monkeypatch):
        inst = counterexample_pair()[1]
        children = lp._ChildLps(inst, 4.0)
        for j, lower, upper in [(0, 0.0, 0.0), (0, 1.0, 1.0), (6, 0.0, 0.0), (7, 1.0, 1.0)]:
            want = solve_lp(child(inst, j, lower, upper)).objective
            assert children.objective(j, lower, upper) == pytest.approx(want, abs=1e-9)
        _children_report(monkeypatch, Status.kOptimal)
        assert np.abs(sb_scores(inst).scores - np.array([0.25] * 6 + [0.0, 0.0])).max() <= 1e-9

    def test_infeasible_scores_the_sentinel(self, monkeypatch):
        _children_report(monkeypatch, Status.kInfeasible)
        result = sb_scores(counterexample_pair()[1])
        assert result.scores.tolist() == [-1.0] * 8
        # a child that holds a known optimal point is settled without a solve
        assert np.isin(result.deltas, [math.inf, 0.0]).all()
        assert np.isinf(result.deltas).any(axis=1).all()

    @pytest.mark.parametrize(
        "status",
        [Status.kUnboundedOrInfeasible, Status.kIterationLimit, Status.kTimeLimit, Status.kSolveError, Status.kNotset, Status.kUnbounded],
    )
    def test_any_other_status_is_a_numerical_failure(self, monkeypatch, capsys, tmp_path, status):
        _children_report(monkeypatch, status)
        with pytest.raises(LpNumericalError, match="child LP of x_0"):
            sb_scores(counterexample_pair()[1])
        path = tmp_path / "split.json"
        path.write_text(serialize_instance(counterexample_pair()[1]))
        assert cli.main(["sb-score", str(path)]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: LP backend failure")

    def test_unbounded_children_of_the_benchmark_fault_input_exit_4(self, capsys):
        # HiGHS calls the up child of x_3 unbounded under its optimal relaxation
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs", "qp_nonconvergence.json")
        assert cli.main(["sb-score", path]) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: LP backend failure on the child LP of x_3: unbounded below an optimal relaxation\n"

    def test_a_relaxation_optimum_off_f_star_raises(self):
        inst = gen_set_cover(0, 30, 60, 0.1)
        f_star = solve_lp(inst).objective
        lp._ChildLps(inst, f_star * (1 + 1e-12))
        for off in (f_star * (1 + 2e-9), f_star * (1 - 2e-9), f_star + 1.0):
            with pytest.raises(LpNumericalError, match="the LP optimum is"):
                lp._ChildLps(inst, off)

    def test_a_relaxation_that_is_not_optimal_raises(self, monkeypatch):
        monkeypatch.setattr(lp._ChildLps, "_run", lambda self: Status.kIterationLimit)
        with pytest.raises(LpNumericalError, match="relaxation's model"):
            sb_scores(counterexample_pair()[1])


class TestFormerQpFault:
    """gen_random(4208133) made the former active-set least-norm QP cycle
    until its iteration budget ran out, so ``sb_scores`` raised
    ``LpNumericalError``; about 1 set cover 30x60 in 600 did the same."""

    def test_scores_it_like_the_solved_path(self, capsys, tmp_path):
        inst = gen_random(4208133)
        result = sb_scores(inst)
        assert np.linalg.norm(result.x_star) == pytest.approx(45.6322633477, rel=1e-9)
        assert np.abs(result.scores - sb_scores_solved(inst, PRODUCT_RULE).scores).max() <= 1e-9
        path = tmp_path / "fault.json"
        path.write_text(serialize_instance(inst))
        assert cli.main(["sb-score", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestProperties:
    def test_continuous_variables_score_zero(self):
        for seed in range(10):
            inst = gen_random(seed)
            if solve_lp(inst).status != LpStatus.OPTIMAL:
                continue
            scores = sb_scores(inst).scores
            assert np.abs(scores[~inst.integer]).max(initial=0.0) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000), perm_seed=st.integers(0, 5_000))
    def test_permutation_equivariance(self, seed, perm_seed):
        inst = gen_random(seed, m=3, n=6, nnz=9)
        if solve_lp(inst).status != LpStatus.OPTIMAL:
            return
        rng = np.random.default_rng(perm_seed)
        sv, sw = rng.permutation(inst.m), rng.permutation(inst.n)
        base = sb_scores(inst).scores
        permuted = sb_scores(permute(inst, sv, sw)).scores
        assert np.abs(permuted[sw] - base).max() <= 1e-9

    def test_cyclic_shift_of_cycle_preserves_scores(self):
        inst = counterexample_pair()[0]
        shift = np.array([(k + 1) % 8 for k in range(8)])
        base = sb_scores(inst).scores
        shifted = sb_scores(permute(inst, shift, shift)).scores
        assert np.abs(shifted[shift] - base).max() <= 1e-9


class TestRules:
    def test_product_rule_is_default(self):
        inst = counterexample_pair()[1]
        assert np.array_equal(sb_scores(inst).scores, sb_scores(inst, PRODUCT_RULE).scores)

    def test_linear_rule_combines_deltas(self):
        inst = counterexample_pair()[1]
        result = sb_scores(inst, ScoreRule("linear", 0.3))
        expected = 0.3 * result.deltas[:, 0] + 0.7 * result.deltas[:, 1]
        expected[~inst.integer] = 0.0
        assert np.abs(result.scores - expected).max() <= 1e-12

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            ScoreRule("geometric").combine(1.0, 2.0)


class TestUndefinedAndSentinel:
    def test_infeasible_relaxation_raises(self):
        inst = MilpInstance(
            m=2, n=1, c=np.ones(1), b=np.array([1.0, -1.0]),
            senses=np.array([Sense.GE, Sense.LE], dtype=np.int8),
            lower=np.array([-10.0]), upper=np.array([10.0]),
            integer=np.array([True]),
            a_rows=np.array([0, 1]), a_cols=np.array([0, 0]), a_vals=np.array([1.0, 1.0]),
        )
        with pytest.raises(RelaxationInfeasibleError):
            sb_scores(inst)

    def test_unbounded_relaxation_raises(self):
        inst = MilpInstance(
            m=1, n=1, c=np.array([-1.0]), b=np.array([0.0]),
            senses=np.array([Sense.GE], dtype=np.int8),
            lower=np.array([0.0]), upper=np.array([np.inf]),
            integer=np.array([True]),
            a_rows=np.array([0]), a_cols=np.array([0]), a_vals=np.array([1.0]),
        )
        with pytest.raises(RelaxationUnboundedError):
            sb_scores(inst)

    def test_infinite_score_sentinel(self):
        # x integer in [0.2, 0.8]: both children empty -> score -1
        inst = MilpInstance(
            m=1, n=2, c=np.array([1.0, 1.0]), b=np.array([1.0]),
            senses=np.array([Sense.GE], dtype=np.int8),
            lower=np.array([0.2, 0.0]), upper=np.array([0.8, 5.0]),
            integer=np.array([True, False]),
            a_rows=np.array([0, 0]), a_cols=np.array([0, 1]), a_vals=np.array([1.0, 1.0]),
        )
        result = sb_scores(inst)
        assert result.scores[0] == -1.0
        assert np.isinf(result.deltas[0]).all()

    def test_snapped_value_outside_the_bounds_is_solved(self):
        # x* = upper = 1 - 5e-10 snaps to 1, but the up child [1, upper] is
        # empty, so the variable is not skipped and scores -1
        inst = MilpInstance(
            m=1, n=1, c=np.array([-1.0]), b=np.array([5.0]),
            senses=np.array([Sense.LE], dtype=np.int8),
            lower=np.array([0.0]), upper=np.array([1.0 - 5e-10]),
            integer=np.array([True]),
            a_rows=np.array([0]), a_cols=np.array([0]), a_vals=np.array([1.0]),
        )
        result = sb_scores(inst)
        assert result.scores[0] == -1.0
        assert result.deltas[0].tolist() == [0.0, math.inf]


def no_variables(senses, b) -> MilpInstance:
    return MilpInstance(
        m=len(b), n=0, c=np.zeros(0), b=np.array(b, dtype=float),
        senses=np.array(senses, dtype=np.int8),
        lower=np.zeros(0), upper=np.zeros(0), integer=np.zeros(0, dtype=bool),
        a_rows=np.zeros(0), a_cols=np.zeros(0), a_vals=np.zeros(0),
    )


class TestNoVariables:
    """With n = 0 every row reads 0 o b_i, and no LP solver is called."""

    def test_rows_that_hold_score_nothing(self):
        result = sb_scores(no_variables([Sense.LE, Sense.EQ, Sense.GE], [1.0, 0.0, -2.0]))
        assert result.f_star == 0.0
        assert result.x_star.shape == result.scores.shape == (0,)
        assert result.deltas.shape == (0, 2)

    @pytest.mark.parametrize("sense, rhs", [(Sense.GE, 1.0), (Sense.LE, -1.0), (Sense.EQ, 0.5)])
    def test_a_failing_row_is_infeasible(self, sense, rhs):
        with pytest.raises(RelaxationInfeasibleError):
            sb_scores(no_variables([Sense.LE, sense], [1.0, rhs]))
        assert solve_lp(no_variables([sense], [rhs])).status == LpStatus.INFEASIBLE
