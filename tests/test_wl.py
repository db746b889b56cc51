import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from milpgnn import fwl, wl
from milpgnn.fwl import fwl2_compare
from milpgnn.gen import counterexample_pair, gen_random, gen_set_cover
from milpgnn.instance import MilpInstance, Sense, build_graph, permute
from milpgnn.wl import StablePartition, is_mp_tractable, stable_partition, wl_indistinguishable
from tests_helpers import class_count, refine_rounds, refinements_to_joint_stability


def three_var_example() -> MilpInstance:
    """Two identical-featured constraints over three identical-featured
    binary variables; x1 and x2 appear in both rows, x3 only in the first."""
    return MilpInstance(
        m=2,
        n=3,
        c=np.ones(3),
        b=np.ones(2),
        senses=np.full(2, Sense.GE, dtype=np.int8),
        lower=np.zeros(3),
        upper=np.ones(3),
        integer=np.ones(3, dtype=bool),
        a_rows=np.array([0, 0, 0, 1, 1]),
        a_cols=np.array([0, 1, 2, 0, 1]),
        a_vals=np.ones(5),
    )


@pytest.fixture
def refine_calls(monkeypatch):
    """One entry per WL refinement round run from here on."""
    refiner = wl._refiner
    calls = []

    def counting(graphs):
        colorings, refine_once = refiner(graphs)
        return colorings, lambda colorings: calls.append(1) or refine_once(colorings)

    monkeypatch.setattr(wl, "_refiner", counting)
    return calls


class TestStablePartition:
    def test_three_var_example_partition(self):
        part = stable_partition(build_graph(three_var_example()))
        assert part.classes_v == ((0,), (1,))
        assert part.classes_w == ((0, 1), (2,))

    def test_three_var_example_converges_in_one_round(self):
        part = stable_partition(build_graph(three_var_example()))
        assert part.rounds_to_converge == 1

    def test_counterexample_partitions_are_single_class(self):
        for inst in counterexample_pair():
            part = stable_partition(build_graph(inst))
            assert part.classes_v == (tuple(range(8)),)
            assert part.classes_w == (tuple(range(8)),)

    @pytest.mark.parametrize(
        "make, refinements",
        [(lambda: gen_set_cover(0, 100, 200, 0.1), 2), (lambda: gen_random(0), 0), (lambda: gen_random(1), 0)],
        ids=["set-cover 100x200", "random 0", "random 1"],
    )
    def test_a_discrete_coloring_is_not_refined_again(self, refine_calls, make, refinements):
        # every node ends in a class of its own, after `refinements` rounds,
        # and no round follows to confirm it
        inst = make()
        part = stable_partition(inst)
        assert (len(part.classes_v), len(part.classes_w)) == (inst.m, inst.n)
        assert len(refine_calls) == part.rounds_to_converge == refinements

    def test_round_zero_groups_by_features(self):
        cv, cw = refine_rounds(wl, build_graph(three_var_example()), 0)
        assert len(set(cv)) == 1
        assert len(set(cw)) == 1

    def test_refinement_is_monotone(self):
        # classes only split, never merge
        g = build_graph(gen_random(11))
        prev = None
        for rounds in range(8):
            k = class_count(refine_rounds(wl, g, rounds))
            if prev is not None:
                assert k >= prev
            prev = k

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_convergence_within_node_count(self, seed):
        inst = gen_random(seed, m=4, n=7, nnz=12)
        part = stable_partition(build_graph(inst))
        assert part.rounds_to_converge <= inst.m + inst.n

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), perm_seed=st.integers(0, 100_000))
    def test_partition_is_permutation_equivariant(self, seed, perm_seed):
        inst = gen_random(seed, m=3, n=6, nnz=9)
        rng = np.random.default_rng(perm_seed)
        sv, sw = rng.permutation(3), rng.permutation(6)
        part = stable_partition(build_graph(inst))
        part_p = stable_partition(build_graph(permute(inst, sv, sw)))
        mapped_v = sorted(tuple(sorted(sv[i] for i in c)) for c in part.classes_v)
        mapped_w = sorted(tuple(sorted(sw[j] for j in c)) for c in part.classes_w)
        assert mapped_v == sorted(part_p.classes_v)
        assert mapped_w == sorted(part_p.classes_w)


class TestTractability:
    def test_three_var_example_tractable(self):
        ok, witness = is_mp_tractable(three_var_example())
        assert ok and witness is None

    def test_counterexample_intractable_with_witness(self):
        for inst in counterexample_pair():
            ok, witness = is_mp_tractable(inst)
            assert not ok
            p, q, i1, i2, j1, j2 = witness
            a = inst.dense_matrix()
            assert a[i1, j1] != a[i2, j2]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_unfoldable_implies_tractable(self, seed):
        # all-singleton stable partitions leave 1x1 blocks, always constant
        inst = gen_random(seed, m=4, n=7, nnz=12)
        part = stable_partition(build_graph(inst))
        if all(len(c) == 1 for c in part.classes_v + part.classes_w):
            ok, _ = is_mp_tractable(inst)
            assert ok

    def test_generic_random_instances_mostly_unfoldable(self):
        # continuous data makes colliding features probability-zero
        unfoldable = 0
        for seed in range(50):
            part = stable_partition(build_graph(gen_random(seed)))
            if all(len(c) == 1 for c in part.classes_v + part.classes_w):
                unfoldable += 1
        assert unfoldable >= 49


class TestIndistinguishability:
    def test_counterexample_pair_indistinguishable(self):
        g1, g2 = (build_graph(i) for i in counterexample_pair())
        assert wl_indistinguishable(g1, g2)

    def test_graph_indistinguishable_from_itself(self):
        g = build_graph(gen_random(0))
        assert wl_indistinguishable(g, g)

    def test_distinct_random_instances_distinguished(self):
        g1 = build_graph(gen_random(1))
        g2 = build_graph(gen_random(2))
        assert not wl_indistinguishable(g1, g2)

    def test_size_mismatch_raises(self):
        g1 = build_graph(gen_random(0, m=3, n=5, nnz=6))
        g2 = build_graph(gen_random(0))
        with pytest.raises(ValueError):
            wl_indistinguishable(g1, g2)


class TestStopOnceParted:
    def test_parted_pairs_stop_before_joint_stability(self, refine_calls):
        # two random 30x60 set covers part after one round, a few rounds
        # before their joint stability
        for seed in range(0, 40, 2):
            a, b = gen_set_cover(seed, 30, 60, 0.1), gen_set_cover(seed + 1, 30, 60, 0.1)
            refine_calls.clear()
            assert wl_indistinguishable(a, b) is oracles.wl_indistinguishable(a, b) is False
            stopped = len(refine_calls)
            assert stopped < refinements_to_joint_stability(*wl._refiner([a, b])), seed


class TestComplexityTrend:
    def test_refinement_cost_scales_near_linearly_in_rounds(self):
        # one round over a fixed graph should cost O(edges); check a factor-3
        # slack on doubling the instance
        import time

        def cost(n):
            inst = gen_random(0, m=n, n=2 * n, nnz=4 * n)
            g = build_graph(inst)
            t0 = time.perf_counter()
            for _ in range(5):
                refine_rounds(wl, g, 3)
            return time.perf_counter() - t0

        small, large = cost(20), cost(40)
        assert large <= 6 * small + 0.05


ZERO_HEAVY = [0.0, -0.0, 1.0, -1.0, 2.0]


@st.composite
def zero_heavy_instances(draw, shape=None):
    """Small instances, with no constraints or no variables among them, whose
    c, b and finite bounds are often +0.0 or -0.0.  A holds no zeros at all:
    its support excludes them by construction."""
    m, n = shape or (draw(st.integers(0, 3)), draw(st.integers(0, 4)))
    vals = st.sampled_from(ZERO_HEAVY)
    bounds = []
    for _ in range(n):
        lo, hi = sorted(draw(st.lists(vals, min_size=2, max_size=2)))
        bounds.append((draw(st.sampled_from([lo, -np.inf])), draw(st.sampled_from([hi, np.inf]))))
    cells = [k for k in range(m * n) if draw(st.booleans())]
    return MilpInstance(
        m=m,
        n=n,
        c=draw(st.lists(vals, min_size=n, max_size=n)),
        b=draw(st.lists(vals, min_size=m, max_size=m)),
        senses=draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)),
        lower=[lo for lo, _ in bounds],
        upper=[hi for _, hi in bounds],
        integer=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        a_rows=[k // n for k in cells],
        a_cols=[k % n for k in cells],
        a_vals=[draw(st.sampled_from([1.0, -1.0, 2.0])) for _ in cells],
    )


def flip_zero_signs(inst: MilpInstance, seed: int) -> MilpInstance:
    """The same instance with the sign of a random subset of its zeros in
    c, b, lower and upper flipped; it still compares == to the input."""
    rng = np.random.default_rng(seed)

    def flip(arr):
        return np.where((arr == 0.0) & (rng.random(arr.shape) < 0.5), -arr, arr)

    return MilpInstance(
        m=inst.m, n=inst.n, c=flip(inst.c), b=flip(inst.b), senses=inst.senses,
        lower=flip(inst.lower), upper=flip(inst.upper), integer=inst.integer,
        a_rows=inst.a_rows, a_cols=inst.a_cols, a_vals=inst.a_vals,
    )


class TestSignedZero:
    @settings(max_examples=60, deadline=None)
    @given(inst=zero_heavy_instances(), flip_seed=st.integers(0, 2**32 - 1))
    def test_verdicts_ignore_the_sign_of_zero(self, inst, flip_seed):
        twin = flip_zero_signs(inst, flip_seed)
        assert twin == inst
        g, gt = build_graph(inst), build_graph(twin)
        assert stable_partition(gt) == stable_partition(g)
        assert wl_indistinguishable(g, gt)
        assert fwl2_compare(g, gt)[0]

    def test_cycle8_with_negative_zero_bound(self):
        cycle = counterexample_pair()[0]
        lower = cycle.lower.copy()
        lower[0] = -0.0
        twin = MilpInstance(
            m=cycle.m, n=cycle.n, c=cycle.c, b=cycle.b, senses=cycle.senses,
            lower=lower, upper=cycle.upper, integer=cycle.integer,
            a_rows=cycle.a_rows, a_cols=cycle.a_cols, a_vals=cycle.a_vals,
        )
        assert stable_partition(build_graph(twin)).classes_w == (tuple(range(8)),)
        assert wl_indistinguishable(build_graph(cycle), build_graph(twin))
        assert fwl2_compare(build_graph(cycle), build_graph(twin))[0]


@st.composite
def same_shape_pairs(draw):
    """Two tie-heavy instances of one shape: an independent draw, or a
    relabelling of the first."""
    a = draw(zero_heavy_instances())
    if draw(st.booleans()):
        return a, draw(zero_heavy_instances((a.m, a.n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return a, permute(a, rng.permutation(a.m), rng.permutation(a.n))


class TestAgainstOracle:
    """The array engine against the dictionary-interning references."""

    @settings(max_examples=120, deadline=None)
    @given(pair=same_shape_pairs())
    def test_refinement_matches_reference(self, pair):
        a, b = pair
        ga, gb = build_graph(a), build_graph(b)
        for inst, g in ((a, ga), (b, gb)):
            part = stable_partition(g)
            assert (part.classes_v, part.classes_w, part.rounds_to_converge) == oracles.stable_partition(g)
            assert part.witness == oracles.mp_tractability_witness(inst)
            assert is_mp_tractable(inst)[1] == oracles.mp_tractability_witness(inst)
            colorings, rounds = fwl._refine_to_stability([g])
            assert (wl._class_count(colorings), rounds) == oracles.fwl2_stable(g)
        assert wl_indistinguishable(ga, gb) == oracles.wl_indistinguishable(ga, gb)
        assert fwl2_compare(ga, gb) == (oracles.fwl2_indistinguishable(ga, gb), oracles.fwl2_indistinguishable_W(ga, gb))

    def test_witness_is_first_in_block_order(self):
        # column classes {0, 5}, {1, 3}, {2, 4}: block (0, 0) offends at
        # (0, 5), after (0, 4) in row-major order but first in block order
        a = np.array([[0.0, 0.0, 0.0, 0.0, 1.0, 2.0], [2.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        rows, cols = np.nonzero(a)
        inst = MilpInstance(
            m=2, n=6, c=np.ones(6), b=np.ones(2), senses=np.zeros(2, dtype=np.int8),
            lower=np.zeros(6), upper=np.ones(6), integer=np.ones(6, dtype=bool),
            a_rows=rows, a_cols=cols, a_vals=a[rows, cols],
        )
        assert is_mp_tractable(inst) == (False, (0, 0, 0, 0, 0, 5))
        for inst in (inst, *counterexample_pair()):
            assert is_mp_tractable(inst)[1] == oracles.mp_tractability_witness(inst)


@st.composite
def signature_rows(draw) -> np.ndarray:
    """int64 matrices as refinement ranks them, tie-heavy: rows repeated from
    a small pool over few values, negative ones included, with -1 padding at
    the end of rows; one column, zero columns and zero rows among them."""
    cols = draw(st.integers(0, 8))
    values = st.sampled_from(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=3)) + [-1, 0, 1])
    pool = draw(hnp.arrays(np.int64, (draw(st.integers(1, 4)), cols), elements=values))
    rows = pool[draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))]
    pad = np.array(draw(st.lists(st.integers(0, cols), min_size=len(rows), max_size=len(rows))), dtype=np.int64)
    rows[np.arange(cols) >= cols - pad[:, None]] = -1
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=signature_rows())
def test_row_ids_equal_numpys_unique_bitwise(rows):
    got, want = wl._ids(rows), oracles.unique_row_ids(rows)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("module", [wl, fwl])
@settings(max_examples=40, deadline=None)
@given(inst=zero_heavy_instances(), rounds=st.integers(0, 3))
def test_class_count_equals_numpys_unique(module, inst, rounds):
    colors = refine_rounds(module, build_graph(inst), rounds)
    assert class_count(colors) == np.unique(np.concatenate([np.ravel(a) for a in colors])).size


def no_edges(m, n, c=None, b=None) -> MilpInstance:
    return MilpInstance(
        m=m, n=n, c=np.ones(n) if c is None else c, b=np.zeros(m) if b is None else b,
        senses=np.zeros(m, dtype=np.int8), lower=np.zeros(n), upper=np.ones(n),
        integer=np.zeros(n, dtype=bool), a_rows=[], a_cols=[], a_vals=[],
    )


class TestDegenerateShapes:
    """No constraints, no variables, or no nonzeros in A."""

    @pytest.mark.parametrize(
        "a, b, classes, classes_b, pair_classes, verdicts",
        [
            # m = 0: variables differ in c only
            (no_edges(0, 3), no_edges(0, 3, c=[1.0, 2.0, 1.0]), ((), ((0, 1, 2),)), ((), ((0, 2), (1,))), (2, 5), (False, False, False)),
            # n = 0: constraints differ in b only; no pairs are left for 2-FWL
            (no_edges(2, 0), no_edges(2, 0, b=[0.0, 1.0]), (((0, 1),), ()), (((0,), (1,)), ()), (0, 0), (False, True, True)),
            # nnz = 0
            (
                no_edges(2, 3, b=[1.0, 0.0]), no_edges(2, 3, c=[1.0, 2.0, 1.0]),
                (((0,), (1,)), ((0, 1, 2),)), (((0, 1),), ((0, 2), (1,))), (4, 7), (False, False, False),
            ),
        ],
    )
    def test_every_check_runs(self, a, b, classes, classes_b, pair_classes, verdicts):
        ga, gb = build_graph(a), build_graph(b)
        assert tuple(map(wl._group, refine_rounds(wl, ga, 2))) == classes
        assert stable_partition(ga) == StablePartition(*classes, rounds_to_converge=0, witness=None)
        assert stable_partition(gb) == StablePartition(*classes_b, rounds_to_converge=0, witness=None)
        assert is_mp_tractable(a) == (True, None) and is_mp_tractable(b) == (True, None)
        vw, ww = refine_rounds(fwl, ga, 1)
        assert vw.shape == (a.m, a.n) and ww.shape == (a.n, a.n)
        assert class_count((vw, ww)) == pair_classes[0]
        stable = [fwl._refine_to_stability([g]) for g in (ga, gb)]
        assert [(rounds, wl._class_count(colorings)) for colorings, rounds in stable] == [(0, k) for k in pair_classes]
        assert (wl_indistinguishable(ga, ga), *fwl2_compare(ga, ga)) == (True, True, True)
        assert (wl_indistinguishable(ga, gb), *fwl2_compare(ga, gb)) == verdicts
