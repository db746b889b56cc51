import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from milpgnn import fwl
from milpgnn.fwl import fwl2_compare
from milpgnn.gen import counterexample_pair, gen_random, gen_set_cover
from milpgnn.instance import build_graph, permute
from milpgnn.sb import sb_scores
from milpgnn.wl import wl_indistinguishable
from test_sb import cycle_cover
from test_sb_corpus import CYCLES, refinement_corpus
from tests_helpers import class_count, refine_rounds, refinements_to_joint_stability


class TestRefinement:
    def test_round_zero_cycle_has_two_pair_kinds_on_ww(self):
        g = build_graph(counterexample_pair()[0])
        _, ww = refine_rounds(fwl, g, 0)
        assert len(set(ww.flat)) == 2  # diagonal vs off-diagonal

    def test_class_count_monotone(self):
        g = build_graph(counterexample_pair()[1])
        prev = 0
        for rounds in range(4):
            k = class_count(refine_rounds(fwl, g, rounds))
            assert k >= prev
            prev = k

    def test_stable_reaches_fixed_point(self):
        g = build_graph(counterexample_pair()[0])
        (stable,), rounds = fwl._refine_to_stability([g])
        more = refine_rounds(fwl, g, rounds + 2)
        assert class_count(more) == class_count(stable)


class TestStopOnceParted:
    def test_only_parted_pairs_stop_before_stability(self, monkeypatch):
        # the corpus's cycle-cover pairs: the "different" ones part after a
        # round or three, the "equal" and "twin" ones never do
        insts = refinement_corpus()[0]
        once = fwl._refine_once
        calls = []
        monkeypatch.setattr(fwl, "_refine_once", lambda colorings: calls.append(1) or once(colorings))

        def refinements(run, a, b):
            calls.clear()
            run(a, b)
            return len(calls)

        for size in CYCLES:
            for kind in ("equal", "different", "twin"):
                a, b = insts[f"cycles_{size}_{kind}_a"], insts[f"cycles_{size}_{kind}_b"]
                stopped = refinements(fwl2_compare, a, b)
                full = refinements_to_joint_stability(fwl._initial([a, b]), once)
                if kind == "different":
                    assert stopped < full, size
                else:
                    assert stopped == full, (size, kind)


@st.composite
def cycle_lengths(draw, n: int) -> list[int]:
    """Cycle lengths of at least 2 that sum to n."""
    lengths = []
    while n:
        lengths.append(draw(st.sampled_from([k for k in range(2, n + 1) if n - k != 1])))
        n -= lengths[-1]
    return lengths


@st.composite
def cycle_cover_pairs(draw):
    """Two cycle covers over one number of variables, at most 12: equal
    cycle-length multisets, different ones, or a row-permuted twin."""
    lengths = draw(cycle_lengths(draw(st.integers(4, 12))))
    a = cycle_cover(lengths, draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["equal", "different", "twin"]))
    if kind == "twin":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return a, permute(a, rng.permutation(a.m), np.arange(a.n))
    other = draw(st.permutations(lengths)) if kind == "equal" else draw(cycle_lengths(a.n))
    assume(kind == "equal" or sorted(other) != sorted(lengths))
    return a, cycle_cover(other, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=25, deadline=None)
@given(pair=cycle_cover_pairs())
def test_cycle_cover_verdicts_match_reference(pair):
    # cycle covers part at round 1 to 4, later than the tie-heavy pairs of
    # test_wl, so a stop after round 0 meets the reference too
    a, b = pair
    assert fwl2_compare(a, b) == (oracles.fwl2_indistinguishable(a, b), oracles.fwl2_indistinguishable_W(a, b))
    assert wl_indistinguishable(a, b) == oracles.wl_indistinguishable(a, b)


class TestSeparation:
    def test_counterexample_pair_separated(self):
        g1, g2 = (build_graph(i) for i in counterexample_pair())
        assert fwl2_compare(g1, g2) == (False, False)

    def test_self_comparison_indistinguishable(self):
        for inst in counterexample_pair():
            g = build_graph(inst)
            assert fwl2_compare(g, g) == (True, True)

    def test_column_criterion_implies_whole_multiset(self):
        # per-column equality subsumes the whole-multiset one
        pairs = [(gen_random(s), gen_random(s + 1)) for s in range(0, 20, 2)]
        pairs.append(counterexample_pair())
        for ia, ib in pairs:
            ga, gb = build_graph(ia), build_graph(ib)
            whole, per_column = fwl2_compare(ga, gb)
            if per_column:
                assert whole

    def test_size_mismatch_raises(self):
        g1 = build_graph(gen_random(0, m=3, n=5, nnz=6))
        g2 = build_graph(gen_random(0))
        with pytest.raises(ValueError):
            fwl2_compare(g1, g2)

    def test_variable_permutation_preserves_whole_multiset_relation(self):
        inst = gen_set_cover(3, 4, 5, 0.4)
        g = build_graph(inst)
        rng = np.random.default_rng(0)
        p = permute(inst, rng.permutation(4), rng.permutation(5))
        assert fwl2_compare(g, build_graph(p))[0]


class TestScoreConsistency:
    """Column-wise indistinguishability must imply equal SB score vectors."""

    def _sb_or_none(self, inst):
        try:
            return sb_scores(inst).scores
        except Exception:
            return None

    def test_exhaustive_small_permutation_search(self):
        # for a small instance, every variable permutation that maps the
        # graph to an indistinguishable one must preserve scores columnwise
        inst = gen_set_cover(1, 3, 4, 0.5)
        g = build_graph(inst)
        base = self._sb_or_none(inst)
        if base is None:
            pytest.skip("relaxation unbounded/infeasible")
        for sigma in itertools.permutations(range(inst.n)):
            p = permute(inst, np.arange(inst.m), np.array(sigma))
            gp = build_graph(p)
            if fwl2_compare(g, gp)[1]:
                scores_p = self._sb_or_none(p)
                assert scores_p is not None
                assert np.abs(scores_p[np.array(sigma)] - base).max() <= 1e-7

    def test_random_pair_sweep(self):
        # random continuous data almost surely breaks all symmetry, so the
        # equivalence should only ever fire on identical instances
        checked = 0
        for seed in range(0, 60, 2):
            ia = gen_random(seed, m=3, n=6, nnz=9)
            ib = gen_random(seed + 1, m=3, n=6, nnz=9)
            ga, gb = build_graph(ia), build_graph(ib)
            if fwl2_compare(ga, gb)[1]:
                sa, sb = self._sb_or_none(ia), self._sb_or_none(ib)
                if sa is not None and sb is not None:
                    assert np.abs(sa - sb).max() <= 1e-7
            checked += 1
        assert checked == 30
