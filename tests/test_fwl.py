import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milpgnn import fwl
from milpgnn.fwl import fwl2_indistinguishable, fwl2_indistinguishable_W
from milpgnn.gen import counterexample_pair, gen_random, gen_set_cover
from milpgnn.instance import build_graph, permute
from milpgnn.sb import sb_scores
from tests_helpers import class_count, refine_rounds


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


class TestSeparation:
    def test_counterexample_pair_separated(self):
        g1, g2 = (build_graph(i) for i in counterexample_pair())
        assert not fwl2_indistinguishable(g1, g2)
        assert not fwl2_indistinguishable_W(g1, g2)

    def test_self_comparison_indistinguishable(self):
        for inst in counterexample_pair():
            g = build_graph(inst)
            assert fwl2_indistinguishable(g, g)
            assert fwl2_indistinguishable_W(g, g)

    def test_column_criterion_implies_whole_multiset(self):
        # per-column equality subsumes the whole-multiset one
        pairs = [(gen_random(s), gen_random(s + 1)) for s in range(0, 20, 2)]
        pairs.append(counterexample_pair())
        for ia, ib in pairs:
            ga, gb = build_graph(ia), build_graph(ib)
            if fwl2_indistinguishable_W(ga, gb):
                assert fwl2_indistinguishable(ga, gb)

    def test_size_mismatch_raises(self):
        g1 = build_graph(gen_random(0, m=3, n=5, nnz=6))
        g2 = build_graph(gen_random(0))
        with pytest.raises(ValueError):
            fwl2_indistinguishable(g1, g2)

    def test_variable_permutation_preserves_whole_multiset_relation(self):
        inst = gen_set_cover(3, 4, 5, 0.4)
        g = build_graph(inst)
        rng = np.random.default_rng(0)
        p = permute(inst, rng.permutation(4), rng.permutation(5))
        assert fwl2_indistinguishable(g, build_graph(p))


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
            if fwl2_indistinguishable_W(g, gp):
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
            if fwl2_indistinguishable_W(ga, gb):
                sa, sb = self._sb_or_none(ia), self._sb_or_none(ib)
                if sa is not None and sb is not None:
                    assert np.abs(sa - sb).max() <= 1e-7
            checked += 1
        assert checked == 30
