import numpy as np
import pytest

from milpgnn import gen
from milpgnn.gen import (
    PortableRng,
    counterexample_pair,
    gen_random,
    gen_set_cover,
    gen_training_set,
)
from milpgnn.instance import Sense
from milpgnn.lp import LpStatus, solve_lp


class TestPortableRng:
    def test_stream_is_reproducible(self):
        a, b = PortableRng(42), PortableRng(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_distinct_seeds_diverge(self):
        assert PortableRng(1).next_u64() != PortableRng(2).next_u64()

    def test_uniform_in_unit_interval(self):
        rng = PortableRng(0)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_normal_moments(self):
        rng = PortableRng(7)
        draws = np.array([rng.normal() for _ in range(20_000)])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.std() - 1.0) < 0.03

    def test_randint_is_unbiased_over_range(self):
        rng = PortableRng(5)
        counts = np.zeros(3, dtype=int)
        for _ in range(10_000):
            counts[rng.randint(3)] += 1
        assert (counts / 10_000 > 0.31).all() and (counts / 10_000 < 0.36).all()

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PortableRng(0).randint(0)

    def test_sampling_without_replacement(self):
        rng = PortableRng(3)
        picks = rng.sample_without_replacement(10, 6)
        assert len(set(picks)) == 6
        assert all(0 <= p < 10 for p in picks)
        with pytest.raises(ValueError):
            rng.sample_without_replacement(3, 4)


class TestRandomFamily:
    def test_same_seed_same_instance(self):
        assert gen_random(9) == gen_random(9)

    def test_different_seed_different_instance(self):
        assert gen_random(1) != gen_random(2)

    def test_dimensions_and_support(self):
        inst = gen_random(0, m=6, n=20, nnz=60)
        assert inst.m == 6 and inst.n == 20
        assert len(inst.a_vals) == 60

    def test_bounds_are_ordered(self):
        for seed in range(20):
            inst = gen_random(seed)
            assert (inst.lower <= inst.upper).all()

    def test_sense_frequencies(self):
        counts = np.zeros(3, dtype=int)
        total = 0
        for seed in range(1700):
            inst = gen_random(seed)
            for s in inst.senses:
                counts[s] += 1
                total += 1
        freq = counts / total
        assert (freq > 0.31).all() and (freq < 0.36).all()

    def test_nnz_bounds_validated(self):
        with pytest.raises(ValueError):
            gen_random(0, m=2, n=2, nnz=5)

    def test_sb_never_crashes_across_seeds(self):
        from milpgnn.sb import RelaxationInfeasibleError, RelaxationUnboundedError, sb_scores

        for seed in range(100):
            inst = gen_random(seed, m=3, n=6, nnz=9)
            try:
                sb_scores(inst)
            except (RelaxationInfeasibleError, RelaxationUnboundedError):
                pass


class TestCounterexamplePair:
    def test_shapes(self):
        a, b = counterexample_pair()
        assert (a.m, a.n) == (8, 8) and (b.m, b.n) == (8, 8)

    def test_every_row_covers_two_variables(self):
        for inst in counterexample_pair():
            row_counts = np.bincount(inst.a_rows, minlength=8)
            assert (row_counts == 2).all()

    def test_cycle_vs_split_degree_profiles(self):
        a, b = counterexample_pair()
        # all variables have degree 2 in both graphs
        assert (np.bincount(a.a_cols, minlength=8) == 2).all()
        assert (np.bincount(b.a_cols, minlength=8) == 2).all()

    def test_pure_binary_covering_form(self):
        for inst in counterexample_pair():
            assert (inst.senses == Sense.GE).all()
            assert inst.integer.all()
            assert (inst.a_vals == 1.0).all()
            assert (inst.lower == 0.0).all() and (inst.upper == 1.0).all()


class TestSetCover:
    def test_rows_never_empty(self):
        for seed in range(10):
            inst = gen_set_cover(seed, 8, 12, 0.15)
            assert (np.bincount(inst.a_rows, minlength=8) >= 1).all()

    def test_relaxation_always_feasible(self):
        for seed in range(10):
            inst = gen_set_cover(seed, 6, 10, 0.3)
            assert solve_lp(inst).status == LpStatus.OPTIMAL

    def test_density_validated(self):
        with pytest.raises(ValueError):
            gen_set_cover(0, 3, 3, 0.0)

    def test_sizes_validated(self):
        # rows with no column to cover them would be resampled forever
        for rows, cols in [(3, 0), (-1, 3), (3, -1)]:
            with pytest.raises(ValueError):
                gen_set_cover(0, rows, cols, 0.5)
        assert (gen_set_cover(0, 0, 0, 0.5).m, gen_set_cover(0, 0, 2, 0.5).n) == (0, 2)


class TestTrainingSet:
    def test_rejection_budget_counts_rejections_in_a_row(self, monkeypatch):
        # seed 0 at 4x7 with 12 nonzeros: 42 rejections before the 14th
        # acceptance, the longest run of them 7
        monkeypatch.setattr(gen, "MAX_CONSECUTIVE_REJECTIONS", 8)
        insts, rejected, seeds = gen_training_set(0, 14, m=4, n=7, nnz=12)
        assert (len(insts), rejected) == (14, 42)
        # each accepted draw's seed regenerates it
        assert seeds[-1] == 14 + 42 - 1
        assert [gen_random(seed, m=4, n=7, nnz=12) for seed in seeds] == insts
        monkeypatch.setattr(gen, "MAX_CONSECUTIVE_REJECTIONS", 7)
        with pytest.raises(ValueError, match=r"4x7 instances with 12 nonzeros: .* 7 draws in a row"):
            gen_training_set(0, 14, m=4, n=7, nnz=12)

    def test_hopeless_shape_stops_at_the_budget(self, monkeypatch):
        # no nonzeros: each of the 40 rows 0 ∘ b holds with odds about 1/3
        monkeypatch.setattr(gen, "MAX_CONSECUTIVE_REJECTIONS", 20)
        with pytest.raises(ValueError, match=r"40x1 instances with 0 nonzeros: .* 20 draws in a row"):
            gen_training_set(0, 1, m=40, n=1, nnz=0)

    def test_mostly_empty_set_cover_rows_stop_at_the_budget(self, monkeypatch):
        # a draw of a row over 2 columns is empty with odds 0.95^2 = 0.9025;
        # seed 1's three rows are rejected 7, 2 and 9 times before one is kept
        unbudgeted = gen_set_cover(1, 3, 2, 0.05)
        monkeypatch.setattr(gen, "MAX_CONSECUTIVE_REJECTIONS", 10)
        assert gen_set_cover(1, 3, 2, 0.05) == unbudgeted
        monkeypatch.setattr(gen, "MAX_CONSECUTIVE_REJECTIONS", 9)
        with pytest.raises(ValueError, match=r"^set-cover 3x2 instances with density 0.05: .* 9 draws in a row, the rejection budget$"):
            gen_set_cover(1, 3, 2, 0.05)

    def test_all_relaxations_solvable(self):
        insts, rejected, _ = gen_training_set(0, 20, m=3, n=6, nnz=9)
        assert len(insts) == 20
        assert rejected >= 0
        for inst in insts:
            assert solve_lp(inst).status == LpStatus.OPTIMAL

    def test_mostly_tractable(self):
        from milpgnn.wl import is_mp_tractable

        insts, _, _ = gen_training_set(0, 100)
        tractable = sum(1 for inst in insts if is_mp_tractable(inst)[0])
        assert tractable >= 99
