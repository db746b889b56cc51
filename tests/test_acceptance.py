"""End-to-end acceptance criteria with pinned tolerances.

Each test prints one pass/fail line through pytest's normal reporting; the
frozen numbers live next to the assertions.  The default run excludes tests
marked ``slow`` (full training gates) and ``nightly`` (multi-hour sweep);
run them with ``pytest -m slow`` / ``pytest -m nightly``.
"""

import numpy as np
import pytest

from milpgnn import nn
from milpgnn.fwl import fwl2_compare
from milpgnn.gen import counterexample_pair, gen_random, gen_training_set
from milpgnn.instance import build_graph, permute
from milpgnn.lp import (
    LpStatus,
    check_kkt,
    min_norm_kkt_residual,
    min_norm_solution,
    solve_lp,
)
from milpgnn.sb import sb_scores
from milpgnn.wl import is_mp_tractable, stable_partition

from oracles import child, finite_difference_grad
from test_wl import three_var_example

CYCLE, SPLIT = counterexample_pair()
CYCLE_G, SPLIT_G = build_graph(CYCLE), build_graph(SPLIT)
SPLIT_SCORES = np.array([0.25] * 6 + [0.0, 0.0])

MPGNN_FLOOR = 15.0 / 128.0  # best loss any output-collapsed network can reach
TABLE_EPOCHS_D64 = 16_570  # reference epoch count to 1e-6 at width 64


def counterexample_dataset():
    return [
        (CYCLE_G, sb_scores(CYCLE).scores),
        (SPLIT_G, sb_scores(SPLIT).scores),
    ]


class TestCriterion1SbExactness:
    def test_cycle_scores_zero_within_1e9(self):
        assert np.abs(sb_scores(CYCLE).scores).max() <= 1e-9

    def test_split_scores_within_1e9(self):
        assert np.abs(sb_scores(SPLIT).scores - SPLIT_SCORES).max() <= 1e-9


class TestCriterion2LpFacts:
    def test_relaxation_optimum_is_four(self):
        for inst in (CYCLE, SPLIT):
            out = solve_lp(inst)
            assert out.status == LpStatus.OPTIMAL
            assert abs(out.objective - 4.0) <= 1e-9

    def test_min_norm_solution_is_all_half(self):
        for inst in (CYCLE, SPLIT):
            x = min_norm_solution(inst, 4.0)
            assert np.abs(x - 0.5).max() <= 1e-9

    def test_split_child_optima_are_four_and_a_half(self):
        down = solve_lp(child(SPLIT, 0, 0.0, 0.0))
        up = solve_lp(child(SPLIT, 0, 1.0, 1.0))
        assert abs(down.objective - 4.5) <= 1e-9
        assert abs(up.objective - 4.5) <= 1e-9


class TestCriterion3WlPartition:
    def test_three_var_example_partition_and_verdict(self):
        inst = three_var_example()
        part = stable_partition(build_graph(inst))
        assert part.classes_v == ((0,), (1,))
        assert part.classes_w == ((0, 1), (2,))
        assert is_mp_tractable(inst)[0]

    def test_counterexamples_single_class_and_intractable(self):
        for inst in (CYCLE, SPLIT):
            part = stable_partition(build_graph(inst))
            assert part.classes_v == (tuple(range(8)),)
            assert part.classes_w == (tuple(range(8)),)
            assert not is_mp_tractable(inst)[0]


class TestCriterion4MpgnnIndistinguishability:
    def test_hundred_random_parameterizations(self):
        worst_diff = 0.0
        worst_spread = 0.0
        for k in range(100):
            d = 8 if k % 2 == 0 else 64
            params = nn.init_params("mpgnn", d, 2, seed=k)
            y1 = nn.mpgnn_forward(params, CYCLE_G)
            y2 = nn.mpgnn_forward(params, SPLIT_G)
            worst_diff = max(worst_diff, float(np.abs(y1 - y2).max()))
            worst_spread = max(worst_spread, float(np.ptp(y1)), float(np.ptp(y2)))
        assert worst_diff <= 1e-12
        assert worst_spread <= 1e-12


class TestCriterion5MpgnnLossFloor:
    def test_five_thousand_epochs_never_beat_floor(self):
        params = nn.init_params("mpgnn", 64, 2, seed=0)
        _, curve = nn.train(
            params,
            counterexample_dataset(),
            nn.TrainConfig(learning_rate=1e-3, epochs=5000),
        )
        losses = [l for _, l, _ in curve]
        assert min(losses) >= MPGNN_FLOOR - 1e-6
        # and training does reach the floor, so the bound is tight
        assert losses[-1] <= MPGNN_FLOOR + 1e-4


class TestCriterion6Fgnn2SeparationAndFit:
    def test_outputs_differ_for_some_random_seed(self):
        seps = []
        for seed in range(20):
            params = nn.init_params("fgnn2", 64, 2, seed=seed)
            seps.append(
                float(np.abs(nn.gnn_forward(params, CYCLE_G) - nn.gnn_forward(params, SPLIT_G)).max())
            )
        assert max(seps) > 1e-9

    def test_fast_gate_two_instance_fit(self):
        # reduced CI gate: both instances, looser target, larger step size
        # (measured: loss below 1e-3 after 3,762 epochs at lr 1e-4)
        params = nn.init_params("fgnn2", 64, 2, seed=0)
        _, curve = nn.train(
            params,
            counterexample_dataset(),
            nn.TrainConfig(learning_rate=1e-4, epochs=5000, target_loss=1e-3),
        )
        assert curve[-1][1] <= 1e-3, f"loss {curve[-1][1]:.3e} after {len(curve)} epochs"

    @pytest.mark.slow
    def test_full_gate_two_instance_convergence(self):
        params = nn.init_params("fgnn2", 64, 2, seed=0)
        _, curve = nn.train(
            params,
            counterexample_dataset(),
            nn.TrainConfig(epochs=3 * TABLE_EPOCHS_D64, target_loss=1e-6),
        )
        # measured: target reached after ~10,100 epochs at the default schedule
        assert curve[-1][1] <= 1e-6, f"loss {curve[-1][1]:.3e} after {len(curve)} epochs"


class TestCriterion7Fwl2Consistency:
    def test_counterexample_pair_not_equivalent(self):
        assert not fwl2_compare(CYCLE_G, SPLIT_G)[1]

    def test_two_hundred_random_pairs(self):
        fired = 0
        for k in range(200):
            ia = gen_random(2 * k, m=3, n=6, nnz=9)
            ib = gen_random(2 * k + 1, m=3, n=6, nnz=9)
            ga, gb = build_graph(ia), build_graph(ib)
            if fwl2_compare(ga, gb)[1]:
                fired += 1
                sa = sb_scores(ia).scores
                sb = sb_scores(ib).scores
                assert np.abs(sa - sb).max() <= 1e-7
        # identical permuted instances do fire the equivalence
        rng = np.random.default_rng(0)
        for k in range(5):
            inst = gen_random(k, m=3, n=6, nnz=9)
            p = permute(inst, rng.permutation(3), np.arange(6))
            if solve_lp(inst).status == LpStatus.OPTIMAL:
                assert fwl2_compare(build_graph(inst), build_graph(p))[1]
                assert np.abs(sb_scores(inst).scores - sb_scores(p).scores).max() <= 1e-7


class TestCriterion8PropertySuites:
    def test_wl_converges_within_node_count_on_thousand_instances(self):
        for seed in range(1000):
            inst = gen_random(seed)
            part = stable_partition(build_graph(inst))
            assert part.rounds_to_converge <= inst.m + inst.n

    def test_sb_permutation_equivariance_on_hundred_instances(self):
        rng = np.random.default_rng(1)
        done = 0
        seed = 0
        while done < 100:
            inst = gen_random(seed, m=3, n=6, nnz=9)
            seed += 1
            if solve_lp(inst).status != LpStatus.OPTIMAL:
                continue
            sv, sw = rng.permutation(3), rng.permutation(6)
            base = sb_scores(inst).scores
            permuted = sb_scores(permute(inst, sv, sw)).scores
            assert np.abs(permuted[sw] - base).max() <= 1e-9
            done += 1

    def test_gradient_matches_finite_differences_on_six_configs(self):
        dataset = counterexample_dataset()
        configs = [
            ("mpgnn", 8, 1), ("mpgnn", 8, 2), ("mpgnn", 4, 3),
            ("fgnn2", 8, 1), ("fgnn2", 8, 2), ("fgnn2", 4, 3),
        ]
        from test_nn import jitter_off_kinks

        for cfg_idx, (kind, d, layers) in enumerate(configs):
            params = nn.init_params(kind, d, layers, seed=3)
            jitter_off_kinks(params)
            _, grads = nn.grad(params, dataset)
            for ai, idx, fd in finite_difference_grad(
                lambda: nn.loss(params, dataset), params.flat(), samples=10, seed=cfg_idx
            ):
                an = grads[ai][idx]
                assert abs(fd - an) / max(1.0, abs(fd), abs(an)) <= 1e-4

    def test_kkt_residuals_on_all_solved_instances(self):
        for seed in range(200):
            inst = gen_random(seed, m=4, n=8, nnz=14)
            out = solve_lp(inst)
            if out.status != LpStatus.OPTIMAL:
                continue
            assert check_kkt(inst, out.x, out.duals) <= 1e-8
            x = min_norm_solution(inst, out.objective, x0=out.x)
            assert min_norm_kkt_residual(inst, out.objective, x) <= 1e-8


@pytest.mark.nightly
class TestCriterion9TractableTrainingSanity:
    def test_mpgnn_beats_constant_baseline_on_generated_set(self):
        insts, _, _ = gen_training_set(0, 100)
        pairs = [(build_graph(i), sb_scores(i).scores) for i in insts]
        batch = nn.batch_graphs(pairs)
        targets = batch.targets
        best_const = targets.mean()
        baseline = 0.5 * float(((targets - best_const) ** 2).sum())
        params = nn.init_params("mpgnn", 64, 2, seed=0)
        _, curve = nn.train(
            params,
            batch,
            nn.TrainConfig(learning_rate=1e-3, epochs=50_000, target_loss=0.1 * baseline),
        )
        assert curve[-1][1] <= 0.1 * baseline, (
            f"loss {curve[-1][1]:.3e} vs baseline {baseline:.3e} after {len(curve)} epochs"
        )
