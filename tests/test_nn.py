import numpy as np
import pytest

from milpgnn import nn
from milpgnn.gen import counterexample_pair, gen_random
from milpgnn.instance import build_graph, permute
from milpgnn.sb import sb_scores

from oracles import finite_difference_grad


def counterexample_dataset():
    a, b = counterexample_pair()
    return [(build_graph(a), sb_scores(a).scores), (build_graph(b), sb_scores(b).scores)]


def jitter_off_kinks(params, scale=0.01, seed=99):
    """Zero biases put some ReLU pre-activations exactly at the kink, where
    central differences measure the average of the one-sided slopes instead
    of the subgradient backprop reports; a small jitter moves off that set."""
    rng = np.random.default_rng(seed)
    for a in params.flat():
        a += rng.uniform(-scale, scale, a.shape)


GRAD_CONFIGS = [
    ("mpgnn", 8, 1),
    ("mpgnn", 8, 2),
    ("mpgnn", 4, 3),
    ("fgnn2", 8, 1),
    ("fgnn2", 8, 2),
    ("fgnn2", 4, 3),
]


class TestGradients:
    @pytest.mark.parametrize("kind,dim,layers", GRAD_CONFIGS)
    def test_backprop_matches_finite_differences(self, kind, dim, layers):
        dataset = counterexample_dataset()
        params = nn.init_params(kind, dim, layers, seed=3)
        jitter_off_kinks(params)
        _, grads = nn.grad(params, dataset)
        arrays = params.flat()
        fd_seed = GRAD_CONFIGS.index((kind, dim, layers))
        for ai, idx, fd in finite_difference_grad(
            lambda: nn.loss(params, dataset), arrays, samples=25, seed=fd_seed
        ):
            an = grads[ai][idx]
            rel = abs(fd - an) / max(1.0, abs(fd), abs(an))
            assert rel <= 1e-4

    def test_zero_gradient_on_exact_fit(self):
        g = build_graph(counterexample_pair()[0])
        params = nn.init_params("mpgnn", 8, 1, seed=0)
        target = nn.mpgnn_forward(params, g)
        value, grads = nn.grad(params, [(g, target)])
        assert value == 0.0
        assert max(float(np.abs(a).max()) for a in grads) == 0.0


class TestForward:
    def test_mpgnn_collapses_on_counterexample(self):
        g1, g2 = (build_graph(i) for i in counterexample_pair())
        for seed in range(10):
            params = nn.init_params("mpgnn", 16, 2, seed=seed)
            y1, y2 = nn.mpgnn_forward(params, g1), nn.mpgnn_forward(params, g2)
            assert np.abs(y1 - y2).max() <= 1e-12
            assert np.ptp(y1) <= 1e-12  # constant across variables too

    def test_fgnn2_separates_for_some_seed(self):
        g1, g2 = (build_graph(i) for i in counterexample_pair())
        seps = []
        for seed in range(20):
            params = nn.init_params("fgnn2", 64, 2, seed=seed)
            seps.append(np.abs(nn.fgnn2_forward(params, g1) - nn.fgnn2_forward(params, g2)).max())
        assert max(seps) > 1e-9

    def test_forward_is_deterministic(self):
        g = build_graph(gen_random(0))
        params = nn.init_params("mpgnn", 8, 2, seed=1)
        assert np.array_equal(nn.mpgnn_forward(params, g), nn.mpgnn_forward(params, g))

    def test_init_is_seed_deterministic(self):
        a = nn.init_params("fgnn2", 8, 2, seed=9)
        b = nn.init_params("fgnn2", 8, 2, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.flat(), b.flat()))

    @pytest.mark.parametrize("kind", ["mpgnn", "fgnn2"])
    def test_permutation_equivariance(self, kind):
        inst = gen_random(4, m=4, n=6, nnz=10)
        rng = np.random.default_rng(0)
        sv, sw = rng.permutation(4), rng.permutation(6)
        params = nn.init_params(kind, 8, 2, seed=2)
        y = nn.gnn_forward(params, build_graph(inst))
        yp = nn.gnn_forward(params, build_graph(permute(inst, sv, sw)))
        assert np.abs(yp[sw] - y).max() <= 1e-9

    def test_kind_mismatch_rejected(self):
        g = build_graph(gen_random(0))
        with pytest.raises(ValueError):
            nn.mpgnn_forward(nn.init_params("fgnn2", 4, 1, seed=0), g)


class TestLoss:
    def test_zero_predictor_loss_on_split_instance(self):
        # untrained-but-zero outputs against targets (0.25 x6, 0, 0):
        # 0.5 * 6 * 0.0625 = 3/16
        inst = counterexample_pair()[1]
        target = sb_scores(inst).scores
        assert 0.5 * float(target @ target) == pytest.approx(3 / 16, abs=1e-12)

    def test_loss_matches_grad_value(self):
        dataset = counterexample_dataset()
        params = nn.init_params("mpgnn", 8, 2, seed=5)
        value, _ = nn.grad(params, dataset)
        assert value == pytest.approx(nn.loss(params, dataset), abs=1e-12)


class TestTraining:
    def test_zero_epochs_returns_init(self):
        dataset = counterexample_dataset()
        params = nn.init_params("mpgnn", 8, 1, seed=0)
        trained, curve = nn.train(params, dataset, nn.TrainConfig(epochs=0))
        assert curve == []
        assert all(np.array_equal(a, b) for a, b in zip(params.flat(), trained.flat()))

    def test_loss_decreases_on_single_instance(self):
        inst = counterexample_pair()[1]
        dataset = [(build_graph(inst), sb_scores(inst).scores)]
        params = nn.init_params("mpgnn", 8, 1, seed=0)
        _, curve = nn.train(params, dataset, nn.TrainConfig(learning_rate=1e-3, epochs=200))
        assert curve[-1][1] < curve[0][1]

    def test_curve_is_reproducible(self):
        dataset = counterexample_dataset()
        cfg = nn.TrainConfig(epochs=20)
        _, c1 = nn.train(nn.init_params("mpgnn", 8, 1, seed=7), dataset, cfg)
        _, c2 = nn.train(nn.init_params("mpgnn", 8, 1, seed=7), dataset, cfg)
        assert c1 == c2

    def test_lr_schedule_decays_at_thresholds(self):
        g = build_graph(counterexample_pair()[0])
        params = nn.init_params("mpgnn", 8, 1, seed=0)
        target = nn.mpgnn_forward(params, g)  # exact fit: loss 0 from epoch 0
        _, curve = nn.train(params, [(g, target)], nn.TrainConfig(epochs=1))
        assert curve[0][2] == 1e-7  # below both thresholds

    def test_target_loss_stops_early(self):
        g = build_graph(counterexample_pair()[0])
        params = nn.init_params("mpgnn", 8, 1, seed=0)
        target = nn.mpgnn_forward(params, g)
        _, curve = nn.train(params, [(g, target)], nn.TrainConfig(epochs=50, target_loss=1e-9))
        assert len(curve) == 1


def mixed_shape_dataset():
    """Two 6x20 graphs and the 8x8 counterexample pair, shapes interleaved."""
    rng = np.random.default_rng(0)
    r1, r2 = (build_graph(gen_random(seed)) for seed in (1, 2))
    c8, split = counterexample_dataset()
    return [(r1, rng.normal(size=20)), c8, (r2, rng.normal(size=20)), split]


class TestShapeGrouping:
    def test_grad_equals_sum_of_batches_of_one(self):
        dataset = mixed_shape_dataset()
        params = nn.init_params("mpgnn", 8, 2, seed=4)
        jitter_off_kinks(params)
        value, grads = nn.grad(params, dataset)
        singles = [nn.grad(params, nn.batch_graphs([pair])) for pair in dataset]
        ref_value = sum(v for v, _ in singles)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert nn.loss(params, dataset) == value
        for k, g in enumerate(grads):
            ref = sum(gs[k] for _, gs in singles)
            assert np.abs(g - ref).max() <= 1e-9 * max(1.0, float(np.abs(ref).max()))

    def test_single_forward_is_a_batch_of_one(self):
        dataset = mixed_shape_dataset()
        params = nn.init_params("mpgnn", 8, 2, seed=4)
        batch = nn.batch_graphs([dataset[0], dataset[2]])
        rows = nn.mpgnn_batch_forward(params, batch)
        for row, (g, _) in zip(rows, (dataset[0], dataset[2])):
            assert np.abs(nn.mpgnn_forward(params, g) - row).max() <= 1e-12 * max(1.0, float(np.abs(row).max()))

    def test_train_on_mixed_shapes_is_reproducible(self):
        dataset = mixed_shape_dataset()
        cfg = nn.TrainConfig(learning_rate=1e-3, epochs=15)
        p1, c1 = nn.train(nn.init_params("mpgnn", 8, 2, seed=4), dataset, cfg)
        p2, c2 = nn.train(nn.init_params("mpgnn", 8, 2, seed=4), dataset, cfg)
        assert c1 == c2
        assert c1[-1][1] < c1[0][1]
        assert all(np.array_equal(a, b) for a, b in zip(p1.flat(), p2.flat()))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        params = nn.init_params("fgnn2", 8, 2, seed=11)
        path = tmp_path / "params.bin"
        nn.save_params(params, path)
        again = nn.load_params(path)
        assert again.kind == "fgnn2" and again.dim == 8 and again.layers == 2
        assert all(np.array_equal(a, b) for a, b in zip(params.flat(), again.flat()))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        nn.save_params(nn.init_params("mpgnn", 4, 1, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-12])
        with pytest.raises(ValueError, match="truncated"):
            nn.load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        nn.save_params(nn.init_params("mpgnn", 4, 1, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="trailing"):
            nn.load_params(path)
