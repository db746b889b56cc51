import hashlib
import json
import re
import struct

import numpy as np
import pytest

from milpgnn import nn
from milpgnn.gen import counterexample_pair, gen_random
from milpgnn.instance import build_graph, permute
from milpgnn.sb import sb_scores

import oracles
from oracles import finite_difference_grad
from test_wl import no_edges


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
            seps.append(np.abs(nn.gnn_forward(params, g1) - nn.gnn_forward(params, g2)).max())
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

    def test_lr_schedule_never_raises_the_configured_rate(self):
        params = nn.init_params("mpgnn", 8, 1, seed=0)
        pair = [(g, nn.mpgnn_forward(params, g) + 1e-5) for g, _ in counterexample_dataset()]
        _, curve = nn.train(params, pair, nn.TrainConfig(learning_rate=1e-8, epochs=5))
        assert all(lr <= 1e-8 for _, _, lr in curve)
        # the same loss, between the two thresholds, decays the default rate
        _, curve = nn.train(params, pair, nn.TrainConfig(epochs=1))
        assert 1e-12 < curve[0][1] <= 1e-6 and curve[0][2] == 1e-6

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
        rows = nn.gnn_batch_forward(params, batch)
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


class TestEmptyGraphs:
    """MilpInstance accepts m = 0 and n = 0; both networks must run on them."""

    @pytest.mark.parametrize("kind", ["mpgnn", "fgnn2"])
    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0)])
    def test_forward_loss_and_grad(self, kind, m, n):
        g = build_graph(no_edges(m, n))
        params = nn.init_params(kind, 4, 2, seed=0)
        assert nn.gnn_forward(params, g).shape == (n,)
        dataset = [(g, np.ones(n))]
        value, grads = nn.grad(params, dataset)
        assert np.isfinite(value) and value == nn.loss(params, dataset)
        assert all(np.isfinite(a).all() for a in grads)
        if n == 0:
            assert value == 0.0


def oracle_grad_by_shape(params, dataset):
    """The per-graph oracle's loss and gradients, summed within each shape
    group and then over the groups in first-appearance order, as nn.grad
    accumulates them."""
    groups: dict = {}
    for g, target in dataset:
        groups.setdefault((g.m, g.n), []).append((g, target))
    total, acc = 0.0, None
    for group in groups.values():
        value, grads = oracles.fgnn2_grad(params, group)
        total += value
        acc = grads if acc is None else [a + b for a, b in zip(acc, grads)]
    return total, acc


def fgnn2_oracle_datasets():
    rng = np.random.default_rng(1)
    shapes = [(4, 6, 10), (5, 5, 12), (4, 6, 8), (5, 5, 6)]
    mixed = [(build_graph(gen_random(k, m=m, n=n, nnz=z)), rng.normal(size=n)) for k, (m, n, z) in enumerate(shapes)]
    no_nnz = [(build_graph(no_edges(3, 4, b=[1.0, 0.0, -1.0])), rng.normal(size=4))]
    no_rows = [(build_graph(no_edges(0, 3)), rng.normal(size=3))]
    return {"pair": counterexample_dataset(), "mixed": mixed, "nnz0": no_nnz, "m0": no_rows}


class TestAgainstOracle:
    """The batched 2-FGNN against the per-graph network on explicit
    concatenated pair tensors (tests/oracles.py); the MLP and Adam against
    references that recompute the mask and step array by array."""

    @pytest.mark.parametrize("name", ["pair", "mixed", "nnz0", "m0"])
    @pytest.mark.parametrize("dim,layers", [(8, 1), (6, 2)])
    def test_fgnn2_loss_and_grads_match(self, name, dim, layers):
        dataset = fgnn2_oracle_datasets()[name]
        params = nn.init_params("fgnn2", dim, layers, seed=2)
        jitter_off_kinks(params)
        value, grads = nn.grad(params, dataset)
        ref_value, ref_grads = oracle_grad_by_shape(params, dataset)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert abs(nn.loss(params, dataset) - ref_value) <= 1e-12 * abs(ref_value)
        for k, (g, ref) in enumerate(zip(grads, ref_grads)):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), f"gradient array {k}"

    def test_fgnn2_forward_matches(self):
        params = nn.init_params("fgnn2", 8, 2, seed=4)
        for g, _ in fgnn2_oracle_datasets()["mixed"]:
            y = nn.gnn_forward(params, g)
            ref = oracles.fgnn2_forward(params, g)[0]
            assert np.abs(y - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))

    @pytest.mark.parametrize("output_relu", [False, True])
    def test_mlp_backward_is_bitwise_the_recomputed_mask(self, output_relu):
        rng = np.random.default_rng(0)
        mlp = nn.Mlp(
            [rng.normal(size=(7, 5)), rng.normal(size=(5, 5)), rng.normal(size=(5, 3))],
            [rng.normal(size=5), rng.normal(size=5), rng.normal(size=3)],
            output_relu,
        )
        x = rng.normal(size=(4, 6, 7))
        dy = rng.normal(size=(4, 6, 3))
        y, cache = mlp.forward(x)
        ref_y, ref_cache = oracles.mlp_forward(mlp, x)
        assert np.array_equal(y, ref_y)
        (dx,), grads = mlp.backward(cache, dy)
        ref_dx, ref_grads = oracles.mlp_backward(mlp, ref_cache, dy)
        assert np.array_equal(dx, ref_dx)
        assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))

    def test_mlp_operands_equal_the_concatenation(self):
        """1, 2 and 3 operands, operand k broadcast along lead axis k, against
        the MLP on their explicit concatenation."""
        rng = np.random.default_rng(1)
        shape = (3, 5, 4)
        for widths in [(3,), (2, 4), (1, 3, 2)]:
            mlp = nn.Mlp([rng.normal(size=(sum(widths), 5)), rng.normal(size=(5, 2))], [rng.normal(size=5), rng.normal(size=2)], True)
            distinct = [rng.normal(size=shape[:k] + (1,) + shape[k + 1 :] + (w,)) for k, w in enumerate(widths)]
            operands = [np.broadcast_to(x, shape + x.shape[-1:]) for x in distinct]
            dy = rng.normal(size=shape + (2,))
            y, cache = mlp.forward(*operands)
            ref_y, ref_cache = oracles.mlp_forward(mlp, np.concatenate(operands, axis=-1))
            assert np.abs(y - ref_y).max() <= 1e-12 * np.abs(ref_y).max()
            dxs, grads = mlp.backward(cache, dy)
            ref_dx, ref_grads = oracles.mlp_backward(mlp, ref_cache, dy)
            ref_dxs = [part.sum(axis=k, keepdims=True) for k, part in enumerate(np.split(ref_dx, np.cumsum(widths)[:-1], axis=-1))]
            assert len(dxs) == len(widths)
            for got, ref in [*zip(dxs, ref_dxs), *zip(grads, ref_grads)]:
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        with pytest.raises(ValueError, match="total width 4 for a map of input width 6"):
            mlp.forward(*operands[:2])

    @pytest.mark.parametrize("kind", ["mpgnn", "fgnn2"])
    def test_train_is_bitwise_the_per_array_adam_loop(self, kind):
        dataset = mixed_shape_dataset()
        cfg = nn.TrainConfig(learning_rate=1e-3, epochs=50)
        params = nn.init_params(kind, 8, 1, seed=6)
        trained, curve = nn.train(params, dataset, cfg)
        ref, ref_curve = oracles.adam_train(params, dataset, cfg)
        assert curve == ref_curve
        assert all(np.array_equal(a, b) for a, b in zip(trained.flat(), ref.flat()))
        assert curve[-1][1] < curve[0][1]


class TestOneVector:
    @pytest.mark.parametrize("kind", ["mpgnn", "fgnn2"])
    def test_every_array_is_a_view_of_theta(self, kind):
        params = nn.init_params(kind, 8, 2, seed=1)
        arrays = params.flat()
        assert all(np.shares_memory(a, params.theta) for a in arrays)
        assert sum(a.size for a in arrays) == params.theta.size
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), params.theta)

    @pytest.mark.parametrize("kind", ["mpgnn", "fgnn2"])
    def test_copy_shares_nothing_with_the_original(self, kind):
        params = nn.init_params(kind, 8, 2, seed=1)
        twin = params.copy()
        assert not np.shares_memory(twin.theta, params.theta)
        assert all(np.shares_memory(a, twin.theta) for a in twin.flat())
        assert not any(np.shares_memory(a, params.theta) for a in twin.flat())
        assert np.array_equal(twin.theta, params.theta)
        twin.theta += 1.0
        assert not np.array_equal(twin.theta, params.theta)


class TestSerialization:
    def test_saved_bytes_are_pinned(self, tmp_path):
        # digest of this file as written before the parameters became one
        # vector; the format is a header and then every array in flat() order
        path = tmp_path / "params.bin"
        nn.save_params(nn.init_params("fgnn2", 8, 2, seed=11), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "0e3b9db7c4c6344b35402d962ed710d7daafc37289c9449dc6fc1ea260856ed0"

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

    @pytest.mark.parametrize(
        "header,field",
        [
            pytest.param({"kind": "mpgnn", "layers": 1, "shapes": []}, "'dim'", id="no dim"),
            pytest.param(["mpgnn", 4, 1], "not a JSON object", id="list"),
            pytest.param({"kind": "mpgnn", "dim": "4", "layers": 1, "shapes": []}, "'dim'", id="string dim"),
            pytest.param({"kind": "mpgnn", "dim": 4.5, "layers": 1, "shapes": []}, "'dim'", id="fractional dim"),
            pytest.param({"kind": "mpgnn", "dim": 0, "layers": 1, "shapes": []}, "'dim'", id="zero dim"),
            pytest.param({"kind": "mpgnn", "dim": 4, "layers": True, "shapes": []}, "'layers'", id="boolean layers"),
            pytest.param({"kind": "gcn", "dim": 4, "layers": 1, "shapes": []}, "'kind'", id="unknown kind"),
            pytest.param({"kind": ["mpgnn"], "dim": 4, "layers": 1, "shapes": []}, "'kind'", id="list kind"),
            pytest.param({"kind": "mpgnn", "dim": 4, "layers": 1, "shapes": [[4, 4]]}, "'shapes'", id="wrong shapes"),
            pytest.param({"kind": "mpgnn", "dim": 4, "layers": 1}, "'shapes'", id="no shapes"),
            pytest.param({"kind": "mpgnn", "dim": 1_000_000, "layers": 1, "shapes": []}, "'shapes'", id="huge dim"),
            pytest.param("[" * 100_000, "nests too deeply", id="deep nesting"),
        ],
    )
    def test_bad_header_is_a_value_error_naming_it(self, tmp_path, header, field):
        path = tmp_path / "params.bin"
        blob = (header if isinstance(header, str) else json.dumps(header)).encode()
        path.write_bytes(struct.pack("<I", len(blob)) + blob)
        with pytest.raises(ValueError, match=re.escape(field)):
            nn.load_params(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        params = nn.init_params("mpgnn", 4, 1, seed=0)
        params.theta[5] = value
        path = tmp_path / "params.bin"
        nn.save_params(params, path)
        with pytest.raises(ValueError, match="non-finite"):
            nn.load_params(path)

    def test_lengths_beyond_the_file_are_not_read(self, tmp_path):
        # neither length may become an allocation: 4 GiB of header, and
        # 8 * 4e12 bytes of arrays for matching shapes at dim 10**6
        path = tmp_path / "params.bin"
        path.write_bytes(struct.pack("<I", 2**32 - 1) + b"{}")
        with pytest.raises(ValueError, match="truncated in the header"):
            nn.load_params(path)
        blob = json.dumps({"kind": "mpgnn", "dim": 10**6, "layers": 1, "shapes": sum(nn._shapes("mpgnn", 10**6, 1), [])}).encode()
        path.write_bytes(struct.pack("<I", len(blob)) + blob)
        with pytest.raises(ValueError, match="truncated in the arrays"):
            nn.load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        nn.save_params(nn.init_params("mpgnn", 4, 1, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="trailing"):
            nn.load_params(path)
