"""Message-passing and second-order folklore networks over MILP graphs, with
hand-derived backpropagation and Adam training against branching-score
targets.

Both architectures share the building blocks: the initial maps are single
linear layers followed by ReLU, the internal maps are 3-layer MLPs with ReLU
hidden activations and a linear last layer, and the readout is a 2-layer MLP
ending in a scalar.  Message terms multiply by the matrix entry, so an absent
edge contributes exactly zero.

Each architecture is one row of the ``_ARCHS`` table, keyed by
``GnnParams.kind``: its maps' widths and its forward and backward passes
over a batch of same-shape graphs; a single graph runs as a batch of one.
A graph is an instance read directly: ``encode_graph`` takes its node
features and dense A from the ``MilpInstance``.  A list of (instance,
target) pairs is grouped by (m, n) in the order each shape first appears,
one batch per shape, and loss and gradients are summed over the groups in
that order, so accumulation is deterministic.

Every map takes its input as operands whose concatenation is the input: p
and q get (state, message), a readout the pooled states.  An operand may be
a broadcast view; the first layer multiplies it by its block of W0 on its
distinct rows only (as in the pair-tensor networks of Maron et al.,
"Provably Powerful Graph Networks", NeurIPS 2019), so no concatenated
input is ever built.  An MLP's backward pass returns one gradient per
operand and takes each ReLU mask from the stored layer output.

A network's parameters are one vector, ``GnnParams.theta``, from the moment
``init_params`` draws them; every weight and bias is a view of it, so a
copy, an Adam step, a save or a load acts on theta in one piece.

Everything runs on plain numpy float64; gradients are checked against central
finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instance import MilpInstance

__all__ = [
    "DivergenceError",
    "Mlp",
    "GnnParams",
    "TrainConfig",
    "init_params",
    "encode_graph",
    "mpgnn_forward",
    "gnn_forward",
    "BatchedGraphs",
    "batch_graphs",
    "gnn_batch_forward",
    "loss",
    "grad",
    "train",
    "save_params",
    "load_params",
]

CONS_FEATURES = 4  # b, one-hot sense
VAR_FEATURES = 6  # c, lower finite flag/value, upper finite flag/value, integrality


class DivergenceError(RuntimeError):
    """Training loss became NaN; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"loss diverged to NaN at epoch {epoch}")
        self.epoch = epoch


class Mlp:
    """Dense MLP: ReLU between layers, linear last layer by default.  The
    encoders and internal maps use output_relu=True (every layer activated);
    only the scalar readout ends linearly.  A ReLU-terminated g is essential:
    with a linear final layer g stays affine on the few distinct pair inputs,
    its messages satisfy an exact additivity identity, and training locks
    onto symmetric plateaus it can never leave."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], output_relu: bool = False):
        self.weights = weights
        self.biases = biases
        self.output_relu = output_relu

    def forward(self, *operands: np.ndarray):
        """operands: arrays (..., k_i) of one lead shape with sum k_i =
        in_dim, whose concatenation along the last axis is the input; it is
        never built.  Returns (y, cache).

        Any operand may be a broadcast view (``np.broadcast_to``): the first
        layer multiplies each operand by its own block of rows of W0 on the
        operand's distinct rows only (axes of stride 0 cut to length 1) and
        adds the products, broadcast to the lead shape."""
        lead = operands[0].shape[:-1]
        operands = tuple(map(_distinct, operands))
        parts = list(map(_rows_matmul, operands, _row_blocks(self.weights[0], operands)))
        h = sum(parts[1:], parts[0])
        if h.shape[:-1] != lead:  # every operand is broadcast along some axis
            h = np.broadcast_to(h, (*lead, h.shape[-1])).copy()
        h = h.reshape(-1, h.shape[-1])
        # every layer output is kept: it is the next layer's input, and its
        # sign is the ReLU mask backward needs
        outs = []
        last = len(self.weights) - 1
        for k in range(len(self.weights)):
            if k:
                h = outs[-1] @ self.weights[k]
            h += self.biases[k]
            if k < last or self.output_relu:
                np.maximum(h, 0.0, out=h)
            outs.append(h)
        return h.reshape(*lead, h.shape[1]), (lead, outs, operands)

    def backward(self, cache, dy: np.ndarray):
        """Returns (dx, grads) with grads ordered [dW0, db0, dW1, db1, ...].
        dx is a tuple of one input gradient per operand, summed over that
        operand's broadcast axes (kept with length 1)."""
        lead, outs, operands = cache
        d = dy.reshape(-1, dy.shape[-1])
        last = len(self.weights) - 1
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        for k in range(last, -1, -1):
            if k < last or self.output_relu:
                # relu(z) > 0 exactly where z > 0, so the stored output is the mask
                d = d * (outs[k] > 0.0)
            grads[2 * k + 1] = d.sum(axis=0)
            if k:
                grads[2 * k] = outs[k - 1].T @ d
                d = d @ self.weights[k].T
        d = d.reshape(*lead, d.shape[-1])
        dxs, dws = [], []
        for x, w in zip(operands, _row_blocks(self.weights[0], operands)):
            axes = tuple(ax for ax, (a, b) in enumerate(zip(x.shape, lead)) if a != b)
            d_x = d.sum(axis=axes, keepdims=True) if axes else d
            dws.append(x.reshape(-1, x.shape[-1]).T @ d_x.reshape(-1, d.shape[-1]))
            dxs.append(_rows_matmul(d_x, w.T))
        grads[0] = np.concatenate(dws)
        return tuple(dxs), grads


def _distinct(x: np.ndarray) -> np.ndarray:
    """x with every leading axis of stride 0 (a broadcast axis) cut to length
    1.  An empty x is kept whole: numpy gives all of its axes stride 0."""
    if x.size and 0 in x.strides[:-1]:
        return x[tuple(slice(0, 1) if st == 0 else slice(None) for st in x.strides[:-1])]
    return x


def _row_blocks(w: np.ndarray, operands) -> list[np.ndarray]:
    """w cut into consecutive blocks of rows, one per operand, each as tall as
    its operand is wide."""
    blocks, row = [], 0
    for x in operands:
        blocks.append(w[row : row + x.shape[-1]])
        row += x.shape[-1]
    if row != w.shape[0]:
        raise ValueError(f"operands of total width {row} for a map of input width {w.shape[0]}")
    return blocks


def _rows_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w as one matrix product over the rows of x: (..., k) -> (..., w.shape[1])."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


@dataclass(eq=False)  # field-wise == would compare theta arrays and raise
class GnnParams:
    """All learnable maps of one network: the initial encoders, L layers of
    four internal maps, and the readout.  theta holds every weight and bias
    in flat() order; the maps' arrays are views of it."""

    kind: str  # "mpgnn" | "fgnn2"
    dim: int
    layers: int
    theta: np.ndarray
    p0: Mlp
    q0: Mlp
    msg_layers: list[dict[str, Mlp]]  # per layer: p, q, f, g
    readout: Mlp

    def mlps(self) -> list[Mlp]:
        """Every map, in the order of flat()."""
        maps = [self.p0, self.q0]
        for layer in self.msg_layers:
            maps += [layer[name] for name in ("p", "q", "f", "g")]
        return maps + [self.readout]

    def flat(self) -> list[np.ndarray]:
        return [a for mlp in self.mlps() for pair in zip(mlp.weights, mlp.biases) for a in pair]

    def copy(self) -> "GnnParams":
        """A copy of theta, with maps that are views of the copy."""
        return _bind(self.kind, self.dim, self.layers, self.theta.copy())


def _shapes(kind: str, dim: int, layers: int) -> list[list[list[int]]]:
    """Per map, in the order of mlps(), the shapes of its W0, b0, W1, b1, ..."""
    (cons, var, internal, readout), _, _ = _ARCHS[kind]
    maps = [[cons, dim], [var, dim]] + [[k * dim, dim, dim, dim] for _ in range(layers) for k in internal]
    return [[s for a, b in zip(dims[:-1], dims[1:]) for s in ([a, b], [b])] for dims in maps + [[readout * dim, dim, 1]]]


def _bind(kind: str, dim: int, layers: int, theta: np.ndarray | None = None) -> GnnParams:
    """The network's maps with every weight and bias a view of theta (by
    default a new vector of zeros), laid out in flat() order: W0, b0, W1,
    b1, ... of each map in turn."""
    maps = _shapes(kind, dim, layers)
    if theta is None:
        theta = np.zeros(sum(math.prod(shape) for shapes in maps for shape in shapes))
    mlps, offset = [], 0
    for shapes in maps:
        arrays = []
        for shape in shapes:
            arrays.append(theta[offset : offset + math.prod(shape)].reshape(shape))
            offset += math.prod(shape)
        mlps.append(Mlp(arrays[0::2], arrays[1::2], output_relu=True))
    readout = mlps.pop()
    readout.output_relu = False  # the scalar readout ends linearly
    msg_layers = [dict(zip("pqfg", mlps[k : k + 4])) for k in range(2, len(mlps), 4)]
    return GnnParams(kind, dim, layers, theta, mlps[0], mlps[1], msg_layers, readout)


def init_params(kind: str, dim: int, layers: int, seed: int) -> GnnParams:
    """Glorot-uniform weights, zero biases, fully determined by the seed.
    Each weight is drawn straight into its place in theta."""
    if dim < 1 or layers < 1:
        raise ValueError("dim and layers must be >= 1")
    if kind not in _ARCHS:
        raise ValueError(f"unknown architecture {kind!r}")
    params = _bind(kind, dim, layers)
    rng = np.random.default_rng(seed)
    for mlp in params.mlps():
        for w in mlp.weights:
            # uniform(-bound, bound) draws -bound + 2 bound u; so does this
            bound = np.sqrt(6.0 / sum(w.shape))
            rng.random(out=w)
            w *= 2.0 * bound
            w -= bound
    return params


def encode_graph(g: MilpInstance):
    """Numeric node features of an instance's graph: constraints get (b, one-hot sense); variables
    get (c, finite-flag and value of each bound, integrality flag).  Returns
    (XV, XW, dense A)."""
    xv = np.zeros((g.m, CONS_FEATURES))
    xv[:, 0] = g.b
    xv[np.arange(g.m), 1 + g.senses] = 1.0
    xw = np.zeros((g.n, VAR_FEATURES))
    xw[:, 0] = g.c
    lo_finite = np.isfinite(g.lower)
    up_finite = np.isfinite(g.upper)
    xw[:, 1] = lo_finite
    xw[:, 2] = np.where(lo_finite, g.lower, 0.0)
    xw[:, 3] = up_finite
    xw[:, 4] = np.where(up_finite, g.upper, 0.0)
    xw[:, 5] = g.integer
    return xv, xw, g.dense_matrix()


# ---------------------------------------------------------------------------
# message-passing network


@dataclass(frozen=True)
class BatchedGraphs:
    """Same-shape graphs stacked along a batch axis, so one epoch is a
    handful of large matmuls instead of many small ones."""

    xv: np.ndarray  # (B, m, CONS_FEATURES)
    xw: np.ndarray  # (B, n, VAR_FEATURES)
    a: np.ndarray  # (B, m, n)
    targets: np.ndarray  # (B, n)


def batch_graphs(pairs: Sequence[tuple[MilpInstance, np.ndarray]]) -> BatchedGraphs:
    shapes = {(g.m, g.n) for g, _ in pairs}
    if len(shapes) != 1:
        raise ValueError(f"graphs must share one shape, got {sorted(shapes)}")
    encoded = [encode_graph(g) for g, _ in pairs]
    return BatchedGraphs(
        xv=np.stack([e[0] for e in encoded]),
        xw=np.stack([e[1] for e in encoded]),
        a=np.stack([e[2] for e in encoded]),
        targets=np.stack([np.asarray(t, dtype=float) for _, t in pairs]),
    )


def _forward_mpgnn(params: GnnParams, batch: BatchedGraphs):
    """Per-variable outputs y_j = readout(sum_i s_i, sum_j t_j, t_j) of each
    graph in the batch, and their cache."""
    a = batch.a
    bsz, m, n = a.shape
    s, s_cache = params.p0.forward(batch.xv)  # (B, m, d)
    t, t_cache = params.q0.forward(batch.xw)  # (B, n, d)
    layer_caches = []
    for layer in params.msg_layers:
        f_out, f_c = layer["f"].forward(t)
        s_new, p_c = layer["p"].forward(s, a @ f_out)
        g_out, g_c = layer["g"].forward(s)
        t_new, q_c = layer["q"].forward(t, np.transpose(a, (0, 2, 1)) @ g_out)
        layer_caches.append((f_c, p_c, g_c, q_c))
        s, t = s_new, t_new
    # u = sum_i s_i and w = sum_j t_j, one row per graph broadcast over its variables
    u = np.broadcast_to(s.sum(axis=1, keepdims=True), t.shape)
    w = np.broadcast_to(t.sum(axis=1, keepdims=True), t.shape)
    y, r_c = params.readout.forward(u, w, t)
    return y[..., 0], (a, s_cache, t_cache, layer_caches, r_c, (bsz, m, n))


def _backward_mpgnn(params: GnnParams, cache, dy: np.ndarray) -> list[np.ndarray]:
    a, s_cache, t_cache, layer_caches, r_c, (bsz, m, n) = cache
    (du, dw, dt), r_grads = params.readout.backward(r_c, dy[..., None])
    # du and dw keep their broadcast axis, of length 1, or 0 when n = 0
    ds = np.broadcast_to(du.sum(axis=1, keepdims=True), (bsz, m, params.dim))
    dt = dt + dw.sum(axis=1, keepdims=True)

    layer_grads = []
    for layer, (f_c, p_c, g_c, q_c) in zip(reversed(params.msg_layers), reversed(layer_caches)):
        (ds_prev, d_msg_v), p_grads = layer["p"].backward(p_c, ds)
        (dt_from_f,), f_grads = layer["f"].backward(f_c, np.transpose(a, (0, 2, 1)) @ d_msg_v)
        (dt_prev, d_msg_w), q_grads = layer["q"].backward(q_c, dt)
        (ds_from_g,), g_grads = layer["g"].backward(g_c, a @ d_msg_w)
        ds, dt = ds_prev + ds_from_g, dt_prev + dt_from_f
        layer_grads.append(p_grads + q_grads + f_grads + g_grads)

    return _flat_grads(params, s_cache, ds, t_cache, dt, layer_grads, r_grads)


def _flat_grads(params: GnnParams, s_cache, ds, t_cache, dt, layer_grads, r_grads) -> list[np.ndarray]:
    """Backpropagate into the encoders; every gradient in flat() order.
    layer_grads holds each layer's p, q, f, g gradients, last layer first."""
    _, p0_grads = params.p0.backward(s_cache, ds)
    _, q0_grads = params.q0.backward(t_cache, dt)
    return p0_grads + q0_grads + [g for grads in reversed(layer_grads) for g in grads] + r_grads


# ---------------------------------------------------------------------------
# second-order folklore network


def _forward_fgnn2(params: GnnParams, batch: BatchedGraphs):
    """Pair features over (constraint, variable) and (variable, variable)
    pairs of each graph in the batch; outputs y_j = readout(sum_i s_ij,
    sum_j1 t_{j1 j}), and their cache.  Every map's operands that repeat
    along a pair axis are broadcast views of the per-node or per-pair arrays."""
    xv, xw, a = batch.xv, batch.xw, batch.a
    bsz, m, n = a.shape
    d = params.dim
    s, s_cache = params.p0.forward(  # (B, m, n, d)
        np.broadcast_to(xv[:, :, None, :], (bsz, m, n, CONS_FEATURES)),
        np.broadcast_to(xw[:, None, :, :], (bsz, m, n, VAR_FEATURES)),
        a[..., None],
    )
    t, t_cache = params.q0.forward(  # (B, n, n, d)
        np.broadcast_to(xw[:, :, None, :], (bsz, n, n, VAR_FEATURES)),
        np.broadcast_to(xw[:, None, :, :], (bsz, n, n, VAR_FEATURES)),
        np.broadcast_to(np.eye(n)[None, :, :, None], (bsz, n, n, 1)),
    )

    layer_caches = []
    for layer in params.msg_layers:
        # message into s[i, j]: sum over j1 of f(t[j1, j], s[i, j1]); axes (B, i, j, j1)
        f_out, f_c = layer["f"].forward(
            np.broadcast_to(np.transpose(t, (0, 2, 1, 3))[:, None], (bsz, m, n, n, d)),
            np.broadcast_to(s[:, :, None], (bsz, m, n, n, d)),
        )
        s_new, p_c = layer["p"].forward(s, f_out.sum(axis=3))
        # message into t[j1, j2]: sum over i of g(s[i, j2], s[i, j1]); axes (B, j1, j2, i)
        st = np.transpose(s, (0, 2, 1, 3))  # (B, n, m, d)
        g_out, g_c = layer["g"].forward(
            np.broadcast_to(st[:, None], (bsz, n, n, m, d)),
            np.broadcast_to(st[:, :, None], (bsz, n, n, m, d)),
        )
        t_new, q_c = layer["q"].forward(t, g_out.sum(axis=3))
        layer_caches.append((f_c, p_c, g_c, q_c))
        s, t = s_new, t_new

    us = s.sum(axis=1)  # (B, n, d)
    ut = t.sum(axis=1)  # (B, n, d), sums t[j1, j] over j1
    y, r_c = params.readout.forward(us, ut)
    return y[..., 0], (s_cache, t_cache, layer_caches, r_c, (bsz, m, n))


def _backward_fgnn2(params: GnnParams, cache, dy: np.ndarray) -> list[np.ndarray]:
    s_cache, t_cache, layer_caches, r_c, (bsz, m, n) = cache
    d = params.dim
    (d_us, d_ut), r_grads = params.readout.backward(r_c, dy[..., None])
    ds = np.broadcast_to(d_us[:, None], (bsz, m, n, d))
    dt = np.broadcast_to(d_ut[:, None], (bsz, n, n, d))

    layer_grads = []
    for layer, (f_c, p_c, g_c, q_c) in zip(reversed(params.msg_layers), reversed(layer_caches)):
        (ds_prev, d_msg_s), p_grads = layer["p"].backward(p_c, ds)  # (B, m, n, d) each
        (d_tj, d_si), f_grads = layer["f"].backward(f_c, np.broadcast_to(d_msg_s[:, :, :, None], (bsz, m, n, n, d)))
        # each operand's gradient keeps its broadcast axis; summing drops it
        dt_prev = np.transpose(d_tj.sum(axis=1), (0, 2, 1, 3))  # (B, j, j1) -> (B, j1, j)
        ds_prev += d_si.sum(axis=2)  # (B, i, j1)

        (dt_q, d_msg_t), q_grads = layer["q"].backward(q_c, dt)  # (B, n, n, d) each
        dt_prev += dt_q
        (d_s2, d_s1), g_grads = layer["g"].backward(g_c, np.broadcast_to(d_msg_t[:, :, :, None], (bsz, n, n, m, d)))
        ds_prev += np.transpose(d_s2.sum(axis=1) + d_s1.sum(axis=2), (0, 2, 1, 3))  # (B, j, i) -> (B, i, j)
        ds, dt = ds_prev, dt_prev
        layer_grads.append(p_grads + q_grads + f_grads + g_grads)

    return _flat_grads(params, s_cache, ds, t_cache, dt, layer_grads, r_grads)


# ---------------------------------------------------------------------------
# one table of architectures

# kind -> (input widths of the maps, batched forward, batched backward).  The
# widths are those of p0 and q0, then, as multiples of dim, those of every
# layer's internal maps p, q, f and g and of the readout.  A forward maps
# (params, batch) to (outputs (B, n), cache), and a backward maps (params,
# cache, d outputs) to the gradients in flat() order.
_ARCHS = {
    "mpgnn": ((CONS_FEATURES, VAR_FEATURES, (2, 2, 1, 1), 3), _forward_mpgnn, _backward_mpgnn),
    "fgnn2": ((CONS_FEATURES + VAR_FEATURES + 1, 2 * VAR_FEATURES + 1, (2, 2, 2, 2), 2), _forward_fgnn2, _backward_fgnn2),
}


def gnn_batch_forward(params: GnnParams, batch: BatchedGraphs) -> np.ndarray:
    """Per-variable outputs (B, n) of every graph in a same-shape batch."""
    _, forward, _ = _ARCHS[params.kind]
    return forward(params, batch)[0]


def gnn_forward(params: GnnParams, g: MilpInstance) -> np.ndarray:
    """Per-variable outputs of one graph, computed as a batch of one."""
    return gnn_batch_forward(params, batch_graphs([(g, np.zeros(g.n))]))[0]


def mpgnn_forward(params: GnnParams, g: MilpInstance) -> np.ndarray:
    """gnn_forward for message-passing parameters; any other kind is a ValueError."""
    if params.kind != "mpgnn":
        raise ValueError("params are not for the message-passing network")
    return gnn_forward(params, g)


# ---------------------------------------------------------------------------
# loss, gradient, training


def _shape_batches(dataset) -> list[BatchedGraphs]:
    """A dataset as same-shape batches.  A list of (instance, target) pairs is
    grouped by (m, n) in the order each shape first appears, and each group
    is encoded once by batch_graphs.  A BatchedGraphs, or a list of them (as
    train passes to grad), is used as it is."""
    if isinstance(dataset, BatchedGraphs):
        return [dataset]
    dataset = list(dataset)
    if all(isinstance(item, BatchedGraphs) for item in dataset):
        return dataset
    groups: dict[tuple[int, int], list] = {}
    for g, target in dataset:
        groups.setdefault((g.m, g.n), []).append((g, target))
    return [batch_graphs(group) for group in groups.values()]


def loss(params: GnnParams, dataset) -> float:
    """0.5 * sum over the dataset of the squared output error.  The dataset
    is a list of (instance, target) pairs or a BatchedGraphs."""
    total = 0.0
    for batch in _shape_batches(dataset):
        err = gnn_batch_forward(params, batch) - batch.targets
        total += 0.5 * float((err * err).sum())
    return total


def grad(params: GnnParams, dataset):
    """Exact gradient of ``loss``.  Returns (loss, flat grads).

    A list of pairs is grouped by shape in first-appearance order and the
    loss and gradients are summed over the groups in that order, so results
    are bitwise reproducible."""
    _, forward, backward = _ARCHS[params.kind]
    total = 0.0
    acc: list[np.ndarray] | None = None
    for batch in _shape_batches(dataset):
        y, cache = forward(params, batch)
        err = y - batch.targets
        total += 0.5 * float((err * err).sum())
        gs = backward(params, cache, err)
        if acc is None:
            acc = gs
        else:
            for slot, piece in zip(acc, gs):
                slot += piece
    if acc is None:
        acc = [np.zeros_like(arr) for arr in params.flat()]
    return total, acc


# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# (loss bound, rate), tightest bound first: once the loss is at or below a
# bound, Adam steps at that rate, or at the configured one if that is smaller
LR_DECAY = ((1e-12, 1e-7), (1e-6, 1e-6))


@dataclass(frozen=True)
class TrainConfig:
    """Adam's base rate, decayed by LR_DECAY as the loss falls (a decay
    never raises the rate above learning_rate); stops early
    once target_loss is reached (if set).  seed is read nowhere, since
    init_params's seed alone fixes a run; it stays for the callers that
    pass it."""

    learning_rate: float = 1e-5
    epochs: int = 10_000
    target_loss: float | None = None
    seed: int = 0


def train(
    params: GnnParams,
    dataset: Sequence[tuple[MilpInstance, np.ndarray]] | BatchedGraphs,
    cfg: TrainConfig,
):
    """Full-batch Adam.  Returns (trained params, curve) where curve is a
    list of (epoch, loss, lr) rows; the loss is the pre-step value.

    The dataset is grouped into same-shape batches once, before the first
    epoch, so no graph is encoded inside the epoch loop.  Each Adam step is
    a few operations on the trained copy's theta and its two moment
    vectors."""
    params = params.copy()
    dataset = _shape_batches(dataset)
    m_state = np.zeros_like(params.theta)
    v_state = np.zeros_like(params.theta)
    curve: list[tuple[int, float, float]] = []
    for epoch in range(cfg.epochs):
        value, grads = grad(params, dataset)
        if np.isnan(value):
            raise DivergenceError(epoch)
        lr = min(cfg.learning_rate, next((rate for bound, rate in LR_DECAY if value <= bound), math.inf))
        curve.append((epoch, value, lr))
        if cfg.target_loss is not None and value <= cfg.target_loss:
            break
        t = epoch + 1
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        gr = np.concatenate([g.ravel() for g in grads])
        m_state *= ADAM_BETA1
        m_state += (1.0 - ADAM_BETA1) * gr
        v_state *= ADAM_BETA2
        v_state += (1.0 - ADAM_BETA2) * gr * gr
        params.theta -= lr * (m_state / bias1) / (np.sqrt(v_state / bias2) + ADAM_EPS)
    return params, curve


# ---------------------------------------------------------------------------
# parameter serialization: JSON shape header + raw little-endian float64


def save_params(params: GnnParams, path) -> None:
    """A JSON header naming the architecture and every array's shape, then
    theta, which holds the arrays in flat() order."""
    header = {
        "kind": params.kind,
        "dim": params.dim,
        "layers": params.layers,
        "shapes": [list(a.shape) for a in params.flat()],
    }
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(params.theta.astype("<f8", copy=False).tobytes())


def _read_exact(fh, size: int, what: str) -> bytes:
    """The next ``size`` bytes, read only if the file holds them."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < size:
        raise ValueError(f"parameter file truncated in {what}: expected {size} bytes, found {left}")
    return fh.read(size)


def load_params(path) -> GnnParams:
    """Inverse of save_params.  A short file, a header that is not a network
    of a known architecture, shapes that do not match it, bytes after the
    last array and a NaN or infinite parameter are ValueErrors; a bad header
    field is named."""
    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "the header length"))
        try:
            header = json.loads(_read_exact(fh, hlen, "the header"))
        except RecursionError:
            raise ValueError("parameter header nests too deeply") from None
        if not isinstance(header, dict):
            raise ValueError("parameter header is not a JSON object")
        for field in ("kind", "dim", "layers", "shapes"):
            if field not in header:
                raise ValueError(f"parameter header has no field {field!r}")
        if not isinstance(header["kind"], str) or header["kind"] not in _ARCHS:
            raise ValueError(f"parameter header field 'kind' is not an architecture: {header['kind']!r}")
        for field in ("dim", "layers"):
            if type(header[field]) is not int or header[field] < 1:
                raise ValueError(f"parameter header field {field!r} is not an integer >= 1: {header[field]!r}")
        shapes = sum(_shapes(header["kind"], header["dim"], header["layers"]), [])
        if header["shapes"] != shapes:
            raise ValueError("parameter header field 'shapes' does not match the architecture")
        raw = _read_exact(fh, 8 * sum(math.prod(s) for s in shapes), "the arrays")
        if fh.read(1):
            raise ValueError("parameter file has trailing bytes after the last array")
    theta = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(theta).all():
        raise ValueError("parameter file holds a non-finite value")
    return _bind(header["kind"], header["dim"], header["layers"], theta)
