"""Color refinement on the bipartite MILP graph, stable partitions with
their message-passing tractability verdict, and the WL test of two graphs.

A color is the id of a signature row: all rows of a round are ranked at
once by one lexsort, one stable pass per column, so equal ids mean equal
signatures and the scheme is collision-free by construction.  The graph is
the instance itself.  Round 0 ranks the feature rows (b, sense) and (c,
lower, upper, integer) straight from their floats, and each edge weight by
its rank among the edge weights; floats compare by exact value, so -0.0 and
0.0 share an id.  A later round's signature is the node's own color followed
by the sorted multiset of (neighbor color, edge weight) keys, padded to the
largest degree.  Graphs refined jointly have one shape (m, n) and are refined
as their disjoint union, so colors stay comparable across them: each graph's
colors are one row of the union's, reshaped to (graphs, m) and (graphs, n).
The fixpoint loop here also drives the pair refinement in ``fwl``.  It
stops when a round leaves the class count as it was, or, without that
confirming round, once every cell has a class of its own: a discrete
coloring cannot split further.  Refining several graphs, it also stops once
their color multisets part, since refinement only splits classes and they
stay parted; one graph never parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import MilpInstance, _column_order

__all__ = [
    "StablePartition",
    "stable_partition",
    "is_mp_tractable",
    "wl_indistinguishable",
]


@dataclass(frozen=True)
class StablePartition:
    """Fixed point of refinement: classes ordered by smallest member, and the
    tractability witness (``is_mp_tractable``), None when every block of A
    is constant."""

    classes_v: tuple[tuple[int, ...], ...]
    classes_w: tuple[tuple[int, ...], ...]
    rounds_to_converge: int
    witness: tuple[int, int, int, int, int, int] | None


def _group(colors: np.ndarray):
    """Members of each color, the class index of each node, and the first
    member of each class.  A dict keeps its keys in insertion order, so the
    classes come out ordered by smallest member."""
    by_color: dict[int, list[int]] = {}
    for idx, c in enumerate(colors.tolist()):
        by_color.setdefault(c, []).append(idx)
    classes = tuple(map(tuple, by_color.values()))
    first = np.fromiter((c[0] for c in classes), np.intp, len(classes))
    index = np.empty(int(colors.max(initial=-1)) + 1, dtype=np.intp)
    index[colors[first]] = np.arange(len(classes))
    return classes, index[colors], first


def _ids(rows: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of each row, equal to ``np.unique(rows,
    axis=0, return_inverse=True)[1]``: one lexsort, first column as the
    primary key, and a new id at each sorted row unlike the one before."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ranked = rows[order]
    ids = np.zeros(len(rows), dtype=np.intp)
    ids[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids[order] = np.cumsum(ids)
    return ids


def _disjoint(ids_a: np.ndarray, ids_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift the second kind's ids past the first's so the two never overlap."""
    return ids_a, ids_b + (int(ids_a.max()) + 1 if ids_a.size else 0)


def _class_count(colorings) -> int:
    """Distinct colors over every array of ``colorings``.  The ids are dense:
    ``_ids`` ranks from 0 and ``_disjoint`` shifts the second kind just past
    the first, so the count is the largest id plus 1."""
    return max((int(a.max()) for pair in colorings for a in pair if a.size), default=-1) + 1


def _moments(colors: np.ndarray):
    return colors.sum(), np.vdot(colors, colors)


def _parted(colorings) -> bool:
    """True only if some two graphs' color multisets of one kind differ.
    Equal multisets have equal sums of ids and of squared ids, also where
    int64 wraps, so unequal sums prove a difference."""
    return len({(*_moments(a), *_moments(b)) for a, b in colorings}) > 1


def _fixpoint(colorings, refine_once):
    """Refine until the class count stops growing, every cell has a class of
    its own, or the graphs' colorings part (``_parted``) before a round.
    Every signature holds the old color, so a round can only split classes:
    an equal count means an equal partition, a discrete one cannot split
    further, and parted graphs stay parted.  Returns the last coloring
    reached before stopping, and the number of rounds that changed
    something."""
    classes = _class_count(colorings)
    cells = sum(a.size for pair in colorings for a in pair)
    rounds = 0
    while True:
        if classes == cells or _parted(colorings):
            return colorings, rounds
        nxt = refine_once(colorings)
        count = _class_count(nxt)
        if count == classes:
            return colorings, rounds
        colorings, classes = nxt, count
        rounds += 1


def _node_keys(graphs: list[MilpInstance]):
    """Feature ids of all constraint and all variable nodes, in graph order:
    the rank of each (b, sense) and each (c, lower, upper, integer) row."""
    def ranks(*fields):
        return _ids(np.column_stack([np.concatenate([getattr(g, f) for g in graphs]) for f in fields]))

    return ranks("b", "senses"), ranks("c", "lower", "upper", "integer")


def _signatures(colors: np.ndarray, node: np.ndarray, slot: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Rows (own color, sorted neighbor keys, -1 padding) of one node kind."""
    width = int(slot.max()) + 1 if slot.size else 0
    nb = np.full((colors.size, width), -1, dtype=np.int64)
    nb[node, slot] = keys
    nb.sort(axis=1)
    return np.column_stack([colors, nb])


def _refiner(graphs: list[MilpInstance]):
    """Initial colors of each graph, and one refinement round over the
    disjoint union of the graphs, which have one shape (m, n)."""
    k, m, n = len(graphs), graphs[0].m, graphs[0].n
    kv, kw = _node_keys(graphs)
    rows = np.concatenate([g.a_rows + i * m for i, g in enumerate(graphs)])
    cols = np.concatenate([g.a_cols + i * n for i, g in enumerate(graphs)])
    wid = _ids(np.concatenate([g.a_vals for g in graphs])[:, None])
    # a slot is an edge's position among its node's edges; triplets are stored by row
    slot_v = np.arange(rows.size) - np.searchsorted(rows, rows)
    order, start = _column_order(cols, k * n)
    slot_w = np.empty_like(cols)
    slot_w[order] = np.arange(cols.size) - start[cols[order]]
    weights = int(wid.max()) + 1 if wid.size else 1

    def split(cv, cw):
        return list(zip(cv.reshape(k, m), cw.reshape(k, n)))

    def refine_once(colorings):
        cv, cw = map(np.concatenate, zip(*colorings))
        sig_v = _signatures(cv, rows, slot_v, cw[cols] * weights + wid)
        sig_w = _signatures(cw, cols, slot_w, cv[rows] * weights + wid)
        return split(*_disjoint(_ids(sig_v), _ids(sig_w)))

    return split(*_disjoint(kv, kw)), refine_once


def _refine_to_stability(graphs: list[MilpInstance]):
    return _fixpoint(*_refiner(graphs))


def _witness(a: np.ndarray, block_v, first_v, block_w, first_w):
    """The first entry of A, in block order, unlike its block's first entry,
    as ``is_mp_tractable`` reports it; None when every block is constant."""
    differs = a != a[first_v[block_v]][:, first_w[block_w]]
    if not differs.any():
        return None
    ii, jj = np.nonzero(differs)
    k = np.lexsort((jj, ii, block_w[jj], block_v[ii]))[0]
    p, q = int(block_v[ii[k]]), int(block_w[jj[k]])
    return p, q, int(first_v[p]), int(ii[k]), int(first_w[q]), int(jj[k])


def stable_partition(g: MilpInstance) -> StablePartition:
    colorings, rounds = _refine_to_stability([g])
    (classes_v, *blocks_v), (classes_w, *blocks_w) = map(_group, colorings[0])
    return StablePartition(classes_v, classes_w, rounds, _witness(g.dense_matrix(), *blocks_v, *blocks_w))


def is_mp_tractable(inst: MilpInstance) -> tuple[bool, tuple[int, int, int, int, int, int] | None]:
    """Definition check: every stable-partition block of A, structural zeros
    included, must be a constant matrix.

    Returns (True, None) or (False, (p, q, i, i2, j, j2)) where
    A[i, j] != A[i2, j2] inside block (p, q), i and j are the first row and
    column of the block, and (p, q, i2, j2) is the smallest such tuple."""
    witness = stable_partition(inst).witness
    return witness is None, witness


def wl_indistinguishable(g1: MilpInstance, g2: MilpInstance) -> bool:
    """True iff at joint stability the constraint color multisets match and
    the variable colors match index by index.  The refinement stops once the
    two graphs' colorings part, and the verdict, false from then on, comes
    out false from that coloring."""
    if (g1.m, g1.n) != (g2.m, g2.n):
        raise ValueError(f"size mismatch: ({g1.m},{g1.n}) vs ({g2.m},{g2.n})")
    (cv1, cw1), (cv2, cw2) = _refine_to_stability([g1, g2])[0]
    return np.array_equal(np.sort(cv1), np.sort(cv2)) and np.array_equal(cw1, cw2)
