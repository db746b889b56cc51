"""Color refinement on the bipartite MILP graph, stable partitions with
their message-passing tractability verdict, and the WL test of two graphs.

A color is the id of an integer signature row: all rows of a round are
ranked at once by one lexsort, one stable pass per column, so equal ids mean
equal signatures and the scheme is collision-free by construction.  A round's
signature is the node's own color followed by the sorted multiset of
(neighbor color, edge weight) keys, padded to the largest degree.  The
graph is the instance itself.  Node features and edge weights enter as
value ids: floats are numbered by exact value, so -0.0 and 0.0 share an id.
Several graphs are refined as their disjoint union, so colors stay
comparable across them.  The fixpoint loop here also drives the pair
refinement in ``fwl``.  It stops when a round leaves the class count as it
was, or, without that confirming round, once every cell has a class of its
own: a discrete coloring cannot split further.  Refining several graphs, it
also stops once their color multisets part, since refinement only splits
classes and they stay parted; one graph never parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import MilpInstance

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


def _group(colors) -> tuple[tuple[int, ...], ...]:
    """Members of each color.  A dict keeps its keys in insertion order, so
    the classes come out ordered by smallest member."""
    by_color: dict[int, list[int]] = {}
    for idx, c in enumerate(np.asarray(colors).tolist()):
        by_color.setdefault(c, []).append(idx)
    return tuple(map(tuple, by_color.values()))


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


def _node_keys(graphs: list[MilpInstance], weights: list[np.ndarray]):
    """Feature ids of all constraint and all variable nodes, in graph order,
    and value ids of the concatenated ``weights``.  Floats are compared by
    exact value."""
    fields = [[getattr(g, name) for g in graphs] for name in ("b", "c", "lower", "upper")] + [weights]
    parts = [np.concatenate(f) for f in fields]
    ids = np.unique(np.concatenate(parts), return_inverse=True)[1]
    b, c, lower, upper, w = np.split(ids, np.cumsum([p.size for p in parts])[:-1])
    senses = np.concatenate([g.senses for g in graphs])
    integer = np.concatenate([g.integer for g in graphs])
    kv = _ids(np.column_stack([b, senses]))
    kw = _ids(np.column_stack([c, lower, upper, integer]))
    return kv, kw, w


def _signatures(colors: np.ndarray, node: np.ndarray, slot: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Rows (own color, sorted neighbor keys, -1 padding) of one node kind."""
    width = int(slot.max()) + 1 if slot.size else 0
    nb = np.full((colors.size, width), -1, dtype=np.int64)
    nb[node, slot] = keys
    nb.sort(axis=1)
    return np.column_stack([colors, nb])


def _slots(node: np.ndarray) -> np.ndarray:
    """Position of each edge among the edges of its node."""
    order = np.argsort(node, kind="stable")
    grouped = node[order]
    slot = np.empty_like(node)
    slot[order] = np.arange(node.size) - np.searchsorted(grouped, grouped)
    return slot


def _refiner(graphs: list[MilpInstance]):
    """Initial colors of each graph, and one refinement round over the
    disjoint union of the graphs."""
    kv, kw, wid = _node_keys(graphs, [g.a_vals for g in graphs])
    ms = np.cumsum([0] + [g.m for g in graphs])
    ns = np.cumsum([0] + [g.n for g in graphs])
    rows = np.concatenate([g.a_rows + off for g, off in zip(graphs, ms)])
    cols = np.concatenate([g.a_cols + off for g, off in zip(graphs, ns)])
    slot_v, slot_w = _slots(rows), _slots(cols)
    weights = int(wid.max()) + 1 if wid.size else 1

    def split(cv, cw):
        return list(zip(np.split(cv, ms[1:-1]), np.split(cw, ns[1:-1])))

    def refine_once(colorings):
        cv = np.concatenate([v for v, _ in colorings])
        cw = np.concatenate([w for _, w in colorings])
        sig_v = _signatures(cv, rows, slot_v, cw[cols] * weights + wid)
        sig_w = _signatures(cw, cols, slot_w, cv[rows] * weights + wid)
        return split(*_disjoint(_ids(sig_v), _ids(sig_w)))

    return split(*_disjoint(kv, kw)), refine_once


def _refine_to_stability(graphs: list[MilpInstance]):
    return _fixpoint(*_refiner(graphs))


def _blocks(colors: np.ndarray, classes) -> tuple[np.ndarray, np.ndarray]:
    """Class index of each node, and the first member of each class."""
    first = np.fromiter((c[0] for c in classes), np.intp, len(classes))
    index = np.empty(int(colors.max(initial=-1)) + 1, dtype=np.intp)
    index[colors[first]] = np.arange(len(classes))
    return index[colors], first


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
    cv, cw = colorings[0]
    classes_v, classes_w = _group(cv), _group(cw)
    witness = _witness(g.dense_matrix(), *_blocks(cv, classes_v), *_blocks(cw, classes_w))
    return StablePartition(classes_v, classes_w, rounds, witness)


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
