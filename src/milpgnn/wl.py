"""Color refinement on the bipartite MILP graph, stable partitions, and the
message-passing tractability check.

Hashing is realized by canonical interning: every round builds the exact
refinement signature (own color, sorted multiset of (neighbor color, edge
weight)) and assigns dense integer ids through a dictionary, so the scheme is
collision-free by construction.  Edge weights and node features enter
signatures by the exact bit pattern of the double, with -0.0 read as 0.0; an
optional quantization step size is available for noisy data and is off by
default.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .instance import MilpGraph, MilpInstance, build_graph

__all__ = [
    "Coloring",
    "StablePartition",
    "wl_refine",
    "stable_partition",
    "is_mp_tractable",
    "wl_indistinguishable",
]


def _fkey(v: float, quantize: float | None):
    if quantize is not None and math.isfinite(v):
        v = round(v / quantize) * quantize
    # -0.0 + 0.0 is +0.0, so the two zeros, which compare equal, share one key
    return struct.pack("<d", v + 0.0)


@dataclass(frozen=True)
class Coloring:
    """Colors after a fixed number of refinement rounds; ids are dense
    integers, equal id within a round iff equal refinement signature."""

    round: int
    colors_v: tuple[int, ...]
    colors_w: tuple[int, ...]

    def partition(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        return _group(self.colors_v), _group(self.colors_w)


@dataclass(frozen=True)
class StablePartition:
    """Fixed point of refinement: classes ordered by smallest member."""

    classes_v: tuple[tuple[int, ...], ...]
    classes_w: tuple[tuple[int, ...], ...]
    rounds_to_converge: int


def _group(colors) -> tuple[tuple[int, ...], ...]:
    by_color: dict[int, list[int]] = {}
    for idx, c in enumerate(colors):
        by_color.setdefault(c, []).append(idx)
    return tuple(tuple(v) for v in sorted(by_color.values()))


class _Interner:
    def __init__(self):
        self._table: dict = {}

    def __call__(self, key) -> int:
        return self._table.setdefault(key, len(self._table))


def _initial_colors(graphs: list[MilpGraph], quantize):
    intern = _Interner()
    out = []
    for g in graphs:
        cv = [
            intern(("V", _fkey(float(g.b[i]), quantize), int(g.senses[i])))
            for i in range(g.m)
        ]
        cw = [
            intern(
                (
                    "W",
                    _fkey(float(g.c[j]), quantize),
                    _fkey(float(g.lower[j]), quantize),
                    _fkey(float(g.upper[j]), quantize),
                    int(g.integer[j]),
                )
            )
            for j in range(g.n)
        ]
        out.append((cv, cw))
    return out


def _refine_once(graphs: list[MilpGraph], colorings, quantize):
    """One joint round over all graphs with a shared interning dictionary, so
    colors stay comparable across graphs."""
    intern = _Interner()
    out = []
    for g, (cv, cw) in zip(graphs, colorings):
        sig_v = [
            ("V", cv[i], tuple(sorted((cw[j], _fkey(w, quantize)) for j, w in g.cons_neighbors[i])))
            for i in range(g.m)
        ]
        sig_w = [
            ("W", cw[j], tuple(sorted((cv[i], _fkey(w, quantize)) for i, w in g.var_neighbors[j])))
            for j in range(g.n)
        ]
        out.append(([intern(s) for s in sig_v], [intern(s) for s in sig_w]))
    return out


def _joint_partitions(colorings):
    """Partition of the disjoint union of all graphs' nodes, used as the
    stability criterion for joint refinement."""
    flat = []
    for cv, cw in colorings:
        flat.extend(("V", c) for c in cv)
        flat.extend(("W", c) for c in cw)
    by_color: dict = {}
    for idx, c in enumerate(flat):
        by_color.setdefault(c, []).append(idx)
    return frozenset(tuple(v) for v in by_color.values())


def _refine_to_stability(graphs: list[MilpGraph], quantize):
    colorings = _initial_colors(graphs, quantize)
    part = _joint_partitions(colorings)
    rounds = 0
    while True:
        nxt = _refine_once(graphs, colorings, quantize)
        nxt_part = _joint_partitions(nxt)
        if nxt_part == part:
            return colorings, rounds
        colorings, part = nxt, nxt_part
        rounds += 1


def wl_refine(g: MilpGraph, rounds: int, quantize: float | None = None) -> Coloring:
    """Run exactly ``rounds`` refinement rounds; round 0 is features only."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    colorings = _initial_colors([g], quantize)
    for _ in range(rounds):
        colorings = _refine_once([g], colorings, quantize)
    cv, cw = colorings[0]
    return Coloring(round=rounds, colors_v=tuple(cv), colors_w=tuple(cw))


def stable_partition(g: MilpGraph, quantize: float | None = None) -> StablePartition:
    colorings, rounds = _refine_to_stability([g], quantize)
    cv, cw = colorings[0]
    return StablePartition(
        classes_v=_group(cv),
        classes_w=_group(cw),
        rounds_to_converge=rounds,
    )


def is_mp_tractable(
    inst: MilpInstance, quantize: float | None = None
) -> tuple[bool, tuple[int, int, int, int, int, int] | None]:
    """Definition check: every stable-partition block of A, structural zeros
    included, must be a constant matrix.

    Returns (True, None) or (False, (p, q, i, i2, j, j2)) where
    A[i, j] != A[i2, j2] inside block (p, q)."""
    g = build_graph(inst)
    part = stable_partition(g, quantize)
    a = inst.dense_matrix()
    for p, block_rows in enumerate(part.classes_v):
        for q, block_cols in enumerate(part.classes_w):
            sub = a[list(block_rows)][:, list(block_cols)]
            if sub.size == 0:
                continue
            ref = sub.flat[0]
            if (sub == ref).all():
                continue
            # locate one offending pair of entries
            i0, j0 = block_rows[0], block_cols[0]
            for bi, i in enumerate(block_rows):
                for bj, j in enumerate(block_cols):
                    if sub[bi, bj] != ref:
                        return False, (p, q, i0, i, j0, j)
    return True, None


def wl_indistinguishable(g1: MilpGraph, g2: MilpGraph, quantize: float | None = None) -> bool:
    """True iff at joint stability the constraint color multisets match and
    the variable colors match index by index."""
    if (g1.m, g1.n) != (g2.m, g2.n):
        raise ValueError(f"size mismatch: ({g1.m},{g1.n}) vs ({g2.m},{g2.n})")
    (cv1, cw1), (cv2, cw2) = _refine_to_stability([g1, g2], quantize)[0]
    return sorted(cv1) == sorted(cv2) and cw1 == cw2
