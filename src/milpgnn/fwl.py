"""Second-order folklore color refinement on node pairs, and the two
indistinguishability relations it induces, both answered by ``fwl2_compare``.

Pairs come in two kinds: (constraint, variable) and (variable, variable).
Colorings are stored dense because every update ranges over all of V or W
regardless of sparsity.  Colors are ids of integer signature rows as in the
node-level test (``wl``), which also provides the fixpoint loop.  Each graph
is an instance itself, its floats compared by exact value.  Graphs refined
jointly have equal shape and are stacked along a leading axis; the ids of
the two pair kinds never overlap.  The fixpoint loop's stop rules hold here
too: a compare of two graphs stops once their pair-color multisets provably
differ, since both verdicts are false from then on.
"""

from __future__ import annotations

import numpy as np

from .instance import MilpInstance
from .wl import _disjoint, _fixpoint, _ids, _node_keys

__all__ = ["fwl2_compare"]


def _initial(graphs: list[MilpInstance]):
    """Round-0 pair colors: VW from (constraint features, variable features,
    A_ij with structural zeros), WW from (both variables' features, j1 == j2)."""
    k, m, n = len(graphs), graphs[0].m, graphs[0].n
    kv, kw, aid = _node_keys(graphs, [g.dense_matrix().ravel() for g in graphs])
    kv, kw, aid = kv.reshape(k, m, 1), kw.reshape(k, 1, n), aid.reshape(k, m, n)
    vw = np.stack(np.broadcast_arrays(kv, kw, aid), axis=-1)
    diag = np.broadcast_to(np.eye(n, dtype=np.int64), (k, n, n))
    ww = np.stack(np.broadcast_arrays(kw.transpose(0, 2, 1), kw, diag), axis=-1)
    vw, ww = _disjoint(_ids(vw.reshape(-1, 3)), _ids(ww.reshape(-1, 3)))
    return list(zip(vw.reshape(k, m, n), ww.reshape(k, n, n)))


def _refine_once(colorings):
    """One joint round.  (i, j) gets the multiset over j1 of
    (color(j1, j), color(i, j1)); (j1, j2) the multiset over i of
    (color(i, j2), color(i, j1))."""
    vw = np.stack([c[0] for c in colorings])
    ww = np.stack([c[1] for c in colorings])
    k, m, n = vw.shape
    base = max(int(vw.max(initial=-1)), int(ww.max(initial=-1))) + 1
    # [g, i, j, j1] and [g, j1, j2, i]
    sig_vw = np.sort(ww.transpose(0, 2, 1)[:, None, :, :] * base + vw[:, :, None, :], axis=-1)
    vt = vw.transpose(0, 2, 1)
    sig_ww = np.sort(vt[:, None, :, :] * base + vt[:, :, None, :], axis=-1)
    nvw, nww = _disjoint(
        _ids(np.concatenate([vw[..., None], sig_vw], axis=-1).reshape(k * m * n, n + 1)),
        _ids(np.concatenate([ww[..., None], sig_ww], axis=-1).reshape(k * n * n, m + 1)),
    )
    return list(zip(nvw.reshape(k, m, n), nww.reshape(k, n, n)))


def _refine_to_stability(graphs: list[MilpInstance]):
    """Pair colors at joint stability, or once the graphs' color multisets
    part, and the rounds run (``wl._fixpoint``).  One graph never parts."""
    return _fixpoint(_initial(graphs), _refine_once)


def fwl2_compare(g1: MilpInstance, g2: MilpInstance) -> tuple[bool, bool]:
    """(whole-multiset, per-column) verdicts from one joint refinement.  The
    whole-multiset criterion asks that all pair colors of each kind agree
    across the two graphs as multisets; the per-column one, that for every j
    both the (i, j) color column over i and the (j1, j) color column over j1
    agree.  The refinement stops once the two graphs' color multisets part:
    it only splits classes, so from then on both verdicts stay false, and
    they come out false from that coloring, since equal columns make equal
    wholes."""
    if (g1.m, g1.n) != (g2.m, g2.n):
        raise ValueError(f"size mismatch: ({g1.m},{g1.n}) vs ({g2.m},{g2.n})")
    (vw1, ww1), (vw2, ww2) = _refine_to_stability([g1, g2])[0]

    def same(axis):
        return np.array_equal(np.sort(vw1, axis=axis), np.sort(vw2, axis=axis)) and np.array_equal(
            np.sort(ww1, axis=axis), np.sort(ww2, axis=axis)
        )

    return same(None), same(0)
