"""Shared fixtures-as-functions for CLI tests."""

import dataclasses

import numpy as np

from milpgnn import fwl, wl
from milpgnn.gen import gen_set_cover
from milpgnn.instance import MilpInstance, Sense, serialize_instance


def refine_rounds(module, g: MilpInstance, rounds: int):
    """One graph's colors after exactly ``rounds`` rounds of the refinement
    that ``module`` (``wl`` or ``fwl``) runs to stability: node colors
    (V, W) or dense pair colors (VW, WW).  Round 0 is features only."""
    if module is wl:
        colorings, refine_once = wl._refiner([g])
    else:
        colorings, refine_once = fwl._initial([g]), fwl._refine_once
    for _ in range(rounds):
        colorings = refine_once(colorings)
    return colorings[0]


def refinements_to_joint_stability(colorings, refine_once) -> int:
    """Rounds that ``refine_once`` runs on several graphs until the class
    count stays or every cell has a class of its own: joint stability, as
    the fixpoint loop reaches it without its stop once the graphs part."""
    cells = sum(a.size for pair in colorings for a in pair)
    classes, rounds = wl._class_count(colorings), 0
    while classes < cells:
        colorings, rounds = refine_once(colorings), rounds + 1
        count = wl._class_count(colorings)
        if count == classes:
            break
        classes = count
    return rounds


def class_count(colors) -> int:
    """Distinct colors over both kinds of one graph's coloring."""
    return wl._class_count([colors])


def three_var_file(tmp_path) -> str:
    from test_wl import three_var_example

    path = tmp_path / "three_var.json"
    path.write_text(serialize_instance(three_var_example()))
    return str(path)


def infeasible_file(tmp_path) -> str:
    inst = MilpInstance(
        m=2, n=1, c=np.ones(1), b=np.array([1.0, -1.0]),
        senses=np.array([Sense.GE, Sense.LE], dtype=np.int8),
        lower=np.array([-10.0]), upper=np.array([10.0]),
        integer=np.array([True]),
        a_rows=np.array([0, 1]), a_cols=np.array([0, 0]), a_vals=np.array([1.0, 1.0]),
    )
    path = tmp_path / "infeasible.json"
    path.write_text(serialize_instance(inst))
    return str(path)


def stalled_qp_file(tmp_path) -> str:
    """``gen_set_cover(9025, 12, 24, 0.2)`` with every row and its b_i times
    100: the same feasible set, but a relaxation dual on which the least-norm
    point needs HiGHS's QP, and that QP stalls; it runs until the QP
    iteration limit."""
    inst = gen_set_cover(9025, 12, 24, 0.2)
    path = tmp_path / "stalled_qp.json"
    path.write_text(serialize_instance(dataclasses.replace(inst, b=inst.b * 100, a_vals=inst.a_vals * 100)))
    return str(path)
