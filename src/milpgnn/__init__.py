"""Strong-branching scores on MILP graphs, color refinement (stable
partitions with their tractability verdict, WL and 2-FWL compares), and
message-passing / second-order folklore network surrogates."""

from .instance import (
    InstanceError,
    MilpGraph,
    MilpInstance,
    Sense,
    build_graph,
    load_instance,
    parse_instance,
    permute,
    serialize_instance,
)
from .lp import LpOutcome, LpStatus, min_norm_solution, solve_lp
from .sb import PRODUCT_RULE, SbScores, ScoreRule, sb_scores
from .wl import is_mp_tractable, stable_partition, wl_indistinguishable
from .fwl import fwl2_compare
from .gen import PortableRng, counterexample_pair, gen_random, gen_set_cover, gen_training_set

__all__ = [
    "InstanceError",
    "MilpGraph",
    "MilpInstance",
    "Sense",
    "build_graph",
    "load_instance",
    "parse_instance",
    "permute",
    "serialize_instance",
    "LpOutcome",
    "LpStatus",
    "min_norm_solution",
    "solve_lp",
    "PRODUCT_RULE",
    "SbScores",
    "ScoreRule",
    "sb_scores",
    "is_mp_tractable",
    "stable_partition",
    "wl_indistinguishable",
    "fwl2_compare",
    "PortableRng",
    "counterexample_pair",
    "gen_random",
    "gen_set_cover",
    "gen_training_set",
]

__version__ = "0.1.0"
