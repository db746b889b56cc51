"""The benchmark's per-layer tracing still finds the LP, refinement and
network hooks.

``perfbench/spans.py`` wraps ``lp.linprog``, ``lp._min_norm_on_working_set``,
``lp._stationarity_certified``, ``wl._refine_to_stability``,
``fwl._refine_to_stability`` and ``fwl._refine_once`` by name and reads their
arguments and results; it counts the network's work through
``nn.Mlp.forward``/``backward`` called inside ``nn.train``.  Installing it
replaces module attributes for the rest of the process, so the traced
commands run in a subprocess.
"""

import json
import os
import subprocess
import sys

from milpgnn.gen import counterexample_pair, gen_set_cover
from milpgnn.instance import serialize_instance
from tests_helpers import three_var_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_traced(script, *args):
    """Run ``script`` with the package and ``perfbench`` importable; return
    the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


SCRIPT = """
import contextlib, io, json, sys
import spans
from milpgnn import cli

tracer = spans.Tracer()
spans.install(tracer)
cycle8, split, three_var = sys.argv[1:]
with tracer.phase("loop"), contextlib.redirect_stdout(io.StringIO()):
    for path in (cycle8, split, three_var):
        cli.main(["check-tractability", path])
    cli.main(["fwl2-compare", cycle8, split])
print(json.dumps(spans.layer_metrics(tracer.spans, 1, 1)))
"""


def test_traced_refinement_counts_are_nonzero(tmp_path):
    paths = []
    for name, inst in zip(("cycle8", "split"), counterexample_pair()):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_instance(inst))
        paths.append(str(path))
    # cycle8 and split are stable at round 0; the three-variable example
    # needs one round, so wl.rounds has something to count
    paths.append(three_var_file(tmp_path))
    metrics = run_traced(SCRIPT, *paths)
    assert metrics["wl.rounds"] > 0
    assert metrics["fwl.pair_cells"] > 0
    assert metrics["fwl.pair_classes"] > 0


TRAIN_SCRIPT = """
import json, sys
import numpy as np
import spans
from milpgnn import nn
from milpgnn.gen import counterexample_pair
from milpgnn.instance import build_graph

tracer = spans.Tracer()
spans.install(tracer)
dim, layers = map(int, sys.argv[1:])
dataset = [(build_graph(inst), np.ones(inst.n)) for inst in counterexample_pair()]
out = {}
for kind in ("mpgnn", "fgnn2"):
    tracer.spans.clear()
    with tracer.phase("loop"):
        nn.train(nn.init_params(kind, dim, layers, seed=0), dataset, nn.TrainConfig(epochs=2))
    out[kind] = spans.layer_metrics(tracer.spans, 1, 1)
print(json.dumps(out))
"""


def test_traced_training_counts_the_pair_maps():
    dim, layers = 8, 1
    metrics = run_traced(TRAIN_SCRIPT, str(dim), str(layers))
    for kind in ("mpgnn", "fgnn2"):
        for name in ("nn.forward_flops_per_epoch", "nn.backward_flops_per_epoch", "nn.mlp_forward_s"):
            assert metrics[kind][name] > 0, (kind, name)
    # f and g of the 2-FGNN act on every (i, j, j1) and (j1, j2, i) triple of
    # both 8x8 graphs; their two d x d layers alone cost this many flops per
    # forward pass, so tracing that skipped the pair maps would show less
    triples = 2 * 8 * 8 * 8
    pair_hidden_flops = 2 * layers * 2 * triples * 2 * dim * dim
    assert metrics["fgnn2"]["nn.forward_flops_per_epoch"] > pair_hidden_flops


SB_SCRIPT = """
import contextlib, io, json, sys
import spans
from milpgnn import cli

tracer = spans.Tracer()
spans.install(tracer)
with tracer.phase("loop"), contextlib.redirect_stdout(io.StringIO()):
    for path in sys.argv[1:]:
        assert cli.main(["sb-score", path]) == 0
print(json.dumps(spans.layer_metrics(tracer.spans, 1, 1)))
"""


def test_traced_sb_scoring_counts_the_lp_layer(tmp_path):
    paths = []
    for name, inst in (("cycle8", counterexample_pair()[0]), ("setcover", gen_set_cover(0, 30, 60, 0.1))):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_instance(inst))
        paths.append(str(path))
    metrics = run_traced(SB_SCRIPT, *paths)
    for name in (
        "lp.solve_calls",
        "lp.check_kkt_s",
        "lp.min_norm_calls",
        "lp.active_set_iterations",
        "instance.dense_matrix_calls",
    ):
        assert metrics[name] > 0, name
