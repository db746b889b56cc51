"""The benchmark's per-layer tracing still finds the refinement hooks.

``perfbench/spans.py`` wraps ``wl._refine_to_stability``,
``fwl._refine_to_stability`` and ``fwl._refine_once`` by name and reads their
arguments and results.  Installing it replaces module attributes for the
rest of the process, so the traced commands run in a subprocess.
"""

import json
import os
import subprocess
import sys

from milpgnn.gen import counterexample_pair
from milpgnn.instance import serialize_instance
from tests_helpers import three_var_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["wl.rounds"] > 0
    assert metrics["fwl.pair_cells"] > 0
    assert metrics["fwl.pair_classes"] > 0
