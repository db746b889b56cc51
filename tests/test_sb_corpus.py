"""``sb-score``'s outputs on a small corpus, pinned against a committed file.

The corpus is built from seeds when the test runs: the counterexample pair,
the three-variable example, four random 4x8 instances, four set covers 4x6
and one set cover 30x60.  ``sb_corpus.json`` records, for each instance and
each of the rules ``product`` and ``linear:0.3``, the exit code and, on
success, f*, x* and the scores.  Exit codes match exactly and the numbers
within 1e-9 (a rewrite of the LP path may move them in the last digits).

Regenerate the file after a change that is meant to move the outputs, and
say why in CHANGES.md:

    PYTHONPATH=src python tests/test_sb_corpus.py --regenerate
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from milpgnn.cli import main
from milpgnn.gen import counterexample_pair, gen_random, gen_set_cover
from milpgnn.instance import serialize_instance

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "sb_corpus.json")
RULES = ("product", "linear:0.3")
TOL = 1e-9


def corpus() -> dict:
    from test_wl import three_var_example

    cycle8, split = counterexample_pair()
    insts = {"cycle8": cycle8, "split": split, "three_var": three_var_example()}
    # seed 2's relaxation is infeasible (exit 2); 8 and 12 have finite nonzero scores
    insts |= {f"random_4x8_{seed}": gen_random(seed, m=4, n=8, nnz=12) for seed in (0, 2, 8, 12)}
    insts |= {f"set_cover_4x6_{seed}": gen_set_cover(seed, 4, 6, 0.5) for seed in range(4)}
    insts["set_cover_30x60_0"] = gen_set_cover(0, 30, 60, 0.1)
    return insts


def sb_outputs(directory: str) -> dict:
    """{instance: {rule: record}} from running ``sb-score`` in-process."""
    out = {}
    for name, inst in corpus().items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(serialize_instance(inst))
        out[name] = {}
        for rule in RULES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(["sb-score", path, "--rule", rule])
            record = {"exit": code}
            if code == 0:
                doc = json.loads(stdout.getvalue())
                record |= {key: doc[key] for key in ("f_star", "x_star", "scores")}
            out[name][rule] = record
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return sb_outputs(str(tmp_path_factory.mktemp("sb_corpus")))


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def test_the_file_pins_the_whole_corpus(expected):
    assert sorted(expected) == sorted(corpus())
    assert all(sorted(records) == sorted(RULES) for records in expected.values())


@pytest.mark.parametrize("name", sorted(corpus()))
@pytest.mark.parametrize("rule", RULES)
def test_sb_score_matches_the_pinned_output(outputs, expected, name, rule):
    got, want = outputs[name][rule], expected[name][rule]
    assert got.keys() == want.keys()
    assert got["exit"] == want["exit"]
    if want["exit"] == 0:
        assert abs(got["f_star"] - want["f_star"]) <= TOL
        for key in ("x_star", "scores"):
            assert len(got[key]) == len(want[key])
            assert np.abs(np.subtract(got[key], want[key])).max(initial=0.0) <= TOL, key


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as directory:
        outputs = sb_outputs(directory)
    with open(EXPECTED, "w") as fh:
        json.dump(outputs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(f"usage: {sys.argv[0]} --regenerate")
    sys.path.insert(0, HERE)
    regenerate()
