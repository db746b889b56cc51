"""CLI outputs on a small corpus, pinned against a committed file.

The corpus is built from seeds when the test runs.  ``sb-score`` runs on
the counterexample pair, the three-variable example, four random 4x8
instances, four set covers 4x6 and one set cover 30x60.  ``sb_corpus.json``
records, for each instance and each of the rules ``product`` and
``linear:0.3``, the exit code and, on success, f*, x* and the scores.
Exit codes match exactly and the numbers within 1e-9 (a rewrite of the LP
path may move them in the last digits).

``check-tractability`` and ``fwl2-compare`` run on the pair, the
three-variable example, the set covers, instances with no constraint, with
no variable and with an empty row, and cycle-cover pairs of 16, 20 and 24
variables: one pair with equal cycle-length multisets, one with different
ones, and a row-permuted twin.  Their exit code and stdout must match byte
for byte, since refinement compares numbers exactly.

``reproduce-counterexample --seed 0`` is pinned by its exit code and its
report: booleans, integers and lists exactly, floats within 1e-9.
``generate`` is pinned by the exact bytes of every file it writes, manifest
included, for the families ``random`` (3x5 with 8 nonzeros), ``set-cover``
and ``counterexample``.  ``train`` is pinned by the exit code and the
SHA-256 of ``params.bin`` and ``curve.csv`` after a short MP-GNN run on the
pair and again after one ``--resume`` chunk.

``--regenerate`` writes only the sections (top-level keys) that the file
lacks and leaves every pinned one as it is, so adding a section does not
re-pin the others.  To re-pin a section after a change that is meant to move
its outputs, delete that section from the file first, then run

    PYTHONPATH=src python tests/test_sb_corpus.py --regenerate

and say why in CHANGES.md.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import numpy as np
import pytest

from milpgnn.cli import main
from milpgnn.gen import _covering_instance, counterexample_pair, gen_random, gen_set_cover
from milpgnn.instance import MilpInstance, Sense, permute, serialize_instance

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "sb_corpus.json")
RULES = ("product", "linear:0.3")
TOL = 1e-9
# cycle lengths of each cycle-cover size: the first instance's, and the other
# instance's in the pair with different multisets
CYCLES = {16: ([3, 5, 8], [2, 6, 8]), 20: ([4, 7, 9], [5, 5, 10]), 24: ([2, 3, 9, 10], [6, 8, 10])}
GENERATE = {
    "random": ["--count", "3", "--seed", "11", "--m", "3", "--n", "5", "--nnz", "8"],
    "set-cover": ["--count", "2", "--seed", "5", "--m", "4", "--n", "6", "--density", "0.5"],
    "counterexample": ["--seed", "3"],
}
TRAIN = ["train", "--arch", "mpgnn", "--data", "counterexample", "--dim", "8", "--layers", "2", "--epochs", "3", "--lr", "1e-3"]
TRAIN_FILES = ("params.bin", "curve.csv")


def corpus() -> dict:
    from test_wl import three_var_example

    cycle8, split = counterexample_pair()
    insts = {"cycle8": cycle8, "split": split, "three_var": three_var_example()}
    # seed 2's relaxation is infeasible (exit 2); 8 and 12 have finite nonzero scores
    insts |= {f"random_4x8_{seed}": gen_random(seed, m=4, n=8, nnz=12) for seed in (0, 2, 8, 12)}
    insts |= {f"set_cover_4x6_{seed}": gen_set_cover(seed, 4, 6, 0.5) for seed in range(4)}
    insts["set_cover_30x60_0"] = gen_set_cover(0, 30, 60, 0.1)
    return insts


def _cycle_cover(rng: random.Random, lengths: list[int]) -> MilpInstance:
    """Covering rows x_a + x_b >= 1 along cycles of the given lengths, over
    shuffled variable labels and in shuffled row order."""
    n = sum(lengths)
    labels, pairs = rng.sample(range(n), n), []
    for start, size in zip(np.cumsum([0] + lengths), lengths):
        cycle = labels[start : start + size]
        pairs += [(cycle[k], cycle[(k + 1) % size]) for k in range(size)]
    rng.shuffle(pairs)
    return _covering_instance(pairs, n)


def refinement_corpus() -> tuple[dict, list[tuple[str, str]]]:
    """The instances ``check-tractability`` runs on, and the pairs of their
    names ``fwl2-compare`` runs on."""
    from test_wl import no_edges

    insts = {name: inst for name, inst in corpus().items() if not name.startswith("random")}
    insts["three_var_swapped"] = permute(insts["three_var"], [0, 1], [2, 1, 0])
    insts["set_cover_30x60_0_rows_reversed"] = permute(insts["set_cover_30x60_0"], list(range(29, -1, -1)), list(range(60)))
    insts |= {"no_constraint": no_edges(0, 3), "no_variable": no_edges(2, 0)}
    three_var = insts["three_var"]  # with a third, empty row 0 >= -1
    insts["empty_row"] = dataclasses.replace(three_var, m=3, b=[*three_var.b, -1.0], senses=[*three_var.senses, Sense.GE])
    insts["empty_row_rows_rotated"] = permute(insts["empty_row"], [1, 2, 0], [0, 1, 2])
    pairs = [
        ("cycle8", "split"),
        ("three_var", "three_var_swapped"),
        ("set_cover_4x6_0", "set_cover_4x6_1"),
        ("set_cover_4x6_2", "set_cover_4x6_3"),
        ("set_cover_30x60_0", "set_cover_30x60_0_rows_reversed"),
        ("no_constraint", "no_constraint"),
        ("no_variable", "no_variable"),
        ("empty_row", "empty_row_rows_rotated"),
    ]
    for size, (lengths, other) in CYCLES.items():
        rng = random.Random(f"corpus-cycles-{size}")
        a = _cycle_cover(rng, lengths)
        twin = permute(a, rng.sample(range(size), size), list(range(size)))
        for kind, b in (("equal", _cycle_cover(rng, rng.sample(lengths, len(lengths)))), ("different", _cycle_cover(rng, other)), ("twin", twin)):
            insts[f"cycles_{size}_{kind}_a"], insts[f"cycles_{size}_{kind}_b"] = a, b
            pairs.append((f"cycles_{size}_{kind}_a", f"cycles_{size}_{kind}_b"))
    return insts, pairs


def _run(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit code and stdout, run in-process."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def _write(directory: str, insts: dict) -> dict:
    paths = {name: os.path.join(directory, f"{name}.json") for name in insts}
    for name, inst in insts.items():
        with open(paths[name], "w") as fh:
            fh.write(serialize_instance(inst))
    return paths


def sb_outputs(directory: str) -> dict:
    """{instance: {rule: record}} from running ``sb-score``."""
    out = {}
    for name, path in _write(directory, corpus()).items():
        out[name] = {}
        for rule in RULES:
            code, stdout = _run(["sb-score", path, "--rule", rule])
            record = {"exit": code}
            if code == 0:
                doc = json.loads(stdout)
                record |= {key: doc[key] for key in ("f_star", "x_star", "scores")}
            out[name][rule] = record
    return out


def refinement_outputs(directory: str) -> dict:
    """{command: {instance or 'a|b': {exit, stdout}}} from running
    ``check-tractability`` and ``fwl2-compare``."""
    insts, pairs = refinement_corpus()
    paths = _write(directory, insts)
    record = lambda argv: dict(zip(("exit", "stdout"), _run(argv)))
    return {
        "check-tractability": {name: record(["check-tractability", path]) for name, path in paths.items()},
        "fwl2-compare": {f"{a}|{b}": record(["fwl2-compare", paths[a], paths[b]]) for a, b in pairs},
    }


def reproduce_output() -> dict:
    """Exit code and parsed report of ``reproduce-counterexample --seed 0``."""
    code, stdout = _run(["reproduce-counterexample", "--seed", "0"])
    return {"exit": code, "report": json.loads(stdout) if code == 0 else stdout}


def generate_outputs(directory: str) -> dict:
    """{family: {exit, files: {name: text}}} from running ``generate``."""
    out = {}
    for family, argv in GENERATE.items():
        path = os.path.join(directory, family)
        code, _ = _run(["generate", "--family", family, *argv, "--out", path])
        files = {}
        for name in sorted(os.listdir(path)) if os.path.isdir(path) else []:
            with open(os.path.join(path, name), "rb") as fh:
                files[name] = fh.read().decode()
        out[family] = {"exit": code, "files": files}
    return out


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def train_outputs(directory: str) -> dict:
    """{stage: {exit, file: SHA-256}} after a first ``train`` chunk and after
    one ``--resume`` chunk into the same --out."""
    path = os.path.join(directory, "train")
    out = {}
    for stage, extra in (("first", []), ("resumed", ["--resume"])):
        code, _ = _run([*TRAIN, *extra, "--out", path])
        out[stage] = {"exit": code} | {name: _sha256(os.path.join(path, name)) for name in TRAIN_FILES}
    return out


def _close(got, want) -> bool:
    """got equals want, except that floats may differ by up to TOL."""
    if isinstance(want, float) and type(got) in (float, int):
        return abs(got - want) <= TOL
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return sb_outputs(str(tmp_path_factory.mktemp("sb_corpus")))


@pytest.fixture(scope="module")
def refined(tmp_path_factory):
    return refinement_outputs(str(tmp_path_factory.mktemp("refinement_corpus")))


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def test_the_file_pins_the_whole_corpus(expected):
    insts, pairs = refinement_corpus()
    assert sorted(expected) == ["check-tractability", "fwl2-compare", "generate", "reproduce-counterexample", "sb-score", "train"]
    assert sorted(expected["generate"]) == sorted(GENERATE)
    assert sorted(expected["train"]) == ["first", "resumed"]
    assert sorted(expected["sb-score"]) == sorted(corpus())
    assert all(sorted(records) == sorted(RULES) for records in expected["sb-score"].values())
    assert sorted(expected["check-tractability"]) == sorted(insts)
    assert sorted(expected["fwl2-compare"]) == sorted(f"{a}|{b}" for a, b in pairs)


@pytest.mark.parametrize("name", sorted(corpus()))
@pytest.mark.parametrize("rule", RULES)
def test_sb_score_matches_the_pinned_output(outputs, expected, name, rule):
    got, want = outputs[name][rule], expected["sb-score"][name][rule]
    assert got.keys() == want.keys()
    assert got["exit"] == want["exit"]
    if want["exit"] == 0:
        assert abs(got["f_star"] - want["f_star"]) <= TOL
        for key in ("x_star", "scores"):
            assert len(got[key]) == len(want[key])
            assert np.abs(np.subtract(got[key], want[key])).max(initial=0.0) <= TOL, key


@pytest.mark.parametrize("command", ["check-tractability", "fwl2-compare"])
def test_refinement_matches_the_pinned_output(refined, expected, command):
    got, want = refined[command], expected[command]
    assert sorted(got) == sorted(want)
    assert [name for name in sorted(want) if got[name] != want[name]] == []


def test_reproduce_counterexample_matches_the_pinned_output(expected):
    got, want = reproduce_output(), expected["reproduce-counterexample"]
    assert got["exit"] == want["exit"]
    bad = [key for key in want["report"] if not _close(got["report"].get(key), want["report"][key])]
    assert sorted(got["report"]) == sorted(want["report"])
    assert bad == []


def test_generate_writes_the_pinned_bytes(tmp_path, expected):
    got, want = generate_outputs(str(tmp_path)), expected["generate"]
    for family in GENERATE:
        assert got[family]["exit"] == want[family]["exit"], family
        assert sorted(got[family]["files"]) == sorted(want[family]["files"]), family
        assert [name for name, text in want[family]["files"].items() if got[family]["files"][name] != text] == [], family


def test_train_and_resume_write_the_pinned_files(tmp_path, expected):
    assert train_outputs(str(tmp_path)) == expected["train"]


def regenerate() -> None:
    """Compute the sections that the file lacks and write them, in the order
    below, next to the pinned ones, which stay byte for byte."""
    pinned = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            pinned = json.load(fh)
    producers = {
        ("sb-score",): lambda directory: {"sb-score": sb_outputs(directory)},
        ("check-tractability", "fwl2-compare"): refinement_outputs,
        ("reproduce-counterexample",): lambda directory: {"reproduce-counterexample": reproduce_output()},
        ("generate",): lambda directory: {"generate": generate_outputs(directory)},
        ("train",): lambda directory: {"train": train_outputs(directory)},
    }
    fresh = {}
    with tempfile.TemporaryDirectory() as directory:
        for sections, produce in producers.items():
            if any(section not in pinned for section in sections):
                fresh |= produce(directory)
    order = [section for sections in producers for section in sections]
    outputs = {section: pinned[section] if section in pinned else fresh[section] for section in order}
    with open(EXPECTED, "w") as fh:
        json.dump(outputs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(f"usage: {sys.argv[0]} --regenerate")
    sys.path.insert(0, HERE)
    regenerate()
