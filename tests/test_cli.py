import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milpgnn import cli, gen, lp, nn
from milpgnn.cli import main
from milpgnn.gen import counterexample_pair, gen_random, gen_set_cover, gen_training_set
from milpgnn.instance import serialize_instance
from milpgnn.sb import sb_scores
from milpgnn.wl import stable_partition


@pytest.fixture()
def pair_files(tmp_path):
    cycle, split = counterexample_pair()
    pc = tmp_path / "cycle.json"
    ps = tmp_path / "split.json"
    pc.write_text(serialize_instance(cycle))
    ps.write_text(serialize_instance(split))
    return str(pc), str(ps)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestCheckTractability:
    def test_intractable_exit_three(self, capsys, pair_files):
        code, report = run(capsys, "check-tractability", pair_files[0])
        assert code == 3
        assert report["tractable"] is False
        assert report["witness"] is not None

    def test_tractable_exit_zero(self, capsys, tmp_path):
        from tests_helpers import three_var_file

        path = three_var_file(tmp_path)
        code, report = run(capsys, "check-tractability", path)
        assert code == 0
        assert report["J"] == [[0, 1], [2]]

    def test_malformed_file_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "check-tractability", str(bad))
        assert code == 1

    def test_missing_file_exit_one(self, capsys):
        code, _ = run(capsys, "check-tractability", "/nonexistent/x.json")
        assert code == 1


class TestSbScore:
    def test_split_scores(self, capsys, pair_files):
        code, report = run(capsys, "sb-score", pair_files[1])
        assert code == 0
        assert report["f_star"] == pytest.approx(4.0, abs=1e-9)
        expected = [0.25] * 6 + [0.0, 0.0]
        assert np.abs(np.array(report["scores"]) - expected).max() <= 1e-9

    def test_cycle_scores_zero(self, capsys, pair_files):
        code, report = run(capsys, "sb-score", pair_files[0])
        assert code == 0
        assert np.abs(np.array(report["scores"])).max() <= 1e-9

    def test_linear_rule(self, capsys, pair_files):
        code, report = run(capsys, "sb-score", pair_files[1], "--rule", "linear:0.5")
        assert code == 0
        assert report["scores"][0] == pytest.approx(0.5, abs=1e-9)

    def test_infinite_cost_exit_one(self, capsys, tmp_path):
        # JSON 1e400 parses to inf
        path = tmp_path / "inf_cost.json"
        path.write_text(serialize_instance(counterexample_pair()[0]).replace('"c": [1.0', '"c": [1e400', 1))
        assert '"c": [1e400' in path.read_text()
        code, _ = run(capsys, "sb-score", str(path))
        assert code == 1

    def test_bad_rule_exit_one(self, capsys, pair_files):
        code, _ = run(capsys, "sb-score", pair_files[1], "--rule", "geometric")
        assert code == 1

    def test_undefined_sb_exit_two(self, capsys, tmp_path):
        from tests_helpers import infeasible_file

        code, _ = run(capsys, "sb-score", infeasible_file(tmp_path))
        assert code == 2

    def test_no_variables(self, capsys, tmp_path):
        doc = {"m": 1, "n": 0, "c": [], "b": [1.0], "senses": [0], "lower": [], "upper": [], "integer": [], "A": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, report = run(capsys, "sb-score", str(path))
        assert code == 0
        assert report == {"f_star": 0.0, "x_star": [], "scores": [], "deltas": []}
        path.write_text(json.dumps({**doc, "senses": [2]}))  # 0 >= 1 fails
        code, _ = run(capsys, "sb-score", str(path))
        assert code == 2

    def test_wrong_json_type_exit_one(self, capsys, tmp_path):
        path = tmp_path / "huge_sense.json"
        path.write_text(serialize_instance(counterexample_pair()[0]).replace('"senses": [2', '"senses": [300', 1))
        assert '"senses": [300' in path.read_text()
        assert main(["sb-score", str(path)]) == 1
        assert "sense codes must be the integers" in capsys.readouterr().err


class TestFwl2Compare:
    def test_pair_separated(self, capsys, pair_files):
        code, report = run(capsys, "fwl2-compare", *pair_files)
        assert code == 0
        assert report == {"indistinguishable": False, "indistinguishable_W": False}

    def test_self_compare(self, capsys, pair_files):
        code, report = run(capsys, "fwl2-compare", pair_files[0], pair_files[0])
        assert code == 0
        assert report == {"indistinguishable": True, "indistinguishable_W": True}

    def test_size_mismatch_exit_one(self, capsys, pair_files, tmp_path):
        from tests_helpers import three_var_file

        code, _ = run(capsys, "fwl2-compare", pair_files[0], three_var_file(tmp_path))
        assert code == 1


class TestGenerate:
    def test_writes_files_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "data"
        code, report = run(
            capsys, "generate", "--family", "random", "--count", "3", "--seed", "5",
            "--m", "3", "--n", "6", "--nnz", "9", "--out", str(out),
        )
        assert code == 0 and report["written"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["files"]) == 3
        for name in manifest["files"]:
            assert (out / name).exists()

    def test_manifest_seeds_regenerate_their_files(self, capsys, tmp_path):
        # seed 0 at the default 6x20 size rejects 3 of its first 9 draws
        out = tmp_path / "data"
        code, report = run(capsys, "generate", "--count", "6", "--seed", "0", "--out", str(out))
        assert code == 0 and report["rejected"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["seeds"]) == 6
        for seed, name in zip(manifest["seeds"], manifest["files"]):
            assert name == f"random_{seed:06d}.json"
            assert (out / name).read_text() == serialize_instance(gen_random(seed))

    @pytest.mark.parametrize("family, written", [("set-cover", 10), ("counterexample", 2)])
    def test_each_family_runs_on_its_defaults(self, capsys, tmp_path, family, written):
        code, report = run(capsys, "generate", "--family", family, "--out", str(tmp_path / "data"))
        assert code == 0 and report["written"] == written

    def test_generation_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "generate", "--count", "2", "--seed", "1", "--m", "3", "--n", "6", "--nnz", "9", "--out", str(a))
        run(capsys, "generate", "--count", "2", "--seed", "1", "--m", "3", "--n", "6", "--nnz", "9", "--out", str(b))
        for name in os.listdir(a):
            assert (a / name).read_text() == (b / name).read_text()


class TestTrain:
    def test_zero_epochs(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, report = run(
            capsys, "train", "--arch", "mpgnn", "--data", "counterexample",
            "--dim", "4", "--epochs", "0", "--out", str(out),
        )
        assert code == 0
        assert report["epochs_run"] == 0 and report["final_loss"] is None
        assert (out / "params.bin").exists()

    def test_short_run_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, report = run(
            capsys, "train", "--arch", "mpgnn", "--data", "counterexample",
            "--dim", "4", "--epochs", "5", "--out", str(out),
        )
        assert code == 0 and report["epochs_run"] == 5
        curve = (out / "curve.csv").read_text().strip().splitlines()
        assert curve[0] == "epoch,loss,lr" and len(curve) == 6
        assert (out / "curve.svg").read_text().startswith("<svg")

    def test_directory_of_two_shapes(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        insts = list(counterexample_pair()) + gen_training_set(2, 2, m=3, n=5, nnz=8)[0]
        for k, inst in enumerate(insts):
            (data / f"inst_{k}.json").write_text(serialize_instance(inst))
        code, report = run(
            capsys, "train", "--arch", "mpgnn", "--data", str(data),
            "--dim", "4", "--epochs", "3", "--out", str(tmp_path / "run"),
        )
        assert code == 0 and report["epochs_run"] == 3

    @pytest.mark.parametrize("arch", ["mpgnn", "fgnn2"])
    def test_divergence_prints_only_its_error_line(self, tmp_path, arch):
        # pytest captures numpy's warnings, so only a process of its own shows what reaches stderr
        out = tmp_path / "D"
        argv = ["--arch", arch, "--data", "counterexample", "--dim", "8", "--layers", "1", "--epochs", "3", "--lr", "1e300"]
        proc = subprocess.run(
            [sys.executable, "-m", "milpgnn.cli", "train", *argv, "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        )
        assert (proc.returncode, proc.stderr) == (cli.EXIT_NUMERICAL, "error: loss diverged to NaN at epoch 1\n")
        assert not out.exists()

    def test_bad_data_dir_exit_one(self, capsys, tmp_path):
        code, _ = run(
            capsys, "train", "--arch", "mpgnn", "--data", str(tmp_path / "nope"),
            "--epochs", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 1


SAVED = ["train", "--arch", "mpgnn", "--data", "counterexample", "--dim", "4", "--layers", "1"]


def _files(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.iterdir()}


class TestResume:
    """train --resume continues only the network it saved, and only from a
    whole checkpoint: params.bin and a curve.csv numbered from epoch 0."""

    @pytest.fixture()
    def saved_run(self, capsys, tmp_path):
        """A run directory holding an MP-GNN (dim 4, 1 layer) after 3 epochs."""
        out = tmp_path / "run"
        assert run(capsys, *SAVED, "--epochs", "3", "--out", str(out))[0] == 0
        return out

    def refused(self, capsys, monkeypatch, out, *argv) -> str:
        """Resume with ``argv`` replacing SAVED's values; the run must stop
        with exit 1 before the data is labelled and leave every file as it
        was.  Returns the error line."""
        before = _files(out)
        monkeypatch.setattr(cli, "sb_scores", _raising(AssertionError("the data was labelled")))
        code = main(SAVED + list(argv) + ["--epochs", "1", "--out", str(out), "--resume"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: cannot resume: ")
        assert _files(out) == before
        return line

    @pytest.mark.parametrize("flag,value", [("--arch", "fgnn2"), ("--dim", "8"), ("--layers", "2")])
    def test_rejects_a_different_network(self, capsys, monkeypatch, saved_run, flag, value):
        line = self.refused(capsys, monkeypatch, saved_run, flag, value)
        assert "params.bin holds arch mpgnn dim 4 layers 1" in line

    def test_continues_the_same_network(self, capsys, saved_run):
        first = (saved_run / "curve.csv").read_bytes().splitlines(keepends=True)
        saved = nn.load_params(saved_run / "params.bin")
        code, report = run(capsys, *SAVED, "--epochs", "2", "--out", str(saved_run), "--resume")
        assert code == 0 and report["epochs_run"] == 5
        rows = (saved_run / "curve.csv").read_bytes().splitlines(keepends=True)
        assert rows[:4] == first
        assert [row.split(b",")[0] for row in rows[1:]] == [b"0", b"1", b"2", b"3", b"4"]
        # epoch 3 starts from the saved parameters
        dataset = [(inst, sb_scores(inst).scores) for inst in counterexample_pair()]
        assert float(rows[4].split(b",")[1]) == nn.loss(saved, dataset)
        assert report["final_loss"] == float(rows[5].split(b",")[1])
        points = re.search(r'polyline points="([^"]*)"', (saved_run / "curve.svg").read_text()).group(1)
        assert len(points.split()) == 5

    def test_starts_afresh_without_a_checkpoint(self, capsys, tmp_path):
        plain, resumed = tmp_path / "plain", tmp_path / "resumed"
        assert run(capsys, *SAVED, "--epochs", "2", "--out", str(plain))[0] == 0
        assert run(capsys, *SAVED, "--epochs", "2", "--out", str(resumed), "--resume")[0] == 0
        assert _files(plain) == _files(resumed)

    @pytest.mark.parametrize("missing,kept", [("params.bin", "curve.csv"), ("curve.csv", "params.bin")])
    def test_missing_checkpoint_file_has_its_own_message(self, capsys, monkeypatch, saved_run, missing, kept):
        (saved_run / missing).unlink()
        line = self.refused(capsys, monkeypatch, saved_run)
        assert line.endswith(f"{kept} is there but {saved_run / missing} is missing")

    def test_unreadable_params(self, capsys, monkeypatch, saved_run):
        path = saved_run / "params.bin"
        path.write_bytes(path.read_bytes()[:-8])
        assert "parameter file truncated in the arrays" in self.refused(capsys, monkeypatch, saved_run)

    def test_non_finite_params(self, capsys, monkeypatch, saved_run):
        path = saved_run / "params.bin"
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", float("nan")))
        assert "holds a non-finite value" in self.refused(capsys, monkeypatch, saved_run)

    def test_params_header_of_a_huge_network(self, capsys, monkeypatch, saved_run):
        # the header is checked against the architecture before theta exists
        blob = json.dumps({"kind": "mpgnn", "dim": 1_000_000, "layers": 1, "shapes": []}).encode()
        (saved_run / "params.bin").write_bytes(struct.pack("<I", len(blob)) + blob)
        assert "field 'shapes' does not match" in self.refused(capsys, monkeypatch, saved_run)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda rows: [b"step,loss,lr\r\n"] + rows[1:], "does not start with the line epoch,loss,lr"),
            (lambda rows: rows[:-1] + [rows[-1].rstrip()], "end with a line break"),
            (lambda rows: rows + rows[-1:], "does not number its rows 0 to 3 in order"),
            (lambda rows: rows[:1] + rows[2:], "does not number its rows 0 to 1 in order"),
            (lambda rows: rows + [b"3,0.5\r\n"], "has a row that is not three numbers"),
            (lambda rows: rows + [b"3,low,1e-05\r\n"], "has a row that is not three numbers"),
            (lambda rows: [b"\xff\xfe\r\n"], "curve.csv"),
            (lambda rows: rows + [b"3,nan,1e-05\r\n"], "row 3 has loss nan"),
            (lambda rows: rows + [b"3,inf,1e-05\r\n"], "row 3 has loss inf"),
            (lambda rows: rows + [b"3,0.5,-1e-05\r\n"], "row 3 has loss 0.5 and lr -1e-05"),
            (lambda rows: rows + [b"3,0.5,inf\r\n"], "row 3 has loss 0.5 and lr inf"),
        ],
        ids=[
            "header", "cut last line", "repeated epoch", "missing epoch", "short row", "not a number", "not text",
            "nan loss", "infinite loss", "negative lr", "infinite lr",
        ],
    )
    def test_malformed_curve(self, capsys, monkeypatch, saved_run, edit, message):
        path = saved_run / "curve.csv"
        path.write_bytes(b"".join(edit(path.read_bytes().splitlines(keepends=True))))
        assert message in self.refused(capsys, monkeypatch, saved_run)

    def test_divergence_names_the_epoch_of_the_run(self, capsys, monkeypatch, saved_run):
        before = _files(saved_run)
        monkeypatch.setattr(nn, "train", _raising(nn.DivergenceError(1)))
        code = main(SAVED + ["--epochs", "2", "--out", str(saved_run), "--resume"])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: loss diverged to NaN at epoch 4\n"
        assert _files(saved_run) == before


class TestReproduceCounterexample:
    def test_report_contents(self, capsys):
        code, report = run(capsys, "reproduce-counterexample")
        assert code == 0
        assert np.abs(np.array(report["sb_cycle8"])).max() <= 1e-9
        assert report["sb_split"][:6] == pytest.approx([0.25] * 6, abs=1e-9)
        assert report["wl_indistinguishable"] is True
        assert report["mp_tractable"] == [False, False]
        assert report["fwl2_indistinguishable"] is False
        assert report["fwl2_indistinguishable_W"] is False
        assert report["mpgnn_max_output_diff"] <= 1e-12
        assert report["mpgnn_max_output_spread"] <= 1e-12

    def test_deterministic_given_seed(self, capsys):
        code1, r1 = run(capsys, "reproduce-counterexample", "--seed", "4")
        code2, r2 = run(capsys, "reproduce-counterexample", "--seed", "4")
        assert (code1, r1) == (code2, r2)


class TestOneRefinementPerCommand:
    """Each command reads all its verdicts from a single refinement to
    stability: the partition and the tractability verdict from one WL run,
    both 2-FWL verdicts from one joint run."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        from milpgnn import fwl, wl

        seen = []
        for module in (wl, fwl):
            inner = module._refine_to_stability

            def counting(graphs, module=module, inner=inner):
                seen.append(module.__name__.rsplit(".", 1)[1])
                return inner(graphs)

            monkeypatch.setattr(module, "_refine_to_stability", counting)
        return seen

    def test_check_tractability(self, capsys, pair_files, calls):
        assert run(capsys, "check-tractability", pair_files[0])[0] == 3
        assert calls == ["wl"]

    def test_fwl2_compare(self, capsys, pair_files, calls):
        assert run(capsys, "fwl2-compare", *pair_files)[0] == 0
        assert calls == ["fwl"]

    def test_reproduce_counterexample(self, capsys, calls):
        assert run(capsys, "reproduce-counterexample")[0] == 0
        # one WL run per instance for tractability, one joint WL run, one
        # joint 2-FWL run
        assert sorted(calls) == ["fwl", "wl", "wl", "wl"]


def test_no_state_carries_over_between_calls(capsys, tmp_path, pair_files):
    """``main`` parses every call with one parser per process.  Each call of
    one sequence gives what it gives on a freshly built parser: an option
    given once, or left unset (SUPPRESS), is not carried into the next call."""
    split = pair_files[1]
    calls = [
        ["sb-score", split, "--rule", "linear:2"],
        ["sb-score", split, "--rule", "linear:0.3"],
        ["sb-score", split],
        ["generate", "--family", "random", "--nnz", "3", "--count", "2", "--out", str(tmp_path / "random")],
        ["generate", "--family", "set-cover", "--density", "0.5", "--count", "2", "--out", str(tmp_path / "set-cover")],
    ]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    in_sequence = [outcome(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_sequence == fresh
    assert [code for code, _, _ in in_sequence] == [1, 0, 0, 0, 0]
    product = sb_scores(counterexample_pair()[1]).scores
    assert json.loads(in_sequence[1][1])["scores"] != product.tolist() == json.loads(in_sequence[2][1])["scores"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--resume" in capsys.readouterr().out


def test_every_option_has_a_checked_type():
    """A bare int or float type would let an option skip the parser's
    checks; only generate's seeds may be negative."""
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    bare = {(name, opt) for name, p in commands.choices.items() for a in p._actions if a.type in (int, float) for opt in a.option_strings}
    assert bare <= {("generate", "--seed")}


@pytest.mark.parametrize("argv,line", [(["--dim", "abc"], "--dim: invalid int value: 'abc'"), (["--lr", "x"], "--lr: invalid float value: 'x'")])
def test_a_malformed_value_keeps_argparse_wording(capsys, tmp_path, argv, line):
    assert main([arg.format(out=tmp_path / "out") for arg in TRAIN] + argv) == 1
    assert capsys.readouterr().err == f"error: argument {line}\n"


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def _qp_fails(monkeypatch):
    monkeypatch.setattr(cli, "sb_scores", _raising(lp.LpNumericalError("least-norm QP failure: Iteration limit reached")))


def _training_diverges(monkeypatch):
    monkeypatch.setattr(nn, "train", _raising(nn.DivergenceError(3)))


def _generation_fails(monkeypatch):
    monkeypatch.setattr(cli, "gen_training_set", _raising(AssertionError("the instances were generated")))


def _small_rejection_budget(monkeypatch):
    monkeypatch.setattr(gen, "MAX_CONSECUTIVE_REJECTIONS", 20)


TRAIN = ["train", "--arch", "mpgnn", "--data", "counterexample", "--out", "{out}"]
GENERATE_SIZES = ("count", "m", "n", "nnz", "density")


# Every documented failure path: (argv, exit code, the patch that makes it
# fail, if one is needed).  "{name}" is a file or directory under tmp_path.
FAILURES = {
    "bad json": (["sb-score", "{bad}"], 1, None),
    "instance not utf-8": (["check-tractability", "{latin1}"], 1, None),
    "instance nested too deeply": (["check-tractability", "{deep}"], 1, None),
    "infeasible relaxation": (["sb-score", "{infeasible}"], 2, None),
    "unbounded relaxation": (["sb-score", "{unbounded}"], 2, None),
    "instance is a JSON array": (["sb-score", "{array}"], 1, None),
    "bound string that names no bound": (["check-tractability", "{no_bound}"], 1, None),
    "bound that is a JSON infinity": (["check-tractability", "{json_infinity}"], 1, None),
    "triplet of two entries": (["sb-score", "{short_triplet}"], 1, None),
    "negative m in the file": (["check-tractability", "{negative_m}"], 1, None),
    "intractable verdict": (["check-tractability", "{cycle}"], 3, None),
    "zero density": (["generate", "--family", "set-cover", "--density", "0", "--out", "{out}"], 1, None),
    "generate into ''": (["generate", "--count", "1", "--out", ""], 1, None),
    "generate into a dangling link": (["generate", "--count", "1", "--out", "{dangling}"], 1, None),
    # the OS refuses the name only when the directory is made
    "generate into a name too long": (["generate", "--count", "1", "--m", "3", "--n", "6", "--nnz", "9", "--out", "{long}"], 1, None),
    # options are checked before the instance is read
    "rule weight above one": (["sb-score", "{out}/missing.json", "--rule", "linear:2"], 1, None),
    "rule weight not a number": (["sb-score", "{cycle}", "--rule", "linear:x"], 1, None),
    "unknown rule": (["sb-score", "{cycle}", "--rule", "geometric"], 1, None),
    "nnz above m*n": (["generate", "--nnz", "500", "--out", "{out}"], 1, None),
    "set cover without columns": (["generate", "--family", "set-cover", "--m", "3", "--n", "0", "--out", "{out}"], 1, None),
    "negative size": (["generate", "--family", "set-cover", "--m", "-1", "--out", "{out}"], 1, None),
    "negative m": (["generate", "--m", "-2", "--n", "-3", "--out", "{out}"], 1, None),
    "negative n": (["generate", "--n", "-3", "--out", "{out}"], 1, None),
    "negative nnz": (["generate", "--nnz", "-1", "--out", "{out}"], 1, None),
    "negative count": (["generate", "--count", "-2", "--out", "{out}"], 1, None),
    # an option the family does not read is refused, not ignored
    "density with random": (["generate", "--density", "0.5", "--out", "{out}"], 1, None),
    "nnz with set cover": (["generate", "--family", "set-cover", "--nnz", "5", "--out", "{out}"], 1, None),
    **{
        f"{name} with counterexample": (["generate", "--family", "counterexample", f"--{name}", "1", "--out", "{out}"], 1, None)
        for name in GENERATE_SIZES
    },
    "generate into a file": (["generate", "--count", "1", "--out", "{bad}"], 1, None),
    "generate below a file": (["generate", "--count", "1", "--m", "3", "--n", "6", "--nnz", "9", "--out", "{bad}/sub"], 1, None),
    "rejection budget spent": (
        ["generate", "--m", "40", "--n", "1", "--nnz", "0", "--count", "1", "--out", "{out}"], 1, _small_rejection_budget
    ),
    # every draw of a row is empty, so the default budget runs out
    "set-cover rows never covered": (
        ["generate", "--family", "set-cover", "--m", "1", "--n", "1", "--density", "1e-300", "--count", "1", "--out", "{out}"], 1, None
    ),
    "negative epochs": (TRAIN + ["--epochs", "-3"], 1, None),
    "zero lr": (TRAIN + ["--lr", "0"], 1, None),
    "negative lr": (TRAIN + ["--lr", "-0.001"], 1, None),
    "nan lr": (TRAIN + ["--lr", "nan"], 1, None),
    "infinite lr": (TRAIN + ["--lr", "inf"], 1, None),
    # labelling would exit 4, so exit 1 shows --out is checked first
    "train into a file": (["train", "--arch", "mpgnn", "--data", "{data}", "--out", "{bad}"], 1, _qp_fails),
    "train below a file": (["train", "--arch", "mpgnn", "--data", "{data}", "--out", "{bad}/sub"], 1, _qp_fails),
    "train into ''": (["train", "--arch", "mpgnn", "--data", "{data}", "--out", ""], 1, _qp_fails),
    # --out is made before the work, so the OS refuses the name first
    "train into a name too long": (["train", "--arch", "mpgnn", "--data", "{data}", "--out", "{long}"], 1, _qp_fails),
    "generate into a name too long, before generating": (
        ["generate", "--count", "1", "--m", "3", "--n", "6", "--nnz", "9", "--out", "{long}"], 1, _generation_fails
    ),
    # ... and removed again, with the parents it made, when a later input error stops the command
    "train on data with undefined SB": (["train", "--arch", "mpgnn", "--data", "{undefined}", "--out", "{out}/sub"], 1, None),
    "train on a directory without instance files": (["train", "--arch", "mpgnn", "--data", "{empty}", "--out", "{out}"], 1, None),
    "nan target": (TRAIN + ["--target", "nan"], 1, None),
    "negative target": (TRAIN + ["--target", "-1"], 1, None),
    "negative seed in training": (TRAIN + ["--seed", "-1"], 1, None),
    "negative seed in reproduction": (["reproduce-counterexample", "--seed", "-1"], 1, None),
    # argparse's own errors are input errors too, not its usage block and exit 2
    "dim not an integer": (TRAIN + ["--dim", "abc"], 1, None),
    "count not an integer": (["generate", "--count", "x", "--out", "{out}"], 1, None),
    "sb-score without an instance": (["sb-score"], 1, None),
    "unknown command": (["bogus"], 1, None),
    "zero dim": (["train", "--arch", "mpgnn", "--data", "counterexample", "--dim", "0", "--out", "{out}"], 1, None),
    "zero layers": (["train", "--arch", "fgnn2", "--data", "counterexample", "--layers", "0", "--out", "{out}"], 1, None),
    "qp nonconvergence": (["sb-score", "{cycle}"], 4, _qp_fails),
    "qp iteration limit": (["sb-score", "{stalled}"], 4, None),
    "qp nonconvergence in training data": (["train", "--arch", "mpgnn", "--data", "{data}", "--out", "{out}"], 4, _qp_fails),
    "training divergence": (["train", "--arch", "mpgnn", "--data", "{data}", "--dim", "4", "--out", "{out}"], 4, _training_diverges),
}


# The option that a range failure's error line names.
NAMED = {
    "negative size": "--m",
    "negative m": "--m",
    "negative n": "--n",
    "negative nnz": "--nnz",
    "negative count": "--count",
    "negative epochs": "--epochs",
    "zero lr": "--lr",
    "negative lr": "--lr",
    "nan lr": "--lr",
    "infinite lr": "--lr",
    "generate into a file": "--out",
    "train into a file": "--out",
    "generate below a file": "--out",
    "train below a file": "--out",
    "negative seed in training": "--seed",
    "negative seed in reproduction": "--seed",
    "zero dim": "--dim",
    "zero layers": "--layers",
    "zero density": "--density",
    "generate into ''": "--out",
    "train into ''": "--out",
    "generate into a dangling link": "--out",
    "rule weight above one": "--rule",
    "rule weight not a number": "--rule",
    "unknown rule": "--rule",
    "nan target": "--target",
    "negative target": "--target",
    "density with random": "--density",
    "nnz with set cover": "--nnz",
    **{f"{name} with counterexample": f"--{name}" for name in GENERATE_SIZES},
}


# Words of the error line that each of these failures prints.
SAYS = {
    "unbounded relaxation": "error: LP relaxation unbounded; SB undefined",
    "instance is a JSON array": "top-level JSON value must be an object",
    "bound string that names no bound": "bad lower bound 'x' at variable 0",
    "bound that is a JSON infinity": "bad upper bound inf at variable 0",
    "triplet of two entries": "bad triplet [0, 1] at A[0]",
    "negative m in the file": "m and n must be nonnegative",
    "train on a directory without instance files": "no instance files",
}

# One variable and no rows, with the bounds and triplets given as JSON text.
TINY = '{{"m": {m}, "n": 1, "c": [1], "b": [], "senses": [], "lower": [{lower}], "upper": [{upper}], "integer": [true], "A": [{a}]}}'


@pytest.mark.parametrize("case", FAILURES)
def test_every_failure_exits_with_its_code_and_one_line(case, capsys, monkeypatch, tmp_path):
    """cli.main returns the documented code without raising.  A failure puts
    one ``error:`` line on stderr and nothing on stdout; the intractable
    verdict is a report, not a failure.  An input error is found before
    --out is created, and a bad argument is named in the line."""
    from tests_helpers import infeasible_file, stalled_qp_file, unbounded_file

    argv, expected, patch = FAILURES[case]
    cycle = tmp_path / "data" / "cycle.json"
    cycle.parent.mkdir()
    cycle.write_text(serialize_instance(counterexample_pair()[0]))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    latin1, deep = tmp_path / "latin1.json", tmp_path / "deep.json"
    latin1.write_bytes(b"\x80")
    deep.write_text("[" * 100_000)
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "missing")
    undefined = tmp_path / "undefined"
    undefined.mkdir()
    infeasible_file(undefined)
    (tmp_path / "empty").mkdir()
    malformed = {
        "array": "[" + serialize_instance(counterexample_pair()[0]) + "]",
        "no_bound": TINY.format(m=0, lower='"x"', upper=1, a=""),
        "json_infinity": TINY.format(m=0, lower=0, upper="1e400", a=""),
        "short_triplet": TINY.format(m=0, lower=0, upper=1, a="[0, 1]"),
        "negative_m": TINY.format(m=-1, lower=0, upper=1, a=""),
    }
    for name, text in malformed.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = {
        "bad": bad, "latin1": latin1, "deep": deep, "infeasible": infeasible_file(tmp_path), "cycle": cycle, "data": cycle.parent,
        "out": tmp_path / "out", "dangling": dangling, "long": tmp_path / ("a" * 300), "undefined": undefined,
        "stalled": stalled_qp_file(tmp_path), "unbounded": unbounded_file(tmp_path), "empty": tmp_path / "empty",
        **{name: tmp_path / f"{name}.json" for name in malformed},
    }
    if patch is not None:
        patch(monkeypatch)
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == expected
    if code == cli.EXIT_INTRACTABLE:
        assert json.loads(captured.out)["tractable"] is False
        assert captured.err.splitlines()[-1] == "verdict: intractable"
    else:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    if code == cli.EXIT_INPUT:
        assert not paths["out"].exists()
        assert bad.read_text() == "{not json"
    if case in NAMED:
        assert captured.err.startswith(f"error: argument {NAMED[case]}: ")
    if case in SAYS:
        assert SAYS[case] in captured.err


# Leaves json.dumps encodes alone, with the values where a writer could part
# from it: ints past 2**53, floats in repr form or non-finite, bools among
# ints, and strings that need escapes or are not ASCII.
LEAVES = (
    st.integers()
    | st.sampled_from([2**53 + 1, -(2**53 + 1), 10**30])
    | st.floats()
    | st.sampled_from([-0.0, 1e-300, 5e-324, 1e16, math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.none()
    | st.sampled_from(["+inf", '"', "\\", "a\"b\\c", "\x00\n\t\x1f", "é", "日本", " ", "😀"])
    | st.text(max_size=4)
)
INT_LISTS = st.lists(st.integers() | st.booleans(), max_size=4)
DOCUMENTS = st.recursive(
    LEAVES | INT_LISTS | INT_LISTS.map(tuple),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
@example(doc={"I": ((0,), (1, 2)), "J": [[], [True, 1]], "rounds": 2, "tractable": False, "witness": None})
@example(doc={"deltas": [[0.5, "+inf"], [-0.0, 5e-324]], "seed": 10**30, "out": "dir/é\n"})
def test_stdout_is_json_dumps_indent_2(doc):
    """The CLI prints each document as ``json.dumps(obj, indent=2)`` and a
    line break, byte for byte."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def partition_summary(inst) -> str:
    """check-tractability's stderr, built from the stable partition's
    classes: the classes with 1-based members, then the verdict."""
    part = stable_partition(inst)
    one = lambda classes: "{" + ", ".join("{" + ", ".join(str(i + 1) for i in c) + "}" for c in classes) + "}"
    verdict = "tractable" if part.witness is None else "intractable"
    return f"stable partition (1-based): I = {one(part.classes_v)}, J = {one(part.classes_w)}\nverdict: {verdict}\n"


def without(inst, kind: str):
    """inst with its constraints (kind "rows") or its variables dropped."""
    if kind == "rows":
        return dataclasses.replace(inst, m=0, b=[], senses=[], a_rows=[], a_cols=[], a_vals=[])
    return dataclasses.replace(inst, n=0, c=[], lower=[], upper=[], integer=[], a_rows=[], a_cols=[], a_vals=[])


@pytest.mark.parametrize(
    "name",
    ["cycle8", "split", "tiny", "no rows", "no columns", "set cover 100x200"],
)
def test_partition_summary_on_stderr(capsys, tmp_path, name):
    from test_instance import tiny

    cycle8, split = counterexample_pair()
    inst = {
        "cycle8": cycle8,
        "split": split,
        "tiny": tiny(),
        "no rows": without(tiny(), "rows"),
        "no columns": without(tiny(), "columns"),
        "set cover 100x200": gen_set_cover(3_131_000, 100, 200, 0.1),
    }[name]
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(inst))
    code = main(["check-tractability", str(path)])
    err = capsys.readouterr().err
    assert err == partition_summary(inst)
    assert code == (cli.EXIT_OK if err.endswith("verdict: tractable\n") else cli.EXIT_INTRACTABLE)
