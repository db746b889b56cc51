"""scripts/train_counterexample.py resumes only the network it saved, and
only with the saved state beside it."""

import json
import os
import subprocess
import sys

import pytest

from milpgnn import nn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "train_counterexample.py")


def run_script(*args):
    return subprocess.run(
        [sys.executable, SCRIPT, *args], capture_output=True, text=True, timeout=120, cwd=ROOT
    )


@pytest.fixture
def saved_run(tmp_path):
    """A run directory holding an MP-GNN (dim 4, 1 layer) after 3 epochs."""
    nn.save_params(nn.init_params("mpgnn", 4, 1, seed=0), tmp_path / "params.bin")
    (tmp_path / "state.json").write_text(json.dumps({"epochs_done": 3}))
    (tmp_path / "curve.csv").write_text("epoch,loss,lr\n")
    return tmp_path


SAVED = ["--arch", "mpgnn", "--dim", "4", "--layers", "1"]


@pytest.mark.parametrize("flag,value", [("--arch", "fgnn2"), ("--dim", "8"), ("--layers", "2")])
def test_resume_rejects_a_different_network(saved_run, flag, value):
    args = list(SAVED)
    args[args.index(flag) + 1] = value
    proc = run_script(*args, "--epochs", "1", "--out", str(saved_run), "--resume")
    assert proc.returncode != 0
    assert "cannot resume" in proc.stderr and "params.bin holds arch mpgnn dim 4 layers 1" in proc.stderr
    assert json.loads((saved_run / "state.json").read_text()) == {"epochs_done": 3}


def test_resume_continues_the_same_network(saved_run):
    proc = run_script(*SAVED, "--epochs", "2", "--out", str(saved_run), "--resume")
    assert proc.returncode == 0, proc.stderr
    assert "resuming from epoch 3" in proc.stdout
    assert json.loads((saved_run / "state.json").read_text())["epochs_done"] == 5


def test_resume_without_state_json_exits_with_its_own_message(saved_run):
    (saved_run / "state.json").unlink()
    saved_params = (saved_run / "params.bin").read_bytes()
    proc = run_script(*SAVED, "--epochs", "1", "--out", str(saved_run), "--resume")
    assert proc.returncode == 2
    assert "cannot resume" in proc.stderr and "state.json" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert (saved_run / "params.bin").read_bytes() == saved_params
    assert not (saved_run / "state.json").exists()
