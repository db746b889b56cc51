#!/usr/bin/env python3
"""Train a surrogate on the two-instance counterexample dataset and record
the loss curve.  Supports resuming from a saved parameter file so long runs
can proceed in bounded chunks; a resumed run must ask for the saved
network's --arch, --dim and --layers and find the saved state.json, or it
exits with status 2.

Usage:
    python3 scripts/train_counterexample.py --arch fgnn2 --dim 64 \
        --epochs 8000 --out runs/fgnn2_d64 [--resume] [--target 1e-6]
"""

import argparse
import csv
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from milpgnn import nn
from milpgnn.gen import counterexample_pair
from milpgnn.sb import sb_scores


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--arch", choices=["mpgnn", "fgnn2"], default="fgnn2")
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--layers", type=int, default=2)
    ap.add_argument("--epochs", type=int, default=8000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--target", type=float, default=1e-6)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--resume", action="store_true")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    params_path = os.path.join(args.out, "params.bin")
    curve_path = os.path.join(args.out, "curve.csv")
    state_path = os.path.join(args.out, "state.json")

    inst_a, inst_b = counterexample_pair()
    dataset = [(inst_a, sb_scores(inst_a).scores), (inst_b, sb_scores(inst_b).scores)]

    start_epoch = 0
    if args.resume and os.path.exists(params_path):
        params = nn.load_params(params_path)
        saved = (params.kind, params.dim, params.layers)
        asked = (args.arch, args.dim, args.layers)
        if saved != asked:
            print(
                "cannot resume: {} holds arch {} dim {} layers {}, but the command asks for arch {} dim {} layers {}".format(
                    params_path, *saved, *asked
                ),
                file=sys.stderr,
            )
            return 2
        try:
            with open(state_path) as fh:
                start_epoch = json.load(fh)["epochs_done"]
        except FileNotFoundError:
            missing = f"cannot resume: {state_path} is missing, so the epochs behind {params_path} are unknown"
            print(missing, file=sys.stderr)
            return 2
        print(f"resuming from epoch {start_epoch}")
    else:
        params = nn.init_params(args.arch, args.dim, args.layers, args.seed)
        with open(curve_path, "w", newline="") as fh:
            csv.writer(fh).writerow(["epoch", "loss", "lr"])

    cfg = nn.TrainConfig(epochs=args.epochs, target_loss=args.target)
    fh = open(curve_path, "a", newline="")
    writer = csv.writer(fh)

    def on_epoch(epoch: int, value: float, lr: float) -> None:
        writer.writerow([start_epoch + epoch, repr(value), lr])
        if epoch % 500 == 0:
            fh.flush()
            print(f"epoch {start_epoch + epoch}: loss {value:.6e}", flush=True)

    trained, curve = nn.train(params, dataset, cfg, on_epoch=on_epoch)
    fh.close()
    nn.save_params(trained, params_path)
    final_loss = curve[-1][1]
    with open(state_path, "w") as sfh:
        json.dump(
            {
                "epochs_done": start_epoch + len(curve),
                "final_loss": final_loss,
                "reached_target": bool(final_loss <= args.target),
            },
            sfh,
            indent=2,
        )
    print(f"done: {start_epoch + len(curve)} epochs, final loss {final_loss:.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
