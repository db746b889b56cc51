"""Command-line entry point.

Exit codes are a stable contract: 0 success, 1 input error (a bad file or
argument), 2 undefined branching scores (infeasible or unbounded relaxation),
3 intractable verdict from check-tractability, 4 numerical failure (the LP
backend or the min-norm QP failed to converge, or the training loss became
NaN).  Every failure prints one ``error:`` line to stderr.  Each option has a
checked parser type, so a bad argument is found before any file is read and
reads ``error: argument --dim: must be >= 1, got '0'``.  ``generate`` refuses,
in that format, an option its --family does not read.  Machine-readable
JSON goes to stdout with 0-based indices; the human-readable partition
summary uses 1-based indices.

``generate`` and ``train`` create --out before their work, so that a name
the OS refuses ends the command first; when the command then fails, the
directories it created are removed again if they are still empty.
``train`` writes params.bin, curve.csv and curve.svg into --out together,
after its last epoch.  With --resume it continues the run saved there: the
saved network must match --arch, --dim and --layers, and curve.csv keeps its
rows and gains the new ones, numbered on from them.  An --out holding
neither file starts a fresh run; any other checkpoint is an input error
("cannot resume: ..."), found before the data is labelled.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import nn
from .fwl import fwl2_compare
from .gen import counterexample_pair, gen_set_cover, gen_training_set
from .instance import InstanceError, MilpInstance, load_instance, serialize_instance
from .lp import LpNumericalError
from .sb import (
    PRODUCT_RULE,
    RelaxationInfeasibleError,
    RelaxationUnboundedError,
    ScoreRule,
    sb_scores,
)
from .wl import is_mp_tractable, stable_partition, wl_indistinguishable

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNDEFINED_SB = 2
EXIT_INTRACTABLE = 3
EXIT_NUMERICAL = 4


class CliInputError(Exception):
    pass


def _load(path: str) -> MilpInstance:
    try:
        return load_instance(path)
    except (OSError, InstanceError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _jsonable(v):
    return "+inf" if v == math.inf else v


# ---------------------------------------------------------------------------


def cmd_check_tractability(args) -> int:
    inst = _load(args.instance)
    part = stable_partition(inst)
    tractable = part.witness is None
    report = {
        "I": part.classes_v,
        "J": part.classes_w,
        "rounds": part.rounds_to_converge,
        "tractable": tractable,
        "witness": part.witness,
    }
    _emit(report)
    one = lambda cls: "{" + ", ".join("{" + ", ".join(str(i + 1) for i in c) + "}" for c in cls) + "}"
    print(f"stable partition (1-based): I = {one(part.classes_v)}, J = {one(part.classes_w)}", file=sys.stderr)
    print("verdict:", "tractable" if tractable else "intractable", file=sys.stderr)
    return EXIT_OK if tractable else EXIT_INTRACTABLE


def cmd_sb_score(args) -> int:
    inst = _load(args.instance)
    try:
        result = sb_scores(inst, args.rule)
    except (RelaxationInfeasibleError, RelaxationUnboundedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_SB
    _emit(
        {
            "f_star": result.f_star,
            "x_star": result.x_star.tolist(),
            "scores": result.scores.tolist(),
            "deltas": [[_jsonable(d) for d in row] for row in result.deltas.tolist()],
        }
    )
    return EXIT_OK


def cmd_fwl2_compare(args) -> int:
    a, b = _load(args.a), _load(args.b)
    if (a.m, a.n) != (b.m, b.n):
        raise CliInputError(f"size mismatch: ({a.m},{a.n}) vs ({b.m},{b.n})")
    whole, per_column = fwl2_compare(a, b)
    _emit({"indistinguishable": whole, "indistinguishable_W": per_column})
    return EXIT_OK


CURVE_HEADER = ["epoch", "loss", "lr"]


def _write_curve_csv(curve, path, append: bool) -> None:
    """Write curve.csv, or with ``append`` add rows to the saved one and
    leave its bytes as they are."""
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(CURVE_HEADER)
        writer.writerows(curve)


def _read_curve_csv(path) -> list[tuple[int, float, float]]:
    """The rows of a saved curve.csv: its header, then the rows of epochs
    0..k-1, each ending in a line break."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise CliInputError(f"cannot resume: {path}: {exc}") from exc
    rows = [line.split(",") for line in text.splitlines()]
    if not rows or rows[0] != CURVE_HEADER or not text.endswith("\n"):
        raise CliInputError(
            f"cannot resume: {path} does not start with the line {','.join(CURVE_HEADER)} and end with a line break"
        )
    try:
        curve = [(int(epoch), float(value), float(lr)) for epoch, value, lr in rows[1:]]
    except ValueError as exc:
        raise CliInputError(f"cannot resume: {path} has a row that is not three numbers: {exc}") from exc
    if [row[0] for row in curve] != list(range(len(curve))):
        raise CliInputError(f"cannot resume: {path} does not number its rows 0 to {len(curve) - 1} in order")
    for k, value, lr in curve:
        if not (0 <= value < math.inf and 0 < lr < math.inf):
            raise CliInputError(f"cannot resume: {path} row {k} has loss {value} and lr {lr}, not a finite loss >= 0 and a positive finite lr")
    return curve


def _write_svg(curve, path) -> None:
    """Minimal log-scale loss-curve line chart, no plotting dependency."""
    width, height, pad = 640, 400, 50
    losses = [max(l, 1e-300) for _, l, _ in curve] or [1.0]
    lo = math.log10(min(losses))
    hi = math.log10(max(losses))
    if hi - lo < 1e-12:
        hi = lo + 1.0
    xmax = max(len(curve) - 1, 1)
    pts = []
    for k, (_, l, _) in enumerate(curve):
        x = pad + (width - 2 * pad) * k / xmax
        y = height - pad - (height - 2 * pad) * (math.log10(max(l, 1e-300)) - lo) / (hi - lo)
        pts.append(f"{x:.1f},{y:.1f}")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-10}" text-anchor="middle" font-size="12">epoch</text>',
        f'<text x="14" y="{height//2}" font-size="12" transform="rotate(-90 14 {height//2})" text-anchor="middle">loss (log10)</text>',
        f'<text x="{pad-6}" y="{height-pad}" text-anchor="end" font-size="10">{lo:.1f}</text>',
        f'<text x="{pad-6}" y="{pad+4}" text-anchor="end" font-size="10">{hi:.1f}</text>',
        f'<text x="{width-pad}" y="{height-pad+14}" text-anchor="middle" font-size="10">{xmax}</text>',
    ]
    if len(pts) >= 2:
        lines.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _load_dataset(spec: str):
    if spec == "counterexample":
        insts = list(counterexample_pair())
    else:
        if not os.path.isdir(spec):
            raise CliInputError(f"{spec}: not a directory (or 'counterexample')")
        files = sorted(f for f in os.listdir(spec) if f.endswith(".json") and f != "manifest.json")
        if not files:
            raise CliInputError(f"{spec}: no instance files")
        insts = [_load(os.path.join(spec, f)) for f in files]
    dataset = []
    for inst in insts:
        try:
            scores = sb_scores(inst).scores
        except (RelaxationInfeasibleError, RelaxationUnboundedError) as exc:
            raise CliInputError(f"instance with undefined SB in training data: {exc}") from exc
        dataset.append((inst, scores))
    return dataset


def _resume(args, params_path, curve_path):
    """The saved network and curve of the run to continue."""
    for path, other in ((params_path, curve_path), (curve_path, params_path)):
        if not os.path.exists(path):
            raise CliInputError(f"cannot resume: {other} is there but {path} is missing")
    try:
        params = nn.load_params(params_path)
    except (OSError, ValueError) as exc:
        raise CliInputError(f"cannot resume: {params_path}: {exc}") from exc
    saved = (params.kind, params.dim, params.layers)
    asked = (args.arch, args.dim, args.layers)
    if saved != asked:
        raise CliInputError(
            "cannot resume: {} holds arch {} dim {} layers {}, but the command asks for arch {} dim {} layers {}".format(
                params_path, *saved, *asked
            )
        )
    return params, _read_curve_csv(curve_path)


@contextlib.contextmanager
def _made_out_dir(out: str):
    """Create --out before the work, so that a name the OS refuses is found
    first; if the command then fails, remove the directories it created
    that are still empty."""
    made = []
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(out, exist_ok=True)
    try:
        yield
    except BaseException:
        for path in made:  # deepest first
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def cmd_train(args) -> int:
    params_path, curve_path = (os.path.join(args.out, name) for name in ("params.bin", "curve.csv"))
    resume = args.resume and (os.path.exists(params_path) or os.path.exists(curve_path))
    if resume:
        params, done = _resume(args, params_path, curve_path)
    else:
        params, done = nn.init_params(args.arch, args.dim, args.layers, args.seed), []
    with _made_out_dir(args.out):
        dataset = _load_dataset(args.data)
        cfg = nn.TrainConfig(learning_rate=args.lr, epochs=args.epochs, target_loss=args.target)
        try:
            trained, curve = nn.train(params, dataset, cfg)
        except nn.DivergenceError as exc:
            raise nn.DivergenceError(len(done) + exc.epoch) from exc
        curve = [(len(done) + epoch, value, lr) for epoch, value, lr in curve]
        nn.save_params(trained, params_path)
        _write_curve_csv(curve, curve_path, append=resume)
        curve = done + curve
        _write_svg(curve, os.path.join(args.out, "curve.svg"))
    _emit(
        {
            "arch": args.arch,
            "dim": args.dim,
            "layers": args.layers,
            "seed": args.seed,
            "epochs_run": len(curve),
            "final_loss": curve[-1][1] if curve else None,
            "out": args.out,
        }
    )
    return EXIT_OK


# The options each generate --family reads, with their defaults.
FAMILY_OPTIONS = {
    "random": {"count": 10, "m": 6, "n": 20, "nnz": 60},
    "set-cover": {"count": 10, "m": 6, "n": 20, "density": 0.2},
    "counterexample": {},
}


def _family_options(args) -> dict:
    """The options --family reads: its defaults, replaced by the values
    given.  Giving an option the family ignores is an argument error."""
    used = FAMILY_OPTIONS[args.family]
    given = {name: getattr(args, name) for name in ("count", "m", "n", "nnz", "density") if hasattr(args, name)}
    for name in given:
        if name not in used:
            raise CliInputError(f"argument --{name}: not used by --family {args.family}")
    return used | given


def cmd_generate(args) -> int:
    opts = _family_options(args)
    with _made_out_dir(args.out):
        rejected = 0
        try:
            if args.family == "random":
                insts, rejected, seeds = gen_training_set(args.seed, opts["count"], m=opts["m"], n=opts["n"], nnz=opts["nnz"])
            elif args.family == "set-cover":
                seeds = [args.seed + k for k in range(opts["count"])]
                insts = [gen_set_cover(seed, opts["m"], opts["n"], opts["density"]) for seed in seeds]
            else:  # the pair is fixed; its seeds only number the files
                insts = list(counterexample_pair())
                seeds = [args.seed, args.seed + 1]
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
        # file k is named by seeds[k], the seed that regenerates it
        files = [f"{args.family}_{seed:06d}.json" for seed in seeds]
        manifest = {"family": args.family, "seeds": seeds, "files": files, "rejected": rejected}
        for name, inst in zip(files, insts):
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(serialize_instance(inst))
        with open(os.path.join(args.out, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
    _emit({"written": len(insts), "out": args.out, "rejected": rejected})
    return EXIT_OK


def cmd_reproduce_counterexample(args) -> int:
    inst_a, inst_b = counterexample_pair()
    sa, sb = sb_scores(inst_a), sb_scores(inst_b)
    tract_a, _ = is_mp_tractable(inst_a)
    tract_b, _ = is_mp_tractable(inst_b)
    pair = nn.batch_graphs([(inst_a, np.zeros(inst_a.n)), (inst_b, np.zeros(inst_b.n))])
    max_diff = 0.0
    max_spread = 0.0
    for k in range(100):
        d = 8 if k % 2 == 0 else 64
        params = nn.init_params("mpgnn", d, 2, seed=args.seed * 100 + k)
        ya, yb = nn.gnn_batch_forward(params, pair)
        max_diff = max(max_diff, float(np.abs(ya - yb).max()))
        max_spread = max(max_spread, float(np.ptp(ya)), float(np.ptp(yb)))
    fg = nn.init_params("fgnn2", 64, 2, seed=args.seed + 1)
    # one forward per graph: a batch of two may round differently
    fgnn_sep = float(np.abs(nn.gnn_forward(fg, inst_a) - nn.gnn_forward(fg, inst_b)).max())
    fwl_whole, fwl_per_column = fwl2_compare(inst_a, inst_b)
    _emit(
        {
            "sb_cycle8": sa.scores.tolist(),
            "sb_split": sb.scores.tolist(),
            "f_star": [sa.f_star, sb.f_star],
            "wl_indistinguishable": wl_indistinguishable(inst_a, inst_b),
            "mp_tractable": [tract_a, tract_b],
            "fwl2_indistinguishable": fwl_whole,
            "fwl2_indistinguishable_W": fwl_per_column,
            "mpgnn_max_output_diff": max_diff,
            "mpgnn_max_output_spread": max_spread,
            "fgnn2_output_separation": fgnn_sep,
            "seed": args.seed,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors are input errors (exit 1), not a usage block and exit 2."""

    def error(self, message):
        raise CliInputError(message)


def _checked(kind, holds, bound: str):
    """A parser type: the text as a ``kind`` that ``holds``.  A malformed
    value keeps argparse's wording ("invalid int value: 'abc'")."""

    def convert(text):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    convert.__name__ = kind.__name__
    return convert


_COUNT = _checked(int, lambda v: v >= 0, ">= 0")
_WIDTH = _checked(int, lambda v: v >= 1, ">= 1")
_RATE = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_LOSS = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_DENSITY = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")


def _rule(spec: str) -> ScoreRule:
    """--rule: 'product' or 'linear:MU' with MU in [0, 1]."""
    if spec == "product":
        return PRODUCT_RULE
    kind, _, weight = spec.partition(":")
    try:
        if kind == "linear" and 0.0 <= float(weight) <= 1.0:
            return ScoreRule("linear", float(weight))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 'product' or 'linear:MU' with MU in [0, 1], got {spec!r}")


def _out_dir(text: str) -> str:
    """--out: a directory, or a path whose nearest existing ancestor is one."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    path = os.path.abspath(text)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} exists and is not a directory")
    return text


@functools.cache  # built once per process: parse_args keeps no state on it
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="milpgnn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-tractability", help="stable partition and block-constancy verdict")
    p.add_argument("instance")
    p.set_defaults(func=cmd_check_tractability)

    p = sub.add_parser("sb-score", help="strong-branching score vector")
    p.add_argument("instance")
    p.add_argument("--rule", type=_rule, default="product", help="'product' or 'linear:MU'")
    p.set_defaults(func=cmd_sb_score)

    p = sub.add_parser("fwl2-compare", help="pair-refinement indistinguishability verdicts")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_fwl2_compare)

    p = sub.add_parser("train", help="fit a surrogate to SB scores")
    p.add_argument("--arch", choices=["mpgnn", "fgnn2"], required=True)
    p.add_argument("--data", required=True, help="instance directory or 'counterexample'")
    p.add_argument("--dim", type=_WIDTH, default=64)
    p.add_argument("--layers", type=_WIDTH, default=2)
    p.add_argument("--epochs", type=_COUNT, default=10000)
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--lr", type=_RATE, default=1e-5)
    p.add_argument("--target", type=_LOSS, default=None)
    p.add_argument("--out", type=_out_dir, required=True)
    p.add_argument("--resume", action="store_true", help="continue the run saved in --out, if there is one")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="write instance files plus a manifest")
    p.add_argument("--family", choices=list(FAMILY_OPTIONS), default="random")
    # left unset unless given, so that _family_options can refuse the ones --family ignores
    p.add_argument("--count", type=_COUNT, default=argparse.SUPPRESS, help="random and set-cover")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=_COUNT, default=argparse.SUPPRESS, help="random and set-cover")
    p.add_argument("--n", type=_COUNT, default=argparse.SUPPRESS, help="random and set-cover")
    p.add_argument("--nnz", type=_COUNT, default=argparse.SUPPRESS, help="random only")
    p.add_argument("--density", type=_DENSITY, default=argparse.SUPPRESS, help="set-cover only")
    p.add_argument("--out", type=_out_dir, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reproduce-counterexample", help="one-shot separation report")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.set_defaults(func=cmd_reproduce_counterexample)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LpNumericalError, nn.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
