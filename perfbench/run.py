"""Benchmark of the milpgnn package: SB labelling, WL/2-FWL verdicts and
surrogate training, end to end and per layer.

    python3 perfbench/run.py --workload label|analyze|train --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process, one operation in flight (a closed loop with
one client), one BLAS thread.

A run first picks, untimed and untraced, which generated instances it uses
(``Workload.choose_inputs``), then sets the workload up at least three times
and for at least a second (``setup_s`` is the median), warms each operation
kind once, then repeats whole rounds of the workload's operations until
``--seconds`` have passed and at least four rounds ran.  Every round ends
with one round (``label`` and ``analyze``: each half of a round with one) of
a small probe of each other workload on fixed inputs (seed 0), untraced, so
that every run reports every end-to-end metric.  Every time is divided by
the machine's slowdown measured around it (``MachineSpeed``), so the
end-to-end figures are at nominal machine speed.  Outputs are checked after
timing.  With ``--trace 1`` spans are recorded around every layer during
set-up and the timed rounds, and the last line carries the per-layer metrics
instead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``attempted``/``failed`` count the operations of the timed rounds;
per-kind counts and every metric with its unit go to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 30  # set up at least 3 times and for 1 s
MIN_ROUNDS = 4  # every input runs at least 4 times, so per-input medians exist
PROBE_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sb_random_per_s": "instances/s",
    "sb_setcover_per_s": "instances/s",
    "sb_cycles_per_s": "instances/s",
    "tractability_checks_per_s": "checks/s",
    "fwl2_compares_per_s": "compares/s",
    "reproduce_s": "s",
    "fgnn2_epochs_per_s": "epochs/s",
    "mpgnn_epochs_per_s": "epochs/s",
    "mpgnn_batch_epochs_per_s": "epochs/s",
}


def _cap_blas_threads() -> None:
    """One BLAS thread, which is within the number of usable CPUs.  Must run
    before numpy is imported.  At this package's matrix sizes a second thread
    gave no speed-up on a 2-CPU machine, busy-waited a whole CPU, and made
    timings noisier."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


class Record:
    """One executed operation.  phase is "warm" (untimed), "loop" (the timed
    rounds; counted in attempted/failed) or "probe" (another workload's round)."""

    __slots__ = ("op", "span", "result", "error", "phase", "problems")

    def __init__(self, op, span, result, error, phase):
        self.op, self.span, self.result, self.error, self.phase = op, span, result, error, phase
        self.problems: list[str] = []


class MachineSpeed:
    """Times a fixed kernel owned by the benchmark between operations, at
    most every half second.  On a shared machine the speed of everything moves together, from
    second to second and by up to half between two runs a minute apart;
    dividing each operation's time by the kernel's slowdown measured next
    to it removes most of that common factor.  The kernel mixes the three
    kinds of work the package does: interpreter-bound tuple sorting and dict
    interning, small dense matrix products, and a HiGHS solve."""

    NOMINAL_S = 0.01  # the kernel's time that defines nominal speed
    EVERY_S = 0.5

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        self._np, self._linprog = np, linprog
        self._x, self._w = rng.standard_normal((256, 64)), rng.standard_normal((64, 64)) / 8
        self._lp = (np.ones(40), -(rng.random((30, 40)) < 0.2).astype(float), -np.ones(30))
        self._lp[1][np.arange(30), np.arange(30)] = -1.0
        self.samples: list[tuple[float, float]] = []  # (midpoint, slowdown)
        self._last = -math.inf

    def _kernel(self) -> None:
        table: dict = {}
        for i in range(1500):
            table.setdefault(tuple(sorted((i * 7919 + k * 104729) % 1013 for k in range(8))), len(table))
        x = self._x
        for _ in range(20):
            x = self._np.maximum(x @ self._w, 0.0)
        c, a_ub, b_ub = self._lp
        self._linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")

    def sample(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self.EVERY_S:
            self._kernel()
            self._last = time.perf_counter()
            self.samples.append(((now + self._last) / 2, (self._last - now) / self.NOMINAL_S))

    def at(self, start: float, end: float) -> float:
        """Slowdown (kernel time over nominal; above 1 when the machine is
        slow) over [start, end]: the mean of the samples taken inside it
        and of the nearest one on each side."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, start) - 1, 0)
        hi = min(bisect.bisect_right(times, end) + 1, len(times))
        return statistics.fmean(f for _, f in self.samples[lo:hi])

    def overall(self) -> float:
        return statistics.median(f for _, f in self.samples)


def execute(op, phase: str, records: list, speed: MachineSpeed) -> None:
    speed.sample()
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an operation that escapes the CLI is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    records.append(Record(op, (start, time.perf_counter()), result, error, phase))


def warm_up(ops, records: list, speed: MachineSpeed) -> None:
    """First operation of each kind, untimed: lazy imports and first-call
    allocations happen here, and its output is checked like any other.
    Known-fault operations feed no rate and are not warmed."""
    seen = set()
    for op in ops:
        if op.kind not in seen and not op.fault:
            seen.add(op.kind)
            execute(op, "warm", records, speed)


def check_records(records: list) -> None:
    """Expensive checks run once per input key; later runs of a repeatable
    key must print what the first printed."""
    first: dict[str, Record] = {}
    for rec in records:
        if rec.error is not None:
            rec.problems = [rec.error]
            continue
        ref = first.get(rec.op.key)
        if ref is not None and rec.op.repeatable:
            rec.problems = ref.problems if rec.result == ref.result else ["output differs from the first run of this input"]
            continue
        rec.problems = rec.op.check(rec.result)
        first.setdefault(rec.op.key, rec)


def kind_metrics(w, records: list, phase: str, speed: MachineSpeed | None) -> dict[str, float]:
    """Metrics of workload ``w``'s operation kinds from the records of
    ``phase`` that did not fail.  An operation's time is divided by the
    machine slowdown around it (unless ``speed`` is None).  Each input's
    time is the median of its runs, one per round and so spread over the
    whole run.  A rate is the units of all inputs over the sum of their
    times; reproduce_s is the median itself."""
    per_key: dict[str, dict[str, list]] = {}
    for rec in records:
        if rec.phase == phase and rec.op.kind in w.kinds and not rec.problems:
            runs = per_key.setdefault(w.kinds[rec.op.kind], {}).setdefault(rec.op.key, [rec.op.units])
            start, end = rec.span
            runs.append((end - start) / (speed.at(start, end) if speed else 1.0))
    out = {}
    for metric, keys in per_key.items():
        units = sum(runs[0] for runs in keys.values())
        seconds = sum(statistics.median(runs[1:]) for runs in keys.values())
        out[metric] = seconds if metric == "reproduce_s" else units / seconds
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(args, tracer) -> dict:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    probes = [c for name, c in WORKLOADS.items() if name != args.workload]
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    speed = MachineSpeed()
    try:
        mark = time.perf_counter()
        chooser = cls(os.path.join(work, "inputs"), args.seed)
        left_out = chooser.choose_inputs()
        clock = {"choosing inputs": time.perf_counter() - mark}
        setup_spans = []
        while len(setup_spans) < MIN_SETUPS or (sum(e - s for s, e in setup_spans) < SETUP_SECONDS and len(setup_spans) < MAX_SETUPS):
            speed.sample()
            w = cls(os.path.join(work, f"setup{len(setup_spans)}"), args.seed, kept=chooser.kept)
            start = time.perf_counter()
            with tracer.phase("setup") if tracer else contextlib.nullcontext():
                w.setup()
            setup_spans.append((start, time.perf_counter()))
        speed.sample()

        clock["setup"] = sum(e - s for s, e in setup_spans)
        mark = time.perf_counter()
        problems = w.pre_checks()
        probe_ws = [c(os.path.join(work, "probe-" + c.name), PROBE_SEED, probe=True) for c in probes]
        for p in probe_ws:
            p.choose_inputs()
            p.setup()
        ops = w.round_ops()
        probe_ops = [op for p in probe_ws for op in p.round_ops()]
        records: list[Record] = []
        warm_up(ops + probe_ops, records, speed)
        rounds = 0
        start = time.perf_counter()
        clock["pre-checks, probe set-up, warm-up"] = start - mark
        parts = w.PROBE_ROUNDS
        with tracer.phase("loop") if tracer else contextlib.nullcontext():
            while True:
                # a probe round after each part of the round, so probe samples spread over the whole run
                for part in range(parts):
                    for op in ops[part * len(ops) // parts : (part + 1) * len(ops) // parts]:
                        execute(op, "loop", records, speed)
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        for op in probe_ops:
                            execute(op, "probe", records, speed)
                rounds += 1
                if rounds >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                    break
        clock["timed rounds"] = time.perf_counter() - start
        mark = time.perf_counter()
        for x in [w] + probe_ws:
            problems += x.final_checks()
        check_records(records)
        clock["checks"] = time.perf_counter() - mark
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, raw = {}, {}
    for out, by in ((metrics, speed), (raw, None)):
        out.update(dict.fromkeys(END_TO_END, 0.0))  # a kind with no successful run reads 0 and fails the run
        out["setup_s"] = statistics.median((e - s) / (by.at(s, e) if by else 1.0) for s, e in setup_spans)
        out["peak_rss_mb"] = peak_rss_mb()
        out.update(kind_metrics(w, records, "loop", by))
        for probe_cls in probes:
            out.update(kind_metrics(probe_cls, records, "probe", by))

    kinds: dict[str, list[int]] = {}
    correct = not problems
    for rec in records:
        if rec.problems and not rec.op.fault:
            correct = False
            problems.append(f"{rec.op.kind} {rec.op.key}: {'; '.join(rec.problems)}")
        if rec.phase == "loop":
            acc = kinds.setdefault(rec.op.kind, [0, 0])
            acc[0] += 1
            acc[1] += bool(rec.problems)
    return {
        "correct": correct,
        "problems": problems,
        "kinds": kinds,
        "rounds": rounds,
        "left_out": left_out,
        "raw": raw,
        "slowdown": speed.overall(),
        "speed_samples": len(speed.samples),
        "setups": len(setup_spans),
        "clock": clock,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["label", "analyze", "train"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "milpgnn", "__init__.py")):
        print(f"error: no milpgnn package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path[:0] = [SRC, HERE]

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    out = run(args, tracer)
    err = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}: {out['rounds']} rounds, {out['setups']} set-ups", file=err)
    print(f"  {out['left_out']} generated instances left out: the least-norm QP does not converge on them", file=err)
    print(f"  machine slowdown {out['slowdown']:.3f} (median of {out['speed_samples']} reference-kernel samples)", file=err)
    print("  wall time: " + ", ".join(f"{k} {v:.1f} s" for k, v in out["clock"].items()), file=err)
    for problem in out["problems"][:20]:
        print("CHECK FAILED:", problem, file=err)
    for kind, (attempted, failed) in sorted(out["kinds"].items()):
        print(f"  {kind:22s} attempted {attempted:6d}  failed {failed:6d}", file=err)
    print(f"  {'metric':28s} {'at nominal speed':>16s} {'as measured':>14s}", file=err)
    for name, value in out["metrics"].items():
        print(f"  {name:28s} {value:16.6g} {out['raw'][name]:14.6g} {END_TO_END[name]}", file=err)
    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in out["metrics"].items()}
    if tracer:
        print("(traced run: the end-to-end figures above include tracing overhead)", file=err)
        layer = spans.layer_metrics(tracer.spans, out["setups"], out["rounds"])
        layer["lp.qp_failures_left_out"] = float(out["left_out"])
        layer = {name: layer[name] for name in spans.LAYER_METRICS}
        for name, value in layer.items():
            print(f"  {name:36s} {value:14.6g} {spans.LAYER_METRICS[name][0]}", file=err)
        metrics = {name: {"value": value, "unit": spans.LAYER_METRICS[name][0]} for name, value in layer.items()}
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        tracer.write_jsonl(os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
    attempted = sum(a for a, _ in out["kinds"].values())
    failed = sum(f for _, f in out["kinds"].values())
    print(json.dumps({"correct": out["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
