"""Evidence that the benchmark's checks and counts mean something.

    python3 perfbench/selfcheck.py            # the checks catch wrong outputs
    python3 perfbench/selfcheck.py --counts   # traced counts repeat exactly

The first mode feeds every check a right output, which must pass, and the
same output with one planted error, which must fail: an SB score moved by
1e-6, a verdict flipped, a partition class split, a cost changed under the WL
check, a gradient entry scaled.
The second runs each workload twice with tracing on and the same seed and
compares every per-layer metric that is not a time.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def mutations() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tempfile

    import checks
    import workloads
    from milpgnn import gen, instance, nn, sb

    cases = []  # (what, problems on the right output, problems on the planted error)
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        label = workloads.Label(os.path.join(tmp, "label"), 0, probe=True)
        label.choose_inputs()
        label.setup()
        analyze = workloads.Analyze(os.path.join(tmp, "analyze"), 0)
        analyze.choose_inputs()
        analyze.setup()

        def cli_json(argv):
            code, text = workloads.run_cli(argv)
            return json.loads(text), code

        for path in (label.random[0], label.setcover[0]):
            doc, _ = cli_json(["sb-score", path])
            src = workloads.load_doc(path)
            j = max(range(len(doc["scores"])), key=lambda k: src["integer"][k])
            bad = copy.deepcopy(doc)
            bad["scores"][j] += 1e-6
            cases.append((f"SB score moved by 1e-6 ({os.path.basename(path)})", checks.sb_problems(src, doc), checks.sb_problems(src, bad)))
        cyc_path, cycles = label.cycles[0]
        doc, _ = cli_json(["sb-score", cyc_path])
        bad = copy.deepcopy(doc)
        bad["scores"][cycles[0][0]] += 1e-6
        cases.append(("SB score moved by 1e-6 (cycle cover, closed form)", checks.cycle_cover_problems(cycles, doc), checks.cycle_cover_problems(cycles, bad)))

        for a, b, same, twin in analyze.pairs:
            doc, code = cli_json(["fwl2-compare", a, b])
            bad = dict(doc, indistinguishable=not doc["indistinguishable"])
            cases.append((f"fwl2 verdict flipped ({os.path.basename(a)[:-7]})", checks.compare_problems(doc, code, same, twin), checks.compare_problems(bad, code, same, twin)))
        a, b, _, _ = analyze.pairs[-1]  # row-permuted twins
        da, db = workloads.load_doc(a), workloads.load_doc(b)
        other = copy.deepcopy(db)
        other["c"][0] = 2.0
        wl_case = lambda x, y: [] if checks.wl_indistinguishable(x, y) else ["WL separates the pair"]  # noqa: E731
        cases.append(("WL check given a twin with one cost changed", wl_case(da, db), wl_case(da, other)))
        for path in analyze.setcover + analyze.cycles:
            src = workloads.load_doc(path)
            doc, code = cli_json(["check-tractability", path])
            bad = dict(doc, tractable=not doc["tractable"])
            name = os.path.basename(path)
            cases.append((f"tractability verdict flipped ({name})", checks.tractability_problems(src, doc, code), checks.tractability_problems(src, bad, code)))
            big = max(doc["J"], key=len)
            if len(big) > 1:
                bad = dict(doc, J=[c for c in doc["J"] if c is not big] + [big[:1], big[1:]])
                cases.append((f"partition class split ({name})", checks.tractability_problems(src, doc, code), checks.tractability_problems(src, bad, code)))
        doc, code = cli_json(["reproduce-counterexample"])
        bad = dict(doc, fwl2_indistinguishable=not doc["fwl2_indistinguishable"])
        cases.append(("reproduce verdict flipped", checks.reproduce_problems(doc, code), checks.reproduce_problems(bad, code)))

    pair = [(instance.build_graph(i), sb.sb_scores(i).scores) for i in gen.counterexample_pair()]
    params = nn.init_params("fgnn2", 8, 2, seed=0)
    for a in params.flat():
        a += 0.01
    _, grads = nn.grad(params, pair)
    loss = lambda: nn.loss(params, pair)  # noqa: E731
    for sample in checks.gradient_samples(grads, 20, 0):
        if checks.gradient_problems(loss, params.flat(), grads, [sample]):
            continue  # within h of a kink: try another entry
        bad = [g.copy() for g in grads]
        bad[sample[0]][sample[1]] *= 1.001
        cases.append((f"gradient entry {sample} scaled by 1.001", [], checks.gradient_problems(loss, params.flat(), bad, [sample])))
        break

    missed = 0
    for what, right, wrong in cases:
        ok = not right and bool(wrong)
        missed += not ok
        print(f"{'ok  ' if ok else 'MISS'} {what}: right output {'passes' if not right else right}; planted error -> {wrong[:1]}")
    print(f"{len(cases) - missed} of {len(cases)} planted errors caught")
    return 1 if missed else 0


def counts(seed: int, seconds: int) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import spans

    differ = 0
    for workload in ("label", "analyze", "train"):
        runs = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(out.stdout.strip().splitlines()[-1])["metrics"])
        for name, (unit, _) in spans.LAYER_METRICS.items():
            if unit == "s":
                continue
            a, b = runs[0][name]["value"], runs[1][name]["value"]
            differ += a != b
            print(f"{workload:8s} {name:36s} {a!r:>24} {b!r:>24} {'same' if a == b else 'DIFFERENT'}")
    print("every count repeats exactly" if not differ else f"{differ} counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if "--counts" in sys.argv[1:]:
        sys.exit(counts(seed=1, seconds=10))
    sys.exit(mutations())
