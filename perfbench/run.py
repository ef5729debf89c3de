"""Run one benchmark workload, or all of them, and report.

    python3 perfbench/run.py --workload build|traverse|read-write|all \\
        --seed N --seconds S --trace 0|1

Untraced (``--trace 0``) runs report the gated end-to-end metrics of
``BENCHMARK.json``; traced runs (``--trace 1``) wrap the program's
public functions from outside and report the per-layer ledger instead.
The report is printed by name with units and sample counts, the full
result is written to ``.perfbench/results/``, and the last line of
standard output is the machine-readable summary::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the root of a checkout that holds ``src/repro``; the exit
status is non-zero (and no summary is printed) when it does not.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

WORKLOADS = ("build", "traverse", "read-write")


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            out_base: Path, expr_slowdown: float = 1.0):
    from perfbench import workloads
    rundir = workloads.prepare_rundir(out_base / "runs",
                                      f"{name}-s{seed}-t{int(trace)}")
    try:
        inputs = workloads.make_inputs(seed, rundir)
        if name == "build":
            return workloads.run_build(inputs, seconds, rundir, trace,
                                       expr_slowdown)
        return workloads.run_http(name, inputs, seconds, seed, rundir,
                                  trace, expr_slowdown)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _report(name: str, outcome, trace: bool, spec) -> None:
    from perfbench.layers import PER_LAYER
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    moves = {n: m for n, _u, _b, m in PER_LAYER}
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    for metric, value in outcome.metrics.items():
        if trace:
            note = f"  ({moves[metric]})"
        else:
            note = f"  (n={outcome.samples.get(metric, 1)})"
        print(f"  {metric:<30} {value:14.4f} {units[metric]}{note}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  correct: {'yes' if outcome.wrong == 0 else 'NO'}; error_rate "
          f"{rate:.4f} ({outcome.failed} failed of {outcome.attempted} "
          f"attempted, {outcome.wrong} wrong answers)")
    for key, value in outcome.details.items():
        print(f"  {key}: {json.dumps(value, default=float)}")
    for line in outcome.ledger:
        print("  " + line)
    for layer in outcome.details.get("missing_layers", []):
        print(f"  layer not found: {layer}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expr-slowdown", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds or float(spec["run_seconds"])
    trace = bool(args.trace)
    out_base = ROOT / ".perfbench"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcome = run_one(name, args.seed, seconds, trace, out_base,
                          args.expr_slowdown)
        outcomes[name] = outcome
        _report(name, outcome, trace, spec)

    results = out_base / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = {name: {"metrics": o.metrics, "samples": o.samples,
                  "details": o.details, "ledger": o.ledger,
                  "attempted": o.attempted, "failed": o.failed,
                  "wrong": o.wrong}
           for name, o in outcomes.items()}
    tag = f"-x{args.expr_slowdown:g}" if args.expr_slowdown != 1.0 else ""
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}{tag}.json"
    path.write_text(json.dumps(doc, indent=2, default=float) + "\n")
    print(f"result written to {path.relative_to(ROOT)}")

    # With --workload all the summary carries the first workload's
    # figures; each workload's own are in its report and the result file.
    first = next(iter(outcomes.values()))
    kind = "per_layer" if trace else "end_to_end"
    summary_metrics = {m["name"]: {"value": first.metrics[m["name"]],
                                   "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({
        "correct": all(o.wrong == 0 for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": summary_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
