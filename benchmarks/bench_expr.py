"""Lazy expression engine benchmark — JSON smoke bench.

The paper's hot path ``A = Eoutᵀ ⊕.⊗ Ein`` on R-MAT workloads, from
freshly loaded (dict-backed) incidence arrays:

* ``eager_transpose_matmul`` — the pre-expr evaluation shape:
  materialize ``Eoutᵀ`` as a new dict-backed associative array (dict
  rebuild + constructor re-validation of every entry — what
  ``transpose()`` did before the engine landed), then multiply.
* ``fused_plan`` — ``evaluate(lazy(Eout).T.matmul(lazy(Ein)))``: the
  optimizer fuses to one incidence-to-adjacency kernel that adopts
  ``Eout``'s cached CSC as the transpose's CSR, so no transposed array
  is ever materialized.

Operands are rebuilt cold for every repeat (the serving-cold-start
shape: arrays fresh off TSV ingest), and both paths are asserted equal.
The acceptance bar is fused ≥ 2× eager at 100k edges.

The JSON also embeds the ``explain()`` transcript of the fused plan —
each applied rewrite with the verified properties that licensed it —
so the optimizer's behaviour is archived per commit alongside the
timings:

    PYTHONPATH=src python benchmarks/bench_expr.py [--quick] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.arrays.associative import AssociativeArray
from repro.arrays.matmul import multiply
from repro.expr import evaluate, lazy, plan
from repro.graphs.generators import rmat_multigraph
from repro.graphs.incidence import incidence_arrays
from repro.values.semiring import get_op_pair

PAIR_NAME = "plus_times"


def _operands(scale: int, n_edges: int, seed: int = 77):
    pair = get_op_pair(PAIR_NAME)
    graph = rmat_multigraph(scale, n_edges, seed=seed)
    weights = {k: float(1 + (i % 9)) for i, k in enumerate(graph.edge_keys)}
    eout, ein = incidence_arrays(graph, zero=pair.zero,
                                 out_values=weights, in_values=weights)
    return pair, eout, ein


def _fresh_dict(array: AssociativeArray) -> AssociativeArray:
    """A dict-backed copy with no caches — a cold operand, as if just
    parsed from TSV."""
    return AssociativeArray(dict(array.to_dict()), row_keys=array.row_keys,
                            col_keys=array.col_keys, zero=array.zero)


def _eager_transpose_matmul(eout, ein, pair):
    # The pre-expr shape verbatim: build the transposed array as a dict
    # (pre-fast-path transpose()), let multiply re-promote it and Ein.
    et = AssociativeArray(
        {(c, r): v for (r, c), v in eout.to_dict().items()},
        row_keys=eout.col_keys, col_keys=eout.row_keys, zero=eout.zero)
    return multiply(et, ein, pair)


def _fused_plan(eout, ein, pair):
    return evaluate(lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"), pair))


def _timed_cold(fn, eout, ein, pair, repeat: int):
    best, result = None, None
    for _ in range(repeat):
        e1, e2 = _fresh_dict(eout), _fresh_dict(ein)
        t0 = time.perf_counter()
        result = fn(e1, e2, pair)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run(quick: bool) -> dict:
    workloads = [(11, 10_000)]
    if not quick:
        workloads.append((14, 100_000))
    repeat = 2 if quick else 3
    rows = []
    explain_text = None
    for scale, n_edges in workloads:
        pair, eout, ein = _operands(scale, n_edges)

        eager_s, eager = _timed_cold(_eager_transpose_matmul, eout, ein,
                                     pair, repeat)
        fused_s, fused = _timed_cold(_fused_plan, eout, ein, pair, repeat)
        assert fused == eager, (scale, n_edges)
        rows.append({
            "scale": scale,
            "n_edges": n_edges,
            "adjacency_nnz": fused.nnz,
            "seconds": {
                "eager_transpose_matmul": round(eager_s, 4),
                "fused_plan": round(fused_s, 4),
            },
            "speedup_fused_vs_eager": round(eager_s / fused_s, 3),
        })

        if explain_text is None:
            the_plan = plan(lazy(eout, "Eout").T.matmul(lazy(ein, "Ein"),
                                                        pair))
            explain_text = the_plan.explain()
            rewrites = [{"rule": rw.rule, "site": rw.site,
                         "properties": list(rw.properties)}
                        for rw in the_plan.applied]
            assert any(rw["rule"] == "fuse_incidence_adjacency"
                       for rw in rewrites)

    return {
        "benchmark": "bench_expr",
        "op_pair": PAIR_NAME,
        "expression": "A = Eoutᵀ ⊕.⊗ Ein (fused)",
        "incidence_to_adjacency": rows,
        "applied_rewrites": rewrites,
        "explain": explain_text.splitlines(),
        "correct": True,   # fused and eager asserted equal
    }


def headline(report: dict) -> dict:
    """Gateable metrics for the ``repro bench`` harness."""
    return {
        "speedup_fused_vs_eager": {
            "value": max(r["speedup_fused_vs_eager"]
                         for r in report["incidence_to_adjacency"]),
            "direction": "higher", "unit": "x"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload only (CI smoke)")
    parser.add_argument("--out", default="BENCH_expr.json",
                        help="write the JSON here (default: "
                             "BENCH_expr.json; '-' to skip)")
    args = parser.parse_args(argv)
    report = run(args.quick)
    text = json.dumps(report, indent=2, ensure_ascii=False)
    print(text)
    if args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
