"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py                   # fast
    PERFBENCH_SLOW=1 python3 -m pytest perfbench/selftest.py  # + slow

The fast checks prove that the oracle rejects corrupted answers and
that a rejected answer is counted as a failure.  The slow check is the
sensitivity self-test: a 2× slowdown injected from outside into the
service's ``x ⊕.⊗ A`` layer (its k-hop frontier and the vector-matrix
product its path-length relaxation runs) must move ``traverse`` past
a bound in ``BENCHMARK.json``, show up in the traced ledger as
``expr.khop_ms``, and leave ``build`` within its bounds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import client, graphgen, oracle, spans, workloads  # noqa: E402

SMALL_SCALE, SMALL_EDGES = 6, 400


def _small():
    graph = graphgen.rmat(7, scale=SMALL_SCALE, n_edges=SMALL_EDGES)
    adj = oracle.adjacency(graph, "plus_times", 1 << SMALL_SCALE)
    return graph, adj


def _served(kind, params, result, epoch=0):
    req = client.Request(rid="t", offset=0.0, method="GET", path="/",
                         kind=kind, params=params, check=True)
    req.sent = req.done = 0.0
    req.status = 200
    req.doc = {"epoch": epoch, "kind": kind, "cached": False,
               "result": result}
    return req


def _answers(graph, adj):
    v = f"v{int(graph.src[0])}"
    return [
        ("neighbors", {"vertex": v, "direction": "out"},
         oracle.neighbors(adj, v, "out")),
        ("neighbors", {"vertex": v, "direction": "in"},
         oracle.neighbors(adj, v, "in")),
        ("degrees", {"vertex": v, "direction": "out"},
         oracle.degree(adj, v, "out")),
        ("khop", {"vertex": v, "k": "2"}, oracle.khop(adj, v, 2)),
        ("path_lengths", {"vertex": v}, oracle.path_lengths(adj, v)),
        ("top_k", {"k": "5"},
         [[f"v{r}", f"v{c}", float(x)] for r, c, x in
          sorted(zip(*adj.triples()), key=lambda t: -t[2])[:5]]),
    ]


def _corrupt(result):
    if isinstance(result, dict):
        key = next(iter(result))
        return {**result, key: result[key] + 1}
    if isinstance(result, list):
        return [row[:2] + [row[2] + 1] for row in result]
    return result + 1


def test_oracle_accepts_correct_answers():
    graph, adj = _small()
    epochs = workloads.Epochs(adj)
    for kind, params, result in _answers(graph, adj):
        assert workloads.check_answer(_served(kind, params, result),
                                      epochs), kind


def test_corrupted_answers_are_counted_as_failures():
    graph, adj = _small()
    epochs = workloads.Epochs(adj)
    reads = []
    for kind, params, result in _answers(graph, adj):
        reads.append(_served(kind, params, result))
        reads.append(_served(kind, params, _corrupt(result)))
    reads.append(_served("neighbors", {"vertex": "v0"}, {}, epoch=3))
    reads[-1].doc["kind"] = "neighbors"
    failed, wrong = workloads.count_failures(reads, [], epochs)
    assert wrong == failed == len(_answers(graph, adj)) + 1


def test_epochs_follow_published_batches():
    graph, adj = _small()
    epochs = workloads.Epochs(adj)
    u, w = f"v{int(graph.src[0])}", f"v{int(graph.dst[0])}"
    post = client.Request(rid="w", offset=0.0, method="POST",
                          path="/edges", kind="publish")
    post.sent, post.status, post.doc = 0.0, 200, {"epoch": 1}
    epochs.published(post, [(u, w, 7)])
    before = oracle.neighbors(adj, u, "out")
    after = dict(before)
    after[w] = after.get(w, 0.0) + 7
    stale = _served("neighbors", {"vertex": u, "direction": "out"},
                    before, epoch=1)
    fresh = _served("neighbors", {"vertex": u, "direction": "out"},
                    after, epoch=1)
    assert not workloads.check_answer(stale, epochs)
    assert workloads.check_answer(fresh, epochs)


def test_corrupted_build_output_is_counted(tmp_path):
    graph, adj = _small()
    rows, cols, vals = adj.triples()
    good = tmp_path / "good.tsv"
    good.write_text("".join(f"v{r}\tv{c}\t{v}\n"
                            for r, c, v in zip(rows, cols, vals)))
    bad = tmp_path / "bad.tsv"
    lines = good.read_text().splitlines(keepends=True)
    r, c, v = lines[0].rstrip("\n").split("\t")
    bad.write_text(f"{r}\t{c}\t{float(v) + 1}\n" + "".join(lines[1:]))
    inputs = workloads.Inputs(graph, {"plus_times": adj, "min_plus": adj},
                              None, [], [], {})
    builds = [{"pair": "plus_times", "rc": 0, "path": str(p),
               "sha256": workloads._sha_of(str(p))} for p in (good, bad)]
    assert workloads.check_builds(inputs, builds) == (1, 1)


def test_missing_wrap_point_is_reported_not_raised():
    recorder = spans.Recorder()
    assert not recorder.install("json:no_such_function", "gone.layer")
    assert not recorder.install("no_such_module:f", "gone.module")
    assert recorder.install("json:dumps", "json.dumps")
    try:
        import json as json_module
        json_module.dumps({})
    finally:
        json_module.dumps = json_module.dumps.__wrapped__
    assert [s[2] for s in recorder.spans] == ["json.dumps"]
    assert len(recorder.missing) == 2


# ---------------------------------------------------------------------------
# Sensitivity (slow: six benchmark runs)
# ---------------------------------------------------------------------------

def _run(workload, seed, trace, slowdown=1.0):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace),
         "--expr-slowdown", str(slowdown)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _worse_by(spec_metric, base, slowed):
    """How much worse ``slowed`` is than ``base``, as a share of base."""
    if spec_metric["better"] == "lower":
        return slowed / base - 1.0
    return 1.0 - slowed / base


@pytest.mark.skipif(os.environ.get("PERFBENCH_SLOW") != "1",
                    reason="six benchmark runs; set PERFBENCH_SLOW=1")
def test_expr_slowdown_is_caught_on_traverse_only():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seed = 424242

    base = _run("traverse", seed, 0)["metrics"]["throughput_per_s"]
    slow = _run("traverse", seed, 0, 2.0)["metrics"]["throughput_per_s"]
    assert _worse_by(e2e["throughput_per_s"], base["value"],
                     slow["value"]) > e2e["throughput_per_s"]["bound"], \
        (base, slow)

    base_t = _run("traverse", seed, 1)["metrics"]
    slow_t = _run("traverse", seed, 1, 2.0)["metrics"]
    for layer in ("expr.khop_ms.p50", "graphs.path_lengths_ms.p50"):
        assert slow_t[layer]["value"] > 1.5 * base_t[layer]["value"], layer

    base_b = _run("build", seed, 0)["metrics"]
    slow_b = _run("build", seed, 0, 2.0)["metrics"]
    for name, m in e2e.items():
        assert _worse_by(m, base_b[name]["value"],
                         slow_b[name]["value"]) <= m["bound"], name
