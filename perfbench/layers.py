"""Wrap points of the traced run and the per-layer ledger built on them.

Every per-layer metric name starts with the module whose public
function (or the benchmark boundary) it times.  The wrap points are
public entry points of the program, patched where their callers look
them up.  What each layer should move is recorded in ``PER_LAYER``, and
the traced report prints it next to the number.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.spans import Recorder, SpanSet

#: (name, unit, better, what it should move).  "Reads" are the ungated
#: read latencies at the fixed rate; "capacity" is ``throughput_per_s``
#: of an HTTP workload and "build rate" that of ``build``.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("http.wire_ms.p50", "ms", "lower",
     "client time minus handler time: reads and capacity on read-write, "
     "less on traverse"),
    ("http.wire_ms.p90", "ms", "lower",
     "delayed-ACK stalls on keep-alive: read tail and capacity on "
     "read-write"),
    ("http.handler_self_ms.p50", "ms", "lower",
     "handler minus service.query (parsing, JSON): as http.wire_ms"),
    ("service.query_ms.p50", "ms", "lower", "reads on read-write"),
    ("service.query_ms.p99", "ms", "lower", "read tail"),
    ("service.query_self_ms.p50", "ms", "lower",
     "dispatch and instruments: reads on read-write"),
    ("cache.hit_ratio", "ratio", "higher", "reads on read-write"),
    ("cache.lookups", "count", "higher", "cache work done"),
    ("expr.khop_ms.p50", "ms", "lower",
     "read tail and capacity on traverse; flat elsewhere"),
    ("expr.khop_ms.p99", "ms", "lower", "as expr.khop_ms.p50"),
    ("expr.vecmat_ms.p50", "ms", "lower",
     "one path-length relaxation round: as graphs.path_lengths_ms"),
    ("graphs.path_lengths_ms.p50", "ms", "lower",
     "read tail and capacity on traverse"),
    ("graphs.path_lengths_ms.p99", "ms", "lower",
     "as graphs.path_lengths_ms.p50"),
    ("service.publish_ms.p50", "ms", "lower",
     "publish latency, read tail and capacity on read-write"),
    ("publish.fold_ms", "ms", "lower", "as service.publish_ms.p50"),
    ("publish.merge_ms", "ms", "lower", "as service.publish_ms.p50"),
    ("snapshot.from_array_ms", "ms", "lower", "as service.publish_ms.p50"),
    ("snapshot.read_ms.p99", "ms", "lower", "read tail on read-write"),
    ("publish.client_ms.p50", "ms", "lower",
     "client-observed publishing POST on read-write"),
    ("io.parse_s", "s", "lower", "build rate"),
    ("io.write_s", "s", "lower", "build rate"),
    ("shard.partition_s", "s", "lower", "build rate"),
    ("shard.execute_s", "s", "lower", "build rate"),
    ("shard.merge_s", "s", "lower", "build rate"),
    ("matmul.calls", "count", "lower", "build rate (per build)"),
    ("matmul.s", "s", "lower",
     "build rate: min_plus through sortmerge, plus_times through scipy"),
    ("matmul.terms", "count", "lower", "build rate (per build, counted "
     "from the operands)"),
    ("matmul.ns_per_term", "ns/term", "lower", "as matmul.s"),
    ("certify.s", "s", "lower", "setup_s on build"),
    ("server.cpu_ms_per_request", "ms", "lower", "capacity"),
    ("driver.lag_ms.max", "ms", "lower", "load-generator health"),
    ("driver.queue_ms.p50", "ms", "lower", "client-side queueing"),
    ("trace.overhead_ratio", "ratio", "lower", "cost of the traced run"),
)


# ---------------------------------------------------------------------------
# Wrap points
# ---------------------------------------------------------------------------

def _request_id(args, _kwargs) -> Dict[str, Any]:
    return {"rid": args[0].headers.get("X-Request-Id")}


def _query_kind(args, kwargs) -> Dict[str, Any]:
    return {"kind": args[1] if len(args) > 1 else kwargs.get("kind")}


def _cache_outcome(result, _args) -> Dict[str, Any]:
    return {"cached": bool(result[1])}


def _matmul_terms(_result, args) -> Dict[str, Any]:
    """⊗ terms of ``a ⊕.⊗ b``: Σ_k nnz(a[:, k]) · nnz(b[k, :])."""
    a, b = args[0], args[1]
    try:
        import numpy as np
        na, nb = a.numeric_backend(), b.numeric_backend()
        if na is not None and nb is not None and a.col_keys == b.row_keys:
            cols = np.diff(na.csc()[2])
            rows = np.diff(nb.csr()[2])
            return {"terms": int(np.dot(cols, rows))}
        cols_a: Dict[Any, int] = {}
        for _r, c, _v in a.entries():
            cols_a[c] = cols_a.get(c, 0) + 1
        terms = 0
        for r, _c, _v in b.entries():
            terms += cols_a.get(r, 0)
        return {"terms": terms}
    except (AttributeError, TypeError, ValueError):
        return {}


SERVER_POINTS = (
    ("repro.serve.http:_Handler.do_GET", "http.handler", _request_id, None),
    ("repro.serve.http:_Handler.do_POST", "http.handler", _request_id, None),
    ("repro.serve.service:AdjacencyService.query", "service.query",
     _query_kind, None),
    ("repro.serve.cache:QueryCache.get_or_compute", "cache.lookup", None,
     _cache_outcome),
    ("repro.serve.service:khop_frontier", "expr.khop", None, None),
    ("repro.serve.service:shortest_path_lengths", "graphs.path_lengths",
     None, None),
    ("repro.serve.service:vecmat", "expr.vecmat", None, None),
    ("repro.serve.service:AdjacencyService.publish", "service.publish",
     None, None),
    ("repro.core.streaming:StreamingAdjacencyBuilder.adjacency",
     "publish.fold", None, None),
    ("repro.serve.service:oplus_union", "publish.merge", None, None),
    ("repro.serve.snapshot:Snapshot.from_array", "snapshot.from_array",
     None, None),
    ("repro.serve.snapshot:Snapshot.neighbors_out", "snapshot.read",
     None, None),
    ("repro.serve.snapshot:Snapshot.neighbors_in", "snapshot.read",
     None, None),
    ("repro.serve.snapshot:Snapshot.out_degrees", "snapshot.read",
     None, None),
    ("repro.serve.snapshot:Snapshot.in_degrees", "snapshot.read",
     None, None),
    ("repro.serve.snapshot:Snapshot.top_k", "snapshot.read", None, None),
)

BUILD_POINTS = (
    ("repro.shard.plan:certify", "certify", None, None),
    ("repro.shard.plan:ShardedAdjacencyPlan.partition", "shard.partition",
     None, None),
    ("repro.shard.plan:execute_shards", "shard.execute", None, None),
    ("repro.shard.plan:merge_spilled", "shard.merge", None, None),
    ("repro.shard.partition:iter_tsv_triples", "io.parse", None, None),
    ("repro.shard.executor:iter_tsv_triples", "io.parse", None, None),
    ("repro.arrays.io:write_tsv_triples", "io.write", None, None),
    ("repro.shard.executor:multiply", "matmul", None, _matmul_terms),
)


def install(recorder: Recorder, points) -> None:
    for target, name, attrs, on_result in points:
        recorder.install(target, name, attrs, on_result)


#: The service's calls into the ``x ⊕.⊗ A`` code of ``repro.expr``: the
#: k-hop frontier, and the vector-matrix product that path-length
#: relaxation runs each round.
EXPR_TARGETS = ("repro.serve.service:khop_frontier",
                "repro.serve.service:vecmat")


def slow_down(targets: Sequence[str], factor: float) -> None:
    """Make each ``module:function`` take ``factor`` times as long, by
    busy-waiting after it returns (the GIL stays held, as in real
    work).  The benchmark's own tests use this to check that the
    benchmark notices a slower layer."""
    import importlib
    import time

    for target in targets:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)

        def slowed(*args, __fn=fn, **kwargs):
            t0 = time.perf_counter()
            result = __fn(*args, **kwargs)
            until = time.perf_counter() + (factor - 1.0) * \
                (time.perf_counter() - t0)
            while time.perf_counter() < until:
                pass
            return result
        setattr(module, attr, slowed)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == xs[lo]:   # also keeps ∞ (a failed request) from NaN
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Ledgers
# ---------------------------------------------------------------------------

def _ms(values: List[float]) -> List[float]:
    return [v * 1e3 for v in values]


def _per_request(spans: SpanSet, requests: List[Dict[str, Any]]
                 ) -> List[Dict[str, float]]:
    """Each request's client time split by layer (seconds), matching
    client records to handler spans on ``X-Request-Id``."""
    handlers = {s[5]["rid"]: s for s in spans.named("http.handler")
                if s[5] and s[5].get("rid") is not None}
    children: Dict[int, List[Tuple]] = {}
    for s in spans.spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    out = []
    for req in requests:
        span = handlers.get(req["rid"])
        if span is None:
            continue
        client = req["done"] - req["sent"]
        row = {"client (send → response)": client,
               "http.wire (client − handler)": client - (span[4] - span[3]),
               "http.handler self": spans.self_time(span)}
        for name in READ_PATH:
            row[f"{name} self"] = 0.0
        stack = list(children.get(span[0], []))
        while stack:
            child = stack.pop()
            key = f"{child[2]} self"
            row[key] = row.get(key, 0.0) + spans.self_time(child)
            stack.extend(children.get(child[0], []))
        out.append(row)
    return out


#: Layers below the handler that the read-path split reports.
READ_PATH = ("service.query", "cache.lookup", "expr.khop",
             "graphs.path_lengths", "expr.vecmat", "snapshot.read")


def server_ledger(spans: SpanSet, requests: List[Dict[str, Any]],
                  publishes: List[Dict[str, Any]], cpu_s: float,
                  costs: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of an HTTP workload from server spans and the
    client's records of completed requests."""
    rows = _per_request(spans, requests)
    wire = [r["http.wire (client − handler)"] * 1e3 for r in rows]
    lookups = spans.named("cache.lookup")
    hits = sum(1 for s in lookups if s[5] and s[5].get("cached"))
    out = {
        "http.wire_ms.p50": median(wire),
        "http.wire_ms.p90": percentile(wire, 0.90),
        "http.handler_self_ms.p50": median(
            [r["http.handler self"] * 1e3 for r in rows]),
        "service.query_ms.p50": median(_ms(spans.durations("service.query"))),
        "service.query_ms.p99": percentile(
            _ms(spans.durations("service.query")), 0.99),
        "service.query_self_ms.p50": median(
            _ms(spans.self_times("service.query"))),
        "cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "cache.lookups": float(len(lookups)),
        "expr.khop_ms.p50": median(_ms(spans.durations("expr.khop"))),
        "expr.khop_ms.p99": percentile(_ms(spans.durations("expr.khop")),
                                       0.99),
        "expr.vecmat_ms.p50": median(_ms(spans.durations("expr.vecmat"))),
        "graphs.path_lengths_ms.p50": median(
            _ms(spans.durations("graphs.path_lengths"))),
        "graphs.path_lengths_ms.p99": percentile(
            _ms(spans.durations("graphs.path_lengths")), 0.99),
        "service.publish_ms.p50": median(
            _ms(spans.durations("service.publish"))),
        "publish.fold_ms": median(_ms(spans.durations("publish.fold"))),
        "publish.merge_ms": median(_ms(spans.durations("publish.merge"))),
        "snapshot.from_array_ms": median(
            _ms(spans.durations("snapshot.from_array"))),
        "snapshot.read_ms.p99": percentile(
            _ms(spans.durations("snapshot.read")), 0.99),
        "publish.client_ms.p50": median(
            [p["latency_ms"] for p in publishes]),
        "server.cpu_ms_per_request": (
            cpu_s * 1e3 / max(1, len(requests) + len(publishes))),
    }
    roots = sum(s[4] - s[3] for s in spans.named("http.handler"))
    out["trace.overhead_ratio"] = _overhead(spans, costs, roots)
    return out


def build_ledger(spans: SpanSet, n_builds: int,
                 costs: Dict[str, float]) -> Dict[str, float]:
    """Per-build layer metrics from the build worker's spans."""
    per_build = 1.0 / max(1, n_builds)
    matmuls = spans.named("matmul")
    terms = sum((s[5] or {}).get("terms", 0) for s in matmuls)
    matmul_s = sum(spans.durations("matmul"))
    out = {
        "io.parse_s": sum(spans.durations("io.parse")) * per_build,
        "io.write_s": sum(spans.durations("io.write")) * per_build,
        "shard.partition_s": sum(spans.self_times("shard.partition"))
        * per_build,
        "shard.execute_s": sum(spans.durations("shard.execute")) * per_build,
        "shard.merge_s": sum(spans.durations("shard.merge")) * per_build,
        "matmul.calls": len(matmuls) * per_build,
        "matmul.s": matmul_s * per_build,
        "matmul.terms": terms * per_build,
        "matmul.ns_per_term": matmul_s * 1e9 / terms if terms else 0.0,
        "certify.s": median(spans.durations("certify")),
    }
    roots = sum(spans.durations("build"))
    out["trace.overhead_ratio"] = _overhead(spans, costs, roots)
    return out


def _overhead(spans: SpanSet, costs: Dict[str, float], roots: float) -> float:
    """Estimated wrapper time over the traced root time: recorded spans
    times the measured per-call cost plus generator steps times the
    per-step cost."""
    if roots <= 0:
        return 0.0
    cost = (len(spans.spans) * costs["call_s"]
            + spans.meta.get("generator_steps", 0) * costs["step_s"])
    return cost / roots


def read_path(spans: SpanSet, requests: List[Dict[str, Any]]
              ) -> List[Tuple[str, float, int]]:
    """Median per-request split of the client time by layer:
    ``[(layer, median ms, samples)]``."""
    rows = _per_request(spans, requests)
    names = list(rows[0]) if rows else []
    return [(name, median([r[name] * 1e3 for r in rows]), len(rows))
            for name in names]
