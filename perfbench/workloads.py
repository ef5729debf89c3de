"""The three workloads: ``build``, ``traverse`` and ``read-write``.

All three use one seeded graph (:mod:`perfbench.graphgen`).  ``build``
times repeated ``repro build`` runs in a child process under two
op-pairs; the HTTP workloads start ``repro serve`` on the graph's
adjacency TSV and drive it open-loop with :mod:`perfbench.client`.
Each returns a :class:`Outcome`: the gated end-to-end metrics, the
per-layer metrics when traced, and everything else worth printing.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import queue as queue_mod
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

import numpy as np

from perfbench import client, graphgen, layers, oracle
from perfbench.spans import SpanSet, wrapper_costs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N_VERTICES = 1 << graphgen.SCALE

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 3
#: Share of HTTP answers checked against the oracle (seeded choice).
CHECK_SHARE = 0.25
#: Requests per second per connection the saturation step has ready:
#: far above what one connection can carry here.
SATURATION_RATE = 100.0
#: Windows the saturation step is split into; capacity is their median.
SATURATION_WINDOWS = 4
#: Seconds to wait for a child process to start or stop.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    wrong: int
    details: Dict[str, Any] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    ledger: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Child:
    """A benchmark child process with line-by-line stdout."""

    def __init__(self, args: List[str], rundir: Path, log_name: str,
                 stdin: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(rundir / "tmp")
        # The program keeps a kernel-calibration store, by default under
        # the home directory.  Each child gets a fresh one inside the
        # run directory, so runs neither write outside the checkout nor
        # depend on one another.
        env["REPRO_CALIBRATION_PATH"] = str(
            rundir / "tmp" / f"calibration-{time.monotonic_ns()}.json")
        self.log = open(rundir / log_name, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + args, cwd=ROOT, env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self.log)
        self.lines: "queue_mod.Queue[Optional[str]]" = queue_mod.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self.lines.put(raw.decode("utf-8", "replace"))
        self.lines.put(None)

    def readline(self, timeout: float = CHILD_TIMEOUT_S) -> str:
        try:
            line = self.lines.get(timeout=timeout)
        except queue_mod.Empty:
            raise RuntimeError(f"child {self.proc.args[1]} sent nothing "
                               f"for {timeout:.0f} s") from None
        if line is None:
            raise RuntimeError(
                f"child {self.proc.args[1]} exited with "
                f"{self.proc.wait()}; see {self.log.name}")
        return line

    def status_kb(self, field_name: str) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return float(line.split()[1])
        raise RuntimeError(f"no {field_name} in /proc status")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / \
            os.sysconf("SC_CLK_TCK")

    def stop(self, sig: int = signal.SIGINT) -> int:
        """Signal (if running), wait, and release; returns the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(sig)
                try:
                    self.proc.wait(timeout=CHILD_TIMEOUT_S / 4)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self._reader.join(timeout=5)
            return self.proc.returncode
        finally:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            self.proc.stdout.close()
            self.log.close()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    graph: graphgen.Graph
    adjacency: Dict[str, oracle.Adjacency]
    files: graphgen.InputFiles
    vertices: List[str]          # every vertex of the served snapshot
    sources: List[str]           # vertices with out-edges
    out_degree: Dict[str, int]   # stored out-entries per source


def make_inputs(seed: int, rundir: Path) -> Inputs:
    graph = graphgen.rmat(seed)
    adj = {pair: oracle.adjacency(graph, pair, N_VERTICES)
           for pair in oracle.PAIRS}
    files = graphgen.write_inputs(graph, adj["plus_times"], rundir / "input")
    ids = np.union1d(graph.src, graph.dst)
    csr = adj["plus_times"].csr
    degree = np.diff(csr.indptr)
    sources = np.flatnonzero(degree)
    return Inputs(graph, adj, files,
                  vertices=[f"v{i}" for i in ids.tolist()],
                  sources=[f"v{i}" for i in sources.tolist()],
                  out_degree={f"v{i}": int(degree[i])
                              for i in sources.tolist()})


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def run_build(inputs: Inputs, seconds: float, rundir: Path,
              trace: bool, expr_slowdown: float = 1.0) -> Outcome:
    worker = str(HERE / "build_worker.py")
    out_dir = rundir / "out"
    out_dir.mkdir()
    base = [worker, "--eout", str(inputs.files.eout),
            "--ein", str(inputs.files.ein), "--out-dir", str(out_dir),
            "--expr-slowdown", str(expr_slowdown)]
    setups = []
    for _ in range(0 if trace else N_SETUPS - 1):
        child = Child(base + ["--setup-only"], rundir, "build.log")
        try:
            json.loads(child.readline())
            setups.append(time.perf_counter() - child.started)
        finally:
            child.stop(signal.SIGTERM)
    spans_path = rundir / "build_spans.json"
    args = base + ["--seconds", str(seconds)]
    if trace:
        args += ["--trace", str(spans_path)]
    child = Child(args, rundir, "build.log", stdin=True)
    builds: List[Dict[str, Any]] = []
    try:
        json.loads(child.readline())
        setups.append(time.perf_counter() - child.started)
        while True:
            doc = json.loads(child.readline(timeout=seconds + CHILD_TIMEOUT_S))
            if doc.get("done"):
                break
            builds.append(doc)
        peak_rss_mb = child.status_kb("VmHWM") / 1024.0
        child.proc.stdin.close()
        if child.proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise RuntimeError("build worker failed; see build.log")
    finally:
        child.stop(signal.SIGTERM)

    failed, wrong = check_builds(inputs, builds)
    per_pair = {pair: statistics.median(
        [b["seconds"] for b in builds if b["pair"] == pair])
        for pair in oracle.PAIRS}
    typical = math.exp(statistics.fmean(math.log(s)
                                        for s in per_pair.values()))
    n_edges = inputs.graph.n_edges
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": n_edges / typical,
    }
    samples = {"setup_s": len(setups), "throughput_per_s": len(builds)}
    details = {f"build_edges_per_s.{p}": n_edges / s
               for p, s in per_pair.items()}
    details.update({f"build_s.{p}": s for p, s in per_pair.items()})
    details["builds"] = len(builds)
    details["edges"] = n_edges
    details["nnz"] = {p: a.nnz for p, a in inputs.adjacency.items()}
    outcome = Outcome(metrics, attempted=len(builds), failed=failed,
                      wrong=wrong, details=details, samples=samples)
    if trace:
        spans = SpanSet.load(str(spans_path))
        outcome.metrics = _fill_layers(layers.build_ledger(
            spans, len(builds), wrapper_costs()))
        outcome.ledger = _build_ledger_lines(spans, builds, outcome.metrics)
        outcome.details["missing_layers"] = spans.meta["missing"]
    return outcome


def check_builds(inputs: Inputs, builds: List[Dict[str, Any]]
                  ) -> Tuple[int, int]:
    """(failed, wrong): every build's output must hash like an output
    that was compared entry by entry with the oracle."""
    failed = wrong = 0
    verified: Dict[str, set] = {p: set() for p in oracle.PAIRS}
    rejected: Dict[str, set] = {p: set() for p in oracle.PAIRS}
    for b in builds:
        if b["rc"] != 0:
            failed += 1
            continue
        pair, sha = b["pair"], b["sha256"]
        if sha not in verified[pair] and sha not in rejected[pair]:
            # Only the first and the last output of each pair are kept
            # on disk; a hash matching neither cannot be vouched for.
            if Path(b["path"]).exists() and \
                    _sha_of(b["path"]) == sha and \
                    oracle.build_output_matches(b["path"],
                                                inputs.adjacency[pair]):
                verified[pair].add(sha)
            else:
                rejected[pair].add(sha)
        if sha in rejected[pair]:
            wrong += 1
            failed += 1
    return failed, wrong


def _sha_of(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _build_ledger_lines(spans: SpanSet, builds: List[Dict[str, Any]],
                        metrics: Dict[str, float]) -> List[str]:
    wall = statistics.fmean(b["seconds"] for b in builds)
    lines = [f"per build (mean of {len(builds)}; wall {wall:.3f} s):"]
    for name in ("io.parse_s", "shard.partition_s", "shard.execute_s",
                 "matmul.s", "shard.merge_s", "io.write_s"):
        share = metrics[name] / wall if wall else 0.0
        lines.append(f"  {name:<22} {metrics[name]:8.3f} s  "
                     f"{share:6.1%} of build wall")
    lines.append("  (io.parse_s sums time inside the TSV reader on every "
                 "thread; shard.partition_s is partition self time; "
                 "shard.execute_s includes the shard workers' parse and "
                 "matmul)")
    return lines


# ---------------------------------------------------------------------------
# HTTP workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HttpConfig:
    """One HTTP workload: its mix, its load and its latency limit."""

    readers: int          # persistent reader connections
    writer: bool          # plus one writer connection
    rate: float           # fixed offered read rate, requests/s
    tail_q: float         # the tail percentile reported and limited
    limit_ms: float       # tail limit for sustainable_qps
    growth: float = 1.5   # sweep rate factor per step
    fixed_share: float = 0.25  # of the run at the fixed rate
    step_share: float = 0.06   # of the run per sweep step
    saturation_share: float = 0.45  # of the run in the saturation step
    publish_every_s: float = 3.0
    publish_batch: int = 32


HTTP_WORKLOADS = {
    "traverse": HttpConfig(readers=2, writer=False, rate=5.0,
                           tail_q=0.95, limit_ms=2000.0),
    "read-write": HttpConfig(readers=1, writer=True, rate=6.0,
                             tail_q=0.95, limit_ms=1000.0),
}


class _Zipf:
    """Vertices ranked by a seeded permutation, drawn with P ∝ 1/rank^s."""

    def __init__(self, rng: random.Random, vertices: List[str],
                 s: float = 1.5) -> None:
        self.order = list(vertices)
        rng.shuffle(self.order)
        weights = np.arange(1, len(self.order) + 1, dtype=float) ** -s
        self.cdf = np.cumsum(weights / weights.sum()).tolist()

    def draw(self, rng: random.Random) -> str:
        i = bisect.bisect_left(self.cdf, rng.random())
        return self.order[min(i, len(self.order) - 1)]


class Mix:
    """A query mix drawn in shuffled blocks of ten queries.

    Each block holds every kind in its exact share (and, for k-hop, an
    exact spread of ``k`` and of source out-degree), so every run of a
    given length sends the same proportions: the slow kinds set the
    tail, and binomial counts of them would move it from run to run.
    The marginal distribution of each draw is unchanged.
    """

    def __init__(self, block) -> None:
        self._block = block
        self._pending: List[Tuple[str, Dict[str, Any]]] = []

    def draw(self, rng: random.Random) -> Tuple[str, Dict[str, Any]]:
        if not self._pending:
            self._pending = self._block(rng)
            rng.shuffle(self._pending)
        return self._pending.pop()


def traverse_mix(seed: int, inputs: Inputs):
    """90 % k-hop (k uniform in 1..3), 10 % path lengths; sources
    uniform over vertices with out-edges (sampled one per out-degree
    stratum per block)."""
    rng = random.Random(f"{seed}/strata")
    by_degree = sorted(inputs.sources,
                       key=lambda v: (inputs.out_degree[v], rng.random()))
    strata = [by_degree[i * len(by_degree) // 9:
                        (i + 1) * len(by_degree) // 9] for i in range(9)]

    def block(rng: random.Random):
        ks = [1, 2, 3] * 3
        rng.shuffle(ks)
        out = [("khop", {"vertex": rng.choice(stratum), "k": k})
               for stratum, k in zip(strata, ks)]
        out.append(("path_lengths", {"vertex": rng.choice(inputs.sources)}))
        return out
    return block


def read_write_mix(seed: int, inputs: Inputs):
    """70 % neighbors, 20 % single-vertex degrees (each out or in), 10 %
    top-k; vertices Zipf-skewed, so reads repeat within an epoch and can
    hit the query cache."""
    zipf = _Zipf(random.Random(f"{seed}/zipf"), inputs.vertices)

    def block(rng: random.Random):
        out = []
        for kind in ["neighbors"] * 7 + ["degrees"] * 2:
            out.append((kind, {"vertex": zipf.draw(rng),
                               "direction": rng.choice(("out", "in"))}))
        out.append(("top_k", {"k": 10}))
        return out
    return block


def _schedules(seed: int, phase: int, rate: float, seconds: float,
               block, readers: int) -> List[List[client.Request]]:
    """One Poisson stream per reader connection, ``rate`` in total, for
    ``seconds``; fixed by the seed before the phase starts.  A rate of
    ``inf`` makes every request due at the start (as many as the
    connection could send at :data:`SATURATION_RATE`)."""
    out = []
    for conn in range(readers):
        rng = random.Random(f"{seed}/{phase}/{rate:.6f}/{conn}")
        mix = Mix(block)
        sched: List[client.Request] = []
        saturate = math.isinf(rate)
        n_max = int(SATURATION_RATE * seconds) if saturate else None
        t = 0.0 if saturate else rng.expovariate(rate / readers)
        while len(sched) < n_max if saturate else t < seconds:
            kind, params = mix.draw(rng)
            sched.append(client.Request(
                rid=f"{phase}.{conn}.{len(sched)}", offset=t, method="GET",
                path=f"/query/{kind}?{urlencode(params)}", kind=kind,
                params={k: str(v) for k, v in params.items()},
                check=rng.random() < CHECK_SHARE))
            if not saturate:
                t += rng.expovariate(rate / readers)
        out.append(sched)
    return out


class Writer:
    """The read-write workload's publisher schedule: one batch of new
    edges with ``"publish": true`` every ``cfg.publish_every_s``."""

    def __init__(self, cfg: HttpConfig, seconds: float, seed: int,
                 phase: int, inputs: Inputs) -> None:
        rng = random.Random(f"{seed}/writer/{phase}")
        self.requests: List[client.Request] = []
        self.batches: List[List[Tuple[str, str, int]]] = []
        t = cfg.publish_every_s / 2
        while t < seconds:
            n = len(self.requests)
            edges = [[f"w{phase}.{n}.{i}", rng.choice(inputs.vertices),
                      rng.choice(inputs.vertices), rng.randint(1, 9),
                      rng.randint(1, 9)] for i in range(cfg.publish_batch)]
            self.batches.append([(s, d, wo * wi)
                                 for _k, s, d, wo, wi in edges])
            self.requests.append(client.Request(
                rid=f"{phase}.w{n}", offset=t, method="POST",
                path="/edges", kind="publish",
                body=json.dumps({"edges": edges,
                                 "publish": True}).encode("utf-8")))
            t += cfg.publish_every_s


class Epochs:
    """Oracle adjacency per published epoch (epoch 0 is the input)."""

    def __init__(self, base: oracle.Adjacency) -> None:
        self._by_epoch: Dict[int, oracle.Adjacency] = {0: base}
        self._pending: Dict[int, List[Tuple[str, str, int]]] = {}
        self.unknown = False

    def published(self, req: client.Request,
                  batch: List[Tuple[str, str, int]]) -> None:
        if req.sent is None:
            return  # never sent: no epoch
        if not req.ok or not isinstance(req.doc, dict) or \
                not isinstance(req.doc.get("epoch"), int):
            self.unknown = True  # later epochs cannot be reconstructed
            return
        self._pending[req.doc["epoch"]] = batch

    def at(self, epoch: int) -> Optional[oracle.Adjacency]:
        if epoch in self._by_epoch:
            return self._by_epoch[epoch]
        if self.unknown or epoch - 1 < 0 or epoch not in self._pending:
            return None
        prev = self.at(epoch - 1)
        if prev is None:
            return None
        batch = self._pending[epoch]
        adj = prev.with_edges([int(s[1:]) for s, _d, _v in batch],
                              [int(d[1:]) for _s, d, _v in batch],
                              [v for _s, _d, v in batch])
        self._by_epoch[epoch] = adj
        return adj


def check_answer(req: client.Request, epochs: Epochs) -> bool:
    """Whether a served read is well formed and, when sampled, right
    for the epoch stamped in it."""
    doc = req.doc
    if not isinstance(doc, dict) or doc.get("kind") != req.kind or \
            not isinstance(doc.get("epoch"), int):
        return False
    if not req.check:
        return True
    adj = epochs.at(doc["epoch"])
    if adj is None:
        return False
    try:
        return oracle.answer_matches(adj, req.kind, req.params,
                                     doc.get("result"))
    except (AttributeError, TypeError, ValueError, KeyError, IndexError):
        return False


def count_failures(reads: List[client.Request],
                   publishes: List[client.Request],
                   epochs: Epochs) -> Tuple[int, int]:
    """(failed, wrong) over the requests that were sent: refused,
    timed out or non-200 requests fail, and so do wrong answers."""
    sent = [r for r in reads + publishes if r.sent is not None]
    wrong = sum(1 for r in reads
                if r.sent is not None and r.ok and
                not check_answer(r, epochs))
    return sum(1 for r in sent if not r.ok) + wrong, wrong


@dataclass
class Step:
    rate: float
    requests: List[client.Request]
    publishes: List[client.Request]
    start: float = 0.0
    tail_ms: float = 0.0
    backlog: bool = False
    passed: bool = False


def _latencies_ms(reqs: List[client.Request]) -> List[float]:
    """Corrected latencies; a failed or unsent request counts as ∞."""
    return [req.latency * 1e3 if req.ok and req.latency is not None
            else math.inf for req in reqs]


def _backlog(reqs: List[client.Request], limit_ms: float) -> bool:
    """Queueing grew between the first and second half of the step by
    more than a quarter of the latency limit (an unsent request waited
    the whole step)."""
    half = len(reqs) // 2
    if half < 4:
        return False
    q = [client.queue(r) if r.sent is not None else math.inf
         for r in reqs]
    first = statistics.fmean(q[:half])
    second = statistics.fmean(q[half:])
    return second - first > limit_ms / 4e3


def _start_server(inputs: Inputs, rundir: Path, trace_path: Optional[Path],
                  expr_slowdown: float) -> Tuple[Child, int, float]:
    """Start the server; returns (child, port, seconds to the first
    correct k-hop answer)."""
    args = [str(HERE / "server.py"), "--source", str(inputs.files.adjacency)]
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    if expr_slowdown != 1.0:
        args += ["--expr-slowdown", str(expr_slowdown)]
    child = Child(args, rundir, "server.log")
    try:
        while True:
            line = child.readline()
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        probe = inputs.sources[0]
        want = oracle.khop(inputs.adjacency["plus_times"], probe, 2)
        conn = client.Connection("127.0.0.1", port)
        try:
            req = client.Request(rid="setup", offset=0.0, method="GET",
                                 path=f"/query/khop?vertex={probe}&k=2",
                                 kind="khop")
            conn.send(req)
        finally:
            conn.close()
        if not (req.ok and oracle.khop_matches(want,
                                               req.doc.get("result", {}))):
            raise RuntimeError(f"first k-hop answer is wrong: {req.error}")
        return child, port, time.perf_counter() - child.started
    except BaseException:
        child.stop()
        raise


def _warm(port: int, inputs: Inputs) -> None:
    """One query of every kind, so lazy per-snapshot indexes exist
    before timing (publishes rebuild them; that cost stays measured)."""
    conn = client.Connection("127.0.0.1", port)
    v = inputs.sources[0]
    try:
        for path in (f"/query/neighbors?vertex={v}&direction=in",
                     f"/query/neighbors?vertex={v}",
                     f"/query/degrees?vertex={v}&direction=in",
                     f"/query/degrees?vertex={v}",
                     "/query/top_k?k=10",
                     f"/query/path_lengths?vertex={v}"):
            conn.send(client.Request(rid="warm", offset=0.0, method="GET",
                                     path=path, kind="warm"))
    finally:
        conn.close()


def run_http(name: str, inputs: Inputs, seconds: float, seed: int,
             rundir: Path, trace: bool, expr_slowdown: float = 1.0
             ) -> Outcome:
    cfg = HTTP_WORKLOADS[name]
    block = (traverse_mix if name == "traverse" else read_write_mix)(
        seed, inputs)
    setups: List[float] = []
    for _ in range(0 if trace else N_SETUPS - 1):
        child, _port, s = _start_server(inputs, rundir, None, expr_slowdown)
        child.stop()
        setups.append(s)
    spans_path = rundir / "server_spans.json" if trace else None
    child, port, s = _start_server(inputs, rundir, spans_path, expr_slowdown)
    setups.append(s)
    epochs = Epochs(inputs.adjacency["plus_times"])
    readers = [client.Connection("127.0.0.1", port)
               for _ in range(cfg.readers)]
    writer_conn = client.Connection("127.0.0.1", port) if cfg.writer \
        else None
    steps: List[Step] = []
    try:
        _warm(port, inputs)
        cpu0 = child.cpu_seconds()
        # Phase 0 is the fixed-rate step.  Untraced runs then sweep the
        # rate and end with a saturation step.
        fixed_s = seconds if trace else cfg.fixed_share * seconds
        saturation_s = cfg.saturation_share * seconds
        step_s = cfg.step_share * seconds
        sweep_end = time.perf_counter() + seconds - saturation_s

        def step(phase: int, rate: float, length: float,
                 deadline: float) -> Step:
            scheds = _schedules(seed, phase, rate, length, block,
                                cfg.readers)
            sched = sorted((r for sc in scheds for r in sc),
                           key=lambda r: r.offset)
            writer = Writer(cfg, length, seed, phase, inputs) \
                if writer_conn else None
            st = Step(rate, sched, writer.requests if writer else [])
            st.start = client.run_phase(
                readers + ([writer_conn] if writer else []),
                scheds + ([writer.requests] if writer else []),
                deadline=deadline)
            if writer is not None:
                for req, batch in zip(writer.requests, writer.batches):
                    epochs.published(req, batch)
            st.tail_ms = layers.percentile(_latencies_ms(sched), cfg.tail_q)
            st.backlog = _backlog(sched, cfg.limit_ms)
            st.passed = st.tail_ms <= cfg.limit_ms and not st.backlog
            steps.append(st)
            return st

        limit_s = cfg.limit_ms / 1e3
        fixed_passed = step(0, cfg.rate, fixed_s, limit_s).passed
        if not trace:
            # Grow the rate geometrically until a step fails, within
            # the sweep's share of the run.
            lo, hi = (cfg.rate, None) if fixed_passed else (0.0, cfg.rate)
            phase = 1
            while hi is None and \
                    time.perf_counter() + step_s + limit_s <= sweep_end:
                rate = lo * cfg.growth
                if step(phase, rate, step_s, limit_s).passed:
                    lo = rate
                else:
                    hi = rate
                phase += 1
            # Saturation: every request due at once, so each reader
            # connection sends back to back; completions per second is
            # the load the service carries over these connections.
            # The median over windows keeps a slow spell of the machine
            # in one window from setting the figure.
            sat = step(phase, math.inf, saturation_s, saturation_s)
            width = saturation_s / SATURATION_WINDOWS
            counts = [0] * SATURATION_WINDOWS
            for r in sat.requests:
                i = int((r.done - sat.start) // width) if r.ok else -1
                if 0 <= i < SATURATION_WINDOWS:
                    counts[i] += 1
            capacity = statistics.median(counts) / width
        cpu_s = child.cpu_seconds() - cpu0
        peak_rss_mb = child.status_kb("VmHWM") / 1024.0
    finally:
        for conn in readers + ([writer_conn] if writer_conn else []):
            conn.close()
        child.stop()

    # The saturation step (last, untraced runs only) leaves most of its
    # schedule unsent by design; it counts for correctness, not in the
    # sweep report.
    measured = steps if trace else steps[:-1]
    reads = [r for st in steps for r in st.requests]
    publishes = [r for st in steps for r in st.publishes]
    sent = [r for r in reads + publishes if r.sent is not None]
    failed, wrong = count_failures(reads, publishes, epochs)
    fixed = steps[0]
    fixed_lat = _latencies_ms(fixed.requests)
    metrics: Dict[str, float] = {}
    details: Dict[str, Any] = {
        "rate": cfg.rate, "readers": cfg.readers,
        "writer": cfg.writer, "limit_ms": cfg.limit_ms,
        "reads": len(fixed_lat),
        "read_p50_ms": layers.percentile(fixed_lat, 0.5),
        f"read_p{cfg.tail_q * 100:g}_ms": layers.percentile(fixed_lat,
                                                            cfg.tail_q),
        "checked": sum(1 for r in reads if r.ok and r.check),
        "abandoned": sum(1 for st in measured for r in st.requests
                         if r.sent is None),
        "per_kind": _per_kind(fixed.requests, cfg.tail_q),
        "tail_mean10_ms": tail_mean(fixed_lat, 0.1),
        "publish_p50_ms": layers.median(
            [r.latency * 1e3 for r in fixed.publishes if r.ok]),
        "publishes": len(fixed.publishes),
        "driver.lag_ms.max": max([client.lag(r) * 1e3 for r in sent
                                  if client.lag(r) is not None],
                                 default=0.0),
        "driver.queue_ms.p50": layers.median(
            [client.queue(r) * 1e3 for r in fixed.requests
             if client.queue(r) is not None]),
        "steps": [{"rate": st.rate, "reads": len(st.requests),
                   "tail_ms": st.tail_ms, "backlog": st.backlog,
                   "passed": st.passed} for st in measured],
    }
    if not trace:
        details["sustainable_qps"] = lo
        details["sustainable_found"] = hi is not None
        details["capacity_window_reads"] = counts
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": capacity,
        }
    samples = {"setup_s": len(setups),
               "throughput_per_s": sum(counts) if not trace else 0}
    outcome = Outcome(metrics, attempted=len(sent), failed=failed,
                      wrong=wrong, details=details, samples=samples)
    if trace:
        # Set-up and warm-up spans (before the phase) are left out.
        spans = SpanSet.load(str(spans_path), since=fixed.start)
        records = [r.record() for r in fixed.requests if r.ok]
        ledger = layers.server_ledger(
            spans, records, [{"latency_ms": r.latency * 1e3}
                             for r in fixed.publishes if r.ok],
            cpu_s, wrapper_costs())
        ledger["driver.lag_ms.max"] = details["driver.lag_ms.max"]
        ledger["driver.queue_ms.p50"] = details["driver.queue_ms.p50"]
        outcome.metrics = _fill_layers(ledger)
        outcome.ledger = _read_path_lines(spans, records, outcome.metrics)
        outcome.details["missing_layers"] = spans.meta["missing"]
    return outcome


def tail_mean(values: List[float], share: float) -> float:
    """Mean of the slowest ``share`` of ``values``."""
    xs = sorted(values)
    n = max(1, int(round(share * len(xs))))
    return statistics.fmean(xs[-n:]) if xs else 0.0


def _per_kind(reqs: List[client.Request], q: float) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for kind in sorted({r.kind for r in reqs}):
        lat = _latencies_ms([r for r in reqs if r.kind == kind])
        out[kind] = {"n": len(lat), "p50_ms": layers.percentile(lat, 0.5),
                     f"p{q * 100:g}_ms": layers.percentile(lat, q)}
    return out


def _read_path_lines(spans: SpanSet, records, metrics) -> List[str]:
    rows = layers.read_path(spans, records)
    lines = ["median read, split by layer (self times, ms):"]
    for name, ms, n in rows:
        lines.append(f"  {name:<32} {ms:9.3f} ms  (n={n})")
    return lines


def _fill_layers(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 where this workload does not run it."""
    return {name: float(values.get(name, 0.0))
            for name, _u, _b, _m in layers.PER_LAYER}


def prepare_rundir(base: Path, tag: str) -> Path:
    rundir = base / f"{tag}-{os.getpid()}"
    if rundir.exists():
        shutil.rmtree(rundir)
    (rundir / "tmp").mkdir(parents=True)
    return rundir
