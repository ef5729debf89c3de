"""Build-workload child process: repeated ``repro build`` runs.

Prints one JSON line when a certified plan has been constructed
(``{"ready": true}``), then — unless ``--setup-only`` — runs
``repro build EOUT EIN -o OUT --pair P --workers W --quiet`` through
``repro.cli.main`` for each op-pair in turn, one JSON line per build,
until the next round would overrun ``--seconds``.  It then prints
``{"done": true}`` and waits for its standard input to close, so the
parent can read this process's peak RSS, and writes its spans if
``--trace`` names a file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

PAIRS = ("plus_times", "min_plus")
N_SHARDS = 4  # the `repro build` default


def workers() -> int:
    """`repro build`'s default worker count, capped at the CPU count."""
    return min(4, os.cpu_count() or 1)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eout", required=True)
    parser.add_argument("--ein", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="FILE")
    parser.add_argument("--expr-slowdown", type=float, default=1.0)
    args = parser.parse_args(argv)

    from perfbench import layers
    if args.expr_slowdown != 1.0:
        layers.slow_down(layers.EXPR_TARGETS, args.expr_slowdown)
    recorder = None
    if args.trace:
        from perfbench.spans import Recorder
        recorder = Recorder()
        layers.install(recorder, layers.BUILD_POINTS)
    from repro import cli
    from repro.shard import ShardedAdjacencyPlan
    from repro.values.semiring import get_op_pair
    ShardedAdjacencyPlan(get_op_pair(PAIRS[0]), n_shards=N_SHARDS,
                         executor="thread", n_workers=workers(),
                         shard_format="tsv")
    _emit({"ready": True})
    if args.setup_only:
        return 0

    started = time.perf_counter()
    last_round = 0.0
    n_round = 0
    while n_round == 0 or \
            time.perf_counter() - started + last_round <= args.seconds:
        round_start = time.perf_counter()
        for pair in PAIRS:
            out = os.path.join(args.out_dir,
                               f"adj_{pair}_{'first' if n_round == 0 else 'last'}.tsv")
            argv_build = ["build", args.eout, args.ein, "-o", out,
                          "--pair", pair, "--workers", str(workers()),
                          "--quiet"]
            t0 = time.perf_counter()
            if recorder is not None:
                with recorder.span("build", pair=pair):
                    rc = cli.main(argv_build)
            else:
                rc = cli.main(argv_build)
            seconds = time.perf_counter() - t0
            _emit({"pair": pair, "seconds": seconds, "rc": rc,
                   "path": out, "sha256": _sha256(out) if rc == 0 else None})
        last_round = time.perf_counter() - round_start
        n_round += 1
    _emit({"done": True})
    sys.stdin.read()
    if recorder is not None:
        recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
