"""Launch ``repro serve`` for the benchmark, optionally traced.

Makes exactly the call ``repro serve --source ADJ --port 0`` makes
(``repro.cli.main``), after installing span wrappers when ``--trace``
names an output file.  SIGINT stops the server the way it stops
``repro serve``; the spans are then written out.

``--expr-slowdown F`` makes the service's calls into the ``x ⊕.⊗ A``
code of ``repro.expr`` take ``F`` times as long (see
:func:`perfbench.layers.slow_down`).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--source", required=True)
    parser.add_argument("--trace", default=None, metavar="FILE")
    parser.add_argument("--expr-slowdown", type=float, default=1.0)
    args = parser.parse_args(argv)

    from perfbench import layers
    from repro import cli

    if args.expr_slowdown != 1.0:
        layers.slow_down(layers.EXPR_TARGETS, args.expr_slowdown)
    recorder = None
    if args.trace:
        from perfbench.spans import Recorder
        recorder = Recorder()
        layers.install(recorder, layers.SERVER_POINTS)
    try:
        return cli.main(["serve", "--source", args.source, "--port", "0"])
    finally:
        if recorder is not None:
            recorder.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
