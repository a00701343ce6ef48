"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS_OUT serve --port 0 ...

Installs the same wrappers as the in-process workloads
(:data:`perfbench.tracing.TARGETS`), then hands the remaining arguments
to the ``repro`` command-line entry point.  When the daemon exits, every
recorded span is written to ``SPANS_OUT`` as JSON lines.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List


def main(argv: List[str]) -> int:
    spans_out, repro_args = argv[0], argv[1:]
    from perfbench import env

    env.require_program()
    from perfbench.tracing import Tracer
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(repro_args)
    finally:
        tracer.uninstall()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    raise SystemExit(main(sys.argv[1:]))
