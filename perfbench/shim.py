"""Run one ``repro.cli`` command under the benchmark's span recorder.

Traced runs start CLI subprocesses as::

    python perfbench/shim.py SPANS.json <repro.cli arguments...>

instead of ``python -m repro.cli <arguments...>``.  The shim times
``import repro.cli`` as the ``cli.import`` span, wraps the layers' public
calls (see ``spans.Tracer.install``), runs the command through
``repro.cli.main`` and writes the spans when the command ends, including
after SIGINT stops a ``serve`` command.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv) -> int:
    spans_file, args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from spans import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    import repro.cli

    record = tracer.begin("cli.import")
    record["start"] = start
    tracer.end(record)
    tracer.install()
    try:
        with tracer.span(f"cli.{args[0]}"):
            return repro.cli.main(args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
