"""The repository's benchmark: one command, three workloads, two views.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cli_cold --seed 0 --seconds 30 --trace 0

(``--workload all`` runs the three in turn, each ending with its own JSON line.)

Workloads (see each module's docstring, and ``interactions.json`` for why
each exists and which layer metric should move which end-to-end metric):

* ``cli_cold``   -- fresh-interpreter ``table1``, ``export-bundle``, ``score``;
* ``seed_panel`` -- in-process generate, fit and evaluate over a seed panel;
* ``serve_http`` -- a ``repro.cli serve`` subprocess under open-loop and
  closed-loop HTTP load.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing.  ``--trace 1`` runs the same workload with spans recorded around
each layer's public calls and reports the per-layer metrics instead; a layer
the workload never calls reads 0.  Every run checks the program's outputs
against in-process calls and counts each mismatch, non-zero exit,
exception or HTTP error as a failed operation.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (the workload's own metrics,
per-seed rows, machine fingerprint, source digest and, for traced runs, the
tracing overhead against the latest untraced run) is appended to
``.perfbench-out/history.jsonl``.  ``--small`` shrinks every workload to the
small fixture for the self-test (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

from harness import (OUT, ROOT, Context, SetupError, append_history, fingerprint,
                     last_untraced, use_source_tree)

WORKLOADS = ("cli_cold", "seed_panel", "serve_http")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes on the small fixture (self-test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_workload(args, work):
    """Run one workload; returns its :class:`harness.Result`."""
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    ctx = Context(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  work=work, tracer=tracer)
    module = importlib.import_module(args.workload)
    result = module.run(ctx, small=args.small)
    if tracer is not None:
        hits = result.layer.get("cache.hits", 0)
        if hits:
            result.fail(f"artifact cache registered {hits:g} hits")
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    return result


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return max(main(["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
                        + (["--small"] if args.small else []))
                   for name in WORKLOADS)
    try:
        use_source_tree()
        spec = load_spec()
        OUT.mkdir(exist_ok=True)
        work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir()
        try:
            started = time.time()
            result = run_workload(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.layer if args.trace else result.e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "small": args.small, "started": started,
        "attempted": result.attempted, "failed": result.failed,
        "failures": result.failures[:50], "end_to_end": result.e2e,
        "named": {name: {"value": value, "unit": unit}
                  for name, (value, unit) in result.named.items()},
        "layers": result.layer,
        "details": result.details,
        "machine": fingerprint(),
    }
    if args.trace:
        reference = last_untraced(args.workload, args.seed, args.seconds)
        record["tracing_overhead"] = None if reference is None else {
            name: value - reference["end_to_end"][name]
            for name, value in result.e2e.items() if name in reference["end_to_end"]}
    path = append_history(record)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  {'ops':28s} {result.attempted:>14d} count")
    print(f"  {'ops_failed':28s} {result.failed:>14d} count")
    for name, (value, unit) in result.named.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {unit}")
    for message in result.failures[:10]:
        print(f"  FAILED: {message}")
    print(f"  record appended to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
