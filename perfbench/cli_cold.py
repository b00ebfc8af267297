"""Workload ``cli_cold``: the three cold commands a user types.

Each round runs, as fresh interpreters and in this order::

    repro.cli table1 --seed S+2r
    repro.cli export-bundle out.npz --data fixture-r.npz    (seed S+2r+1)
    repro.cli score --data fixture-r.npz --bundle det.npz

so one run fits detectors on ``2 * rounds`` consecutive platform seeds: the
KMM solve alone costs about 4x more on some seeds than on others, and the
per-command times are means over the rounds for the same reason.  Set-up
writes one fixture per round with ``repro.cli generate`` (``setup_s`` is
their median wall time) and ``det.npz`` with ``export-bundle``.  Startup and
import dominate here; HTTP serving does no work.
"""

from __future__ import annotations

import re
import statistics

from harness import (PINNED, SMALL_FLAGS, Context, Result, checked, engine_probe,
                     import_probe, run_cli)

SECONDS_PER_ROUND = 7
_FLAGGED = re.compile(r"^\s+(B\d): flagged (\d+) of (\d+)$", re.MULTILINE)


def rounds(seconds: int) -> int:
    return max(1, seconds // SECONDS_PER_ROUND)


def expected_table1(seed: int, extra) -> str:
    """What ``table1 --seed seed`` must print, from an in-process run."""
    from repro.cli import build_parser
    from repro.core.config import DetectorConfig
    from repro.experiments.platformcfg import PlatformConfig
    from repro.experiments.table1 import run_table1

    args = build_parser().parse_args(["table1", "--seed", str(seed), *PINNED, *extra])
    result = run_table1(
        platform=PlatformConfig(seed=seed, n_chips=args.chips, n_jobs=args.jobs,
                                engine=args.engine),
        detector_config=DetectorConfig(kde_samples=args.kde_samples, n_jobs=args.jobs,
                                       engine=args.engine),
    )
    return f"{result.format()}\n\nmatches paper shape: {result.matches_paper_shape()}"


def expected_flags(bundle_path, fixture_path) -> dict:
    """Flagged counts per boundary from an in-process ``ScoringEngine``."""
    from repro.core.io import load_experiment_data
    from repro.serve.bundle import load_bundle
    from repro.serve.engine import ScoringEngine

    data = load_experiment_data(fixture_path)
    result = ScoringEngine(load_bundle(bundle_path).detector).score(data.dutt_fingerprints)
    return {name: int((~flags).sum()) for name, flags in result.verdicts.items()}


def _check(result: Result, command, what: str, expected=None, actual=None) -> None:
    if command.returncode != 0:
        result.fail(f"{what}: exit {command.returncode}: {command.stderr[-500:]}")
    elif expected is not None and actual != expected:
        result.fail(f"{what}: output {actual!r} differs from in-process {expected!r}")


def run(ctx: Context, small: bool = False) -> Result:
    from repro.serve.bundle import load_bundle

    extra = SMALL_FLAGS if small else ()
    seeds = [ctx.seed + 2 * r for r in range(rounds(ctx.seconds))]
    result = Result()

    generate = []
    for r, seed in enumerate(seeds):
        generate.append(checked(run_cli(ctx, "generate", f"fixture-{r}.npz", "--seed",
                                        str(seed + 1), *PINNED, *extra[:2]), "generate"))
    checked(run_cli(ctx, "export-bundle", "det.npz", "--data", "fixture-0.npz",
                    *PINNED, *extra[2:]), "export-bundle")

    walls = {"table1": [], "export_bundle": [], "score": []}
    windows = []
    for r, seed in enumerate(seeds):
        table1 = run_cli(ctx, "table1", "--seed", str(seed), *PINNED, *extra)
        export = run_cli(ctx, "export-bundle", f"out-{r}.npz", "--data", f"fixture-{r}.npz",
                         *PINNED, *extra[2:])
        score = run_cli(ctx, "score", "--data", f"fixture-{r}.npz", "--bundle", "det.npz",
                        "--no-cache")
        for name, command in (("table1", table1), ("export_bundle", export), ("score", score)):
            walls[name].append(command.wall_s)
            windows.append((command.start, command.end))
        result.attempted += 3

        _check(result, table1, f"table1 --seed {seed}",
               expected_table1(seed, extra), table1.stdout.strip())
        _check(result, export, f"export-bundle fixture-{r}")
        if export.returncode == 0:
            loaded = load_bundle(ctx.work / f"out-{r}.npz")
            if list(loaded.boundaries) != ["B1", "B2", "B3", "B4", "B5"]:
                result.fail(f"export-bundle fixture-{r}: boundaries {loaded.boundaries}")
        _check(result, score, f"score fixture-{r}",
               expected_flags(ctx.work / "det.npz", ctx.work / f"fixture-{r}.npz"),
               {name: int(count) for name, count, _ in _FLAGGED.findall(score.stdout)})

    means = {name: statistics.mean(values) for name, values in walls.items()}
    setup_s = statistics.median(c.wall_s for c in generate)
    result.e2e = {
        "setup_s": setup_s,
        "latency_ms": 1e3 * statistics.mean(means.values()),
        "throughput_per_s": 1.0 / statistics.mean(means.values()),
    }
    result.named = {
        "setup_s": (setup_s, "s"),
        "table1_s": (means["table1"], "s"),
        "export_bundle_s": (means["export_bundle"], "s"),
        "score_s": (means["score"], "s"),
    }
    result.details = {"seeds": seeds, "walls_s": walls}
    if ctx.trace:
        from spans import coverage, layer_metrics

        result.layer = layer_metrics(ctx.tracer)
        result.layer.update(import_probe(ctx))
        result.layer.update(engine_probe(ctx.work / "det.npz", ctx.work / "fixture-0.npz"))
        result.layer["trace.coverage"] = coverage(ctx.tracer.spans, windows)
    return result
