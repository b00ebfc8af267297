"""Workload ``seed_panel``: generate, fit and evaluate over a panel of seeds.

The panel is ``--seconds`` consecutive platform seeds starting at the
workload seed (30 at the default length; ``--seed 0 --seconds 20`` gives
panel 0-19, the one ROADMAP quotes).  Each seed runs in-process, at
``DetectorConfig()`` defaults::

    data = generate_experiment_data(PlatformConfig(seed=s))
    detector.fit_premanufacturing(...); detector.fit_silicon(...)
    detector.evaluate(...)

Detector fitting does almost all the work (KMM is the largest share and its
cost varies about 4x between seeds); import does none, because set-up pays
it (the median of three fresh-interpreter imports) together with warm-up
fits on the small fixture.  The panel also carries the detection-quality
numbers, so a speed-up that shifts FN/FP shows.
"""

from __future__ import annotations

import statistics
import time

from harness import Context, Result, fresh_imports, import_probe

WARMUPS = 3
BOUNDARIES = ("B1", "B2", "B3", "B4", "B5")


def small_configs(seed: int):
    """The small fixture: 12 chips, 40 Monte Carlo devices, a light detector."""
    from repro.core.config import DetectorConfig
    from repro.experiments.platformcfg import PlatformConfig

    return (PlatformConfig(seed=seed, n_chips=12, n_monte_carlo=40),
            DetectorConfig(kde_samples=2000, svm_max_training_samples=400))


def run_seed(platform_config, detector_config):
    """One panel entry; returns the Table 1 result of that seed."""
    from repro.core.pipeline import GoldenChipFreeDetector
    from repro.experiments import platformcfg
    from repro.experiments.table1 import Table1Result

    data = platformcfg.generate_experiment_data(platform_config)
    detector = GoldenChipFreeDetector(detector_config)
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)
    metrics = detector.evaluate(data.dutt_fingerprints, data.infested)
    return Table1Result(metrics=metrics, detector=detector, data=data)


def run(ctx: Context, small: bool = False) -> Result:
    # The import a user pays, timed in fresh interpreters: this process may
    # have loaded part of it already, and one sample swings with the host.
    import_s = statistics.median(
        s[0] for s in fresh_imports(ctx, "repro.core.pipeline, repro.experiments.table1"))
    from repro.core.config import DetectorConfig
    from repro.experiments.platformcfg import PlatformConfig

    warmups = []
    for _ in range(WARMUPS):
        begin = time.perf_counter()
        run_seed(*small_configs(ctx.seed))
        warmups.append(time.perf_counter() - begin)
    setup_s = import_s + statistics.median(warmups)

    seeds = list(range(ctx.seed, ctx.seed + max(2, ctx.seconds)))
    result = Result()
    rows = []
    if ctx.trace:
        ctx.tracer.install()
    try:
        panel_start = time.perf_counter()
        for seed in seeds:
            result.attempted += 1
            if small:
                configs = small_configs(seed)
            else:
                configs = (PlatformConfig(seed=seed), DetectorConfig())
            first_span = len(ctx.tracer.spans) if ctx.trace else 0
            begin = time.perf_counter()
            try:
                table = run_seed(*configs)
            except Exception as error:  # a failed seed is counted, the panel goes on
                result.fail(f"seed {seed}: {type(error).__name__}: {error}")
                continue
            rows.append({
                "seed": seed,
                "wall_s": time.perf_counter() - begin,
                "fp": [table.metrics[b].fp_count for b in BOUNDARIES],
                "fn": [table.metrics[b].fn_count for b in BOUNDARIES],
                "n_trojan_free": table.metrics["B1"].n_trojan_free,
                "shape": table.matches_paper_shape(),
            })
            if ctx.trace:
                rows[-1]["kmm_converged"] = all(
                    s["attrs"]["converged"] for s in ctx.tracer.spans[first_span:]
                    if s["name"] == "kmm.fit")
        panel_end = time.perf_counter()
    finally:
        if ctx.trace:
            ctx.tracer.uninstall()

    panel_s = panel_end - panel_start
    fn_b5 = [row["fn"][-1] for row in rows]
    result.e2e = {
        "setup_s": setup_s,
        "latency_ms": 1e3 * panel_s / len(seeds),
        "throughput_per_s": len(seeds) / panel_s,
    }
    result.named = {
        "setup_s": (setup_s, "s"),
        "panel_s": (panel_s, "s"),
        "shape_pass": (sum(row["shape"] for row in rows), "seeds"),
        "fn_b5_median": (statistics.median(fn_b5) if fn_b5 else None, "devices"),
        "fp_total": (sum(sum(row["fp"]) for row in rows), "devices"),
    }
    result.details = {"seeds": [seeds[0], seeds[-1]], "rows": rows,
                      "import_s": import_s, "warmups_s": warmups}
    if ctx.trace:
        from spans import coverage, layer_metrics

        result.layer = layer_metrics(ctx.tracer)
        result.layer.update(import_probe(ctx))
        result.layer["trace.coverage"] = coverage(
            ctx.tracer.spans, [(panel_start, panel_end)],
            ("platformcfg.generate", "mars.fit", "kde.tail", "kmm.fit", "ocsvm.fit",
             "pipeline.evaluate"))
        result.details["kmm_unconverged_seeds"] = [
            row["seed"] for row in rows if not row["kmm_converged"]]
    return result
