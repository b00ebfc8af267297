"""Reproduction of Table 1: FP/FN of boundaries B1..B5 over 120 DUTTs.

Run it through the CLI: ``python -m repro.cli table1`` (add
``--kde-samples 100000`` for the paper's M').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import DetectorConfig
from repro.core.metrics import DetectionMetrics
from repro.core.pipeline import GoldenChipFreeDetector
from repro.core.report import format_table1
from repro.experiments.platformcfg import (
    ExperimentData,
    PlatformConfig,
    generate_experiment_data,
)


@dataclass
class Table1Result:
    """Everything produced by one Table 1 run."""

    metrics: Dict[str, DetectionMetrics]
    detector: GoldenChipFreeDetector
    data: ExperimentData

    def format(self) -> str:
        """Render the metrics like the paper's Table 1."""
        return format_table1(self.metrics, title="Trojan detection metrics per data set")

    def matches_paper_shape(self) -> bool:
        """Check the qualitative result shape the paper reports.

        * no Trojan escapes any boundary (FP = 0 everywhere);
        * simulation-only boundaries reject (nearly) every Trojan-free
          device: FN(B1) >= 90 %, FN(B2) >= 75 % of the TF population;
        * the un-enhanced silicon-anchored boundaries do not beat the final
          one: FN(B3) >= FN(B4) >= FN(B5), with a strict gap B3 -> B5;
        * the final boundary is near-golden: FN(B5) <= 20 % of the
          Trojan-free population.

        See EXPERIMENTS.md for the deviations from the paper's absolute
        numbers (most notably the depth of the B3/B4 rungs).
        """
        m = self.metrics
        n_free = m["B1"].n_trojan_free
        return (
            all(metric.fp_count == 0 for metric in m.values())
            and m["B1"].fn_count >= 0.9 * n_free
            and m["B2"].fn_count >= 0.75 * n_free
            and m["B3"].fn_count >= m["B4"].fn_count >= m["B5"].fn_count
            and m["B3"].fn_count > m["B5"].fn_count
            and m["B5"].fn_count <= 0.2 * n_free
        )


def run_table1(
    platform: Optional[PlatformConfig] = None,
    detector_config: Optional[DetectorConfig] = None,
    data: Optional[ExperimentData] = None,
) -> Table1Result:
    """Run the full Table 1 experiment.

    Parameters
    ----------
    platform:
        Synthetic platform configuration (ignored when ``data`` is given).
    detector_config:
        Detector tunables.
    data:
        Pre-generated experiment data, to share one silicon population
        across several detector configurations (ablations).
    """
    if data is None:
        data = generate_experiment_data(platform or PlatformConfig())
    detector = GoldenChipFreeDetector(detector_config or DetectorConfig())
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)
    metrics = detector.evaluate(data.dutt_fingerprints, data.infested)
    return Table1Result(metrics=metrics, detector=detector, data=data)
