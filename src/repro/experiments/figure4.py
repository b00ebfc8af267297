"""Reproduction of Figure 4: PCA views of the fabricated and S1..S5 sets.

The paper projects each six-dimensional population on the top three
principal components of the fabricated devices and inspects the overlap
between the synthetic golden sets (purple dots) and the measured Trojan-free
(blue squares) / Trojan-infested (green x / black triangle) populations.

Without a display we report the quantitative geometry behind each panel:
explained variance of the top components, centroid distances, and the
fraction of the measured Trojan-free cloud covered by each synthetic set
(nearest-neighbour coverage in whitened space).  These numbers tell the
same story the figure does: S1/S2 sit far from silicon, S3 partially
overlaps, S4 improves, S5 nearly coincides with the Trojan-free cloud while
staying clear of the Trojans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.pipeline import GoldenChipFreeDetector
from repro.experiments.platformcfg import (
    ExperimentData,
    PlatformConfig,
    generate_experiment_data,
)
from repro.stats.pca import PrincipalComponentAnalysis
from repro.stats.preprocessing import Whitener


@dataclass
class PanelGeometry:
    """Quantitative description of one Figure 4 panel (one dataset)."""

    name: str
    n_points: int
    centroid_distance_tf: float      # dataset centroid -> TF silicon centroid
    centroid_distance_ti: float      # dataset centroid -> TI silicon centroid
    tf_coverage: float               # fraction of TF devices inside dataset reach
    ti_coverage: float               # fraction of TI devices inside dataset reach
    projection: np.ndarray           # (n, 3) top-3 PC scores

    def row(self) -> str:
        """One formatted summary line."""
        return (
            f"{self.name:<3s} n={self.n_points:<7d} "
            f"d(TF)={self.centroid_distance_tf:7.3f}  "
            f"d(TI)={self.centroid_distance_ti:7.3f}  "
            f"cover(TF)={self.tf_coverage:5.1%}  cover(TI)={self.ti_coverage:5.1%}"
        )


@dataclass
class Figure4Result:
    """All panels of the reproduced figure plus the reference projection."""

    panels: Dict[str, PanelGeometry]
    explained_variance_ratio: np.ndarray
    tf_projection: np.ndarray
    t1_projection: np.ndarray
    t2_projection: np.ndarray

    def format(self) -> str:
        """Human-readable summary of every panel."""
        lines = [
            "Figure 4 geometry (distances/coverage in whitened units of the "
            "TF silicon cloud)",
            f"top-3 PC explained variance: "
            f"{np.round(self.explained_variance_ratio, 4).tolist()}",
        ]
        for name in ("S1", "S2", "S3", "S4", "S5"):
            if name in self.panels:
                lines.append(self.panels[name].row())
        return "\n".join(lines)


def _coverage(population: np.ndarray, points: np.ndarray, radius: float) -> float:
    """Fraction of ``points`` within ``radius`` of any population sample."""
    if population.shape[0] == 0 or points.shape[0] == 0:
        return 0.0
    # Memory guard: coverage needs only the nearest neighbour, chunk the
    # population axis for the 10^5-sample KDE sets.
    best = np.full(points.shape[0], np.inf)
    chunk = 4000
    for start in range(0, population.shape[0], chunk):
        block = population[start:start + chunk]
        d2 = (
            np.sum(points**2, axis=1)[:, None]
            + np.sum(block**2, axis=1)[None, :]
            - 2.0 * points @ block.T
        )
        best = np.minimum(best, d2.min(axis=1))
    return float(np.mean(np.sqrt(np.maximum(best, 0.0)) <= radius))


def run_figure4(
    platform: Optional[PlatformConfig] = None,
    detector_config: Optional[DetectorConfig] = None,
    data: Optional[ExperimentData] = None,
    coverage_radius: float = 1.0,
) -> Figure4Result:
    """Build the datasets and compute each panel's geometry."""
    if data is None:
        data = generate_experiment_data(platform or PlatformConfig())
    detector = GoldenChipFreeDetector(detector_config or DetectorConfig())
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)

    names = np.asarray(data.trojan_names)
    tf = data.dutt_fingerprints[~data.infested]
    t1 = data.dutt_fingerprints[names == "trojan-I-amplitude"]
    t2 = data.dutt_fingerprints[names == "trojan-II-frequency"]
    ti = data.dutt_fingerprints[data.infested]

    # Reference frames: PCA of all fabricated devices for the projections
    # (as in the paper's panel (a)); whitened TF cloud for geometry numbers.
    pca = PrincipalComponentAnalysis(n_components=3).fit(data.dutt_fingerprints)
    whitener = Whitener(floor_ratio=detector.config.floor_ratio).fit(tf)

    tf_w = whitener.transform(tf)
    ti_w = whitener.transform(ti)
    tf_centroid = tf_w.mean(axis=0)
    ti_centroid = ti_w.mean(axis=0)

    panels = {}
    for name in detector.datasets.names():
        dataset = detector.datasets[name]
        ds_w = whitener.transform(dataset)
        centroid = ds_w.mean(axis=0)
        panels[name] = PanelGeometry(
            name=name,
            n_points=dataset.shape[0],
            centroid_distance_tf=float(np.linalg.norm(centroid - tf_centroid)),
            centroid_distance_ti=float(np.linalg.norm(centroid - ti_centroid)),
            tf_coverage=_coverage(ds_w, tf_w, coverage_radius),
            ti_coverage=_coverage(ds_w, ti_w, coverage_radius),
            projection=pca.transform(dataset),
        )

    return Figure4Result(
        panels=panels,
        explained_variance_ratio=pca.explained_variance_ratio_,
        tf_projection=pca.transform(tf),
        t1_projection=pca.transform(t1),
        t2_projection=pca.transform(t2),
    )
