"""Assembly of the full experimentation platform (paper Section 3.1).

One call to :func:`generate_experiment_data` produces everything the
detector consumes:

* the trusted Spice deck and a noise-free Monte Carlo campaign over it
  (``n`` golden devices, their PCMs and fingerprints);
* a foundry whose operating point has drifted from the deck, fabricating
  40 chips in one lot;
* three design versions per chip — Trojan-free, Trojan I (amplitude leak),
  Trojan II (frequency leak) — measured on a noisy silicon bench with the
  same frozen stimuli as the simulation: 120 DUTTs, 40 TF + 80 TI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import cache as artifact_cache
from repro.circuits.montecarlo import MonteCarloEngine
from repro.circuits.spicemodel import SpiceDeck, default_spice_deck
from repro.core.config import check_pinned_execution
from repro.obs.trace import span
from repro.process.parameters import OperatingPointShift
from repro.silicon.foundry import Foundry
from repro.silicon.pcm import PCMSuite
from repro.testbed.campaign import FingerprintCampaign
from repro.trojans.amplitude import AmplitudeModulationTrojan
from repro.trojans.frequency import FrequencyModulationTrojan
from repro.utils.rng import spawn_children


@dataclass
class PlatformConfig:
    """Knobs of the synthetic silicon experiment.

    Parameters
    ----------
    nm:
        Number of side-channel fingerprints (transmitted ciphertext blocks).
    n_chips:
        Fabricated chips; each hosts three design versions (TF, T-I, T-II),
        so the DUTT population is ``3 * n_chips`` devices.
    n_monte_carlo:
        Simulated golden devices.
    drift_scale:
        Magnitude of the foundry operating-point drift relative to
        :meth:`OperatingPointShift.typical_drift` (0 = silicon matches the
        deck exactly).
    rf_model_error_scale:
        Magnitude of the systematic RF extraction error of the design kit
        (the Spice model tracks digital structures but misestimates the
        large analog layouts; see
        :class:`~repro.silicon.foundry.FabricatedDie`).  1.0 means the
        silicon PA drives ~5 % more current than any simulation predicts
        and the pulse shaper runs ~4 % heavy on parasitics.
    trojan1_depth / trojan2_depth:
        Modulation depths of the amplitude / frequency Trojans.
    sim_noise:
        Relative jitter of simulated measurements: post-layout Monte Carlo
        outputs carry extraction and numerical-convergence noise comparable
        to bench instrument noise.  Modelled as multiplicative gain noise on
        the simulated fingerprint and PCM readings.
    pcm_noise:
        Relative gain error of the silicon PCM (e-test) measurement.
        Production kerf measurements are single-shot with limited timing
        resolution — considerably noisier than the averaged RF power
        measurements of the fingerprint bench.
    extended_pcms:
        Shorthand for ``pcm_suite_name="extended"`` (kept for convenience).
    pcm_suite_name:
        PCM suite: ``"paper"`` (one path delay), ``"extended"`` (+ ring
        oscillator) or ``"full"`` (+ digital fmax) — ablation A3.
    n_lots:
        Fabrication lots the chips are spread over (paper: 1).
    seed:
        Master seed of the whole experiment.
    n_jobs / engine:
        Accept only ``1`` and ``"batched"``, as on
        :class:`~repro.core.config.DetectorConfig`: the fields remain because
        the repository benchmark still passes them.
    """

    nm: int = 6
    n_chips: int = 40
    n_monte_carlo: int = 100
    drift_scale: float = 0.45
    rf_model_error_scale: float = 0.35
    trojan1_depth: float = 0.17
    trojan2_depth: float = 0.17
    sim_noise: float = 0.0015
    pcm_noise: float = 0.05
    extended_pcms: bool = False
    pcm_suite_name: str = "paper"
    n_lots: int = 1
    seed: int = 16
    n_jobs: int = 1
    engine: str = "batched"

    def __post_init__(self):
        if self.nm < 1:
            raise ValueError(f"nm must be positive, got {self.nm}")
        if self.n_chips < 2:
            raise ValueError(f"n_chips must be >= 2, got {self.n_chips}")
        if self.n_monte_carlo < 10:
            raise ValueError(f"n_monte_carlo must be >= 10, got {self.n_monte_carlo}")
        if self.drift_scale < 0:
            raise ValueError(f"drift_scale must be non-negative, got {self.drift_scale}")
        if self.pcm_suite_name not in ("paper", "extended", "full"):
            raise ValueError(
                f"pcm_suite_name must be 'paper', 'extended' or 'full', "
                f"got {self.pcm_suite_name!r}"
            )
        check_pinned_execution(self.n_jobs, self.engine)


@dataclass
class ExperimentData:
    """All measurements of one experiment run.

    DUTT arrays are ordered: ``n_chips`` Trojan-free devices, then
    ``n_chips`` Trojan-I devices, then ``n_chips`` Trojan-II devices.
    """

    sim_pcms: np.ndarray
    sim_fingerprints: np.ndarray
    dutt_pcms: np.ndarray
    dutt_fingerprints: np.ndarray
    infested: np.ndarray
    trojan_names: List[str] = field(default_factory=list)
    campaign: Optional[FingerprintCampaign] = None

    @property
    def n_devices(self) -> int:
        """Total number of devices under Trojan test."""
        return int(self.dutt_fingerprints.shape[0])

    def trojan_free_fingerprints(self) -> np.ndarray:
        """Fingerprints of the Trojan-free DUTTs."""
        return self.dutt_fingerprints[~self.infested]

    def infested_fingerprints(self, trojan_name: Optional[str] = None) -> np.ndarray:
        """Fingerprints of infested DUTTs, optionally one Trojan type."""
        mask = self.infested.copy()
        if trojan_name is not None:
            names = np.asarray(self.trojan_names)
            mask &= names == trojan_name
        return self.dutt_fingerprints[mask]


def build_deck(config: PlatformConfig) -> SpiceDeck:
    """The trusted simulation deck used by the experiment."""
    _ = config
    return default_spice_deck()


def rf_model_error(scale: float) -> dict:
    """Structure-specific silicon-vs-model discrepancy of the RF chain."""
    return {
        "uwb_pa": {"mobility_n": +0.05 * scale},
        "uwb_shaper": {"cpar": +0.04 * scale},
    }


def build_foundry(config: PlatformConfig, deck: SpiceDeck, seed) -> Foundry:
    """The drifted foundry that fabricates the DUTT population."""
    return Foundry(
        deck_nominal=deck.nominal,
        variation=deck.variation,
        shift=OperatingPointShift.typical_drift(scale=config.drift_scale),
        analog_model_error=rf_model_error(config.rf_model_error_scale),
        seed=seed,
    )


def generate_experiment_data(config: Optional[PlatformConfig] = None) -> ExperimentData:
    """Run the full synthetic experiment and return all measurements.

    Both expensive halves — the Monte Carlo sweep and the silicon DUTT
    measurement — go through the artifact cache (see :mod:`repro.cache`;
    off by default).  Every random stream below is an independent child of
    the master seed, so serving one half from cache leaves the other half's
    stream — and therefore its output — bit-identical to a cold run.
    """
    config = config or PlatformConfig()

    def stage(name, parts, compute):
        # An unseeded run is not reproducible, hence not addressable: bypass.
        if config.seed is None:
            return compute()
        return artifact_cache.stage_cached(name, parts, compute)

    with span("platform.generate_data", n_chips=config.n_chips,
              n_monte_carlo=config.n_monte_carlo, seed=config.seed):
        rng_campaign, rng_mc, rng_foundry, rng_bench = spawn_children(config.seed, 4)

        suite_name = config.pcm_suite_name
        if config.extended_pcms and suite_name == "paper":
            suite_name = "extended"
        pcm_suite = {
            "paper": PCMSuite.paper_default,
            "extended": PCMSuite.extended,
            "full": PCMSuite.full,
        }[suite_name]()
        deck = build_deck(config)

        # The campaign is cheap and its stimuli feed both halves, so it is
        # always built live (keeping rng_campaign consumption identical on
        # warm and cold paths).
        sim_campaign = FingerprintCampaign.random_stimuli(
            nm=config.nm, seed=rng_campaign, noisy_bench=False, pcm_suite=pcm_suite
        )

        # ---- pre-manufacturing: Monte Carlo over the deck.  The simulator
        # has no bench instruments, but post-layout MC output carries
        # numerical / extraction jitter; modelled as small multiplicative
        # noise. ----
        def run_monte_carlo() -> dict:
            engine = MonteCarloEngine(
                deck, sim_campaign, numerical_noise=config.sim_noise
            )
            mc = engine.run(config.n_monte_carlo, seed=rng_mc)
            return {"pcms": mc.pcms, "fingerprints": mc.fingerprints}

        mc_data = stage(
            "mc",
            {
                "nm": config.nm,
                "n_monte_carlo": config.n_monte_carlo,
                "sim_noise": config.sim_noise,
                "pcm_suite": suite_name,
                "seed": config.seed,
            },
            run_monte_carlo,
        )

        # ---- silicon: fabrication at the drifted operating point, then the
        # bench sweep with the same frozen stimuli and noisy instruments ----
        bench = sim_campaign.silicon_bench(seed=rng_bench, pcm_noise=config.pcm_noise)

        def run_silicon() -> dict:
            foundry = build_foundry(config, deck, seed=rng_foundry)
            dies = foundry.fabricate(config.n_chips, n_lots=config.n_lots)
            trojans = [
                (None, "TF"),
                (AmplitudeModulationTrojan(depth=config.trojan1_depth), "T1"),
                (FrequencyModulationTrojan(depth=config.trojan2_depth), "T2"),
            ]
            devices = []
            for trojan, version in trojans:
                devices.extend(
                    bench.measure_population(dies, trojan=trojan, version=version)
                )
            return {
                "pcms": np.vstack([d.pcms for d in devices]),
                "fingerprints": np.vstack([d.fingerprint for d in devices]),
                "infested": np.array([d.infested for d in devices], dtype=bool),
                "trojan_names": [d.trojan_name for d in devices],
            }

        dutt = stage(
            "dutt",
            {
                "nm": config.nm,
                "n_chips": config.n_chips,
                "drift_scale": config.drift_scale,
                "rf_model_error_scale": config.rf_model_error_scale,
                "trojan1_depth": config.trojan1_depth,
                "trojan2_depth": config.trojan2_depth,
                "pcm_noise": config.pcm_noise,
                "pcm_suite": suite_name,
                "n_lots": config.n_lots,
                "seed": config.seed,
            },
            run_silicon,
        )

    return ExperimentData(
        sim_pcms=mc_data["pcms"],
        sim_fingerprints=mc_data["fingerprints"],
        dutt_pcms=dutt["pcms"],
        dutt_fingerprints=dutt["fingerprints"],
        infested=dutt["infested"],
        trojan_names=list(dutt["trojan_names"]),
        campaign=bench,
    )
