"""Determinism: a fixed seed pins every bit, in any process, traced or not.

Every step runs in one process, and every stochastic step draws from its own
child stream of the master seed.  So a fresh interpreter reproduces the
in-process experiment exactly, the detector's boundaries do not depend on
the order they are fitted in, and tracing (which reads clocks only) never
moves a bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.pipeline import GoldenChipFreeDetector
from repro.experiments.platformcfg import generate_experiment_data
from tests.conftest import small_detector_config, small_platform

_FRESH_RUN = """
import sys
import numpy as np
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
data = generate_experiment_data(PlatformConfig(n_chips=8, n_monte_carlo=20, seed=5))
np.savez(sys.argv[1], sim_pcms=data.sim_pcms, sim_fingerprints=data.sim_fingerprints,
         dutt_pcms=data.dutt_pcms, dutt_fingerprints=data.dutt_fingerprints,
         infested=data.infested)
"""


class TestExperimentBitIdentity:
    def test_full_synthetic_experiment(self, tmp_path):
        # A fresh interpreter starts with empty module-level caches
        # (transmitter analog models, memoized volumes), so matching it
        # shows no result depends on what ran earlier in this process.
        local = generate_experiment_data(small_platform(n_chips=8, n_monte_carlo=20))
        out = tmp_path / "fresh.npz"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_CACHE")}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", _FRESH_RUN, str(out)],
                       check=True, env=env, timeout=300)
        with np.load(out) as fresh:
            np.testing.assert_array_equal(fresh["sim_pcms"], local.sim_pcms)
            np.testing.assert_array_equal(
                fresh["sim_fingerprints"], local.sim_fingerprints
            )
            np.testing.assert_array_equal(fresh["dutt_pcms"], local.dutt_pcms)
            np.testing.assert_array_equal(
                fresh["dutt_fingerprints"], local.dutt_fingerprints
            )
            np.testing.assert_array_equal(fresh["infested"], local.infested)


class TestDetectorBitIdentity:
    def test_boundary_fits_match_serial(self, experiment_data):
        detector = GoldenChipFreeDetector(small_detector_config())
        detector.fit_premanufacturing(
            experiment_data.sim_pcms, experiment_data.sim_fingerprints
        )
        detector.fit_silicon(experiment_data.dutt_pcms)
        # Reference: each boundary fitted on its own, in reverse order, from
        # a fresh detector's child streams.
        reference = GoldenChipFreeDetector(small_detector_config())
        mapping = {"B1": "S1", "B2": "S2", "B3": "S3", "B4": "S4", "B5": "S5"}
        assert set(detector.boundaries) == set(mapping)
        for name in reversed(list(mapping)):
            expected = reference._new_region(name).fit(detector.datasets[mapping[name]])
            region = detector.boundaries[name]
            np.testing.assert_array_equal(
                region._learner.support_vectors_, expected._learner.support_vectors_
            )
            np.testing.assert_array_equal(
                region._learner.dual_coefs_, expected._learner.dual_coefs_
            )
            assert region._learner.rho_ == expected._learner.rho_


class TestTracingBitIdentity:
    """Instrumentation reads clocks only: tracing must not move one bit."""

    @pytest.fixture(autouse=True)
    def _clean_session(self):
        yield
        if obs.enabled():
            obs.disable()

    def test_traced_experiment_matches_untraced(self):
        plain = generate_experiment_data(small_platform(n_chips=8, n_monte_carlo=20))
        obs.enable()
        traced = generate_experiment_data(small_platform(n_chips=8, n_monte_carlo=20))
        spans, _ = obs.disable()
        assert spans, "tracing session recorded no spans"
        np.testing.assert_array_equal(traced.sim_pcms, plain.sim_pcms)
        np.testing.assert_array_equal(traced.sim_fingerprints, plain.sim_fingerprints)
        np.testing.assert_array_equal(traced.dutt_pcms, plain.dutt_pcms)
        np.testing.assert_array_equal(
            traced.dutt_fingerprints, plain.dutt_fingerprints
        )

    def test_traced_detector_matches_untraced(self, experiment_data):
        def fit_and_evaluate():
            detector = GoldenChipFreeDetector(small_detector_config())
            detector.fit_premanufacturing(
                experiment_data.sim_pcms, experiment_data.sim_fingerprints
            )
            detector.fit_silicon(experiment_data.dutt_pcms)
            return detector.evaluate(
                experiment_data.dutt_fingerprints, experiment_data.infested
            )

        plain = fit_and_evaluate()
        obs.enable()
        traced = fit_and_evaluate()
        obs.disable()
        for name, metric in plain.items():
            assert traced[name].fn_count == metric.fn_count
            assert traced[name].fp_count == metric.fp_count
