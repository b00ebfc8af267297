"""Synthetic experimentation platform assembly."""

import numpy as np
import pytest

from repro.experiments.platformcfg import (
    PlatformConfig,
    build_foundry,
    build_deck,
    generate_experiment_data,
    rf_model_error,
)
from tests.conftest import small_platform


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nm=0),
            dict(n_chips=1),
            dict(n_monte_carlo=5),
            dict(drift_scale=-1.0),
            dict(n_jobs=2),
            dict(n_jobs=-1),
            dict(engine="loop"),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PlatformConfig(**kwargs)

    def test_rf_model_error_scales(self):
        zero = rf_model_error(0.0)
        one = rf_model_error(1.0)
        assert zero["uwb_pa"]["mobility_n"] == 0.0
        assert one["uwb_pa"]["mobility_n"] > 0.0


class TestGeneratedData:
    def test_shapes(self, experiment_data):
        n_chips = 12
        assert experiment_data.sim_pcms.shape == (40, 1)
        assert experiment_data.sim_fingerprints.shape == (40, 6)
        assert experiment_data.dutt_pcms.shape == (3 * n_chips, 1)
        assert experiment_data.dutt_fingerprints.shape == (3 * n_chips, 6)
        assert experiment_data.n_devices == 3 * n_chips

    def test_device_ordering_and_labels(self, experiment_data):
        n = 12
        assert not experiment_data.infested[:n].any()
        assert experiment_data.infested[n:].all()
        names = experiment_data.trojan_names
        assert set(names[:n]) == {"none"}
        assert set(names[n:2 * n]) == {"trojan-I-amplitude"}
        assert set(names[2 * n:]) == {"trojan-II-frequency"}

    def test_accessors(self, experiment_data):
        assert experiment_data.trojan_free_fingerprints().shape[0] == 12
        assert experiment_data.infested_fingerprints().shape[0] == 24
        assert experiment_data.infested_fingerprints("trojan-I-amplitude").shape[0] == 12

    def test_determinism(self):
        a = generate_experiment_data(small_platform(seed=3))
        b = generate_experiment_data(small_platform(seed=3))
        np.testing.assert_array_equal(a.dutt_fingerprints, b.dutt_fingerprints)

    def test_versions_share_pcm_structures_per_die(self, experiment_data):
        """PCMs belong to the die, so the three versions measure the same
        structure — readings differ only by instrument noise."""
        n = 12
        tf_pcms = experiment_data.dutt_pcms[:n, 0]
        t1_pcms = experiment_data.dutt_pcms[n:2 * n, 0]
        rel = np.abs(t1_pcms / tf_pcms - 1.0)
        assert rel.max() < 0.25  # same structure, bench noise only

    def test_trojans_shift_fingerprints(self, experiment_data):
        n = 12
        tf = experiment_data.dutt_fingerprints[:n]
        t1 = experiment_data.dutt_fingerprints[n:2 * n]
        t2 = experiment_data.dutt_fingerprints[2 * n:]
        # Amplitude trojan raises power; frequency trojan lowers captured power.
        assert t1.mean() > tf.mean()
        assert t2.mean() < tf.mean()

    def test_drift_moves_silicon_away_from_simulation(self):
        still = generate_experiment_data(small_platform(drift_scale=0.0,
                                                        rf_model_error_scale=0.0))
        drifted = generate_experiment_data(small_platform())
        def gap(data):
            return abs(data.dutt_pcms.mean() - data.sim_pcms.mean()) / data.sim_pcms.std()
        assert gap(drifted) > gap(still)

    def test_extended_pcms(self):
        data = generate_experiment_data(small_platform(extended_pcms=True))
        assert data.sim_pcms.shape[1] == 2
        assert data.dutt_pcms.shape[1] == 2

    def test_foundry_uses_drift_and_model_error(self):
        config = small_platform(drift_scale=1.0)
        deck = build_deck(config)
        foundry = build_foundry(config, deck, seed=0)
        assert foundry.operating_point != deck.nominal
        assert "uwb_pa" in foundry.analog_model_error


def test_full_pcm_suite():
    data = generate_experiment_data(small_platform(pcm_suite_name="full"))
    assert data.sim_pcms.shape[1] == 3
    assert data.dutt_pcms.shape[1] == 3

def test_pcm_suite_name_validated():
    import pytest
    with pytest.raises(ValueError, match="pcm_suite_name"):
        small_platform(pcm_suite_name="imaginary")
