"""Population engine: bit-identity against the scalar per-die oracle.

The contract of the population engine is *exactness*: for every campaign
configuration it supports, measuring a population as array programs must
reproduce the scalar per-die path bit for bit — same AES ciphertexts, same
mismatch draws, same analog model floats, same instrument-noise streams.
The scalar reference lives here, built from the kept per-die functions
(``MonteCarloEngine.sample_die``, ``FingerprintCampaign.measure_device``).
These tests pin the contract across all three design versions (TF + both
Trojans), noise-free and noisy benches, the Monte Carlo engine, and the
full synthetic experiment, plus a property test of the vectorized AES
against the scalar FIPS-197 reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.montecarlo import MonteCarloEngine, sample_device_population
from repro.circuits.spicemodel import default_spice_deck
from repro.crypto.aes import AES128, aes128_encrypt_blocks
from repro.experiments.platformcfg import (
    build_deck,
    build_foundry,
    generate_experiment_data,
    rf_model_error,
)
from repro.process.parameters import (
    PARAMETER_NAMES,
    OperatingPointShift,
    parameters_at,
)
from repro.process.population import DiePopulation
from repro.rf.channel import AwgnChannel
from repro.silicon.foundry import Foundry
from repro.silicon.instruments import DelayAnalyzer, PowerMeter
from repro.testbed.campaign import FingerprintCampaign
from repro.trojans.amplitude import AmplitudeModulationTrojan
from repro.trojans.frequency import FrequencyModulationTrojan
from repro.utils.rng import spawn_children, spawn_seed_sequences
from tests.conftest import small_platform

VERSION_SWEEP = [
    (None, "TF"),
    (AmplitudeModulationTrojan(depth=0.02), "T1"),
    (FrequencyModulationTrojan(depth=0.03), "T2"),
]


def _paper_foundry(seed=0):
    deck = default_spice_deck()
    return Foundry(
        deck_nominal=deck.nominal,
        variation=deck.variation,
        shift=OperatingPointShift.typical_drift(),
        analog_model_error=rf_model_error(0.35),
        seed=seed,
    )


def _device_bench(campaign, seed):
    """The bench one device is measured on: instruments seeded from ``seed``."""
    power_seq, delay_seq = seed.spawn(2)
    return FingerprintCampaign(
        key=campaign.key,
        plaintexts=list(campaign.plaintexts),
        pcm_suite=campaign.pcm_suite,
        receiver=campaign.receiver,
        channel=campaign.channel,
        power_meter=(
            PowerMeter(seed=power_seq, gain_sigma=campaign.power_meter.gain_sigma)
            if campaign.power_meter is not None
            else None
        ),
        delay_analyzer=(
            DelayAnalyzer(seed=delay_seq, gain_sigma=campaign.delay_analyzer.gain_sigma)
            if campaign.delay_analyzer is not None
            else None
        ),
    )


def _reference_population(campaign, dies, trojan=None, version="TF"):
    """Scalar reference of ``measure_population``: one die at a time.

    A seeded bench spawns one child per die from ``instrument_root`` (the
    same stateful spawn the population path makes) and measures each die on
    instruments freshly seeded from its child.
    """
    if campaign.instrument_root is None:
        return [campaign.measure_device(die, trojan=trojan, version=version)
                for die in dies]
    seeds = campaign.instrument_root.spawn(len(dies))
    return [
        _device_bench(campaign, seed).measure_device(die, trojan=trojan, version=version)
        for die, seed in zip(dies, seeds)
    ]


def _reference_monte_carlo(engine, n, seed):
    """Scalar reference of ``MonteCarloEngine.run``: ``(pcms, fingerprints)``."""
    device_root, noise_root = spawn_seed_sequences(seed, 2)
    devices = [
        engine.campaign.measure_device(
            engine.sample_die(index, np.random.default_rng(device_seed))
        )
        for index, device_seed in enumerate(device_root.spawn(n))
    ]
    pcms = np.stack([device.pcms for device in devices])
    fingerprints = np.stack([device.fingerprint for device in devices])
    if engine.numerical_noise > 0:
        noise_rng = np.random.default_rng(noise_root)
        pcms = pcms * (
            1.0 + engine.numerical_noise * noise_rng.standard_normal(pcms.shape)
        )
        fingerprints = fingerprints * (
            1.0 + engine.numerical_noise * noise_rng.standard_normal(fingerprints.shape)
        )
    return pcms, fingerprints


def _assert_device_lists_equal(batched, loop):
    assert len(batched) == len(loop)
    for b, l in zip(batched, loop):
        assert b.label == l.label
        assert b.infested == l.infested
        assert b.trojan_name == l.trojan_name
        np.testing.assert_array_equal(b.pcms, l.pcms)
        np.testing.assert_array_equal(b.fingerprint, l.fingerprint)


@pytest.fixture(scope="module")
def fabricated_dies():
    return _paper_foundry(seed=3).fabricate(10)


class TestCampaignEngineBitIdentity:
    """measure_population == the per-die reference, per version, per bench."""

    @pytest.mark.parametrize("trojan,version", VERSION_SWEEP,
                             ids=[v for _, v in VERSION_SWEEP])
    def test_noise_free_bench(self, fabricated_dies, trojan, version):
        campaign = FingerprintCampaign.random_stimuli(
            nm=6, seed=11, noisy_bench=False
        )
        loop = _reference_population(campaign, fabricated_dies, trojan, version)
        batched = campaign.measure_population(
            fabricated_dies, trojan=trojan, version=version
        )
        _assert_device_lists_equal(batched, loop)

    def test_noisy_bench_full_sweep(self, fabricated_dies):
        # instrument_root.spawn is stateful (each population consumes fresh
        # per-device seeds in call order), so compare two identically seeded
        # benches each running the whole TF+T1+T2 sweep on one path.
        base = FingerprintCampaign.random_stimuli(nm=6, seed=11, noisy_bench=False)
        loop_bench = base.silicon_bench(seed=99)
        batched_bench = base.silicon_bench(seed=99)
        loop, batched = [], []
        for trojan, version in VERSION_SWEEP:
            loop.extend(_reference_population(loop_bench, fabricated_dies, trojan, version))
            batched.extend(
                batched_bench.measure_population(
                    fabricated_dies, trojan=trojan, version=version
                )
            )
        _assert_device_lists_equal(batched, loop)

    def test_noisy_bench_single_population(self, fabricated_dies):
        loop = _reference_population(
            FingerprintCampaign.random_stimuli(
                nm=4, seed=2, noisy_bench=False
            ).silicon_bench(seed=7),
            fabricated_dies,
        )
        batched = FingerprintCampaign.random_stimuli(
            nm=4, seed=2, noisy_bench=False
        ).silicon_bench(seed=7).measure_population(fabricated_dies)
        _assert_device_lists_equal(batched, loop)

    def test_fixed_gain_channel_is_batchable(self, fabricated_dies):
        campaign = FingerprintCampaign.random_stimuli(
            nm=4, seed=5, noisy_bench=False
        )
        campaign.channel = AwgnChannel(path_gain=0.8, fading_sigma=0.0)
        loop = _reference_population(campaign, fabricated_dies)
        batched = campaign.measure_population(fabricated_dies)
        _assert_device_lists_equal(batched, loop)

    def test_fading_channel_rejected(self, fabricated_dies):
        # The per-pulse fading stream is stateful; only measure_device can
        # consume it, one die at a time.
        campaign = FingerprintCampaign.random_stimuli(
            nm=4, seed=5, noisy_bench=False
        )
        campaign.channel = AwgnChannel(path_gain=0.8, fading_sigma=0.1, seed=123)
        with pytest.raises(ValueError, match="fading"):
            campaign.measure_population(fabricated_dies)

    def test_shared_stream_bench_rejected(self, fabricated_dies):
        # A noisy bench without instrument_root is measurement-order
        # dependent, so it cannot be measured as a population.
        campaign = FingerprintCampaign.random_stimuli(nm=4, seed=8, noisy_bench=True)
        with pytest.raises(ValueError, match="instrument_root"):
            campaign.measure_population(fabricated_dies)


class TestMonteCarloEngineBitIdentity:
    def _engine(self, nm=6, seed=0, noise=0.0015, channel=None):
        campaign = FingerprintCampaign.random_stimuli(
            nm=nm, seed=seed, noisy_bench=False
        )
        campaign.channel = channel
        return MonteCarloEngine(default_spice_deck(), campaign,
                                numerical_noise=noise)

    def test_batched_matches_loop(self):
        engine = self._engine()
        pcms, fingerprints = _reference_monte_carlo(engine, 24, seed=42)
        batched = engine.run(24, seed=42)
        np.testing.assert_array_equal(batched.pcms, pcms)
        np.testing.assert_array_equal(batched.fingerprints, fingerprints)

    def test_batched_matches_loop_noise_free(self):
        engine = self._engine(noise=0.0)
        pcms, fingerprints = _reference_monte_carlo(engine, 16, seed=9)
        batched = engine.run(16, seed=9)
        np.testing.assert_array_equal(batched.pcms, pcms)
        np.testing.assert_array_equal(batched.fingerprints, fingerprints)

    def test_fading_channel_rejected(self):
        engine = self._engine(channel=AwgnChannel(fading_sigma=0.05, seed=6))
        with pytest.raises(ValueError, match="fading"):
            engine.run(8, seed=4)

    def test_population_matches_scalar_dies(self):
        # sample_device_population consumes each per-device stream in the
        # scalar order, so the stacked die parameters and mismatch seeds are
        # bitwise the scalar dies'.
        engine = self._engine()
        seeds = np.random.SeedSequence(77).spawn(6)
        population = sample_device_population(engine.deck, seeds)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            die = engine.deck.sample_die(rng)
            assert population.label(i) == f"MC{i}"
            scalar = parameters_at(population.die_params, i)
            for name in PARAMETER_NAMES:
                assert getattr(scalar, name) == getattr(die, name)
            assert int(population.mismatch_seeds[i]) == int(
                rng.integers(0, 2**63 - 1)
            )


class TestExperimentEngineBitIdentity:
    def test_full_synthetic_experiment(self):
        # Rebuild generate_experiment_data's streams and measure every
        # device through the scalar reference.
        config = small_platform(n_chips=8, n_monte_carlo=20)
        data = generate_experiment_data(config)
        rng_campaign, rng_mc, rng_foundry, rng_bench = spawn_children(config.seed, 4)
        campaign = FingerprintCampaign.random_stimuli(
            nm=config.nm, seed=rng_campaign, noisy_bench=False
        )
        deck = build_deck(config)
        sim_pcms, sim_fingerprints = _reference_monte_carlo(
            MonteCarloEngine(deck, campaign, numerical_noise=config.sim_noise),
            config.n_monte_carlo, rng_mc,
        )
        bench = campaign.silicon_bench(seed=rng_bench, pcm_noise=config.pcm_noise)
        dies = build_foundry(config, deck, seed=rng_foundry).fabricate(
            config.n_chips, n_lots=config.n_lots
        )
        devices = []
        for trojan, version in (
            (None, "TF"),
            (AmplitudeModulationTrojan(depth=config.trojan1_depth), "T1"),
            (FrequencyModulationTrojan(depth=config.trojan2_depth), "T2"),
        ):
            devices.extend(_reference_population(bench, dies, trojan, version))

        np.testing.assert_array_equal(data.sim_pcms, sim_pcms)
        np.testing.assert_array_equal(data.sim_fingerprints, sim_fingerprints)
        np.testing.assert_array_equal(
            data.dutt_pcms, np.vstack([d.pcms for d in devices])
        )
        np.testing.assert_array_equal(
            data.dutt_fingerprints, np.vstack([d.fingerprint for d in devices])
        )
        np.testing.assert_array_equal(
            data.infested, np.array([d.infested for d in devices])
        )
        assert data.trojan_names == [d.trojan_name for d in devices]


class TestDiePopulation:
    def test_structure_params_match_scalar_dies(self, fabricated_dies):
        population = DiePopulation.from_dies(fabricated_dies)
        assert len(population) == len(fabricated_dies)
        for structure in ("pcm.path_delay", "TF.uwb_pa", "T1.uwb_shaper"):
            batched = population.structure_params(structure)
            for i, die in enumerate(fabricated_dies):
                scalar = die.structure_params(structure)
                extracted = parameters_at(batched, i)
                for name in PARAMETER_NAMES:
                    assert getattr(extracted, name) == getattr(scalar, name), (
                        structure, i, name
                    )

    def test_labels_follow_dies(self, fabricated_dies):
        population = DiePopulation.from_dies(fabricated_dies)
        for i, die in enumerate(fabricated_dies):
            assert population.label(i) == die.label()

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="zero dies"):
            DiePopulation.from_dies([])


class TestBatchedAes:
    """The vectorized AES must equal the scalar FIPS-197 reference bitwise."""

    def test_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        blocks = np.frombuffer(plaintext, dtype=np.uint8).reshape(1, 16)
        out = aes128_encrypt_blocks(key, blocks)
        assert out.tobytes() == expected

    @settings(max_examples=25, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        blocks=st.lists(st.binary(min_size=16, max_size=16), min_size=1,
                        max_size=8),
    )
    def test_matches_scalar_reference(self, key, blocks):
        array = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 16)
        out = aes128_encrypt_blocks(key, array)
        scalar = AES128(key)
        assert out.shape == array.shape
        assert out.dtype == np.uint8
        for row, block in zip(out, blocks):
            assert row.tobytes() == scalar.encrypt_block(block)

    def test_device_axis_broadcast(self):
        # (n_devices, n_plaintexts, 16): every device sees the same key, so
        # all device rows agree with the 2-D encryption of the same blocks.
        rng = np.random.default_rng(0)
        key = rng.bytes(16)
        blocks = rng.integers(0, 256, size=(6, 16), dtype=np.uint8)
        stacked = np.broadcast_to(blocks, (5, 6, 16)).copy()
        out3 = aes128_encrypt_blocks(key, stacked)
        out2 = aes128_encrypt_blocks(key, blocks)
        for device_row in out3:
            np.testing.assert_array_equal(device_row, out2)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            aes128_encrypt_blocks(b"\x00" * 16,
                                  np.zeros((2, 16), dtype=np.int64))

    def test_rejects_wrong_trailing_axis(self):
        with pytest.raises(ValueError, match="trailing axis"):
            aes128_encrypt_blocks(b"\x00" * 16,
                                  np.zeros((2, 8), dtype=np.uint8))

    def test_input_blocks_untouched(self):
        rng = np.random.default_rng(1)
        key = rng.bytes(16)
        blocks = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
        before = blocks.copy()
        aes128_encrypt_blocks(key, blocks)
        np.testing.assert_array_equal(blocks, before)
