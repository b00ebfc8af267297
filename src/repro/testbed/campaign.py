"""Measurement campaign: fingerprints and PCM vectors for device populations.

The paper's measurement protocol, reproduced exactly:

* side-channel fingerprint = measured output power while transmitting
  ``nm = 6`` randomly chosen (then frozen) 128-bit ciphertext blocks,
  encrypted with a randomly chosen (then frozen) key;
* PCM vector = ``np`` measurements of simple on-die monitor structures
  (default: one digital path delay).

One campaign object owns the frozen key/plaintexts and the bench instruments,
so every device — simulated or fabricated, Trojan-free or infested — is
measured under identical stimuli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.crypto.aes import aes128_encrypt_blocks
from repro.crypto.bits import bytes_to_bits, random_block, random_key
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.process.population import DiePopulation
from repro.rf.channel import AwgnChannel
from repro.rf.receiver import BandPassReceiver
from repro.rf.uwb import population_center_frequency_ghz, population_output_amplitude
from repro.silicon.instruments import DelayAnalyzer, Instrument, PowerMeter
from repro.silicon.pcm import PCMSuite
from repro.testbed.chip import WirelessCryptoChip
from repro.trojans.base import TrojanModel
from repro.utils.rng import SeedLike, as_generator


@dataclass
class MeasuredDevice:
    """One measured device under Trojan test (DUTT)."""

    label: str
    pcms: np.ndarray
    fingerprint: np.ndarray
    infested: bool
    trojan_name: str = "none"


@dataclass
class FingerprintCampaign:
    """Frozen stimuli + bench used to measure every device identically.

    Parameters
    ----------
    key:
        The on-chip AES key (frozen for the whole experiment).
    plaintexts:
        The ``nm`` plaintext blocks whose ciphertext transmissions are
        measured.  Drawn once with :meth:`random_stimuli`.
    pcm_suite:
        The PCM structures measured on each die.
    receiver:
        Band-limited power measurement front-end.
    channel:
        Wireless channel between chip and bench (``None`` = ideal).
    power_meter / delay_analyzer:
        Bench instruments (``None`` = noise-free readings, as in Spice).
    instrument_root:
        Master :class:`~numpy.random.SeedSequence` for *per-device* instrument
        streams.  When set, :meth:`measure_population` spawns one child seed
        per device and measures it with freshly seeded instruments, so the
        noise a device sees does not depend on measurement order.  ``None``
        leaves only the instruments' own shared stream, which
        :meth:`measure_device` consumes in call order; such a noisy bench
        cannot be measured as a population.
    """

    key: bytes
    plaintexts: List[bytes]
    pcm_suite: PCMSuite = field(default_factory=PCMSuite.paper_default)
    receiver: BandPassReceiver = field(default_factory=BandPassReceiver)
    channel: Optional[AwgnChannel] = None
    power_meter: Optional[PowerMeter] = None
    delay_analyzer: Optional[DelayAnalyzer] = None
    instrument_root: Optional[np.random.SeedSequence] = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.key) != 16:
            raise ValueError(f"key must be 16 bytes, got {len(self.key)}")
        if not self.plaintexts:
            raise ValueError("campaign needs at least one plaintext block")
        for block in self.plaintexts:
            if len(block) != 16:
                raise ValueError("every plaintext block must be 16 bytes")

    @classmethod
    def random_stimuli(
        cls,
        nm: int = 6,
        seed: SeedLike = None,
        noisy_bench: bool = True,
        pcm_suite: Optional[PCMSuite] = None,
        receiver: Optional[BandPassReceiver] = None,
    ) -> "FingerprintCampaign":
        """Draw the frozen key and ``nm`` plaintext blocks, build the bench.

        With ``noisy_bench=True`` the campaign models a physical bench
        (instrument noise); with ``False`` it models Spice measurements.
        """
        if nm <= 0:
            raise ValueError(f"nm must be positive, got {nm}")
        rng = as_generator(seed)
        key = random_key(rng)
        plaintexts = [random_block(rng) for _ in range(nm)]
        kwargs = {}
        if noisy_bench:
            kwargs = {
                "power_meter": PowerMeter(seed=rng),
                "delay_analyzer": DelayAnalyzer(seed=rng),
            }
        return cls(
            key=key,
            plaintexts=plaintexts,
            pcm_suite=pcm_suite or PCMSuite.paper_default(),
            receiver=receiver or BandPassReceiver(),
            **kwargs,
        )

    @property
    def nm(self) -> int:
        """Fingerprint dimensionality (number of measured block powers)."""
        return len(self.plaintexts)

    @property
    def np_dim(self) -> int:
        """PCM vector dimensionality."""
        return len(self.pcm_suite)

    def silicon_bench(self, seed: SeedLike = None,
                      pcm_noise: float = 0.015) -> "FingerprintCampaign":
        """A copy of this campaign with noisy bench instruments attached.

        Used to measure fabricated silicon with the same stimuli that the
        (noise-free) simulation campaign used.  ``pcm_noise`` is the relative
        gain error of the PCM delay measurement: e-test readings on the kerf
        are single-shot production measurements and are considerably noisier
        than the averaged RF power measurements of the fingerprint bench.
        """
        rng = as_generator(seed)
        return FingerprintCampaign(
            key=self.key,
            plaintexts=list(self.plaintexts),
            pcm_suite=self.pcm_suite,
            receiver=self.receiver,
            channel=self.channel,
            power_meter=PowerMeter(seed=rng),
            delay_analyzer=DelayAnalyzer(seed=rng, gain_sigma=pcm_noise),
            instrument_root=np.random.SeedSequence(int(rng.integers(0, 2**63 - 1))),
        )

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------

    def fingerprint(self, chip: WirelessCryptoChip) -> np.ndarray:
        """Measure the ``nm``-dimensional power fingerprint of one chip."""
        powers = []
        for plaintext in self.plaintexts:
            train = chip.transmit_plaintext(plaintext)
            if self.channel is not None:
                train = self.channel.propagate(train)
            power = self.receiver.block_power(train)
            if self.power_meter is not None:
                power = self.power_meter.read(power)
            powers.append(power)
        return np.asarray(powers, dtype=float)

    def pcm_vector(self, die) -> np.ndarray:
        """Measure the PCM vector of one die.

        Each monitor is a distinct on-die structure with its own local
        mismatch parameters; monitors are shared by all design versions on
        the die (there is one PCM per die, not per version).
        """
        readings = []
        for monitor in self.pcm_suite.monitors:
            local = die.structure_params(f"pcm.{monitor.name}")
            value = monitor.measure(local)
            if self.delay_analyzer is not None:
                value = self.delay_analyzer.read(value)
            readings.append(value)
        return np.asarray(readings, dtype=float)

    def measure_device(
        self,
        die,
        trojan: Optional[TrojanModel] = None,
        version: str = "TF",
    ) -> MeasuredDevice:
        """Measure one design version on one die: PCMs + fingerprint."""
        chip = WirelessCryptoChip(die=die, key=self.key, trojan=trojan, version=version)
        label = getattr(die, "label", lambda: "die")()
        device = MeasuredDevice(
            label=f"{label}/{version}",
            pcms=self.pcm_vector(die),
            fingerprint=self.fingerprint(chip),
            infested=trojan is not None,
            trojan_name=trojan.name if trojan is not None else "none",
        )
        obs_metrics.counter("campaign.devices_measured").inc()
        return device

    def measure_population(
        self,
        dies,
        trojan: Optional[TrojanModel] = None,
        version: str = "TF",
    ) -> List[MeasuredDevice]:
        """Measure one design version across a die population.

        The whole population is evaluated as array programs — one AES
        encryption per plaintext, vectorized analog models, batched
        instrument noise — and device ``i`` is bit-identical to
        :meth:`measure_device` on die ``i``.

        With ``instrument_root`` set (see :meth:`silicon_bench`), each call
        spawns one child seed per device, in call order, and device ``i`` is
        measured as if by instruments freshly seeded from its child — so
        consecutive TF, T1 and T2 sweeps see fresh, non-overlapping noise.
        Campaigns the array path cannot reproduce raise ``ValueError`` (see
        :meth:`_require_batchable`).
        """
        self._require_batchable()
        dies = list(dies)
        with span("campaign.measure_population", version=version, n=len(dies)):
            if not dies:
                return []
            population = DiePopulation.from_dies(dies)
            seeds = None
            if self.instrument_root is not None:
                seeds = self.instrument_root.spawn(len(dies))
            pcms, fingerprints = self.measure_population_arrays(
                population, trojan=trojan, version=version, instrument_seeds=seeds
            )
            return [
                MeasuredDevice(
                    label=f"{population.label(i)}/{version}",
                    pcms=pcms[i].copy(),
                    fingerprint=fingerprints[i].copy(),
                    infested=trojan is not None,
                    trojan_name=trojan.name if trojan is not None else "none",
                )
                for i in range(len(dies))
            ]

    def _require_batchable(self) -> None:
        """Raise ``ValueError`` for campaigns the array path cannot reproduce.

        A fading channel draws a stateful per-pulse random stream, and noisy
        instruments without ``instrument_root`` share one stream whose draws
        depend on measurement order.  :meth:`measure_device` still measures
        such campaigns one die at a time.
        """
        if self.channel is not None and self.channel.fading_sigma > 0:
            raise ValueError(
                "cannot measure a population through a fading channel: it "
                "consumes a stateful per-pulse random stream"
            )
        if (self.power_meter is not None or self.delay_analyzer is not None) \
                and self.instrument_root is None:
            raise ValueError(
                "cannot measure a population on noisy instruments without "
                "instrument_root: their shared stream is measurement-order "
                "dependent (use silicon_bench)"
            )

    def measure_population_arrays(
        self,
        population: DiePopulation,
        trojan: Optional[TrojanModel] = None,
        version: str = "TF",
        instrument_seeds=None,
    ):
        """Batched measurement core: ``(pcms, fingerprints)`` matrices.

        Returns the ``(n, np)`` PCM matrix and ``(n, nm)`` fingerprint matrix
        of the population; row ``i`` is bitwise identical to
        :meth:`measure_device` on die ``i`` (measured with per-device
        instruments seeded from ``instrument_seeds[i]``, when given).

        Three facts make exactness possible:

        * ciphertexts depend only on (key, plaintext), so each block is
          encrypted once — not once per device — and every die shares the
          same pulse positions;
        * the analog compact models are chains of elementwise ufuncs, which
          numpy evaluates identically for scalars and arrays (the one
          exception, ``x ** alpha``, is routed through ``math.pow`` — see
          :func:`repro.circuits.mosfet.elementwise_pow`);
        * instrument noise consumes per-device generator streams in the
          same (reading-ordered) sequence the scalar bench does.
        """
        with span("campaign.measure_arrays", n=len(population),
                  nm=self.nm, np=self.np_dim, version=version):
            pcms = self.pcm_suite.measure_population(population)
            fingerprints = self._population_fingerprints(population, trojan, version)
        obs_metrics.counter("campaign.devices_measured").inc(len(population))
        if instrument_seeds is not None:
            delay_z = power_z = None
            if self.delay_analyzer is not None:
                delay_z = np.empty((len(population), 2 * self.np_dim))
            if self.power_meter is not None:
                power_z = np.empty((len(population), 2 * self.nm))
            for i, seed in enumerate(instrument_seeds):
                # Mirrors the per-device bench build: spawn (power, delay)
                # streams, then consume readings in measurement order —
                # PCMs on the delay stream, then block powers on the power
                # stream — two normals (gain z, offset z) per reading.
                power_seq, delay_seq = seed.spawn(2)
                if delay_z is not None:
                    delay_z[i] = np.random.default_rng(delay_seq).standard_normal(
                        2 * self.np_dim
                    )
                if power_z is not None:
                    power_z[i] = np.random.default_rng(power_seq).standard_normal(
                        2 * self.nm
                    )
            if delay_z is not None:
                pcms = _apply_instrument_noise(pcms, delay_z, self.delay_analyzer)
            if power_z is not None:
                fingerprints = _apply_instrument_noise(
                    fingerprints, power_z, self.power_meter
                )
        return pcms, fingerprints

    def _population_fingerprints(self, population, trojan, version) -> np.ndarray:
        """Noise-free ``(n, nm)`` block-power fingerprints of a population."""
        key_bits = bytes_to_bits(self.key)
        blocks = np.frombuffer(b"".join(self.plaintexts), dtype=np.uint8)
        cipher_bits = np.unpackbits(
            aes128_encrypt_blocks(self.key, blocks.reshape(self.nm, 16)), axis=1
        )
        amplitude = population_output_amplitude(
            population.structure_params(f"{version}.uwb_pa")
        )
        frequency = population_center_frequency_ghz(
            population.structure_params(f"{version}.uwb_shaper")
        )
        n = len(population)
        powers = np.empty((n, self.nm), dtype=float)
        for j in range(self.nm):
            emitted = np.flatnonzero(cipher_bits[j] == 1)
            amps = np.broadcast_to(amplitude[:, None], (n, emitted.size))
            freqs = np.broadcast_to(frequency[:, None], (n, emitted.size))
            if trojan is not None:
                amps, freqs = trojan.modulate_population(
                    emitted, key_bits[emitted], amps, freqs
                )
            if self.channel is not None:
                # Only the fading-free channel reaches here (see
                # _require_batchable); its gain vector is a constant.
                amps = amps * self.channel.path_gain
            powers[:, j] = self.receiver.block_powers(amps, freqs)
        return powers


def _apply_instrument_noise(true_values: np.ndarray, z: np.ndarray,
                            instrument: Instrument) -> np.ndarray:
    """Vectorized :meth:`Instrument.read` over pre-drawn normals.

    ``z`` interleaves (gain z, offset z) per reading, matching the two
    sequential scalar draws ``read`` makes.
    """
    gains = 1.0 + instrument.gain_sigma * z[:, 0::2]
    return true_values * gains + instrument.offset_sigma * z[:, 1::2]
