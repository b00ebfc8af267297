"""A6 — component throughput: the statistical kernels of the pipeline.

Times the individual substrates at the sizes the Table-1 run uses, so
regressions in any one algorithm are visible in isolation:

* adaptive Epanechnikov KDE fit + 10^4-sample draw;
* one-class SVM fit on a 1500-point whitened population;
* MARS fit on the 100-device Monte Carlo data;
* KMM weight computation (100 train x 120 test);
* full silicon-measurement campaign for one device;
* the 100-device Monte Carlo run through the population engine;
* vectorized AES-128 on a (2048 devices x 6 blocks) uint8 batch;
* batched B1..B5 classification of 2048 devices (the serving hot path).
"""

import numpy as np

from repro.core.datasets import train_regressions
from repro.crypto.aes import aes128_encrypt_blocks
from repro.learn.ocsvm import OneClassSvm
from repro.stats.kde import AdaptiveKde
from repro.stats.kmm import KernelMeanMatcher
from repro.testbed.campaign import FingerprintCampaign
from repro.circuits.montecarlo import MonteCarloEngine
from repro.circuits.spicemodel import default_spice_deck
from repro.silicon.foundry import Foundry


def test_kde_fit_and_sample(benchmark, paper_data):
    fingerprints = paper_data.sim_fingerprints

    def run():
        kde = AdaptiveKde(alpha=0.5).fit(fingerprints)
        return kde.sample(10_000, rng=0)

    samples = benchmark(run)
    assert samples.shape == (10_000, 6)


def test_ocsvm_fit(benchmark):
    data = np.random.default_rng(0).standard_normal((1500, 6))
    svm = benchmark(lambda: OneClassSvm(nu=0.08, seed=0).fit(data))
    assert svm.rho_ is not None


def test_mars_regression_fit(benchmark, paper_data, bench_config):
    model = benchmark(
        lambda: train_regressions(
            paper_data.sim_pcms, paper_data.sim_fingerprints, bench_config
        )
    )
    assert model.predict(paper_data.sim_pcms).shape == paper_data.sim_fingerprints.shape


def test_kmm_weights(benchmark, paper_data):
    matcher = benchmark(
        lambda: KernelMeanMatcher(B=10.0).fit(paper_data.sim_pcms, paper_data.dutt_pcms)
    )
    assert matcher.weights.shape[0] == paper_data.sim_pcms.shape[0]


def test_device_measurement(benchmark):
    deck = default_spice_deck()
    campaign = FingerprintCampaign.random_stimuli(nm=6, seed=0, noisy_bench=False)
    foundry = Foundry(deck_nominal=deck.nominal, variation=deck.variation, seed=0)
    die = foundry.fabricate_lot(1)[0]

    device = benchmark(lambda: campaign.measure_device(die))
    assert device.fingerprint.shape == (6,)


def test_mc_run_batched(benchmark):
    """The population engine at the gated fixture size."""
    deck = default_spice_deck()
    campaign = FingerprintCampaign.random_stimuli(nm=6, seed=0, noisy_bench=False)
    engine = MonteCarloEngine(deck, campaign, numerical_noise=0.0015)

    result = benchmark(lambda: engine.run(100, seed=0))
    assert result.pcms.shape[0] == 100
    assert result.fingerprints.shape == (100, 6)


def test_aes_batch(benchmark):
    """Vectorized AES-128 over a (devices x plaintexts x 16) uint8 batch."""
    rng = np.random.default_rng(0)
    key = rng.bytes(16)
    blocks = rng.integers(0, 256, size=(2048, 6, 16), dtype=np.uint8)

    cipher = benchmark(lambda: aes128_encrypt_blocks(key, blocks))
    assert cipher.shape == blocks.shape
    assert cipher.dtype == np.uint8


def test_classify_batch(benchmark, paper_detector, paper_data):
    """Serving hot path: one validated batch against all five boundaries."""
    reps = -(-2048 // paper_data.dutt_fingerprints.shape[0])
    batch = np.tile(paper_data.dutt_fingerprints, (reps, 1))[:2048]

    verdicts = benchmark(lambda: paper_detector.classify_batch(batch))
    assert set(verdicts) == {"B1", "B2", "B3", "B4", "B5"}
    assert all(v.shape == (2048,) for v in verdicts.values())


def test_mars_forward_pass(benchmark):
    from repro.learn.mars import MarsRegression

    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, size=(400, 6))
    y = (np.abs(x[:, 0]) + np.maximum(0.0, x[:, 1]) - 0.5 * x[:, 2]
         + 0.1 * rng.standard_normal(400))
    model = MarsRegression(max_terms=21)

    basis, design, sse = benchmark(lambda: model._forward_pass(x, y))
    assert len(basis) >= 3
    assert design.shape[0] == 400
