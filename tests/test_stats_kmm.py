"""Kernel mean matching and importance resampling."""

import logging

import numpy as np
import pytest

from repro.stats import qp
from repro.stats.kmm import KKT_WARN_THRESHOLD, KernelMeanMatcher, importance_resample


@pytest.fixture()
def shifted_data():
    rng = np.random.default_rng(0)
    train = rng.standard_normal((200, 1))
    test = 0.8 + 0.5 * rng.standard_normal((80, 1))
    return train, test


class TestKmm:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelMeanMatcher(B=0.0)
        with pytest.raises(ValueError):
            KernelMeanMatcher(eps=-0.1)

    def test_weights_respect_bounds(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=5.0).fit(train, test)
        assert np.all(matcher.weights >= 0.0)
        assert np.all(matcher.weights <= 5.0 + 1e-9)

    def test_mean_constraint_respected(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=10.0, eps=0.3).fit(train, test)
        assert abs(matcher.weights.mean() - 1.0) <= 0.3 + 1e-6

    def test_weighted_mean_moves_toward_test(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(B=10.0).fit(train, test)
        w = matcher.weights
        weighted_mean = float((w[:, None] * train).sum() / w.sum())
        assert abs(weighted_mean - test.mean()) < abs(train.mean() - test.mean())

    def test_identical_distributions_keep_higher_ess_than_shifted(self):
        rng = np.random.default_rng(1)
        train = rng.standard_normal((150, 2))
        same = rng.standard_normal((150, 2))
        shifted = rng.standard_normal((150, 2)) + 2.0
        ess_same = KernelMeanMatcher(B=10.0).fit(train, same).effective_sample_size()
        ess_shifted = KernelMeanMatcher(B=10.0).fit(train, shifted).effective_sample_size()
        assert ess_same > 20
        assert ess_same > ess_shifted

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share features"):
            KernelMeanMatcher().fit(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_weights_before_fit_raise(self):
        with pytest.raises(RuntimeError):
            _ = KernelMeanMatcher().weights

    def test_effective_gamma_recorded(self, shifted_data):
        train, test = shifted_data
        matcher = KernelMeanMatcher(gamma=0.7).fit(train, test)
        assert matcher.effective_gamma_ == 0.7


class TestSolverCertificate:
    def test_fit_records_kkt_residual_in_span_and_metrics(self, shifted_data):
        from repro import obs

        train, test = shifted_data
        obs.enable()
        try:
            matcher = KernelMeanMatcher(B=10.0).fit(train, test)
        finally:
            spans, snapshot = obs.disable()
        assert matcher.converged_
        assert 0.0 <= matcher.kkt_residual_ <= KKT_WARN_THRESHOLD
        (fit_span,) = [s for s in spans if s.name == "kmm.fit"]
        assert fit_span.attributes["kkt_residual"] == matcher.kkt_residual_
        histogram = snapshot["histograms"]["kmm.kkt_residual"]
        assert histogram["count"] == 1
        assert histogram["max"] == matcher.kkt_residual_

    def test_iteration_cap_logs_a_warning(self, shifted_data, monkeypatch, caplog):
        train, test = shifted_data
        monkeypatch.setattr(qp, "MAX_ITERATIONS", 2)
        # The package logger may not propagate (CLI logging setup), so
        # listen on the module's logger directly.
        logger = logging.getLogger("repro.kmm")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.kmm"):
                matcher = KernelMeanMatcher(B=10.0).fit(train, test)
        finally:
            logger.removeHandler(caplog.handler)
        assert not matcher.converged_
        assert matcher.qp_iterations_ == 2
        assert any("not certified optimal" in r.getMessage() for r in caplog.records)

    def test_converged_fit_logs_nothing(self, shifted_data, caplog):
        train, test = shifted_data
        logger = logging.getLogger("repro.kmm")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.kmm"):
                KernelMeanMatcher(B=10.0).fit(train, test)
        finally:
            logger.removeHandler(caplog.handler)
        assert not caplog.records


class TestImportanceResample:
    def test_shape_and_membership(self, shifted_data):
        train, _ = shifted_data
        weights = np.ones(train.shape[0])
        out = importance_resample(train, weights, size=50, rng=0)
        assert out.shape == (50, 1)
        assert set(out[:, 0]).issubset(set(train[:, 0]))

    def test_zero_weight_samples_never_drawn(self):
        samples = np.arange(10, dtype=float)[:, None]
        weights = np.zeros(10)
        weights[3] = 1.0
        out = importance_resample(samples, weights, size=20, rng=0)
        assert np.all(out == 3.0)

    def test_validation(self):
        samples = np.zeros((5, 1))
        with pytest.raises(ValueError):
            importance_resample(samples, np.ones(4), size=5)
        with pytest.raises(ValueError):
            importance_resample(samples, -np.ones(5), size=5)
        with pytest.raises(ValueError):
            importance_resample(samples, np.zeros(5), size=5)
        with pytest.raises(ValueError):
            importance_resample(samples, np.ones(5), size=0)

    def test_deterministic_given_seed(self, shifted_data):
        train, test = shifted_data
        w = KernelMeanMatcher().fit(train, test).weights
        a = importance_resample(train, w, size=30, rng=9)
        b = importance_resample(train, w, size=30, rng=9)
        np.testing.assert_array_equal(a, b)


class TestKmmProblem:
    def test_fit_problem_bitwise_matches_fit(self, shifted_data):
        from repro.stats.kmm import KmmProblem

        train, test = shifted_data
        direct = KernelMeanMatcher(B=10.0).fit(train, test)
        problem = KmmProblem(train, test)
        hoisted = KernelMeanMatcher(B=10.0).fit_problem(problem)
        np.testing.assert_array_equal(hoisted.weights, direct.weights)
        assert hoisted.effective_gamma_ == direct.effective_gamma_
        assert hoisted.rkhs_residual_ == direct.rkhs_residual_

    def test_distances_reused_across_bandwidths(self, shifted_data):
        from repro.stats.kmm import KmmProblem

        train, test = shifted_data
        problem = KmmProblem(train, test)
        before = problem.sq_dists_.copy()
        base = problem.median_gamma()
        matchers = problem.sweep([0.5 * base, base, 2.0 * base], B=10.0)
        # The pooled distances are pristine after a sweep (kernels use copies).
        np.testing.assert_array_equal(problem.sq_dists_, before)
        assert [m.effective_gamma_ for m in matchers] == [
            0.5 * base, base, 2.0 * base
        ]
        # Each sweep arm equals a from-scratch fit at that gamma.
        for matcher in matchers:
            direct = KernelMeanMatcher(
                B=10.0, gamma=matcher.effective_gamma_
            ).fit(train, test)
            np.testing.assert_array_equal(matcher.weights, direct.weights)

    def test_fit_problem_records_qp_iterations(self, shifted_data):
        from repro.stats.kmm import KmmProblem

        train, test = shifted_data
        matcher = KernelMeanMatcher(B=10.0).fit_problem(KmmProblem(train, test))
        assert matcher.qp_iterations_ > 0

    def test_median_gamma_matches_one_shot_path(self, shifted_data):
        from repro.stats.kmm import KmmProblem

        train, test = shifted_data
        problem = KmmProblem(train, test)
        assert KernelMeanMatcher(B=10.0).fit(train, test).effective_gamma_ == \
            problem.median_gamma()

    def test_feature_mismatch_rejected(self):
        from repro.stats.kmm import KmmProblem

        with pytest.raises(ValueError, match="share features"):
            KmmProblem(np.zeros((5, 2)), np.zeros((5, 3)))
