"""Kernel Mean Matching (paper Section 2.4; Gretton et al. 2009).

When the PCM distribution of the fabricated devices differs from the PCM
distribution the regression functions were trained on (covariate shift),
KMM re-weights the training samples so that the weighted training mean
matches the test mean in a reproducing-kernel Hilbert space:

    minimize   || (1/n_tr) sum_i beta_i Phi(x_i^tr) - (1/n_te) sum_j Phi(x_j^te) ||^2
    subject to beta_i in [0, B],   | (1/n_tr) sum_i beta_i - 1 | <= eps

which expands to the QP of the paper's Eq. (4):

    min_beta  0.5 beta' K beta - kappa' beta,
    K_ij = k(x_i^tr, x_j^tr),   kappa_i = (n_tr / n_te) sum_j k(x_i^tr, x_j^te).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.obs import get_logger
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.kernels import (
    median_heuristic_gamma_from_sq,
    pairwise_sq_dists,
    rbf_from_sq_dists,
)
from repro.stats.qp import solve_qp
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_2d

_log = get_logger("kmm")

#: A KKT residual above this marks weights that are not a certified optimum
#: (a converged solve lands at rounding level, ~1e-14 on KMM problems).
KKT_WARN_THRESHOLD = 1e-8


class KmmProblem:
    """Precomputed geometry of one (train, test) matching instance.

    The expensive part of KMM setup is the pooled pairwise squared-distance
    matrix — O((n_tr + n_te)^2 d) — which does not depend on the kernel
    bandwidth.  Building a :class:`KmmProblem` hoists that computation so a
    bandwidth sweep (and the median heuristic) reuses it; each candidate
    gamma then only pays one elementwise ``exp``.  Kernels are materialized
    into fresh buffers with exactly the operations the one-shot path uses,
    so weights computed through a problem are bitwise identical to
    :meth:`KernelMeanMatcher.fit` on the same arrays.
    """

    def __init__(self, train, test):
        train = check_2d(train, "train")
        test = check_2d(test, "test")
        if train.shape[1] != test.shape[1]:
            raise ValueError(
                f"train and test must share features, got {train.shape[1]} "
                f"and {test.shape[1]}"
            )
        self.n_train = int(train.shape[0])
        self.n_test = int(test.shape[0])
        pooled = np.vstack([train, test])
        #: Pooled squared distances; kept pristine (kernels use copies).
        self.sq_dists_ = pairwise_sq_dists(pooled, pooled)

    def median_gamma(self) -> float:
        """The median-heuristic bandwidth of the pooled population."""
        return median_heuristic_gamma_from_sq(self.sq_dists_)

    def kernel(self, gamma: float) -> np.ndarray:
        """The pooled RBF kernel at ``gamma`` (a fresh buffer per call)."""
        return rbf_from_sq_dists(self.sq_dists_.copy(), gamma)

    def sweep(self, gammas: Sequence[float], B: float = 1000.0,
              eps: Optional[float] = None) -> List["KernelMeanMatcher"]:
        """Fit one matcher per candidate bandwidth, reusing the distances.

        Returns the fitted matchers in ``gammas`` order; compare their
        ``rkhs_residual_`` / :meth:`KernelMeanMatcher.effective_sample_size`
        to choose a bandwidth.  Each arm is bitwise identical to a one-shot
        :meth:`KernelMeanMatcher.fit` at that gamma.
        """
        return [
            KernelMeanMatcher(B=B, eps=eps, gamma=float(g)).fit_problem(self)
            for g in gammas
        ]


class KernelMeanMatcher:
    """Covariate-shift correction by kernel mean matching.

    Parameters
    ----------
    B:
        Upper bound on individual importance weights (paper's tuning
        parameter ``B``).  Large values let the matcher concentrate mass on
        few samples; the default of 1000 follows Gretton et al.
    eps:
        Slack on the mean of the weights (paper's ``eps``).  ``None``
        selects the common heuristic ``(sqrt(n_tr) - 1) / sqrt(n_tr)``.
    gamma:
        RBF kernel width; ``None`` selects the median heuristic computed on
        the pooled data.
    """

    def __init__(self, B: float = 1000.0, eps: Optional[float] = None,
                 gamma: Optional[float] = None):
        if B <= 0:
            raise ValueError(f"B must be positive, got {B}")
        if eps is not None and eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        self.B = float(B)
        self.eps = eps
        self.gamma = gamma
        self.weights_: Optional[np.ndarray] = None
        self.converged_: bool = False
        self.rkhs_residual_: Optional[float] = None
        self.qp_iterations_: int = 0
        self.kkt_residual_: Optional[float] = None

    def fit(self, train, test) -> "KernelMeanMatcher":
        """Compute importance weights for ``train`` so it matches ``test``.

        Both arguments are ``(n, d)`` sample matrices over the same features
        (PCM measurements, in the paper's use).  Sweeping several bandwidths
        over the same pair?  Build one :class:`KmmProblem` and use
        :meth:`fit_problem` / :meth:`KmmProblem.sweep` instead — same
        weights, one distance pass.
        """
        return self.fit_problem(KmmProblem(train, test))

    def fit_problem(self, problem: KmmProblem) -> "KernelMeanMatcher":
        """Fit on a prebuilt :class:`KmmProblem` (distances already pooled).

        The weights are the unique minimizer of the ridge-regularized QP,
        solved exactly by :func:`repro.stats.qp.solve_qp`; ``kkt_residual_``
        certifies them (at most :data:`KKT_WARN_THRESHOLD` when healthy).
        """
        n_tr = problem.n_train
        n_te = problem.n_test

        with span("kmm.fit", n_train=n_tr, n_test=n_te) as fit_span:
            # The pooled squared distances serve the median-heuristic gamma,
            # the train Gram matrix and the train-test cross kernel.
            gamma = self.gamma
            if gamma is None:
                gamma = problem.median_gamma()
            pooled_kernel = problem.kernel(gamma)

            K = pooled_kernel[:n_tr, :n_tr]
            test_kernel_sum = float(pooled_kernel[n_tr:, n_tr:].sum())
            # Regularize the Gram diagonal slightly: keeps the QP strictly convex.
            K = K + 1e-8 * np.eye(n_tr)
            kappa = (n_tr / n_te) * pooled_kernel[:n_tr, n_tr:].sum(axis=1)

            eps = self.eps
            if eps is None:
                eps = (np.sqrt(n_tr) - 1.0) / np.sqrt(n_tr)

            # | mean(beta) - 1 | <= eps  as one bounded sum row.
            result = solve_qp(
                P=K,
                q=-kappa,
                lb=0.0,
                ub=self.B,
                sum_lb=n_tr * (1.0 - eps),
                sum_ub=n_tr * (1.0 + eps),
            )
            self.weights_ = result.x
            self.converged_ = result.converged
            self.qp_iterations_ = int(result.iterations)
            self.kkt_residual_ = result.kkt_residual
            self.effective_gamma_ = float(gamma)
            # The achieved RKHS mean discrepancy (the quantity KMM minimizes):
            # ||(1/n_tr) sum beta_i phi(x_i) - (1/n_te) sum phi(x_j)||.  The QP
            # objective is 0.5 b'Kb - kappa'b, so the residual reconstructs as
            # sqrt(2*objective/n_tr^2 + sum K_test / n_te^2) — a model-fit
            # diagnostic the solver's convergence flag alone cannot give.
            residual_sq = (
                2.0 * result.objective / n_tr**2 + test_kernel_sum / n_te**2
            )
            self.rkhs_residual_ = float(np.sqrt(max(0.0, residual_sq)))
            fit_span.set(converged=result.converged, gamma=self.effective_gamma_,
                         residual=self.rkhs_residual_,
                         qp_iterations=self.qp_iterations_,
                         kkt_residual=self.kkt_residual_)
        if not self.converged_ or self.kkt_residual_ > KKT_WARN_THRESHOLD:
            _log.warning(
                "KMM weights not certified optimal: converged=%s after %d "
                "iterations, KKT residual %.3g (threshold %g)", self.converged_,
                self.qp_iterations_, self.kkt_residual_, KKT_WARN_THRESHOLD,
            )
        obs_metrics.gauge("kmm.converged").set(1.0 if self.converged_ else 0.0)
        obs_metrics.histogram("kmm.kkt_residual").observe(self.kkt_residual_)
        obs_metrics.histogram("kmm.rkhs_residual").observe(self.rkhs_residual_)
        obs_metrics.histogram("kmm.effective_sample_size").observe(
            self.effective_sample_size()
        )
        return self

    @property
    def weights(self) -> np.ndarray:
        """The fitted importance weights (one per training sample)."""
        if self.weights_ is None:
            raise RuntimeError("KernelMeanMatcher must be fitted before reading weights")
        return self.weights_

    def effective_sample_size(self) -> float:
        """Kish effective sample size of the weights — degeneracy diagnostic."""
        w = self.weights
        total = w.sum()
        if total <= 0:
            return 0.0
        return float(total**2 / np.sum(w**2))


def importance_resample(samples, weights, size: int, rng: SeedLike = None) -> np.ndarray:
    """Resample ``size`` rows of ``samples`` with probability ∝ ``weights``.

    Used to turn KMM importance weights into an unweighted population (the
    paper's "kernel mean shifted" PCM set ``m''_p``) that downstream code —
    regression prediction, KDE — can treat uniformly.
    """
    samples = check_2d(samples, "samples")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (samples.shape[0],):
        raise ValueError(
            f"weights shape {weights.shape} must match sample count {samples.shape[0]}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero; nothing to resample")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    gen = as_generator(rng)
    idx = gen.choice(samples.shape[0], size=size, replace=True, p=weights / total)
    return samples[idx]
