"""Active-set solver for the box- and sum-constrained QP of KMM.

Oracles: a brute-force enumeration of every working set on tiny problems,
and scipy's SLSQP (imported here only) on the real KMM problems of a few
platform seeds.
"""

import itertools

import numpy as np
import pytest

from repro.stats import qp
from repro.stats.qp import solve_qp


def test_unconstrained_quadratic():
    # min 0.5 x'Ix + q'x -> x = -q
    result = solve_qp(P=np.eye(2), q=np.array([1.0, -2.0]))
    np.testing.assert_allclose(result.x, [-1.0, 2.0], atol=1e-6)
    assert result.converged


def test_box_constraint_binds():
    result = solve_qp(P=np.eye(1), q=np.array([-5.0]), lb=0.0, ub=2.0)
    assert result.x[0] == pytest.approx(2.0, abs=1e-8)


def test_kkt_at_interior_solution():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    P = m @ m.T + 0.5 * np.eye(4)
    q = rng.standard_normal(4)
    result = solve_qp(P=P, q=q, lb=-10.0, ub=10.0)
    gradient = P @ result.x + q
    assert np.linalg.norm(gradient) < 1e-5


def test_objective_value_reported():
    result = solve_qp(P=np.eye(1), q=np.array([0.0]), lb=1.0, ub=2.0)
    assert result.objective == pytest.approx(0.5, abs=1e-8)


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_qp(P=np.eye(3), q=np.zeros(2))
    with pytest.raises(ValueError):
        solve_qp(P=np.eye(2), q=np.zeros(2), lb=np.zeros(3))


def test_infeasible_bounds_rejected():
    with pytest.raises(ValueError):
        solve_qp(P=np.eye(1), q=np.zeros(1), lb=2.0, ub=1.0)


def test_asymmetric_p_is_symmetrized():
    P = np.array([[2.0, 0.5], [0.0, 2.0]])  # asymmetric on purpose
    result = solve_qp(P=P, q=np.array([-1.0, -1.0]))
    sym = 0.5 * (P + P.T)
    expected = np.linalg.solve(sym, [1.0, 1.0])
    np.testing.assert_allclose(result.x, expected, atol=1e-6)


class TestSumRow:
    def test_reversed_sum_row_rejected(self):
        with pytest.raises(ValueError, match="sum_lb"):
            solve_qp(np.eye(2), np.zeros(2), lb=0.0, ub=1.0, sum_lb=2.0, sum_ub=1.0)

    def test_sum_row_out_of_box_reach_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_qp(np.eye(2), np.zeros(2), lb=0.0, ub=1.0, sum_lb=3.0)

    def test_sum_row_needs_finite_box_when_start_violates_it(self):
        with pytest.raises(ValueError, match="finite"):
            solve_qp(np.eye(2), np.zeros(2), lb=0.0, sum_lb=5.0)

    def test_start_moved_onto_sum_row(self):
        # clip(1, lb, ub) sums to 3 > 1.5: the start slides to sum 1.5,
        # and the optimum keeps the row binding with x0 at its upper bound.
        result = solve_qp(np.eye(3), np.array([-2.0, -1.0, -1.0]),
                          lb=0.0, ub=1.0, sum_ub=1.5)
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 0.25, 0.25], atol=1e-12)

    def test_equality_sum_row(self):
        # sum_lb == sum_ub: both rows bind at once.
        result = solve_qp(np.eye(2), np.array([0.0, -1.0]), lb=0.0, ub=5.0,
                          sum_lb=1.0, sum_ub=1.0)
        assert result.converged
        np.testing.assert_allclose(result.x, [0.0, 1.0], atol=1e-12)


class TestIterationCap:
    def test_cap_reports_unconverged_without_raising(self, monkeypatch):
        monkeypatch.setattr(qp, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        result = solve_qp(m @ m.T + np.eye(6), -10.0 * np.ones(6), lb=0.0, ub=1.0)
        assert not result.converged
        assert result.iterations == 1
        assert "iteration cap" in result.message
        assert result.kkt_residual > 1e-8


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------

def _brute_force(P, q, lb, ub, sum_lb, sum_ub):
    """Best feasible KKT point over every working set (n <= 5)."""
    n = q.shape[0]
    best_x, best_f = None, np.inf
    for states in itertools.product((0, 1, 2), repeat=n):
        fixed = {i: (lb[i] if s == 1 else ub[i]) for i, s in enumerate(states) if s}
        free = [i for i in range(n) if i not in fixed]
        x_fixed = np.zeros(n)
        for i, value in fixed.items():
            x_fixed[i] = value
        for row in (None, sum_lb, sum_ub):
            if row is not None and not free:
                continue
            m = len(free)
            rhs = -(q[free] + P[np.ix_(free, list(fixed))] @ x_fixed[list(fixed)])
            if row is None:
                system, vector = P[np.ix_(free, free)], rhs
            else:
                system = np.zeros((m + 1, m + 1))
                system[:m, :m] = P[np.ix_(free, free)]
                system[:m, m] = system[m, :m] = 1.0
                vector = np.append(rhs, row - x_fixed.sum())
            x = x_fixed.copy()
            if m:
                x[free] = np.linalg.solve(system, vector)[:m]
            if np.any(x < lb - 1e-9) or np.any(x > ub + 1e-9):
                continue
            if not sum_lb - 1e-9 <= x.sum() <= sum_ub + 1e-9:
                continue
            f = 0.5 * x @ P @ x + q @ x
            if f < best_f:
                best_x, best_f = x, f
    return best_x, best_f


def _assert_feasible(result, lb, ub, sum_lb, sum_ub):
    assert np.all(result.x >= lb) and np.all(result.x <= ub)
    scale = max(1.0, abs(sum_lb), abs(sum_ub))
    assert sum_lb - 1e-12 * scale <= result.x.sum() <= sum_ub + 1e-12 * scale


def _tiny_problem(seed, rank=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = rng.standard_normal((n, rank or n))
    P = m @ m.T + (1e-8 if rank else 0.1) * np.eye(n)
    q = 3.0 * rng.standard_normal(n)
    lb = np.zeros(n)
    ub = rng.uniform(0.5, 3.0, n)
    # Sum rows drawn across the reachable range so each end binds sometimes.
    a, b = np.sort(rng.uniform(0.0, ub.sum(), 2))
    return P, q, lb, ub, a, b


@pytest.mark.parametrize("rank", [None, 1])
@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force_oracle(seed, rank):
    P, q, lb, ub, sum_lb, sum_ub = _tiny_problem(seed, rank)
    result = solve_qp(P, q, lb=lb, ub=ub, sum_lb=sum_lb, sum_ub=sum_ub)
    best_x, best_f = _brute_force(P, q, lb, ub, sum_lb, sum_ub)
    assert result.converged
    assert result.kkt_residual <= 1e-8
    _assert_feasible(result, lb, ub, sum_lb, sum_ub)
    assert result.objective <= best_f + 1e-9 * max(1.0, abs(best_f))
    if rank is None:  # strictly convex: the minimizer is unique
        np.testing.assert_allclose(result.x, best_x, atol=1e-7)


def test_oracle_cases_bind_both_sum_rows():
    """The tiny panel above exercises the sum row at each end."""
    ends = set()
    for seed in range(40):
        P, q, lb, ub, sum_lb, sum_ub = _tiny_problem(seed)
        total = solve_qp(P, q, lb=lb, ub=ub, sum_lb=sum_lb, sum_ub=sum_ub).x.sum()
        if np.isclose(total, sum_lb, rtol=0, atol=1e-9):
            ends.add("lower")
        if np.isclose(total, sum_ub, rtol=0, atol=1e-9):
            ends.add("upper")
    assert ends == {"lower", "upper"}


# ----------------------------------------------------------------------
# SLSQP oracle on real KMM problems
# ----------------------------------------------------------------------

def _slsqp(P, q, lb, ub, sum_lb, sum_ub):
    """The previous solver: SLSQP from beta = 1 with analytic gradients."""
    from scipy import optimize

    ones = np.ones_like(q)
    result = optimize.minimize(
        lambda x: 0.5 * x @ P @ x + q @ x,
        ones,
        jac=lambda x: P @ x + q,
        bounds=[(lb, ub)] * q.shape[0],
        constraints=[
            {"type": "ineq", "fun": lambda x: sum_ub - x.sum(), "jac": lambda x: -ones},
            {"type": "ineq", "fun": lambda x: x.sum() - sum_lb, "jac": lambda x: ones},
        ],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-10},
    )
    return float(result.fun)


def _kmm_problem(seed):
    """P, q and the sum row KernelMeanMatcher builds at DetectorConfig()."""
    from repro.core.config import DetectorConfig
    from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
    from repro.stats.kmm import KmmProblem

    data = generate_experiment_data(PlatformConfig(seed=seed))
    problem = KmmProblem(data.sim_pcms, data.dutt_pcms)
    n_tr, n_te = problem.n_train, problem.n_test
    kernel = problem.kernel(problem.median_gamma())
    P = kernel[:n_tr, :n_tr] + 1e-8 * np.eye(n_tr)
    q = -(n_tr / n_te) * kernel[:n_tr, n_tr:].sum(axis=1)
    eps = (np.sqrt(n_tr) - 1.0) / np.sqrt(n_tr)
    return P, q, DetectorConfig().kmm_B, n_tr * (1.0 - eps), n_tr * (1.0 + eps)


@pytest.mark.parametrize("seed", [4, 12, 16, 18])
def test_kmm_problem_at_least_as_good_as_slsqp(seed):
    P, q, B, sum_lb, sum_ub = _kmm_problem(seed)
    # The Gram matrix of a 1-D PCM is numerically low rank.
    assert np.linalg.matrix_rank(P - 1e-8 * np.eye(len(q)), tol=1e-8) < 20
    result = solve_qp(P, q, lb=0.0, ub=B, sum_lb=sum_lb, sum_ub=sum_ub)
    reference = _slsqp(P, q, 0.0, B, sum_lb, sum_ub)
    assert result.converged
    assert result.kkt_residual <= 1e-8
    _assert_feasible(result, 0.0, B, sum_lb, sum_ub)
    assert result.objective <= reference + 1e-9 * abs(reference)
