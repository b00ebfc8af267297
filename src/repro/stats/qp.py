"""Exact active-set solver for the box- and sum-constrained QP of KMM.

Solves

    minimize    0.5 * x' P x + q' x
    subject to  lb <= x <= ub
                sum_lb <= 1'x <= sum_ub      (optional)

the shape of kernel mean matching's Eq. (4): a box on every weight plus the
two rows that bound the weights' mean.  A primal active-set method (Nocedal
& Wright, Algorithm 16.3) keeps a working set of bounds held at ``lb`` or
``ub``, plus the sum row held at one of its ends as one equality, and solves
the equality-constrained subproblem on the free variables with one dense
``np.linalg.solve``.  KMM problems have n ~ 100 variables, so no factor
updates are needed.

For a strictly convex ``P`` (KMM adds a ridge to its Gram matrix) the
minimizer is unique, so the answer depends on the problem and not on the
path to it; :attr:`QpResult.kkt_residual` certifies it.  The one-class SVM
has its own SMO solver in :mod:`repro.learn.ocsvm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_1d, check_2d

#: Working-set changes before the solver gives up and reports
#: ``converged=False`` (each one costs one dense solve on the free set).
MAX_ITERATIONS = 1000

#: A working-set multiplier below ``-MULTIPLIER_TOL * max(1, |q|_inf)`` is
#: released; anything above counts as non-negative (rounding, not descent).
MULTIPLIER_TOL = 1e-12


@dataclass
class QpResult:
    """Solution of one QP plus the evidence that it is one.

    ``kkt_residual`` is the max-abs projected gradient of the Lagrangian at
    ``x``: 0 at an exact optimum, rounding-sized at a converged solve.
    """

    x: np.ndarray
    objective: float
    converged: bool
    message: str
    iterations: int
    kkt_residual: float


def _bounds(value, default: float, n: int) -> np.ndarray:
    if value is None:
        return np.full(n, default)
    return np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()


def _feasible_start(lb, ub, sum_lb, sum_ub) -> np.ndarray:
    """``clip(c, lb, ub)`` for the scalar ``c`` nearest 1 that meets the sum row.

    ``sum(clip(c, lb, ub))`` is continuous, non-decreasing and piecewise
    linear in ``c`` with knots at the bounds, so the crossing is found on
    the knot grid and interpolated.  KMM's start is ``beta = 1`` exactly.
    """
    x = np.clip(1.0, lb, ub)
    total = x.sum()
    if sum_lb <= total <= sum_ub:
        return x
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("a sum row needs finite lower and upper bounds")
    target = sum_lb if total < sum_lb else sum_ub
    if not lb.sum() <= target <= ub.sum():
        raise ValueError("infeasible: no point of the box meets the sum row")
    knots = np.unique(np.concatenate([lb, ub]))
    sums = np.clip(knots[:, None], lb, ub).sum(axis=1)
    k = int(np.searchsorted(sums, target))
    if k == 0:
        return np.clip(knots[0], lb, ub)
    fraction = (target - sums[k - 1]) / (sums[k] - sums[k - 1])
    return np.clip(knots[k - 1] + fraction * (knots[k] - knots[k - 1]), lb, ub)


def _newton_step(P, g, free, with_sum_row):
    """Step to the minimizer on the working set, and the sum-row multiplier.

    Fixed variables do not move; with the sum row in the working set the
    step also keeps ``1'x``.  Returns ``(p, nu)`` where the gradient on the
    free set after the full step equals ``nu * 1``.
    """
    p = np.zeros_like(g)
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return p, 0.0
    P_ff = P[np.ix_(idx, idx)]
    if not with_sum_row:
        p[idx] = np.linalg.solve(P_ff, -g[idx])
        return p, 0.0
    m = idx.size
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = P_ff
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    solution = np.linalg.solve(kkt, np.append(-g[idx], 0.0))
    p[idx] = solution[:m]
    return p, -float(solution[m])


def solve_qp(P, q, lb=None, ub=None, sum_lb=None, sum_ub=None) -> QpResult:
    """Solve the box- and sum-constrained convex QP described above.

    ``P`` must be symmetric positive definite on every free set the method
    visits (a tiny asymmetry from floating-point Gram matrices is
    symmetrized away).  Missing bounds are infinite; a sum row needs a
    finite box.  Raises ``ValueError`` on malformed or infeasible inputs;
    hitting :data:`MAX_ITERATIONS` is reported through
    :attr:`QpResult.converged` rather than raised.
    """
    P = check_2d(P, "P")
    q = check_1d(q, "q")
    n = q.shape[0]
    if P.shape != (n, n):
        raise ValueError(f"P must be ({n}, {n}) to match q, got {P.shape}")
    P = 0.5 * (P + P.T)
    lb = _bounds(lb, -np.inf, n)
    ub = _bounds(ub, np.inf, n)
    if np.any(lb > ub):
        raise ValueError("lower bounds exceed upper bounds")
    sum_lb = -np.inf if sum_lb is None else float(sum_lb)
    sum_ub = np.inf if sum_ub is None else float(sum_ub)
    if sum_lb > sum_ub:
        raise ValueError("sum_lb exceeds sum_ub")

    x = _feasible_start(lb, ub, sum_lb, sum_ub)
    at_lb = np.zeros(n, dtype=bool)
    at_ub = np.zeros(n, dtype=bool)
    # The sum row's place in the working set: 0 out, -1 held at sum_lb,
    # +1 held at sum_ub.
    sum_side = 0
    tol = MULTIPLIER_TOL * max(1.0, float(np.abs(q).max(initial=0.0)))
    converged = False
    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        free = ~(at_lb | at_ub)
        p, nu = _newton_step(P, P @ x + q, free, sum_side != 0)

        # Ratio test: the first constraint outside the working set the
        # step would cross (a bound index, or the sum row at one end).
        alpha, block_bound, block_side = 1.0, None, 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(p < 0, (lb - x) / p, np.where(p > 0, (ub - x) / p, np.inf))
        ratios[~free] = np.inf
        i = int(np.argmin(ratios))
        if ratios[i] <= alpha:
            alpha, block_bound = max(float(ratios[i]), 0.0), i
        if sum_side == 0:
            slope = p.sum()
            end, side = (sum_ub, 1) if slope > 0 else (sum_lb, -1)
            if slope != 0 and np.isfinite(end):
                ratio = max((end - x.sum()) / slope, 0.0)
                if ratio <= alpha:
                    alpha, block_bound, block_side = ratio, None, side

        # Clipping only removes rounding past a bound the step stops short of.
        if block_side or block_bound is not None:
            x = np.clip(x + alpha * p, lb, ub)
            if block_side:
                sum_side = block_side
            elif p[block_bound] < 0:
                x[block_bound], at_lb[block_bound] = lb[block_bound], True
            else:
                x[block_bound], at_ub[block_bound] = ub[block_bound], True
            continue

        # A full, unblocked step lands on the working set's minimizer:
        # release the most negative multiplier, or stop if there is none.
        x = np.clip(x + p, lb, ub)
        g = P @ x + q
        multipliers = np.full(n, np.inf)
        multipliers[at_lb] = g[at_lb] - nu
        multipliers[at_ub] = nu - g[at_ub]
        i = int(np.argmin(multipliers))
        sum_multiplier = -sum_side * nu if sum_side else np.inf
        if min(multipliers[i], sum_multiplier) >= -tol:
            converged = True
            break
        if sum_multiplier < multipliers[i]:
            sum_side = 0
        else:
            at_lb[i] = at_ub[i] = False

    return QpResult(
        x=x,
        objective=float(0.5 * x @ P @ x + q @ x),
        converged=converged,
        message="optimal" if converged else f"iteration cap {MAX_ITERATIONS} reached",
        iterations=iterations,
        kkt_residual=_kkt_residual(P, q, x, lb, ub, at_lb | at_ub, sum_side),
    )


def _kkt_residual(P, q, x, lb, ub, fixed, sum_side) -> float:
    """Max-abs projected gradient of the Lagrangian at ``x``.

    The sum-row multiplier is the mean gradient over the free set, clipped
    to the sign its end allows (0 when the row is not held).  A component
    at a bound counts only where the gradient points out of the box.
    """
    g = P @ x + q
    nu = 0.0
    if sum_side and not fixed.all():
        nu = float(g[~fixed].mean())
        nu = max(nu, 0.0) if sum_side < 0 else min(nu, 0.0)
    r = g - nu
    r = np.where(x <= lb, np.minimum(r, 0.0), r)
    r = np.where(x >= ub, np.maximum(r, 0.0), r)
    return float(np.abs(r).max(initial=0.0))
