"""Lyapunov diagnostics against a high-precision reference solution.

The potential tracked for the SVRG family is

    phi = ||x - x*||^2 + dk,
    dk  = (4 eta^2 / (p n)) * sum_i ||grad_i(w) - grad_i(x*)||^2,

and for the Katyusha family

    psi = zk + yk + wk,
    zk  = L (1 + eta sigma) / (2 eta) * ||z - x*||^2,
    yk  = (f(y) - f*) / theta1,
    wk  = theta2 (1 + theta1) / (p theta1) * (f(w) - f*).

compute_phi and compute_psi evaluate a potential at a state, as the
family's trace columns ({"phi", "dk"} or {"psi", "zk", "yk", "wk"}).  Both
potentials contract in conditional expectation each step;
verify_lemma_bounds evaluates those expectations *exactly*, by enumerating
all n sample draws and both coin outcomes, and reports every one-step bound
of the state's family as a BoundSlack (lhs, rhs, slack).  The contraction
itself is its phi_contraction or psi_contraction entry: lhs is E[phi] or
E[psi] at the next step, rhs the bound.  Diagnostics cost oracle calls but
are never charged to the optimizer's accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import Oracle

# exact enumeration is O(n^2 d) per check; refuse beyond desk scale
ENUMERATION_GUARD = 1000


class ReferenceSolveError(RuntimeError):
    """Reference solve ran out of budget; carries the best point reached."""

    def __init__(self, grad_norm: float, x, epochs_used: int):
        self.grad_norm = grad_norm
        self.x = x
        self.epochs_used = epochs_used
        super().__init__(
            f"reference solve exhausted {epochs_used} epochs with "
            f"||grad|| = {grad_norm:.3e} still above tolerance"
        )


@dataclass
class ReferenceSolution:
    """Frozen minimizer data: x*, f(x*), all grad_i(x*), and ||grad f(x*)||."""

    x_star: np.ndarray
    f_star: float
    grad_i_star: np.ndarray  # (n, d)
    grad_norm: float
    tolerance: float

    @classmethod
    def from_point(cls, oracle: Oracle, x):
        """Freeze a reference at a known minimizer (e.g. a closed-form solve),
        certified at solve_reference's default tolerance, which must be
        finite."""
        try:
            return solve_reference(oracle, max_epochs=0, x0=x)
        except ReferenceSolveError as exc:
            raise ValueError(f"point is not a minimizer: ||grad|| = "
                             f"{exc.grad_norm:.3e} above tolerance") from None


def solve_reference(
    oracle: Oracle,
    tolerance: float | None = None,
    max_epochs: int = 100_000,
    x0=None,
) -> ReferenceSolution:
    """Gradient descent from x0 (default 0) with step 1/L to ||grad f(x)|| <= tolerance.

    tolerance=None uses 1e-10 * L * (1 + ||x||), evaluated at the current
    iterate; a tolerance that is not finite certifies nothing.  Raises
    ReferenceSolveError carrying the best achieved gradient norm if the
    epoch budget runs out first.
    """
    x = np.zeros(oracle.d) if x0 is None else np.asarray(x0, dtype=np.float64)
    step = 1.0 / oracle.L
    best_norm = np.inf
    best_x = x
    for epoch in range(max_epochs + 1):
        g = oracle.full_grad(x)
        gn = float(np.linalg.norm(g))
        if gn < best_norm or epoch == 0:  # a NaN start is reported as NaN
            best_norm, best_x = gn, x
        target = (1e-10 * oracle.L * (1.0 + float(np.linalg.norm(x)))
                  if tolerance is None else tolerance)
        if gn <= target < math.inf:
            return ReferenceSolution(
                x_star=x,
                f_star=oracle.full_loss(x),
                grad_i_star=oracle.grad_table(x),
                grad_norm=gn,
                tolerance=target,
            )
        x = x - step * g
    raise ReferenceSolveError(best_norm, best_x, max_epochs)


def _check_dims(state, ref: ReferenceSolution, oracle: Oracle):
    if ref.x_star.shape != (oracle.d,):
        raise ValueError(
            f"reference dimension {ref.x_star.shape} does not match oracle d={oracle.d}"
        )
    if ref.grad_i_star.shape != (oracle.n, oracle.d):
        raise ValueError("reference per-sample gradient table does not match oracle")


def _dk(table: np.ndarray, state, ref: ReferenceSolution, oracle: Oracle) -> float:
    """dk with the per-sample gradients at the reference point given as a table."""
    diff = table - ref.grad_i_star
    coef = 4.0 * state.eta**2 / (state.p * oracle.n)
    return coef * float(np.einsum("ij,ij->", diff, diff))


def _dist_sq(a: np.ndarray, b: np.ndarray) -> float:
    delta = a - b
    return float(delta @ delta)


def compute_phi(state, ref: ReferenceSolution, oracle: Oracle) -> dict:
    """The SVRG-family potential columns (phi, dk) at the state."""
    _check_dims(state, ref, oracle)
    dk = _dk(oracle.grad_table(state.w), state, ref, oracle)
    return {"phi": _dist_sq(state.x, ref.x_star) + dk, "dk": dk}


def _psi_coefs(state, oracle: Oracle) -> tuple[float, float, float]:
    cz = oracle.L * (1.0 + state.eta * state.sigma) / (2.0 * state.eta)
    cy = 1.0 / state.theta1
    cw = state.theta2 * (1.0 + state.theta1) / (state.p * state.theta1)
    return cz, cy, cw


def _psi_report(state, ref: ReferenceSolution, oracle: Oracle, f_y: float,
                f_w: float) -> dict:
    cz, cy, cw = _psi_coefs(state, oracle)
    zk = cz * _dist_sq(state.z, ref.x_star)
    yk = cy * (f_y - ref.f_star)
    wk = cw * (f_w - ref.f_star)
    return {"psi": zk + yk + wk, "zk": zk, "yk": yk, "wk": wk}


def compute_psi(state, ref: ReferenceSolution, oracle: Oracle) -> dict:
    """The Katyusha-family potential columns (psi, zk, yk, wk) at the state."""
    _check_dims(state, ref, oracle)
    return _psi_report(
        state, ref, oracle, oracle.full_loss(state.y), oracle.full_loss(state.w)
    )


def _guard(oracle: Oracle):
    if oracle.n > ENUMERATION_GUARD:
        raise ValueError(
            f"exact enumeration limited to n <= {ENUMERATION_GUARD}, got n={oracle.n}"
        )


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


@dataclass
class BoundSlack:
    """One verified inequality (or equality): slack >= 0 means it holds."""

    name: str
    lhs: float
    rhs: float
    slack: float

    @property
    def rel_slack(self) -> float:
        return self.slack / max(1.0, abs(self.lhs), abs(self.rhs))


def _upper(name, lhs, rhs) -> BoundSlack:
    return BoundSlack(name, lhs, rhs, rhs - lhs)


def _equality(name, lhs, rhs) -> BoundSlack:
    # a difference either way is a violation
    return BoundSlack(name, lhs, rhs, -abs(rhs - lhs))


def verify_lemma_bounds(state, ref: ReferenceSolution, oracle: Oracle) -> dict:
    """Exact-expectation slack report for every one-step bound of the state's
    algorithm family.  All slacks are nonnegative up to floating-point noise
    when the state is consistent (grad_w == full_grad(w))."""
    _guard(oracle)
    _check_dims(state, ref, oracle)
    verify = {"phi": _verify_svrg_bounds, "psi": _verify_katyusha_bounds}
    return verify[state.potential[0]](state, ref, oracle)


def _verify_svrg_bounds(state, ref, oracle) -> dict:
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta, p = state.eta, state.p
    gap = oracle.full_loss(state.x) - ref.f_star
    table_x = oracle.grad_table(state.x)
    table_w = oracle.grad_table(state.w)
    dist_sq = _dist_sq(state.x, ref.x_star)
    dk = _dk(table_w, state, ref, oracle)
    dk_heads = _dk(table_x, state, ref, oracle)  # dk after a refresh, w <- x
    # the estimator for every sample draw, from the two tables dk needs anyway
    g = table_x - (table_w - state.grad_w)
    diff = state.x - eta * g - ref.x_star
    mean_dist_next = float(np.einsum("ij,ij->", diff, diff)) / n
    second_moment = float(np.einsum("ij,ij->", g, g)) / n
    # E[phi at the next step], over all n draws and both coins
    expected_phi_next = mean_dist_next + p * dk_heads + (1.0 - p) * dk

    checks = [
        _upper(
            "iterate_distance",
            mean_dist_next,
            (1.0 - eta * mu) * dist_sq - 2.0 * eta * gap
            + eta**2 * second_moment,
        ),
        _upper(
            "estimator_second_moment",
            second_moment,
            4.0 * L * gap + p / (2.0 * eta**2) * dk,
        ),
        _upper(
            "grad_learning_decay",
            (1.0 - p) * dk + p * dk_heads,
            (1.0 - p) * dk + 8.0 * L * eta**2 * gap,
        ),
        # needs eta <= 1/(6L)
        _upper(
            "phi_contraction",
            expected_phi_next,
            (1.0 - eta * mu) * dist_sq + (1.0 - p / 2.0) * dk,
        ),
    ]
    return {c.name: c for c in checks}


def _verify_katyusha_bounds(state, ref, oracle) -> dict:
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta, p = state.eta, state.p
    theta1, theta2, sigma = state.theta1, state.theta2, state.sigma
    cz, cy, cw = _psi_coefs(state, oracle)

    # every sample draw's branch, one row each: the estimator g, z_next and
    # f at y_next
    x = state.interpolate()
    g = oracle.grad_table(x) - (oracle.grad_table(state.w) - state.grad_w)
    z_next, y_next = state.momentum_step(x, g)
    f_y_next = oracle.full_loss_many(y_next)
    f_y = oracle.full_loss(state.y)
    f_w = oracle.full_loss(state.w)
    report = _psi_report(state, ref, oracle, f_y, f_w)
    zk, yk, wk = report["zk"], report["yk"], report["wk"]
    grad_x = oracle.full_grad(x)
    f_x = oracle.full_loss(x)

    dz_next = z_next - ref.x_star
    mean_z = cz * float(np.einsum("ij,ij->", dz_next, dz_next)) / n
    mean_y = cy * float(np.sum(f_y_next - ref.f_star)) / n
    # a refresh moves w to y (heads); otherwise w, and its term, stay (tails)
    w_heads = cw * (f_y - ref.f_star)
    expected_psi_next = mean_z + mean_y + p * w_heads + (1.0 - p) * wk

    dev = g - grad_x
    dev_sq = _rowdot(dev, dev)
    variance = float(dev_sq.sum()) / n
    bregman = f_w - f_x - float(grad_x @ (state.w - x))

    dist_x = _dist_sq(x, ref.x_star)

    # per-realization bounds, one entry per sample draw; report the worst
    dz_step = z_next - state.z
    step_sq = _rowdot(dz_step, dz_step)
    z_lhs = _rowdot(g, ref.x_star - z_next) + 0.5 * mu * dist_x
    z_rhs = (
        L / (2.0 * eta) * step_sq
        + cz * _rowdot(dz_next, dz_next)
        - zk / (1.0 + eta * sigma)
    )
    y_lhs = (f_y_next - f_x) / theta1 - theta2 / (2.0 * L * theta1) * dev_sq
    y_rhs = L / (2.0 * eta) * step_sq + _rowdot(g, dz_step)
    z_slack = z_lhs - z_rhs
    y_slack = y_rhs - y_lhs
    iz, iy = int(np.argmin(z_slack)), int(np.argmin(y_slack))

    checks = [
        _upper("estimator_variance", variance, 2.0 * L * bregman),
        BoundSlack("z_update", float(z_lhs[iz]), float(z_rhs[iz]), float(z_slack[iz])),
        BoundSlack("y_progress", float(y_lhs[iy]), float(y_rhs[iy]), float(y_slack[iy])),
        _equality(
            "reference_recursion",
            (1.0 - p) * wk + p * cw * (f_y - ref.f_star),
            (1.0 - p) * wk + theta2 * (1.0 + theta1) * yk,
        ),
        _upper(
            "psi_contraction",
            expected_psi_next,
            zk / (1.0 + eta * sigma)
            + (1.0 - theta1 * (1.0 - theta2)) * yk
            + (1.0 - p * theta1 / (1.0 + theta1)) * wk,
        ),
    ]
    return {c.name: c for c in checks}
