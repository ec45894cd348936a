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

The reference x* is the point of one gradient-descent solve certified by
its gradient norm (solve_reference), and a ReferenceSolution is that
solve's record; a failed solve raises ReferenceSolveError with the same
record for its best point.  The record holds nothing per sample: dk reads
grad_i(x*) from oracle.grad_table(x*) where it is computed, so a reference
costs O(d) memory at any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import Oracle

# exact enumeration is O(n^2 d) per check in the Katyusha-family report
# (full_loss_many over the n next points; the SVRG family's is three n x d
# tables); refuse beyond desk scale
ENUMERATION_GUARD = 1000


class ReferenceSolveError(RuntimeError):
    """Reference solve ran out of budget; best is the record of the point
    with the least gradient norm it reached."""

    def __init__(self, best: ReferenceSolution):
        self.best = best
        super().__init__(
            f"made {best.epochs} full-gradient passes with "
            f"||grad|| = {best.grad_norm:.3e} still above tolerance"
        )


@dataclass
class ReferenceSolution:
    """The record of one reference solve: its point x*, f(x*), ||grad f(x*)||,
    the tolerance it was held to and the full-gradient passes it made.  It
    holds nothing per sample: dk takes grad_i(x*) from oracle.grad_table."""

    x_star: np.ndarray
    f_star: float
    grad_norm: float
    tolerance: float
    epochs: int

    @classmethod
    def from_point(cls, oracle: Oracle, x):
        """Freeze a reference at a known minimizer (e.g. a closed-form solve),
        certified at solve_reference's default tolerance, which must be
        finite."""
        try:
            return solve_reference(oracle, max_epochs=0, x0=x)
        except ReferenceSolveError as exc:
            raise ValueError(f"point is not a minimizer: ||grad|| = "
                             f"{exc.best.grad_norm:.3e} above tolerance") from None


def solve_reference(
    oracle: Oracle,
    tolerance: float | None = None,
    max_epochs: int = 100_000,
    x0=None,
) -> ReferenceSolution:
    """Gradient descent from x0 (default 0) with step 1/L to ||grad f(x)|| <= tolerance.

    tolerance=None uses 1e-10 * L * (1 + ||x||), evaluated at the current
    iterate; a tolerance that is not finite certifies nothing.  Makes at most
    max_epochs + 1 full-gradient passes, then raises ReferenceSolveError
    carrying the record of the best point reached.
    """
    x = np.zeros(oracle.d) if x0 is None else np.asarray(x0, dtype=np.float64)
    step = 1.0 / oracle.L
    best = None
    for passes in range(1, max_epochs + 2):
        g = oracle.full_grad(x)
        # bit for bit np.linalg.norm of a real vector, at less call cost
        gn = math.sqrt(g.dot(g))
        target = (1e-10 * oracle.L * (1.0 + math.sqrt(x.dot(x)))
                  if tolerance is None else tolerance)
        if best is None or gn < best[1]:  # a NaN start is reported as NaN
            best = (x, gn, target)
        if gn <= target < math.inf:
            return ReferenceSolution(x, oracle.full_loss(x), gn, target, passes)
        x = x - step * g
    x, gn, target = best
    raise ReferenceSolveError(
        ReferenceSolution(x, oracle.full_loss(x), gn, target, max_epochs + 1))


def _check_dims(ref: ReferenceSolution, oracle: Oracle):
    if ref.x_star.shape != (oracle.d,):
        raise ValueError(
            f"reference dimension {ref.x_star.shape} does not match oracle d={oracle.d}"
        )


def _dk(table: np.ndarray, table_star: np.ndarray, state, oracle: Oracle) -> float:
    """dk from the per-sample gradient tables at w and at x*."""
    diff = table - table_star
    # numpy's square overflows to inf, where a Python float ** raises
    coef = 4.0 * float(np.float64(state.eta) ** 2) / (state.p * oracle.n)
    return coef * float(np.einsum("ij,ij->", diff, diff))


def _dist_sq(a: np.ndarray, b: np.ndarray) -> float:
    delta = a - b
    return float(delta @ delta)


def compute_phi(state, ref: ReferenceSolution, oracle: Oracle) -> dict:
    """The SVRG-family potential columns (phi, dk) at the state."""
    _check_dims(ref, oracle)
    dk = _dk(oracle.grad_table(state.w), oracle.grad_table(ref.x_star), state, oracle)
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
    _check_dims(ref, oracle)
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
    _check_dims(ref, oracle)
    verify = {"phi": _verify_svrg_bounds, "psi": _verify_katyusha_bounds}
    return verify[state.potential[0]](state, ref, oracle)


def _verify_svrg_bounds(state, ref, oracle) -> dict:
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta, p = state.eta, state.p
    eta_sq = float(np.float64(eta) ** 2)  # inf on overflow, as in _dk
    gap = oracle.full_loss(state.x) - ref.f_star
    table_x = oracle.grad_table(state.x)
    table_w = oracle.grad_table(state.w)
    table_star = oracle.grad_table(ref.x_star)
    dist_sq = _dist_sq(state.x, ref.x_star)
    dk = _dk(table_w, table_star, state, oracle)
    dk_heads = _dk(table_x, table_star, state, oracle)  # dk after a refresh, w <- x
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
            + eta_sq * second_moment,
        ),
        _upper(
            "estimator_second_moment",
            second_moment,
            4.0 * L * gap + p / (2.0 * eta_sq) * dk,
        ),
        _upper(
            "grad_learning_decay",
            (1.0 - p) * dk + p * dk_heads,
            (1.0 - p) * dk + 8.0 * L * eta_sq * gap,
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
    x = state.point()
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
