"""Lyapunov diagnostics against a high-precision reference solution.

The potential tracked for the SVRG family is

    phi = ||x - x*||^2 + dk,
    dk  = (4 eta^2 / (p n)) * sum_i ||grad_i(w) - grad_i(x*)||^2,

and for the Katyusha family

    psi = zk + yk + wk,
    zk  = L (1 + eta sigma) / (2 eta) * ||z - x*||^2,
    yk  = (f(y) - f*) / theta1,
    wk  = theta2 (1 + theta1) / (p theta1) * (f(w) - f*).

Both potentials contract in conditional expectation each step; the checkers
here evaluate those expectations *exactly* by enumerating all n sample draws
and both coin outcomes, so the one-step bounds can be verified numerically at
any state.  Diagnostics cost oracle calls but are never charged to the
optimizer's accounting.
"""

from __future__ import annotations

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


def default_reference_tolerance(oracle: Oracle, x) -> float:
    return 1e-10 * oracle.L * (1.0 + float(np.linalg.norm(x)))


@dataclass
class ReferenceSolution:
    """Frozen minimizer data: x*, f(x*), all grad_i(x*), and ||grad f(x*)||."""

    x_star: np.ndarray
    f_star: float
    grad_i_star: np.ndarray  # (n, d)
    grad_norm: float
    tolerance: float

    @classmethod
    def from_point(cls, oracle: Oracle, x, tolerance: float | None = None):
        """Freeze a reference at a known minimizer (e.g. a closed-form solve)."""
        x = np.asarray(x, dtype=np.float64)
        grad_norm = float(np.linalg.norm(oracle.full_grad(x)))
        if tolerance is None:
            tolerance = default_reference_tolerance(oracle, x)
        if grad_norm > tolerance:
            raise ValueError(
                f"point is not a minimizer: ||grad|| = {grad_norm:.3e} "
                f"> tolerance {tolerance:.3e}"
            )
        return cls(
            x_star=x,
            f_star=oracle.full_loss(x),
            grad_i_star=oracle.grad_table(x),
            grad_norm=grad_norm,
            tolerance=tolerance,
        )


def solve_reference(
    oracle: Oracle,
    tolerance: float | None = None,
    max_epochs: int = 100_000,
    x0=None,
) -> ReferenceSolution:
    """Gradient descent with step 1/L until ||grad f(x)|| <= tolerance.

    tolerance=None uses 1e-10 * L * (1 + ||x||), evaluated at the current
    iterate.  Raises ReferenceSolveError carrying the best achieved gradient
    norm if the epoch budget runs out first.
    """
    x = np.zeros(oracle.d) if x0 is None else np.array(x0, dtype=np.float64)
    step = 1.0 / oracle.L
    best_norm = np.inf
    best_x = x
    for epoch in range(max_epochs + 1):
        g = oracle.full_grad(x)
        gn = float(np.linalg.norm(g))
        if gn < best_norm:
            best_norm, best_x = gn, x
        target = tolerance if tolerance is not None else default_reference_tolerance(
            oracle, x
        )
        if gn <= target:
            return ReferenceSolution(
                x_star=x,
                f_star=oracle.full_loss(x),
                grad_i_star=oracle.grad_table(x),
                grad_norm=gn,
                tolerance=target,
            )
        x = x - step * g
    raise ReferenceSolveError(best_norm, best_x, max_epochs)


@dataclass
class LyapunovReport:
    """Potential components; phi-side for SVRG states, psi-side for Katyusha."""

    phi: float | None = None
    dist_sq: float | None = None
    dk: float | None = None
    psi: float | None = None
    zk: float | None = None
    yk: float | None = None
    wk: float | None = None


def _check_dims(state, ref: ReferenceSolution, oracle: Oracle):
    if ref.x_star.shape != (oracle.d,):
        raise ValueError(
            f"reference dimension {ref.x_star.shape} does not match oracle d={oracle.d}"
        )
    if ref.grad_i_star.shape != (oracle.n, oracle.d):
        raise ValueError("reference per-sample gradient table does not match oracle")


def _dk_at(point, state, ref: ReferenceSolution, oracle: Oracle) -> float:
    table = oracle.grad_table(point)
    diff = table - ref.grad_i_star
    coef = 4.0 * state.eta**2 / (state.p * oracle.n)
    return coef * float(np.einsum("ij,ij->", diff, diff))


def compute_phi(state, ref: ReferenceSolution, oracle: Oracle) -> LyapunovReport:
    """Evaluate the SVRG-family potential at the current state."""
    _check_dims(state, ref, oracle)
    delta = state.x - ref.x_star
    dist_sq = float(delta @ delta)
    dk = _dk_at(state.w, state, ref, oracle)
    return LyapunovReport(phi=dist_sq + dk, dist_sq=dist_sq, dk=dk)


def _psi_coefs(state, oracle: Oracle) -> tuple[float, float, float]:
    cz = oracle.L * (1.0 + state.eta * state.sigma) / (2.0 * state.eta)
    cy = 1.0 / state.theta1
    cw = state.theta2 * (1.0 + state.theta1) / (state.p * state.theta1)
    return cz, cy, cw


def compute_psi(state, ref: ReferenceSolution, oracle: Oracle) -> LyapunovReport:
    """Evaluate the Katyusha-family potential at the current state."""
    _check_dims(state, ref, oracle)
    cz, cy, cw = _psi_coefs(state, oracle)
    dz = state.z - ref.x_star
    zk = cz * float(dz @ dz)
    yk = cy * (oracle.full_loss(state.y) - ref.f_star)
    wk = cw * (oracle.full_loss(state.w) - ref.f_star)
    return LyapunovReport(psi=zk + yk + wk, zk=zk, yk=yk, wk=wk)


def _guard(oracle: Oracle):
    if oracle.n > ENUMERATION_GUARD:
        raise ValueError(
            f"exact enumeration limited to n <= {ENUMERATION_GUARD}, got n={oracle.n}"
        )


def _estimator_table(x, w, grad_w, oracle: Oracle) -> np.ndarray:
    """All n realizations of g = grad_i(x) - (grad_i(w) - grad_w)."""
    out = np.empty((oracle.n, oracle.d))
    for i in range(oracle.n):
        out[i] = oracle.grad_i(i, x) - (oracle.grad_i(i, w) - grad_w)
    return out


def exact_expected_phi_next(state, ref: ReferenceSolution, oracle: Oracle) -> float:
    """E[phi at the next step], enumerating all n draws and both coins."""
    _guard(oracle)
    _check_dims(state, ref, oracle)
    g = _estimator_table(state.x, state.w, state.grad_w, oracle)
    x_next = state.x - state.eta * g
    diff = x_next - ref.x_star
    mean_dist = float(np.einsum("ij,ij->", diff, diff)) / oracle.n
    dk_tails = _dk_at(state.w, state, ref, oracle)
    dk_heads = _dk_at(state.x, state, ref, oracle)
    return mean_dist + state.p * dk_heads + (1.0 - state.p) * dk_tails


def phi_contraction_rhs(state, ref: ReferenceSolution, oracle: Oracle) -> float:
    """One-step bound (1 - eta mu) dist + (1 - p/2) dk; needs eta <= 1/(6L)."""
    report = compute_phi(state, ref, oracle)
    return (1.0 - state.eta * oracle.mu) * report.dist_sq + (
        1.0 - state.p / 2.0
    ) * report.dk


def _katyusha_branches(state, oracle: Oracle):
    x = state.interpolate()
    g = _estimator_table(x, state.w, state.grad_w, oracle)
    return (x, g, *state.momentum_step(x, g))


def exact_expected_psi_next(state, ref: ReferenceSolution, oracle: Oracle) -> float:
    """E[psi at the next step], enumerating all n draws and both coins."""
    _guard(oracle)
    _check_dims(state, ref, oracle)
    cz, cy, cw = _psi_coefs(state, oracle)
    _, _, z_next, y_next = _katyusha_branches(state, oracle)
    dz = z_next - ref.x_star
    mean_z = cz * float(np.einsum("ij,ij->", dz, dz)) / oracle.n
    mean_y = (
        cy
        * sum(oracle.full_loss(y_next[i]) - ref.f_star for i in range(oracle.n))
        / oracle.n
    )
    w_tails = cw * (oracle.full_loss(state.w) - ref.f_star)
    w_heads = cw * (oracle.full_loss(state.y) - ref.f_star)
    return mean_z + mean_y + state.p * w_heads + (1.0 - state.p) * w_tails


def psi_contraction_rhs(state, ref: ReferenceSolution, oracle: Oracle) -> float:
    """One-step bound Z/(1+eta sigma) + (1-theta1(1-theta2)) Y + (1-p theta1/(1+theta1)) W."""
    report = compute_psi(state, ref, oracle)
    return (
        report.zk / (1.0 + state.eta * state.sigma)
        + (1.0 - state.theta1 * (1.0 - state.theta2)) * report.yk
        + (1.0 - state.p * state.theta1 / (1.0 + state.theta1)) * report.wk
    )


@dataclass
class BoundSlack:
    """One verified inequality (or equality): slack >= 0 means it holds."""

    name: str
    lhs: float
    rhs: float
    slack: float
    equality: bool = False

    @property
    def rel_slack(self) -> float:
        return self.slack / max(1.0, abs(self.lhs), abs(self.rhs))

    def ok(self, rel_tol: float = 1e-10) -> bool:
        return self.rel_slack >= -rel_tol


def _upper(name, lhs, rhs) -> BoundSlack:
    return BoundSlack(name, lhs, rhs, rhs - lhs)


def _equality(name, lhs, rhs) -> BoundSlack:
    return BoundSlack(name, lhs, rhs, -abs(rhs - lhs), equality=True)


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
    f_x = oracle.full_loss(state.x)
    gap = f_x - ref.f_star
    report = compute_phi(state, ref, oracle)
    g = _estimator_table(state.x, state.w, state.grad_w, oracle)
    second_moment = float(np.einsum("ij,ij->", g, g)) / n

    x_next = state.x - eta * g
    diff = x_next - ref.x_star
    mean_dist_next = float(np.einsum("ij,ij->", diff, diff)) / n

    checks = [
        _upper(
            "iterate_distance",
            mean_dist_next,
            (1.0 - eta * mu) * report.dist_sq - 2.0 * eta * gap
            + eta**2 * second_moment,
        ),
        _upper(
            "estimator_second_moment",
            second_moment,
            4.0 * L * gap + p / (2.0 * eta**2) * report.dk,
        ),
        _upper(
            "grad_learning_decay",
            (1.0 - p) * report.dk + p * _dk_at(state.x, state, ref, oracle),
            (1.0 - p) * report.dk + 8.0 * L * eta**2 * gap,
        ),
        _upper(
            "phi_contraction",
            exact_expected_phi_next(state, ref, oracle),
            phi_contraction_rhs(state, ref, oracle),
        ),
    ]
    return {c.name: c for c in checks}


def _verify_katyusha_bounds(state, ref, oracle) -> dict:
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta, p = state.eta, state.p
    theta1, theta2, sigma = state.theta1, state.theta2, state.sigma
    cz, cy, cw = _psi_coefs(state, oracle)

    x, g, z_next, y_next = _katyusha_branches(state, oracle)
    grad_x = oracle.full_grad(x)
    f_x = oracle.full_loss(x)
    f_y = oracle.full_loss(state.y)
    f_w = oracle.full_loss(state.w)
    report = compute_psi(state, ref, oracle)

    dev = g - grad_x
    variance = float(np.einsum("ij,ij->", dev, dev)) / n
    bregman = f_w - f_x - float(grad_x @ (state.w - x))

    dx = x - ref.x_star
    dist_x = float(dx @ dx)
    z_cur = cz * float((state.z - ref.x_star) @ (state.z - ref.x_star))

    # per-realization bounds: report the worst sample draw
    z_slack = np.inf
    y_slack = np.inf
    z_lhs = z_rhs = y_lhs = y_rhs = 0.0
    for i in range(n):
        dz_step = z_next[i] - state.z
        z_next_pot = cz * float((z_next[i] - ref.x_star) @ (z_next[i] - ref.x_star))
        lhs = float(g[i] @ (ref.x_star - z_next[i])) + 0.5 * mu * dist_x
        rhs = (
            L / (2.0 * eta) * float(dz_step @ dz_step)
            + z_next_pot
            - z_cur / (1.0 + eta * sigma)
        )
        if lhs - rhs < z_slack:
            z_slack, z_lhs, z_rhs = lhs - rhs, lhs, rhs

        lhs_y = (oracle.full_loss(y_next[i]) - f_x) / theta1 - theta2 / (
            2.0 * L * theta1
        ) * float(dev[i] @ dev[i])
        rhs_y = L / (2.0 * eta) * float(dz_step @ dz_step) + float(g[i] @ dz_step)
        if rhs_y - lhs_y < y_slack:
            y_slack, y_lhs, y_rhs = rhs_y - lhs_y, lhs_y, rhs_y

    checks = [
        _upper("estimator_variance", variance, 2.0 * L * bregman),
        BoundSlack("z_update", z_lhs, z_rhs, z_slack),
        BoundSlack("y_progress", y_lhs, y_rhs, y_slack),
        _equality(
            "reference_recursion",
            (1.0 - p) * report.wk + p * cw * (f_y - ref.f_star),
            (1.0 - p) * report.wk + theta2 * (1.0 + theta1) * report.yk,
        ),
        _upper(
            "psi_contraction",
            exact_expected_psi_next(state, ref, oracle),
            psi_contraction_rhs(state, ref, oracle),
        ),
    ]
    return {c.name: c for c in checks}
