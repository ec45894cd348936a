"""Lyapunov diagnostics against a high-precision reference solution.

The potential tracked for the SVRG family is

    phi = ||x - x*||^2 + dk,
    dk  = (4 eta^2 / (p n)) * sum_i ||grad_i(w) - grad_i(x*)||^2,

and for the Katyusha family

    psi = zk + yk + wk,
    zk  = L (1 + eta sigma) / (2 eta) * ||z - x*||^2,
    yk  = (f(y) - f*) / theta1,
    wk  = theta2 (1 + theta1) / (p theta1) * (f(w) - f*).

These coefficients and the estimator_second_moment bound's p / (2 eta^2)
have one home, the table of coefficients(), which refuses a state whose
report at a level cannot be made.

report(state, ref, oracle, level) gives the diagnostics columns of a
checkpoint's trace row: dist_sq and f_gap at the tracked point, by
full_loss, at `distance`; above it the family's one report, a function of
the state (_svrg_report, _katyusha_report), which adds the potential
columns and, at `lemmas`, the relative slack of every one-step bound
(slack_<name>).  Both potentials contract in conditional expectation each
step; the lemma level evaluates those expectations *exactly*, over all n
sample draws and both coin outcomes.  The contraction itself is the
phi_contraction or psi_contraction bound: lhs is E[phi] or E[psi] at the
next step, rhs the bound.  compute_phi (alias compute_psi) and
verify_lemma_bounds are views of the family report: its potential columns,
and its bounds as BoundSlack (lhs, rhs, slack) entries.  Diagnostics cost
oracle calls but are never charged to the optimizer's accounting.

Both losses are linear models, grad_i(v) = phi'(a_i^T v) a_i + mu v, so
every column of a family report is a sum of per-sample scalars: f and phi'
at the state's points, ||a_i||^2 (oracle.row_norms_sq) and a_i^T u for a
few vectors u, all from one stacked pass over the data (_one_pass), O(nnz)
and no (n, d) table.  The Katyusha lemma report adds full_grad at its point
x and oracle.loss_along_rows, f at every draw's next point y_bar + gamma_i
a_i: in closed form on ridge with dense rows, from a d x d Gram matrix
built once per oracle at O(d^2) memory; on logistic data and CSR ridge rows
it evaluates all n points, O(n nnz), and that report alone is refused past
ENUMERATION_GUARD samples (coefficients).

The reference x* is the point of one gradient-descent solve certified by
its gradient norm (solve_reference), and a ReferenceSolution is that
solve's record; a failed solve raises ReferenceSolveError with the same
record for its best point.  The record holds nothing per sample: dk takes
phi'(a_i^T x*) where it is computed, so a reference costs O(d) memory at
any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import Oracle

# the one report that evaluates f at all n next points (above; on ridge past
# oracle._GRAM_DIM columns too) is refused beyond desk scale
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
    holds nothing per sample: the reports take phi'(a_i^T x*) where they
    sum over the samples."""

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
    carrying the record of the best point reached.  It raises at once, after
    the passes it made, when ||grad f(x)|| is not finite (a subnormal L makes
    the step 1/L overflow the iterate): no later pass can certify.
    """
    x = np.zeros(oracle.d) if x0 is None else np.asarray(x0, dtype=np.float64)
    step = 1.0 / oracle.L
    best = None
    # overflow is reported by the gradient norm test, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
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
            if not math.isfinite(gn):
                break
            x = x - step * g
        x, gn, target = best
        raise ReferenceSolveError(
            ReferenceSolution(x, oracle.full_loss(x), gn, target, passes))


def _one_pass(oracle: Oracle, points, directions):
    """f(v) and phi'(a_i^T v, b_i) (n,) at each point v and a_i^T u (n,) for
    each direction u, as three lists, from one stacked pass over the data."""
    stack = np.stack([*points, *directions])
    k = len(points)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        margins = oracle._margins(stack)
        losses = oracle._losses(margins[:k], stack[:k])
        weights = oracle._dphis(margins[:k], oracle.labels)
    return losses.tolist(), list(weights), list(margins[k:])


def _grad_dist_sq(oracle: Oracle, diff: np.ndarray, diff_dots: np.ndarray,
                  delta: np.ndarray) -> float:
    """sum_i ||grad_i(v) - grad_i(x*)||^2 at a point v (w, or x after a
    refresh) from per-sample scalars: grad_i(v) - grad_i(x*) = diff_i a_i +
    mu delta, with diff_i = phi'_i(v) - phi'_i(x*) and delta = v - x*, so
    the sum is sum diff_i^2 ||a_i||^2 + 2 mu sum diff_i a_i^T delta
    + n mu^2 ||delta||^2; diff_dots holds the a_i^T delta."""
    mu = oracle.mu
    return (float((diff * diff) @ oracle.row_norms_sq)
            + 2.0 * mu * float(diff @ diff_dots)
            + oracle.n * mu * mu * float(delta @ delta))


def _dist_sq(a: np.ndarray, b: np.ndarray) -> float:
    delta = a - b
    return float(delta @ delta)


def report(state, ref: ReferenceSolution | None, oracle: Oracle, level: str) -> dict:
    """Every diagnostics column of the state's trace row at a level: none at
    "none" (ref is None there), dist_sq and f_gap at "distance", the family
    report's columns above it, with each bound's rel_slack at "lemmas"."""
    if level == "none":
        return {}
    if level == "distance":
        point = state.tracked_point
        return {"dist_sq": _dist_sq(point, ref.x_star),
                "f_gap": oracle.full_loss(point) - ref.f_star}
    columns, bounds = _family_report(state, ref, oracle, level == "lemmas")
    columns.update((f"slack_{name}", b.rel_slack) for name, b in bounds.items())
    return columns


def compute_phi(state, ref: ReferenceSolution, oracle: Oracle) -> dict:
    """The potential columns of the state's family report: (phi, dk) for the
    SVRG family, (psi, zk, yk, wk) for the Katyusha family."""
    columns, _ = _family_report(state, ref, oracle, lemmas=False)
    return {name: columns[name] for name in state.potential}


compute_psi = compute_phi  # the same view, named for the Katyusha family


def verify_lemma_bounds(state, ref: ReferenceSolution, oracle: Oracle) -> dict:
    """Exact-expectation slack report for every one-step bound of the state's
    algorithm family, a BoundSlack by name: a view of its report.  All
    slacks are nonnegative up to floating-point noise when the state is
    consistent (grad_w == full_grad(w))."""
    return _family_report(state, ref, oracle, lemmas=True)[1]


# the name of each constant a family report scales by, by its table key
COEFFICIENTS = {
    "dk": "dk's coefficient 4 eta^2 / (p n)",
    "second_moment": "the estimator_second_moment bound's coefficient p / (2 eta^2)",
    "zk": "the psi potential's coefficient L (1 + eta sigma) / (2 eta)",
    "yk": "the psi potential's coefficient 1 / theta1",
    "wk": "the psi potential's coefficient theta2 (1 + theta1) / (p theta1)",
}


def coefficients(state, oracle: Oracle, lemmas: bool) -> dict | None:
    """The table: each constant the state's family report scales by, by key
    (second_moment with lemmas only); None for a loopy class, which has no p
    (its report fails on its own, ROADMAP item 1).  ValueError if the report
    cannot be made: a coefficient past float64 (or divided by 0), or the
    Katyusha family's lemma report past ENUMERATION_GUARD samples where the
    oracle has f along a row in no closed form (enumerates_along_rows)."""
    if (lemmas and oracle.n > ENUMERATION_GUARD and state.potential[0] == "psi"
            and oracle.enumerates_along_rows):
        raise ValueError(f"lemma diagnostics enumerate all n samples: n = {oracle.n} "
                         f"is past the limit n <= {ENUMERATION_GUARD}")
    if "p" not in state.param_types:
        return None
    # in float64, where a 0 divisor gives inf and a Python float raises
    eta, p = np.float64(state.eta), np.float64(state.p)
    with np.errstate(divide="ignore", over="ignore"):
        if state.potential[0] == "phi":
            table = {"dk": 4.0 * eta ** 2 / (p * oracle.n)}
            if lemmas:
                table["second_moment"] = p / (2.0 * eta ** 2)
        else:
            theta1 = np.float64(state.theta1)
            table = {"zk": oracle.L * (1.0 + eta * state.sigma) / (2.0 * eta),
                     "yk": 1.0 / theta1,
                     "wk": state.theta2 * (1.0 + theta1) / (p * theta1)}
    for key, value in table.items():
        if not math.isfinite(value):
            values = ", ".join(f"{name} = {getattr(state, name)}"
                               for name in state.param_types)
            raise ValueError(f"{COEFFICIENTS[key]} overflows float64 at {values}, "
                             f"n = {oracle.n}")
    return {key: float(value) for key, value in table.items()}


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


def _family_report(state, ref, oracle, lemmas: bool) -> tuple[dict, dict]:
    """The state's family report, (columns, bounds by name), after its checks."""
    table = coefficients(state, oracle, lemmas)
    if ref.x_star.shape != (oracle.d,):
        raise ValueError(f"reference dimension {ref.x_star.shape} does not match "
                         f"oracle d={oracle.d}")
    family = {"phi": _svrg_report, "psi": _katyusha_report}[state.potential[0]]
    return family(state, ref, oracle, lemmas, table)


def _svrg_report(state, ref, oracle, lemmas: bool, table: dict) -> tuple[dict, dict]:
    """The SVRG family's columns (dist_sq, f_gap, phi, dk) and, with lemmas,
    its one-step bounds, from one pass over the data."""
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta, p = state.eta, state.p
    dk_coef = table["dk"]
    x, w, x_star = state.x, state.w, ref.x_star
    delta_x, delta_w = x - x_star, w - x_star
    directions = (delta_w,)
    if lemmas:
        # draw i's estimator is c_i a_i + h, with c_i = phi'_i(x) - phi'_i(w),
        # and its next iterate x - eta (c_i a_i + h) = e - eta c_i a_i
        h = mu * (x - w) + state.grad_w
        e = delta_x - eta * h
        directions += (delta_x, e, h)
    (f_x, _, _), (at_x, at_w, at_star), (dots_w, *dots) = _one_pass(
        oracle, (x, w, x_star), directions)
    dist_sq, gap = float(delta_x @ delta_x), f_x - ref.f_star
    dk = dk_coef * _grad_dist_sq(oracle, at_w - at_star, dots_w, delta_w)
    columns = {"dist_sq": dist_sq, "f_gap": gap, "phi": dist_sq + dk, "dk": dk}
    if not lemmas:
        return columns, {}

    dots_x, dots_e, dots_h = dots
    eta_sq = float(np.float64(eta) ** 2)  # as the table squares it
    dk_heads = dk_coef * _grad_dist_sq(oracle, at_x - at_star, dots_x, delta_x)  # w <- x
    c = at_x - at_w
    c_sq_norms = float((c * c) @ oracle.row_norms_sq) / n
    mean_dist_next = float(e @ e) - 2.0 * eta * float(c @ dots_e) / n + eta_sq * c_sq_norms
    second_moment = c_sq_norms + 2.0 * float(c @ dots_h) / n + float(h @ h)
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
            4.0 * L * gap + table["second_moment"] * dk,
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
    return columns, {c.name: c for c in checks}


def _katyusha_report(state, ref, oracle, lemmas: bool, table: dict) -> tuple[dict, dict]:
    """The Katyusha family's columns (dist_sq, f_gap, psi, zk, yk, wk) and,
    with lemmas, its one-step bounds, from one pass over the data, plus
    full_grad at x and loss_along_rows for the lemmas."""
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta, p = state.eta, state.p
    theta1, theta2, sigma = state.theta1, state.theta2, state.sigma
    cz, cy, cw = table["zk"], table["yk"], table["wk"]
    y, w, x_star = state.y, state.w, ref.x_star
    points, directions = (y, w), ()
    if lemmas:
        # draw i's estimator is c_i a_i + h, with c_i = phi'_i(x) -
        # phi'_i(w); its branch is z_next = z_bar - s_i a_i and y_next =
        # y_bar - theta1 s_i a_i, where (z_bar, y_bar) is the momentum step
        # on h and s_i = c_i eta / (L (1 + eta sigma))
        x = state.point()
        h = mu * (x - w) + state.grad_w
        z_bar, y_bar = state.momentum_step(x, h)
        grad_x = oracle.full_grad(x)
        u, v, t = z_bar - x_star, z_bar - state.z, h - grad_x
        points, directions = (y, w, x), (u, v, h, t)
    f, weights, dots = _one_pass(oracle, points, directions)
    f_y, f_w = f[:2]
    zk = cz * _dist_sq(state.z, x_star)
    yk = cy * (f_y - ref.f_star)
    wk = cw * (f_w - ref.f_star)
    columns = {"dist_sq": _dist_sq(y, x_star), "f_gap": f_y - ref.f_star,
               "psi": zk + yk + wk, "zk": zk, "yk": yk, "wk": wk}
    if not lemmas:
        return columns, {}

    f_x, (at_w, at_x), (dots_u, dots_v, dots_h, dots_t) = f[2], weights[1:], dots
    c = at_x - at_w
    s = c * (eta / L / (1.0 + eta * sigma))
    row_sq = oracle.row_norms_sq
    s_sq_norms, cs_norms = s * s * row_sq, c * s * row_sq
    f_y_next = oracle.loss_along_rows(y_bar, -theta1 * s)

    # per draw: ||z_next - x*||^2, ||z_next - z||^2, g.(z_next - x*),
    # g.(z_next - z) and ||g - grad f(x)||^2
    dist_next = float(u @ u) - 2.0 * s * dots_u + s_sq_norms
    step_sq = float(v @ v) - 2.0 * s * dots_v + s_sq_norms
    g_to_next = c * dots_u + float(h @ u) - cs_norms - s * dots_h
    g_step = c * dots_v + float(h @ v) - cs_norms - s * dots_h
    dev_sq = c * c * row_sq + 2.0 * c * dots_t + float(t @ t)

    mean_z = cz * float(np.sum(dist_next)) / n
    mean_y = cy * float(np.sum(f_y_next - ref.f_star)) / n
    # a refresh moves w to y (heads); otherwise w, and its term, stay (tails)
    w_heads = cw * (f_y - ref.f_star)
    expected_psi_next = mean_z + mean_y + p * w_heads + (1.0 - p) * wk

    variance = float(dev_sq.sum()) / n
    bregman = f_w - f_x - float(grad_x @ (w - x))

    dist_x = _dist_sq(x, x_star)

    # per-realization bounds, one entry per sample draw; report the worst
    z_lhs = 0.5 * mu * dist_x - g_to_next
    z_rhs = L / (2.0 * eta) * step_sq + cz * dist_next - zk / (1.0 + eta * sigma)
    y_lhs = (f_y_next - f_x) / theta1 - theta2 / (2.0 * L * theta1) * dev_sq
    y_rhs = L / (2.0 * eta) * step_sq + g_step
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
    return columns, {c.name: c for c in checks}
