"""Per-pair online ridge regression, confidence radii, and projection.

Each state-action pair keeps sufficient statistics only: the design matrix
V = lambda*I + sum c c^T, its incrementally maintained inverse, and the
regression moments for the loss target and the one-hot next-state targets.
A run keeps those of all pairs as stacked arrays (PairStore), so context
norms and the known count cover every pair in one array expression;
SaStatistics is the one-pair PairStore, of shape ().
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError, StructuralError
from .ssp import GOAL

# full re-inversion cadence; bounds drift of the rank-one inverse updates
REFRESH_EVERY = 1024


class PairStore:
    """Sufficient statistics of an array of (s, a) pairs, stacked.

    shape is (S, A) for a run's grid, or () for one pair (SaStatistics).
    tau       : shape visit counts, float64 so any count a caller sets fits
    v_bar     : shape + (d, d) design matrices lambda*I + sum c c^T
    v_bar_inv : shape + (d, d) their inverses, maintained by rank-one updates
    xty_loss  : shape + (d,) loss regression moments
    xty_trans : shape + (n_states, d) next-state regression moments
    """

    def __init__(self, shape, d, n_states, lam=1.0):
        if lam <= 0:
            raise StructuralError("lambda must be positive")
        self.d = d
        self.n_states = n_states
        self.lam = float(lam)
        self.tau = np.zeros(shape)
        self.v_bar = np.tile(lam * np.eye(d), shape + (1, 1))
        self.v_bar_inv = np.tile(np.eye(d) / lam, shape + (1, 1))
        self.xty_loss = np.zeros(shape + (d,))
        self.xty_trans = np.zeros(shape + (n_states, d))

    def record_visit(self, c, next_state, loss, index=(), outer=None):
        """Fold one observed transition into the statistics of pair `index`.

        The default index () addresses the whole of a one-pair store.  A
        goal transition contributes no next-state row (residual-mass
        convention); the design matrix and count always advance, V by
        outer = c c^T if given.  Returns the pair's new visit count.
        """
        c = np.asarray(c, dtype=float)
        tau = self.tau.item(index) + 1
        self.tau[index] = tau
        v_bar, v_bar_inv = self.v_bar[index], self.v_bar_inv[index]
        v_bar += c[:, None] * c if outer is None else outer
        vc = v_bar_inv @ c
        v_bar_inv -= vc[:, None] * vc / (1.0 + c @ vc)
        if tau % REFRESH_EVERY == 0:
            v_bar_inv[...] = np.linalg.inv(v_bar)
        xty_loss = self.xty_loss[index]
        xty_loss += loss * c
        if next_state != GOAL:
            xty_trans = self.xty_trans[index]
            xty_trans[next_state] += c
        return tau


class SaStatistics(PairStore):
    """Sufficient statistics of one (s, a) pair: a PairStore of shape ()."""

    def __init__(self, d, n_states, lam=1.0):
        super().__init__((), d, n_states, lam)


def context_norms(v_bar_inv, c):
    """||c||_{V^-1} for one (d, d) inverse or a stack (..., d, d) of them.

    vecmat/vecdot sum in the same order for a stack as for a single matrix,
    so the batched norms equal the per-pair ones bit for bit.
    """
    return np.sqrt(np.maximum(0.0, np.vecdot(np.vecmat(c, v_bar_inv), c)))


def capped_simplex_projection(y):
    """Euclidean projection of y onto {x >= 0, sum x <= 1}, exact (sort-based)."""
    return _capped_simplex_columns(np.asarray(y, dtype=float)[:, None])[:, 0]


def _capped_simplex_columns(y):
    """Column-wise capped-simplex projection of an (n, m) matrix."""
    x = np.maximum(y, 0.0)
    over = x.sum(axis=0) > 1.0
    if not over.any():
        return x
    z = y[:, over]
    n = z.shape[0]
    u = -np.sort(-z, axis=0)
    css = np.cumsum(u, axis=0) - 1.0
    ranks = np.arange(1, n + 1)[:, None]
    cond = u * ranks > css
    rho = n - 1 - np.argmax(cond[::-1], axis=0)  # last True per column
    cols = np.arange(z.shape[1])
    theta = css[rho, cols] / (rho + 1.0)
    x[:, over] = np.maximum(z - theta, 0.0)
    return x


def project_to_stochastic(p_raw, v_bar, tol=1e-10, max_iter=10_000):
    """Weighted projection of p_raw onto matrices with sub-stochastic columns.

    Minimizes tr((P - p_raw) v_bar (P - p_raw)^T) over {P : columns >= 0,
    column sums <= 1} by projected gradient with the exact per-column
    capped-simplex projection.  Feasible inputs are returned unchanged.
    """
    p_raw = np.asarray(p_raw, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    if p_raw.ndim != 2 or v_bar.shape != (p_raw.shape[1], p_raw.shape[1]):
        raise StructuralError("p_raw must be (S, d) and v_bar (d, d)")
    if np.all(p_raw >= 0) and np.all(p_raw.sum(axis=0) <= 1.0):
        return p_raw.copy()
    lam_max = float(np.linalg.eigvalsh(v_bar)[-1])
    step = 1.0 / (2.0 * lam_max)

    def objective(p):
        diff = p - p_raw
        return float(np.einsum("ij,jk,ik->", diff, v_bar, diff))

    p = _capped_simplex_columns(p_raw)
    obj = objective(p)
    for _ in range(max_iter):
        grad = 2.0 * (p - p_raw) @ v_bar
        q = p - step * grad
        q = _capped_simplex_columns(q)
        new_obj = objective(q)
        if obj - new_obj < tol:
            return q if new_obj <= obj else p
        p, obj = q, new_obj
    raise ProjectionError(obj - new_obj, max_iter)


def loss_radius(tau, d, n_states, n_actions, lam, delta):
    """Confidence-ellipsoid radius for the loss embedding."""
    arg = 8.0 * n_states * n_actions * (1.0 + tau / lam) / delta
    return math.sqrt(d * math.log(arg)) + math.sqrt(lam)


def dynamics_radius(tau, d, n_states, n_actions, lam, delta):
    """|S|-scaled confidence radius for the projected dynamics embedding."""
    arg = 8.0 * n_states**2 * n_actions * (1.0 + tau / lam) / delta
    return n_states * (math.sqrt(d * math.log(arg)) + math.sqrt(lam))


def known_floor(m, delta):
    """The lower bound known_threshold puts under beta_dyn in interval m."""
    return math.sqrt(math.log(4.0 * m / delta))


def known_threshold(beta_dyn, l_min, b_star, m, delta):
    """Context norm below which a pair is known; beta_dyn may be an array."""
    floor = known_floor(m, delta)
    return l_min / (10.0 * b_star * np.maximum(beta_dyn, floor))


@dataclass(frozen=True)
class Estimates:
    """Immutable snapshot of all per-pair estimates at an interval boundary.

    l_hat     : (S, A, d)
    p_hat     : (S, A, S, d) projected, sub-stochastic columns
    beta_loss : (S, A)
    beta_dyn  : (S, A)
    """

    l_hat: np.ndarray
    p_hat: np.ndarray
    beta_loss: np.ndarray
    beta_dyn: np.ndarray
