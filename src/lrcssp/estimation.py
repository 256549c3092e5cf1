"""Per-pair online ridge regression, confidence radii, and projection.

Each state-action pair keeps sufficient statistics only: the design matrix
V = lambda*I + sum c c^T, its incrementally maintained inverse, the
regression moments for the loss and the one-hot next-state targets, and the
ridge loss estimate.  A run keeps those of all pairs as stacked arrays
(PairStore), so the context norms of every pair are one array expression;
SaStatistics is the one-pair PairStore, of shape ().
"""

import math
import warnings
from dataclasses import dataclass
from operator import attrgetter

import numpy as np
from numpy._core.multiarray import c_einsum

from .errors import StructuralError
from .ssp import GOAL

# full re-inversion cadence; bounds drift of the rank-one inverse updates
REFRESH_EVERY = 1024
# visits a store logs before it folds them into v_bar and xty_trans
PENDING_LIMIT = 256


class PairStore:
    """Sufficient statistics of an array of (s, a) pairs, stacked.

    shape is (S, A) for a run's grid, or () for one pair (SaStatistics).
    tau       : shape visit counts, float64 so any count a caller sets fits
    v_bar     : shape + (d, d) design matrices lambda*I + sum c c^T
    v_bar_inv : shape + (d, d) their inverses, maintained by rank-one updates
    xty_loss  : shape + (d,) loss regression moments
    l_hat     : shape + (d,) ridge loss estimates v_bar_inv @ xty_loss
    xty_trans : shape + (n_states, d) next-state regression moments

    A visit updates tau, v_bar_inv, xty_loss and l_hat at once through the
    pair's kept views, so the arrays are written in place, never assigned.
    v_bar and xty_trans, which only a refresh, a projection or a coverage
    check reads, take its c c^T and c from a log of pending visits, folded
    into them before any read, at each refresh and when it holds PENDING_LIMIT.
    """

    def __init__(self, shape, d, n_states, lam=1.0):
        if lam <= 0:
            raise StructuralError("lambda must be positive")
        self.d = d
        self.n_states = n_states
        self.lam = float(lam)
        # (pair's flat offset, c as bytes, next state) of each visit not
        # yet folded, and each visited pair's offset and views
        self._pending = []
        self._pairs = {}
        self.tau = np.zeros(shape)
        self._v_bar = np.tile(lam * np.eye(d), shape + (1, 1))
        self._v_bar_inv = np.tile(np.eye(d) / lam, shape + (1, 1))
        self._xty_loss = np.zeros(shape + (d,))
        self._l_hat = np.zeros(shape + (d,))
        self._xty_trans = np.zeros(shape + (n_states, d))

    v_bar_inv = property(attrgetter("_v_bar_inv"))
    xty_loss = property(attrgetter("_xty_loss"))
    l_hat = property(attrgetter("_l_hat"))

    @property
    def v_bar(self):
        self._fold()
        return self._v_bar

    @property
    def xty_trans(self):
        self._fold()
        return self._xty_trans

    def _fold(self):
        """Add each pending visit's c c^T to v_bar and, unless it reached
        the goal, c to its next state's row of xty_trans.  np.add.at adds
        at a repeated index in the log's order, so the sums equal the
        visits' own += bit for bit."""
        if not self._pending:
            return
        offsets, contexts, nexts = zip(*self._pending)
        self._pending.clear()
        d = self.d
        c = np.frombuffer(b"".join(contexts)).reshape(len(offsets), d)
        offsets, nexts = np.array(offsets), np.array(nexts)
        np.add.at(self._v_bar.reshape(-1, d, d), offsets,
                  c[:, :, None] * c[:, None, :])
        moved = nexts != GOAL
        np.add.at(self._xty_trans.reshape(-1, d),
                  offsets[moved] * self.n_states + nexts[moved], c[moved])

    def _pair(self, index):
        """Pair `index`'s flat offset and v_bar_inv, xty_loss, l_hat views."""
        offset = np.arange(self.tau.size).reshape(self.tau.shape)[index]
        views = self._pairs[index] = (int(offset), *(
            x[index] for x in (self._v_bar_inv, self._xty_loss, self._l_hat)))
        return views

    def record_visit(self, c, next_state, loss, index=()):
        """Fold one observed transition into the statistics of pair `index`.

        The default index () addresses the whole of a one-pair store.  A
        goal transition contributes no next-state row (residual-mass
        convention); the design matrix and count always advance.  The log
        keeps a copy of c, so a caller may change c after the call.
        The pair's l_hat follows its moments.  Returns its new visit count
        and its context_norms at c as a Python float with their bits:
        maximum(0.0, x) keeps -0.0 and NaN too, and + 0.0 turns the -0.0
        that .dot returns for a sum of -0.0 products into the +0.0 that
        context_norms' sums start from.
        """
        if not GOAL <= next_state < self.n_states:
            raise IndexError(f"next state {next_state} out of range")
        c = np.asarray(c, dtype=float)
        tau = self.tau.item(index) + 1
        self.tau[index] = tau
        offset, v_bar_inv, xty_loss, l_hat = (self._pairs.get(index)
                                              or self._pair(index))
        pending = self._pending
        pending.append((offset, c.tobytes(), next_state))
        vc = v_bar_inv.dot(c)
        v_bar_inv -= vc[:, None] * vc / (1.0 + c.dot(vc))
        if tau % REFRESH_EVERY == 0:
            v_bar_inv[...] = np.linalg.inv(self.v_bar[index])
        elif len(pending) >= PENDING_LIMIT:
            self._fold()
        xty_loss += loss * c
        v_bar_inv.dot(xty_loss, out=l_hat)
        x = c.dot(v_bar_inv).dot(c).item() + 0.0
        return tau, math.sqrt(x) if not x < 0.0 else 0.0


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
    u = -z
    u.sort(axis=0)
    np.negative(u, out=u)
    css = u.cumsum(axis=0) - 1.0
    ranks = np.arange(1, n + 1)[:, None]
    cond = u * ranks > css
    rho = n - 1 - cond[::-1].argmax(axis=0)  # last True per column
    cols = np.arange(z.shape[1])
    theta = css[rho, cols] / (rho + 1.0)
    x[:, over] = np.maximum(z - theta, 0.0)
    return x


def project_to_stochastic(p_raw, v_bar, tol=1e-10, max_iter=10_000):
    """Weighted projection of p_raw onto matrices with sub-stochastic columns.

    Minimizes tr((P - p_raw) v_bar (P - p_raw)^T) over {P : columns >= 0,
    column sums <= 1} by projected gradient with the exact per-column
    capped-simplex projection.  Feasible inputs are returned unchanged.
    Out of passes after max_iter, it warns (RuntimeWarning) and returns the
    last accepted iterate: feasible, and the lowest objective seen, since
    each accepted pass lowers it by at least tol.
    """
    p_raw = np.asarray(p_raw, dtype=float)
    v_bar = np.asarray(v_bar, dtype=float)
    if p_raw.ndim != 2 or v_bar.shape != (p_raw.shape[1], p_raw.shape[1]):
        raise StructuralError("p_raw must be (S, d) and v_bar (d, d)")
    if (p_raw >= 0).all() and (p_raw.sum(axis=0) <= 1.0).all():
        return p_raw.copy()
    lam_max = float(np.linalg.eigvalsh(v_bar)[-1])
    step = 1.0 / (2.0 * lam_max)

    def objective(p):
        diff = p - p_raw
        return float(c_einsum("ij,jk,ik->", diff, v_bar, diff))

    p = _capped_simplex_columns(p_raw)
    obj = objective(p)
    for _ in range(max_iter):
        grad = 2.0 * (p - p_raw).dot(v_bar)
        q = p - step * grad
        q = _capped_simplex_columns(q)
        new_obj = objective(q)
        if obj - new_obj < tol:
            return q if new_obj <= obj else p
        p, obj = q, new_obj
    warnings.warn(f"projection stopped after {max_iter} passes",
                  RuntimeWarning, stacklevel=2)
    return p


def loss_radius(tau, d, n_states, n_actions, lam, delta):
    """Confidence-ellipsoid radius for the loss embedding."""
    arg = 8.0 * n_states * n_actions * (1.0 + tau / lam) / delta
    return math.sqrt(d * math.log(arg)) + math.sqrt(lam)


def dynamics_radius(tau, d, n_states, n_actions, lam, delta):
    """The dynamics embedding's radius: S times the loss radius at S^2 A."""
    return n_states * loss_radius(tau, d, n_states**2, n_actions, lam, delta)


@dataclass(frozen=True)
class Estimates:
    """Per-pair estimates as read-only views that follow later visits until
    a doubling, which allocates new arrays: an earlier Estimates keeps the old.

    l_hat     : (S, A, d)
    p_hat     : (S, A, S, d) projected, sub-stochastic columns
    beta_loss : (S, A)
    beta_dyn  : (S, A)
    """

    l_hat: np.ndarray
    p_hat: np.ndarray
    beta_loss: np.ndarray
    beta_dyn: np.ndarray
