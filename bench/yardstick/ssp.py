"""Tabular goal-oriented shortest-path primitives.

States are indexed 0..n_states-1.  The goal is never a state index: each
(s, a) transition vector may sum to less than one, and the missing mass is
the probability of jumping to the absorbing, cost-free goal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ImproperPolicyError,
    NonConvergenceError,
    StructuralError,
)

GOAL = -1

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class SspInstance:
    """One tabular instance: losses in [0,1], sub-stochastic transitions.

    loss  : (S, A) array
    trans : (S, A, S) array; trans[s, a, s'] = P(s' | s, a), goal mass implicit
    """

    loss: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        loss = np.asarray(self.loss, dtype=float)
        trans = np.asarray(self.trans, dtype=float)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "trans", trans)
        if loss.ndim != 2:
            raise StructuralError(f"loss must be (S, A), got shape {loss.shape}")
        s, a = loss.shape
        if trans.shape != (s, a, s):
            raise StructuralError(
                f"trans must be (S, A, S) = {(s, a, s)}, got {trans.shape}"
            )
        if np.any(loss < 0) or np.any(loss > 1):
            raise StructuralError("loss entries must lie in [0, 1]")
        if np.any(trans < 0):
            raise StructuralError("transition probabilities must be non-negative")
        sums = trans.sum(axis=2)
        if np.any(sums > 1 + _MASS_TOL):
            raise StructuralError(
                f"transition mass exceeds 1 (max {sums.max():.12f})"
            )

    @property
    def n_states(self):
        return self.loss.shape[0]

    @property
    def n_actions(self):
        return self.loss.shape[1]

    @property
    def goal_mass(self):
        """(S, A) array of implicit goal-transition probabilities."""
        return 1.0 - self.trans.sum(axis=2)


def _check_policy(ssp, policy):
    policy = np.asarray(policy, dtype=int)
    if policy.shape != (ssp.n_states,):
        raise StructuralError(f"policy must have shape ({ssp.n_states},)")
    if np.any(policy < 0) or np.any(policy >= ssp.n_actions):
        raise StructuralError("policy action index out of range")
    return policy


def _check_values(ssp, v):
    v = np.asarray(v, dtype=float)
    if v.shape != (ssp.n_states,):
        raise StructuralError(
            f"value function must have shape ({ssp.n_states},), got {v.shape}"
        )
    return v


def q_values(v, ssp):
    """(S, A) array of one-step lookahead values; the goal contributes 0."""
    v = _check_values(ssp, v)
    return ssp.loss + ssp.trans @ v


def bellman_backup(v, ssp):
    """One optimal Bellman backup: v'(s) = min_a [loss + sum trans * v]."""
    return q_values(v, ssp).min(axis=1)


def greedy_policy(v, ssp):
    """Argmin policy for v, ties broken by lowest action index."""
    return q_values(v, ssp).argmin(axis=1)


def value_iteration(ssp, tol=1e-10, max_iter=10**6):
    """Solve the Bellman optimality equations from the zero function.

    Returns (v, policy) where ||v - bellman_backup(v)||_inf <= tol and
    policy is greedy for v.  Raises NonConvergenceError if the residual
    is still above tol after max_iter sweeps (e.g. zero-loss loops).
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    v = np.zeros(ssp.n_states)
    residual = np.inf
    for _ in range(max_iter):
        w = bellman_backup(v, ssp)
        residual = np.abs(w - v).max() if v.size else 0.0
        if residual <= tol:
            return v, greedy_policy(v, ssp)
        v = w
    raise NonConvergenceError(residual, max_iter)


def policy_evaluation(ssp, policy, tol=1e-10, max_iter=10**6, cap=1e9):
    """Iterate v = loss_pi + P_pi v until the sup-norm residual <= tol.

    Raises ImproperPolicyError on divergence (any entry above cap) or when
    max_iter is exhausted; both indicate the policy fails to reach the goal.
    """
    policy = _check_policy(ssp, policy)
    rows = np.arange(ssp.n_states)
    l_pi = ssp.loss[rows, policy]
    p_pi = ssp.trans[rows, policy]
    v = np.zeros(ssp.n_states)
    for _ in range(max_iter):
        w = l_pi + p_pi @ v
        if np.any(w > cap):
            raise ImproperPolicyError(f"value exceeded cap {cap:.1e}")
        residual = np.abs(w - v).max() if v.size else 0.0
        if residual <= tol:
            return v
        v = w
    raise ImproperPolicyError(f"no convergence within {max_iter} iterations")


def expected_hitting_time(ssp, policy, tol=1e-10, max_iter=10**6, cap=1e9):
    """Expected steps to goal under policy: unit losses through the same dynamics."""
    unit = SspInstance(np.ones_like(ssp.loss), ssp.trans)
    return policy_evaluation(unit, policy, tol=tol, max_iter=max_iter, cap=cap)


def is_proper(ssp, policy, max_iter=10**5):
    """True iff the policy reaches the goal with probability 1 from every state."""
    try:
        expected_hitting_time(ssp, policy, tol=1e-8, max_iter=max_iter)
    except ImproperPolicyError:
        return False
    return True
