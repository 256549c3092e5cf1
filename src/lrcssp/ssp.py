"""Tabular goal-oriented shortest-path primitives.

States are indexed 0..n_states-1.  The goal is never a state index: each
(s, a) transition vector may sum to less than one, and the missing mass is
the probability of jumping to the absorbing, cost-free goal.
"""

import functools
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
    """One tabular instance, or a stack of K of them: losses in [0,1],
    sub-stochastic transitions.

    loss  : (S, A) array, or (K, S, A) for a stack
    trans : (S, A, S) array, or (K, S, A, S); trans[..., s, a, s'] =
            P(s' | s, a), goal mass implicit

    Every function below treats the K instances of a stack independently,
    with the same arithmetic as for a single instance, so a stack's results
    equal bit for bit those of its instances solved one at a time.  Errors
    about a stack name the first failing instance in their `index`.
    """

    loss: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        loss = np.asarray(self.loss, dtype=float)
        trans = np.asarray(self.trans, dtype=float)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "trans", trans)
        if loss.ndim not in (2, 3):
            raise StructuralError(
                f"loss must be (S, A) or (K, S, A), got shape {loss.shape}")
        s = loss.shape[-2]
        if trans.shape != loss.shape + (s,):
            raise StructuralError(
                f"trans must be loss.shape + (S,) = {loss.shape + (s,)}, "
                f"got {trans.shape}"
            )
        if np.any(loss < 0) or np.any(loss > 1):
            raise StructuralError("loss entries must lie in [0, 1]")
        if np.any(trans < 0):
            raise StructuralError("transition probabilities must be non-negative")
        sums = trans.sum(axis=-1)
        over = sums > 1 + _MASS_TOL
        if np.any(over):
            index = None
            if over.ndim == 3:  # report the first offending instance
                index = int(over.any(axis=(1, 2)).argmax())
                sums = sums[index]
            raise StructuralError(
                f"transition mass exceeds 1 (max {sums.max():.12f})", index)

    @property
    def n_states(self):
        return self.loss.shape[-2]

    @property
    def n_actions(self):
        return self.loss.shape[-1]

    @property
    def goal_mass(self):
        """(..., S, A) array of implicit goal-transition probabilities."""
        return 1.0 - self.trans.sum(axis=-1)


def _check_policy(ssp, policy):
    policy = np.asarray(policy, dtype=int)
    if policy.shape != ssp.loss.shape[:-1]:
        raise StructuralError(f"policy must have shape {ssp.loss.shape[:-1]}")
    if np.any(policy < 0) or np.any(policy >= ssp.n_actions):
        raise StructuralError("policy action index out of range")
    return policy


def _lookahead(loss, trans, v):
    """Q-values loss + trans @ v of an instance or a stack; the goal
    contributes 0.  The one Bellman lookahead.

    The product runs as one (A, S) @ (S, 1) matrix-vector product per state
    and instance, the same BLAS call as `trans @ v` on a single instance.
    """
    return loss + (trans @ v[..., None, :, None])[..., 0]


def value_iteration(ssp, tol=1e-10, max_iter=10**6):
    """Solve the Bellman optimality equations from the zero function.

    Returns (v, policy) where ||v - T v||_inf <= tol for the optimal
    Bellman backup T v = min_a [loss + trans @ v], and policy is greedy for
    v, ties broken by lowest action index.  Raises NonConvergenceError if
    the residual is still above tol after max_iter sweeps (e.g. zero-loss
    loops).

    On a stack each instance stops at its own first sweep whose residual is
    at most tol and keeps that sweep's input v and greedy policy; the stack
    is cut to the unfinished ones once at least half of it has finished.
    The min over actions, a chain of np.minimum, differs from
    q.min(axis=-1) only on a -0.0/+0.0 tie, and q holds no -0.0: v >= +0,
    trans >= 0 and a matmul's sum starts at +0.0, so trans @ v >= +0, and
    loss + (>= +0) is +0 or positive whatever the sign of a zero loss.
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    single = ssp.loss.ndim == 2
    loss = ssp.loss[None] if single else ssp.loss
    trans = ssp.trans[None] if single else ssp.trans
    v_out = np.empty(loss.shape[:-1])
    pi_out = np.empty(loss.shape[:-1], dtype=int)
    todo = np.arange(len(loss))  # stack positions of the rows below
    live = np.ones(len(loss), dtype=bool)  # rows still sweeping
    v = np.zeros(loss.shape[:-1])
    residual = np.full(len(loss), np.inf)
    for _ in range(max_iter):
        if not live.any():
            break
        q = _lookahead(loss, trans, v)
        w = functools.reduce(np.minimum, q.transpose(2, 0, 1))
        residual = np.abs(w - v).max(axis=-1, initial=0.0)
        done = (residual <= tol) & live
        if done.any():
            v_out[todo[done]] = v[done]
            pi_out[todo[done]] = q[done].argmin(axis=-1)
            live &= ~done
            if 2 * np.count_nonzero(live) <= len(live):
                todo, loss, trans = todo[live], loss[live], trans[live]
                w, residual, live = w[live], residual[live], live[live]
        v = w
    if live.any():  # name the first instance still sweeping
        first = None if single else int(todo[live][0])
        raise NonConvergenceError(residual[live][0], max_iter, index=first)
    return (v_out[0], pi_out[0]) if single else (v_out, pi_out)


def _policy_rows(ssp, policy):
    """Loss (..., S) and transition rows (..., S, S) of the chosen actions."""
    loss = np.take_along_axis(ssp.loss, policy[..., None], axis=-1)[..., 0]
    trans = np.take_along_axis(ssp.trans, policy[..., None, None],
                               axis=-2)[..., 0, :]
    return loss, trans


def _unreachable_states(p_pi):
    """Mask of the states whose support graph under the policy never reaches
    the goal, for transition rows p_pi (..., S, S).

    The goal counts as reached from a state whose goal mass exceeds _MASS_TOL.
    """
    reach = 1.0 - p_pi.sum(axis=-1) > _MASS_TOL
    while True:
        grown = reach | ((p_pi > 0) & reach[..., None, :]).any(axis=-1)
        if np.array_equal(grown, reach):
            return ~reach
        reach = grown


def policy_evaluation(ssp, policy):
    """Exact value of a proper policy: solve (I - P_pi) v = loss_pi.

    Raises ImproperPolicyError if some state cannot reach the goal.
    """
    loss_pi, p_pi = _policy_rows(ssp, _check_policy(ssp, policy))
    stuck = _unreachable_states(p_pi)
    if stuck.any():
        index = None if stuck.ndim == 1 else int(stuck.any(axis=1).argmax())
        states = np.flatnonzero(stuck if index is None else stuck[index])
        raise ImproperPolicyError(
            f"states {states.tolist()} cannot reach the goal", index=index)
    return np.linalg.solve(np.eye(ssp.n_states) - p_pi,
                           loss_pi[..., None])[..., 0]


def expected_hitting_time(ssp, policy):
    """Expected steps to goal under policy: unit losses through the same dynamics."""
    unit = SspInstance(np.ones_like(ssp.loss), ssp.trans)
    return policy_evaluation(unit, policy)
