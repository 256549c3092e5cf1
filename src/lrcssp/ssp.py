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

    On a stack each instance keeps the input v and greedy policy of its own
    first sweep whose residual is at most tol, swept along until all stop.
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
    live = np.ones(len(loss), dtype=bool)  # instances still sweeping
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
            v_out[done] = v[done]
            pi_out[done] = q[done].argmin(axis=-1)
            live &= ~done
        v = w
    if live.any():  # name the first instance still sweeping
        first = None if single else int(live.argmax())
        raise NonConvergenceError(residual[live][0], max_iter, index=first)
    return (v_out[0], pi_out[0]) if single else (v_out, pi_out)


def check_goal_reachable(trans):
    """Raise ImproperPolicyError naming the first instance's states that no
    policy takes to the goal under trans (..., S, A, S): a state reaches it by
    an action's goal mass above _MASS_TOL or a move to one that does."""
    reach = (1.0 - trans.sum(axis=-1) > _MASS_TOL).any(axis=-1)
    while True:
        grown = reach | ((trans > 0) & reach[..., None, None, :]).any(
            axis=(-2, -1))
        if np.array_equal(grown, reach):
            break
        reach = grown
    stuck = ~reach
    if stuck.any():
        index = None if stuck.ndim == 1 else int(stuck.any(axis=1).argmax())
        states = np.flatnonzero(stuck if index is None else stuck[index])
        raise ImproperPolicyError(
            f"states {states.tolist()} cannot reach the goal", index=index)


def _proper_system(ssp, policy):
    """I - P_pi of a policy that reaches the goal from every state, with the
    checked policy; raises ImproperPolicyError naming the stuck states."""
    policy = _check_policy(ssp, policy)
    p_pi = np.take_along_axis(ssp.trans, policy[..., None, None], axis=-2)
    check_goal_reachable(p_pi)  # the policy's one action per state
    return np.eye(ssp.n_states) - p_pi[..., 0, :], policy


def policy_evaluation(ssp, policy):
    """Exact value of a proper policy: solve (I - P_pi) v = loss_pi.

    Raises ImproperPolicyError if some state cannot reach the goal.
    """
    system, policy = _proper_system(ssp, policy)
    loss_pi = np.take_along_axis(ssp.loss, policy[..., None], axis=-1)
    return np.linalg.solve(system, loss_pi)[..., 0]


def expected_hitting_time(ssp, policy):
    """Expected steps to goal under policy: unit losses through the same
    dynamics, solved like policy_evaluation without a second instance."""
    system, _ = _proper_system(ssp, policy)
    return np.linalg.solve(system, np.ones(system.shape[:-1] + (1,)))[..., 0]
