import itertools

import numpy as np
import pytest

from lrcssp.errors import ImproperPolicyError, NonConvergenceError, StructuralError
from lrcssp.ssp import (
    SspInstance,
    bellman_backup,
    expected_hitting_time,
    is_proper,
    policy_evaluation,
    value_iteration,
)


def make_random_ssp(rng, n_states, n_actions, min_goal_mass=0.1):
    loss = rng.uniform(0, 1, size=(n_states, n_actions))
    raw = rng.dirichlet(np.ones(n_states + 1), size=(n_states, n_actions))
    trans = (1 - min_goal_mass) * raw[..., :n_states]
    return SspInstance(loss, trans)


def exact_policy_values(ssp, policy):
    """Independent oracle: solve (I - P_pi) v = l_pi directly."""
    rows = np.arange(ssp.n_states)
    p_pi = ssp.trans[rows, policy]
    l_pi = ssp.loss[rows, policy]
    return np.linalg.solve(np.eye(ssp.n_states) - p_pi, l_pi)


def enumerate_optimal(ssp):
    """Independent oracle: exhaustive policy enumeration, exact evaluation."""
    best_v, best_pi = None, None
    for actions in itertools.product(range(ssp.n_actions), repeat=ssp.n_states):
        pi = np.array(actions)
        v = exact_policy_values(ssp, pi)
        if best_v is None or np.all(v <= best_v + 1e-12):
            best_v, best_pi = v, pi
    return best_v, best_pi


def brute_force_optimal(ssp):
    """Entrywise minimum over all enumerable policies (the true V*)."""
    all_v = []
    for actions in itertools.product(range(ssp.n_actions), repeat=ssp.n_states):
        all_v.append(exact_policy_values(ssp, np.array(actions)))
    return np.min(all_v, axis=0)


class TestBellmanBackup:
    def test_single_state_immediate_goal(self):
        ssp = SspInstance(np.array([[0.3]]), np.zeros((1, 1, 1)))
        v = bellman_backup(np.array([123.0]), ssp)
        assert v[0] == pytest.approx(0.3)

    def test_two_state_deterministic(self):
        loss = np.array([[0.2], [0.1]])
        trans = np.zeros((2, 1, 2))
        trans[0, 0, 1] = 1.0  # s0 -> s1 w.p. 1
        ssp = SspInstance(loss, trans)
        v = bellman_backup(np.array([0.0, 0.5]), ssp)
        assert v[0] == pytest.approx(0.7)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        ssp = make_random_ssp(rng, 3, 2)
        v = rng.uniform(0, 5, size=3)
        got = bellman_backup(v, ssp)
        for s in range(3):
            direct = min(
                ssp.loss[s, a] + sum(ssp.trans[s, a, sp] * v[sp] for sp in range(3))
                for a in range(2)
            )
            assert got[s] == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch(self):
        ssp = SspInstance(np.array([[0.3]]), np.zeros((1, 1, 1)))
        with pytest.raises(StructuralError):
            bellman_backup(np.zeros(2), ssp)

    def test_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            ssp = make_random_ssp(rng, 4, 3)
            v = rng.uniform(0, 3, size=4)
            w = v + rng.uniform(0, 2, size=4)
            assert np.all(bellman_backup(v, ssp) <= bellman_backup(w, ssp) + 1e-12)

    def test_contraction_with_goal_mass(self):
        rng = np.random.default_rng(2)
        gamma = 0.3
        for _ in range(25):
            ssp = make_random_ssp(rng, 4, 2, min_goal_mass=gamma)
            v = rng.uniform(0, 3, size=4)
            w = rng.uniform(0, 3, size=4)
            lhs = np.abs(bellman_backup(v, ssp) - bellman_backup(w, ssp)).max()
            assert lhs <= (1 - gamma) * np.abs(v - w).max() + 1e-12

    def test_goal_contributes_nothing(self):
        # goal_mass = 1 everywhere: backup equals the loss regardless of v
        rng = np.random.default_rng(3)
        loss = rng.uniform(0, 1, size=(3, 2))
        ssp = SspInstance(loss, np.zeros((3, 2, 3)))
        v = rng.uniform(0, 100, size=3)
        assert np.allclose(bellman_backup(v, ssp), loss.min(axis=1))


class TestValueIteration:
    def test_single_state(self):
        ssp = SspInstance(np.array([[0.3]]), np.zeros((1, 1, 1)))
        v, pi = value_iteration(ssp, tol=1e-12)
        assert v[0] == pytest.approx(0.3, abs=1e-10)
        assert pi[0] == 0

    def test_geometric_self_loop(self):
        # stay w.p. 0.5, goal w.p. 0.5, unit loss -> V* = 2
        trans = np.full((1, 1, 1), 0.5)
        ssp = SspInstance(np.array([[1.0]]), trans)
        v, _ = value_iteration(ssp, tol=1e-12)
        assert v[0] == pytest.approx(2.0, abs=1e-9)

    def test_matches_policy_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ssp = make_random_ssp(rng, 3, 2)
            v, pi = value_iteration(ssp, tol=1e-12)
            v_star = brute_force_optimal(ssp)
            assert np.allclose(v, v_star, atol=1e-8)
            assert np.allclose(exact_policy_values(ssp, pi), v_star, atol=1e-8)

    def test_optimal_below_every_policy(self):
        rng = np.random.default_rng(5)
        gamma = 0.2
        ssp = make_random_ssp(rng, 3, 2, min_goal_mass=gamma)
        tol = 1e-9
        v, _ = value_iteration(ssp, tol=tol)
        for actions in itertools.product(range(2), repeat=3):
            v_pi = exact_policy_values(ssp, np.array(actions))
            assert np.all(v <= v_pi + tol / gamma)

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        ssp = make_random_ssp(rng, 4, 3)
        tol = 1e-6
        v, _ = value_iteration(ssp, tol=tol)
        assert np.abs(v - bellman_backup(v, ssp)).max() <= tol

    def test_nonconvergence_reports_residual(self):
        # zero-loss self loop keeps the residual from shrinking to zero fast
        trans = np.ones((1, 1, 1))
        ssp = SspInstance(np.array([[1.0]]), trans)
        with pytest.raises(NonConvergenceError) as exc:
            value_iteration(ssp, tol=1e-12, max_iter=50)
        assert exc.value.residual > 1e-12

    def test_tie_break_lowest_action(self):
        loss = np.array([[0.5, 0.5]])
        ssp = SspInstance(loss, np.zeros((1, 2, 1)))
        _, pi = value_iteration(ssp, tol=1e-10)
        assert pi[0] == 0


class TestPolicyEvaluation:
    def test_deterministic_chain(self):
        n = 4
        loss = np.ones((n, 1))
        trans = np.zeros((n, 1, n))
        for s in range(n - 1):
            trans[s, 0, s + 1] = 1.0
        ssp = SspInstance(loss, trans)
        v = policy_evaluation(ssp, np.zeros(n, dtype=int))
        assert v[0] == pytest.approx(4.0, abs=1e-9)

    def test_improper_self_loop(self):
        ssp = SspInstance(np.array([[1.0]]), np.ones((1, 1, 1)))
        with pytest.raises(ImproperPolicyError):
            policy_evaluation(ssp, np.zeros(1, dtype=int))

    def test_matches_exact_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ssp = make_random_ssp(rng, 4, 2)
            pi = rng.integers(0, 2, size=4)
            v = policy_evaluation(ssp, pi)
            assert np.allclose(v, exact_policy_values(ssp, pi), atol=1e-9)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(8)
        ssp = make_random_ssp(rng, 4, 2, min_goal_mass=0.2)
        pi = rng.integers(0, 2, size=4)
        v = policy_evaluation(ssp, pi)
        n_traj = 10**6
        mc_mean, mc_se = _mc_policy_loss(ssp, pi, start=0, n_traj=n_traj,
                                         rng=np.random.default_rng(9))
        assert abs(v[0] - mc_mean) <= 3 * mc_se

    def test_fixpoint_residual(self):
        rng = np.random.default_rng(10)
        ssp = make_random_ssp(rng, 3, 2)
        pi = rng.integers(0, 2, size=3)
        tol = 1e-7
        v = policy_evaluation(ssp, pi)
        rows = np.arange(3)
        resid = np.abs(v - (ssp.loss[rows, pi] + ssp.trans[rows, pi] @ v)).max()
        assert resid <= tol


def _mc_policy_loss(ssp, pi, start, n_traj, rng, max_steps=10_000):
    """Vectorized rollout oracle: mean cumulative loss and its standard error."""
    rows = np.arange(ssp.n_states)
    p_pi = ssp.trans[rows, pi]
    cum = np.cumsum(np.concatenate(
        [p_pi, (1 - p_pi.sum(axis=1, keepdims=True))], axis=1), axis=1)
    l_pi = ssp.loss[rows, pi]
    state = np.full(n_traj, start)
    alive = np.ones(n_traj, dtype=bool)
    total = np.zeros(n_traj)
    for _ in range(max_steps):
        if not alive.any():
            break
        s = state[alive]
        total[alive] += l_pi[s]
        u = rng.random(s.size)
        nxt = np.argmax(u[:, None] < cum[s], axis=1)
        reached_goal = nxt == ssp.n_states
        idx = np.nonzero(alive)[0]
        state[idx[~reached_goal]] = nxt[~reached_goal]
        alive[idx[reached_goal]] = False
    return total.mean(), total.std(ddof=1) / np.sqrt(n_traj)


def _mc_hitting_time(ssp, pi, start, n_traj, rng):
    unit = SspInstance(np.ones_like(ssp.loss), ssp.trans)
    return _mc_policy_loss(unit, pi, start, n_traj, rng)


class TestHittingTime:
    def test_immediate_goal(self):
        ssp = SspInstance(np.full((3, 2), 0.5), np.zeros((3, 2, 3)))
        t = expected_hitting_time(ssp, np.zeros(3, dtype=int))
        assert np.allclose(t, 1.0)

    def test_geometric(self):
        p = 0.7
        ssp = SspInstance(np.array([[0.2]]), np.full((1, 1, 1), p))
        t = expected_hitting_time(ssp, np.zeros(1, dtype=int))
        assert t[0] == pytest.approx(1 / (1 - p), abs=1e-8)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        ssp = make_random_ssp(rng, 3, 2, min_goal_mass=0.25)
        pi = rng.integers(0, 2, size=3)
        t = expected_hitting_time(ssp, pi)
        mc_mean, mc_se = _mc_hitting_time(ssp, pi, 0, 10**6,
                                          np.random.default_rng(12))
        assert abs(t[0] - mc_mean) <= 3 * mc_se


class TestIsProper:
    def test_uniform_goal_mass(self):
        rng = np.random.default_rng(13)
        ssp = make_random_ssp(rng, 4, 2, min_goal_mass=0.1)
        for actions in itertools.product(range(2), repeat=4):
            assert is_proper(ssp, np.array(actions))

    def test_closed_recurrent_class(self):
        trans = np.zeros((2, 1, 2))
        trans[0, 0, 1] = 1.0
        trans[1, 0, 0] = 1.0
        ssp = SspInstance(np.full((2, 1), 0.5), trans)
        assert not is_proper(ssp, np.zeros(2, dtype=int))

    def test_goal_mass_below_tolerance_is_not_reached(self):
        # rounding-sized goal mass does not make a closed class proper
        ssp = SspInstance(np.array([[0.5]]), np.full((1, 1, 1), 1 - 1e-12))
        assert not is_proper(ssp, np.zeros(1, dtype=int))
        with pytest.raises(ImproperPolicyError):
            expected_hitting_time(ssp, np.zeros(1, dtype=int))

    def test_chain_reachability(self):
        # goal reachable only through the end of a chain; compare against a
        # graph-reachability oracle on the support graph
        n = 5
        trans = np.zeros((n, 2, n))
        for s in range(n - 1):
            trans[s, 0, s + 1] = 1.0  # forward
            trans[s, 1, s] = 1.0  # stay forever
        trans[n - 1, 1, n - 1] = 1.0  # action 1 at the end also loops
        # action 0 at the last state: residual mass 1 -> goal
        ssp = SspInstance(np.full((n, 2), 0.5), trans)

        def reaches_goal_everywhere(pi):
            # BFS on the deterministic support graph toward the goal
            reach = [False] * n
            for s in range(n):
                cur, seen = s, set()
                while cur not in seen:
                    seen.add(cur)
                    row = trans[cur, pi[cur]]
                    if row.sum() < 1 - 1e-12:
                        reach[s] = True
                        break
                    cur = int(np.argmax(row))
            return all(reach)

        for actions in itertools.product(range(2), repeat=n):
            pi = np.array(actions)
            assert is_proper(ssp, pi) == \
                reaches_goal_everywhere(pi)


class TestInstanceValidation:
    def test_rejects_excess_mass(self):
        trans = np.zeros((1, 1, 1))
        trans[0, 0, 0] = 1.5
        with pytest.raises(StructuralError):
            SspInstance(np.array([[0.5]]), trans)

    def test_rejects_negative_probability(self):
        with pytest.raises(StructuralError):
            SspInstance(np.array([[0.5]]), np.full((1, 1, 1), -0.1))

    def test_rejects_out_of_range_loss(self):
        with pytest.raises(StructuralError):
            SspInstance(np.array([[1.5]]), np.zeros((1, 1, 1)))
