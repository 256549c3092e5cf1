import itertools

import numpy as np
import pytest

from lrcssp import harness
from lrcssp.errors import ImproperPolicyError, NonConvergenceError, StructuralError
from lrcssp.linear_model import (
    GeneratorSpec,
    LinearCsspModel,
    generate_instance,
    induce_ssp,
)
from lrcssp.ssp import (
    SspInstance,
    _lookahead,
    expected_hitting_time,
    policy_evaluation,
    value_iteration,
)


def bellman_backup(v, ssp):
    """Oracle: one optimal Bellman backup v'(s) = min_a [loss + trans @ v]
    of an instance or a stack, through value_iteration's lookahead."""
    v = np.asarray(v, dtype=float)
    if v.shape != ssp.loss.shape[:-1]:
        raise StructuralError(
            f"value function must have shape {ssp.loss.shape[:-1]}, "
            f"got {v.shape}")
    return _lookahead(ssp.loss, ssp.trans, v).min(axis=-1)


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


def rejects_as_improper(ssp, policy):
    """Does policy evaluation (here through hitting times) reject the policy?"""
    try:
        expected_hitting_time(ssp, policy)
    except ImproperPolicyError:
        return True
    return False


class TestIsProper:
    """Properness as policy evaluation checks it: ImproperPolicyError exactly
    when some state's support graph never reaches the goal."""

    def test_uniform_goal_mass(self):
        rng = np.random.default_rng(13)
        ssp = make_random_ssp(rng, 4, 2, min_goal_mass=0.1)
        for actions in itertools.product(range(2), repeat=4):
            assert not rejects_as_improper(ssp, np.array(actions))

    def test_closed_recurrent_class(self):
        trans = np.zeros((2, 1, 2))
        trans[0, 0, 1] = 1.0
        trans[1, 0, 0] = 1.0
        ssp = SspInstance(np.full((2, 1), 0.5), trans)
        assert rejects_as_improper(ssp, np.zeros(2, dtype=int))

    def test_goal_mass_below_tolerance_is_not_reached(self):
        # rounding-sized goal mass does not make a closed class proper
        ssp = SspInstance(np.array([[0.5]]), np.full((1, 1, 1), 1 - 1e-12))
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
            assert rejects_as_improper(ssp, pi) == \
                (not reaches_goal_everywhere(pi))


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


class TestStacks:
    """A (K, S, A) stack gives each instance's single-instance results."""

    def make_stack(self, rng, n, n_states=4, n_actions=3):
        parts = [make_random_ssp(rng, n_states, n_actions) for _ in range(n)]
        stack = SspInstance(np.array([p.loss for p in parts]),
                            np.array([p.trans for p in parts]))
        return parts, stack

    def test_value_iteration_matches_instances(self):
        rng = np.random.default_rng(14)
        parts, stack = self.make_stack(rng, 6)
        v, pi = value_iteration(stack, tol=1e-9)
        assert v.shape == pi.shape == (6, 4)
        for k, part in enumerate(parts):
            v_k, pi_k = value_iteration(part, tol=1e-9)
            assert v[k].tobytes() == v_k.tobytes()
            assert np.array_equal(pi[k], pi_k)

    def test_evaluation_matches_instances(self):
        rng = np.random.default_rng(15)
        parts, stack = self.make_stack(rng, 5)
        pi = rng.integers(0, 3, size=(5, 4))
        v = policy_evaluation(stack, pi)
        t = expected_hitting_time(stack, pi)
        values = rng.uniform(0, 5, size=(5, 4))
        backup = bellman_backup(values, stack)
        for k, part in enumerate(parts):
            assert v[k].tobytes() == policy_evaluation(part, pi[k]).tobytes()
            assert t[k].tobytes() == expected_hitting_time(part, pi[k]).tobytes()
            assert backup[k].tobytes() == bellman_backup(values[k], part).tobytes()

    def test_errors_name_first_failing_instance(self):
        good = SspInstance(np.array([[0.3]]), np.full((1, 1, 1), 0.5))
        loop = SspInstance(np.array([[1.0]]), np.ones((1, 1, 1)))
        stack = SspInstance(
            np.array([good.loss, loop.loss, good.loss, loop.loss]),
            np.array([good.trans, loop.trans, good.trans, loop.trans]))
        with pytest.raises(NonConvergenceError) as exc:
            value_iteration(stack, tol=1e-12, max_iter=50)
        with pytest.raises(NonConvergenceError) as single:
            value_iteration(loop, tol=1e-12, max_iter=50)
        assert exc.value.index == 1 and single.value.index is None
        assert str(exc.value) == str(single.value)
        pi = np.zeros((4, 1), dtype=int)
        with pytest.raises(ImproperPolicyError, match=r"states \[0\]") as exc:
            expected_hitting_time(stack, pi)
        assert exc.value.index == 1

    def test_mass_check_reports_first_instance(self):
        trans = np.zeros((3, 1, 1, 1))
        trans[1, 0, 0, 0] = 1.5
        trans[2, 0, 0, 0] = 2.0
        with pytest.raises(StructuralError, match=r"max 1\.500000000000"):
            SspInstance(np.full((3, 1, 1), 0.5), trans)


def value_iteration_oracle(ssp, tol=1e-10, max_iter=10**6):
    """Reference: value_iteration as it was before the np.minimum chain,
    q.min(axis=-1) per sweep, with the stack cut to the unfinished
    instances at every sweep in which one finishes."""
    single = ssp.loss.ndim == 2
    loss = ssp.loss[None] if single else ssp.loss
    trans = ssp.trans[None] if single else ssp.trans
    v_out = np.empty(loss.shape[:-1])
    pi_out = np.empty(loss.shape[:-1], dtype=int)
    todo = np.arange(len(loss))
    v = np.zeros(loss.shape[:-1])
    residual = np.full(len(loss), np.inf)
    for _ in range(max_iter):
        if not todo.size:
            break
        q = _lookahead(loss, trans, v)
        w = q.min(axis=-1)
        residual = np.abs(w - v).max(axis=-1, initial=0.0)
        done = residual <= tol
        if done.any():
            v_out[todo[done]] = v[done]
            pi_out[todo[done]] = q[done].argmin(axis=-1)
            keep = ~done
            todo, loss, trans = todo[keep], loss[keep], trans[keep]
            w, residual = w[keep], residual[keep]
        v = w
    if todo.size:
        raise NonConvergenceError(residual[0], max_iter,
                                  index=None if single else int(todo[0]))
    return (v_out[0], pi_out[0]) if single else (v_out, pi_out)


def hitting_time_oracle(ssp, policy):
    """Reference: expected_hitting_time as it was, the policy evaluated on a
    new, validated instance with unit losses."""
    return policy_evaluation(SspInstance(np.ones_like(ssp.loss), ssp.trans),
                             policy)


def assert_same_solution(got, want):
    (v, pi), (v_want, pi_want) = got, want
    assert v.shape == v_want.shape and v.tobytes() == v_want.tobytes()
    assert pi.dtype == pi_want.dtype and pi.tobytes() == pi_want.tobytes()


def assert_same_failure(ssp, **kwargs):
    """value_iteration and the oracle raise the same NonConvergenceError;
    returns it."""
    with pytest.raises(NonConvergenceError) as got:
        value_iteration(ssp, **kwargs)
    with pytest.raises(NonConvergenceError) as want:
        value_iteration_oracle(ssp, **kwargs)
    assert got.value.index == want.value.index
    assert float(got.value.residual).hex() == \
        float(want.value.residual).hex()
    assert str(got.value) == str(want.value)
    return got.value


def stopping_sweeps(stack, tol=1e-10):
    """Each instance's stopping sweep, by the scalar loop."""
    sweeps = []
    for loss, trans in zip(stack.loss, stack.trans):
        v = np.zeros(len(loss))
        for sweep in itertools.count(1):
            w = (loss + trans @ v).min(axis=1)
            if np.abs(w - v).max() <= tol:
                break
            v = w
        sweeps.append(sweep)
    return sweeps


def mixed_stack(rng, n, n_states, n_actions):
    """n instances whose goal masses range from 0.05 to 0.95, so that they
    stop at many different sweeps."""
    parts = [make_random_ssp(rng, n_states, n_actions,
                             min_goal_mass=rng.uniform(0.05, 0.95))
             for _ in range(n)]
    return SspInstance(np.array([p.loss for p in parts]),
                       np.array([p.trans for p in parts]))


class TestValueIterationOracle:
    """value_iteration against its former loop, bit for bit."""

    @pytest.mark.parametrize("n_states, n_actions", [
        (1, 1), (1, 3), (4, 1), (5, 3), (3, 2)])
    def test_instances_stop_at_different_sweeps(self, n_states, n_actions):
        rng = np.random.default_rng(100 + 10 * n_states + n_actions)
        stack = mixed_stack(rng, 40, n_states, n_actions)
        want = value_iteration_oracle(stack)
        assert_same_solution(value_iteration(stack), want)
        for k in range(len(stack.loss)):
            part = SspInstance(stack.loss[k], stack.trans[k])
            assert_same_solution(value_iteration(part),
                                 (want[0][k], want[1][k]))
        assert len(set(stopping_sweeps(stack))) > 5

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-10])
    def test_tolerances_and_stack_sizes(self, tol):
        rng = np.random.default_rng(int(-np.log10(tol)))
        for n in (1, 2, 3, 7, 64):
            stack = mixed_stack(rng, n, 3, 2)
            assert_same_solution(value_iteration(stack, tol=tol),
                                 value_iteration_oracle(stack, tol=tol))

    def test_signed_zero_losses_and_transitions(self):
        # -0.0 losses and transition entries, given directly: every q and
        # every value stays +0 or positive, and equals the oracle's
        rng = np.random.default_rng(7)
        for n_states, n_actions in [(1, 1), (2, 2), (4, 3)]:
            loss = rng.uniform(0, 1, size=(6, n_states, n_actions))
            loss[rng.random(loss.shape) < 0.5] = -0.0
            loss[0] = -0.0
            trans = 0.5 * rng.dirichlet(np.ones(n_states),
                                        size=(6, n_states, n_actions))
            trans[rng.random(trans.shape) < 0.5] = -0.0
            trans[1] = -0.0
            stack = SspInstance(loss, trans)
            got = value_iteration(stack)
            assert_same_solution(got, value_iteration_oracle(stack))
            assert not np.signbit(got[0]).any()
            q = _lookahead(stack.loss, stack.trans, got[0])
            assert not np.signbit(q).any()

    def test_zero_loss_row_with_signed_zero_contexts(self):
        # an all-zero loss_embed row read at contexts with -0.0 entries
        rng = np.random.default_rng(11)
        model = generate_instance(GeneratorSpec(
            d=3, n_states=4, n_actions=3, gamma_goal=0.1, seed=5))
        loss_embed = model.loss_embed.copy()
        loss_embed[1, 2] = 0.0
        loss_embed[3] = 0.0
        model = LinearCsspModel(loss_embed, model.trans_embed)
        contexts = rng.dirichlet(np.ones(3), size=30)
        contexts[:, 0] = np.where(rng.random(30) < 0.6, -0.0, 0.0)
        contexts /= contexts.sum(axis=1, keepdims=True)
        contexts[:10] = [-0.0, 1.0, -0.0]
        assert np.signbit(contexts).sum() > 20
        stack = induce_ssp(model, contexts)
        assert (stack.loss[:, 3] == 0).all()
        assert (stack.loss[:, 1, 2] == 0).all()
        got = value_iteration(stack)
        assert_same_solution(got, value_iteration_oracle(stack))
        assert not np.signbit(got[0]).any()

    def test_budget_runs_out_after_a_deferred_cut(self):
        # 30 instances converge within a few dozen sweeps and 10 zero-loss
        # self-loops at positions 5, 9, ... never do; the budget ends while
        # finished instances are swept along, and the error names the first
        # loop
        rng = np.random.default_rng(3)
        stack = mixed_stack(rng, 40, 3, 2)
        loss, trans = stack.loss.copy(), stack.trans.copy()
        loops = np.arange(5, 40, 4)
        loss[loops] = 1.0
        trans[loops] = 0.0
        trans[loops, :, :, 0] = 1.0
        stack = SspInstance(loss, trans)
        converging = np.setdiff1d(np.arange(40), loops)
        sweeps = sorted(stopping_sweeps(SspInstance(loss[converging],
                                                    trans[converging])))
        # before any finishes, once half of the stack has, with some
        # converging ones still sweeping, and after all of them
        assert sweeps[19] < sweeps[20] < sweeps[27] < sweeps[-1]
        for budget in (1, sweeps[19], sweeps[20], sweeps[27], sweeps[-1],
                       400):
            err = assert_same_failure(stack, max_iter=budget)
        assert err.index == 5 and err.residual == 1.0
        # the loops alone: none finishes before the budget ends
        err = assert_same_failure(SspInstance(loss[loops], trans[loops]),
                                  max_iter=30)
        assert err.index == 0 and err.residual == 1.0
        # a single instance names no index
        err = assert_same_failure(SspInstance(loss[5], trans[5]), max_iter=7)
        assert err.index is None
        # a budget of no sweep reports an infinite residual
        err = assert_same_failure(stack, max_iter=0)
        assert err.index == 0 and err.residual == np.inf

    @pytest.mark.parametrize("generator, K, run_seeds", [
        ({"n_states": 5, "n_actions": 3, "d": 2}, 1000, [0, 1]),
        ({"n_states": 30, "n_actions": 5, "d": 4}, 25, range(24)),
        ({"n_states": 5, "n_actions": 3, "d": 2}, 100, range(12)),
    ], ids=["ref", "wide", "sweep"])
    def test_benchmark_contexts(self, monkeypatch, generator, K, run_seeds):
        # the oracle of every part of the benchmark's workloads at seed 0,
        # and the hitting times of its greedy policies
        cfg = harness.ExperimentConfig.from_dict({
            "generator": dict(generator, gamma_goal=0.1, l_min_target=0.1,
                              seed=7),
            "contexts": {"kind": "uniform", "K": K},
            "learner": {"delta": 0.1, "l_min": 0.1}})
        model = generate_instance(cfg.generator)
        for run_seed in run_seeds:
            contexts = harness.build_contexts(cfg, run_seed)
            got = harness.oracle_values(model, contexts)
            with monkeypatch.context() as mp:
                mp.setattr(harness, "value_iteration", value_iteration_oracle)
                mp.setattr(harness, "expected_hitting_time",
                           hitting_time_oracle)
                want = harness.oracle_values(model, contexts)
            assert got.v_star_all.tobytes() == want.v_star_all.tobytes()
            assert got.v_star.tobytes() == want.v_star.tobytes()
            assert got.b_star_emp.hex() == want.b_star_emp.hex()
            assert got.t_star_emp.hex() == want.t_star_emp.hex()
            ssp = induce_ssp(model, contexts)
            _, pi = value_iteration(ssp)
            assert expected_hitting_time(ssp, pi).tobytes() == \
                hitting_time_oracle(ssp, pi).tobytes()
