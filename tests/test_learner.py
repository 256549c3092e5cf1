import math

import numpy as np
import pytest
from scipy.optimize import linprog

from lrcssp.errors import ConfigError
from lrcssp.estimation import (
    REFRESH_EVERY,
    SaStatistics,
    compute_pair_estimate,
    context_norms,
    is_known,
    known_threshold,
)
from lrcssp.learner import (
    Learner,
    LearnerConfig,
    auto_epsilon,
    evi_plan,
    run,
)
from lrcssp.linear_model import GeneratorSpec, context_sequence, generate_instance
from lrcssp.ssp import value_iteration


def optimistic_loss(c, l_hat, beta_loss, c_norm):
    """Scalar oracle: minimum of <c, L> over the loss ellipsoid, clipped to [0, 1]."""
    return float(np.clip(c @ l_hat - beta_loss * c_norm, 0.0, 1.0))


def l1_optimistic_distribution(p, radius, values):
    """Scalar oracle: minimize q . values over sub-distributions q with
    ||q - p||_1 <= radius.

    values are non-negative and the goal (implicit residual mass) has value
    zero, so the optimum removes mass from the highest-value states first.
    """
    q = np.asarray(p, dtype=float).copy()
    budget = radius
    for idx in np.argsort(-np.asarray(values)):
        if budget <= 0:
            break
        take = min(q[idx], budget)
        q[idx] -= take
        budget -= take
    return q


REF_SPEC = GeneratorSpec(d=2, n_states=5, n_actions=3, gamma_goal=0.1,
                         l_min_target=0.1, seed=7)
REF_CFG = LearnerConfig(delta=0.1, l_min=0.1)


def ref_run(K=30, run_seed=3, ctx_seed=0, **kwargs):
    model = generate_instance(REF_SPEC)
    contexts = context_sequence("uniform", K, model.d,
                                rng=np.random.default_rng(ctx_seed))
    return model, run(REF_CFG, model, contexts, seed=run_seed, **kwargs)


class TestLearnerConfig:
    def test_defaults_valid(self):
        LearnerConfig()

    @pytest.mark.parametrize("bad", [
        dict(delta=0.0), dict(delta=1.0), dict(lam=0.5), dict(l_min=-0.1),
        dict(epsilon_perturb=-1.0), dict(b_star_init=0.5), dict(evi_tol=0.0),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ConfigError):
            LearnerConfig(**bad)


class TestAutoEpsilon:
    def test_formula(self):
        assert auto_epsilon(5, 2, 3, 1000) == pytest.approx(
            5 * (4 * 3 / 1000) ** (1 / 3))

    def test_shrinks_with_horizon(self):
        assert auto_epsilon(3, 2, 2, 10**6) < auto_epsilon(3, 2, 2, 10**3)


class TestOptimisticLoss:
    def test_zero_radius_is_point_estimate(self):
        c = np.array([0.4, 0.6])
        l_hat = np.array([0.3, 0.9])
        assert optimistic_loss(c, l_hat, 0.0, 0.0) == pytest.approx(c @ l_hat)

    def test_clipped_at_zero(self):
        c = np.array([1.0])
        assert optimistic_loss(c, np.array([0.1]), 5.0, 1.0) == 0.0

    def test_matches_ellipsoid_boundary_sampling(self):
        # oracle: minimize <c, l_hat + V^{-1/2} u>, ||u|| <= beta, by dense
        # sampling of the ball boundary (the linear objective attains its
        # minimum there)
        rng = np.random.default_rng(0)
        d = 2
        for _ in range(10):
            c = rng.dirichlet(np.ones(d))
            l_hat = rng.uniform(0.3, 0.7, size=d)
            a = rng.normal(0, 1, size=(d, d))
            v_bar = a @ a.T + np.eye(d)
            v_inv = np.linalg.inv(v_bar)
            beta = rng.uniform(0.05, 0.3)
            c_norm = math.sqrt(c @ v_inv @ c)
            got = optimistic_loss(c, l_hat, beta, c_norm)
            # sample the ellipsoid {l : ||l - l_hat||_V <= beta} boundary
            thetas = np.linspace(0, 2 * np.pi, 20_000, endpoint=False)
            circle = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
            sqrt_vinv = np.linalg.cholesky(v_inv)
            pts = l_hat + beta * circle @ sqrt_vinv.T
            want = np.clip((pts @ c).min(), 0.0, 1.0)
            assert got == pytest.approx(want, abs=1e-3)


def linprog_inner_oracle(p, radius, values):
    """LP oracle for min q.values over {q >= 0, sum q <= 1, ||q-p||_1 <= r}.

    Encodes the L1 constraint with auxiliary variables t: q - p <= t,
    p - q <= t, sum t <= r.
    """
    n = len(p)
    cvec = np.concatenate([values, np.zeros(n)])
    a_ub = []
    b_ub = []
    a_ub.append(np.concatenate([np.ones(n), np.zeros(n)]))
    b_ub.append(1.0)
    a_ub.append(np.concatenate([np.zeros(n), np.ones(n)]))
    b_ub.append(radius)
    for i in range(n):
        row = np.zeros(2 * n)
        row[i], row[n + i] = 1.0, -1.0
        a_ub.append(row)
        b_ub.append(p[i])
        row = np.zeros(2 * n)
        row[i], row[n + i] = -1.0, -1.0
        a_ub.append(row)
        b_ub.append(-p[i])
    res = linprog(cvec, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  bounds=[(0, None)] * (2 * n), method="highs")
    assert res.success
    return res.x[:n] @ values


class TestL1OptimisticDistribution:
    def test_zero_radius_identity(self):
        p = np.array([0.3, 0.4])
        q = l1_optimistic_distribution(p, 0.0, np.array([1.0, 2.0]))
        assert np.array_equal(q, p)

    def test_large_radius_removes_everything(self):
        p = np.array([0.3, 0.4])
        q = l1_optimistic_distribution(p, 2.0, np.array([1.0, 2.0]))
        assert np.allclose(q, 0.0)

    def test_removes_highest_value_first(self):
        p = np.array([0.5, 0.5])
        q = l1_optimistic_distribution(p, 0.3, np.array([1.0, 3.0]))
        assert np.allclose(q, [0.5, 0.2])

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(n + 1))[:n]  # sub-distribution
            radius = float(rng.uniform(0, 1.5))
            values = rng.uniform(0, 3, size=n)
            q = l1_optimistic_distribution(p, radius, values)
            assert np.all(q >= -1e-12) and q.sum() <= 1 + 1e-12
            assert np.abs(q - p).sum() <= radius + 1e-9
            assert q @ values == pytest.approx(
                linprog_inner_oracle(p, radius, values), abs=1e-8)


class TestEviPlan:
    def _random_inputs(self, rng, n_states=4, n_actions=3):
        opt_loss = rng.uniform(0.1, 1.0, size=(n_states, n_actions))
        raw = rng.dirichlet(np.ones(n_states + 1),
                            size=(n_states, n_actions))
        p_ctx = 0.9 * raw[..., :n_states]
        return opt_loss, p_ctx

    def test_zero_radius_equals_value_iteration(self):
        rng = np.random.default_rng(2)
        opt_loss, p_ctx = self._random_inputs(rng)
        res = evi_plan(opt_loss, p_ctx, np.zeros((4, 3)), b_cap=1e6,
                       evi_tol=1e-12, evi_max_iter=10**6)
        from lrcssp.ssp import SspInstance
        v_star, pi_star = value_iteration(SspInstance(opt_loss, p_ctx),
                                          tol=1e-12)
        assert np.allclose(res.values, v_star, atol=1e-9)
        assert np.array_equal(res.policy, pi_star)

    def test_huge_radius_sends_all_mass_to_goal(self):
        rng = np.random.default_rng(3)
        opt_loss, p_ctx = self._random_inputs(rng)
        res = evi_plan(opt_loss, p_ctx, np.full((4, 3), 2.0), b_cap=1e6,
                       evi_tol=1e-12, evi_max_iter=10**5)
        assert np.allclose(res.optimistic_ssp.trans, 0.0)
        assert np.allclose(res.values, opt_loss.min(axis=1))

    def test_backup_uses_exact_inner_minimizer(self):
        # one EVI backup from a random value vector must match the LP oracle
        rng = np.random.default_rng(4)
        n_states, n_actions = 3, 2
        opt_loss, p_ctx = self._random_inputs(rng, n_states, n_actions)
        radius = rng.uniform(0, 0.6, size=(n_states, n_actions))
        v = rng.uniform(0, 2, size=n_states)
        # reproduce a single backup via evi_plan internals: run one iteration
        res = evi_plan(opt_loss, p_ctx, radius, b_cap=1e9,
                       evi_tol=np.inf, evi_max_iter=1)
        # from v = 0 the first backup minimizes q.0 = 0, so instead check
        # the converged model directly against the oracle at its own values
        res = evi_plan(opt_loss, p_ctx, radius, b_cap=1e9,
                       evi_tol=1e-10, evi_max_iter=10**5)
        v = res.values
        for s in range(n_states):
            for a in range(n_actions):
                inner = linprog_inner_oracle(p_ctx[s, a], radius[s, a], v)
                got = res.optimistic_ssp.trans[s, a] @ v
                assert got == pytest.approx(inner, abs=1e-7)

    def test_optimistic_model_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            opt_loss, p_ctx = self._random_inputs(rng)
            radius = rng.uniform(0, 0.6, size=(4, 3))
            res = evi_plan(opt_loss, p_ctx, radius, b_cap=1e6,
                           evi_tol=1e-10, evi_max_iter=10**5)
            for s in range(4):
                for a in range(3):
                    want = l1_optimistic_distribution(p_ctx[s, a],
                                                      radius[s, a], res.values)
                    np.testing.assert_allclose(res.opt_trans[s, a], want,
                                               rtol=0, atol=1e-15)

    def test_values_below_true_optimum(self):
        # with truthful p_ctx and any radii, optimistic values cannot exceed
        # the zero-radius optimum
        rng = np.random.default_rng(5)
        opt_loss, p_ctx = self._random_inputs(rng)
        base = evi_plan(opt_loss, p_ctx, np.zeros((4, 3)), b_cap=1e6,
                        evi_tol=1e-10, evi_max_iter=10**5)
        wide = evi_plan(opt_loss, p_ctx, rng.uniform(0, 0.5, size=(4, 3)),
                        b_cap=1e6, evi_tol=1e-10, evi_max_iter=10**5)
        assert np.all(wide.values <= base.values + 1e-8)

    def test_cap_is_enforced(self):
        # improper optimistic model: self loop with positive loss, tiny cap
        opt_loss = np.array([[0.5]])
        p_ctx = np.ones((1, 1, 1))
        res = evi_plan(opt_loss, p_ctx, np.zeros((1, 1)), b_cap=3.0,
                       evi_tol=1e-9, evi_max_iter=10**5)
        assert res.values[0] <= 3.0

    def test_nonconvergence_flagged_not_raised(self):
        opt_loss = np.array([[0.5]])
        p_ctx = np.ones((1, 1, 1))
        res = evi_plan(opt_loss, p_ctx, np.zeros((1, 1)), b_cap=1e9,
                       evi_tol=1e-12, evi_max_iter=10)
        assert not res.converged
        assert res.residual > 1e-12

    def test_monotone_iterates(self):
        # value at any earlier max_iter is dominated by a later one
        rng = np.random.default_rng(6)
        opt_loss, p_ctx = self._random_inputs(rng)
        radius = rng.uniform(0, 0.3, size=(4, 3))
        prev = np.zeros(4)
        for iters in (1, 2, 5, 10, 50, 200):
            res = evi_plan(opt_loss, p_ctx, radius, b_cap=1e6,
                           evi_tol=0.0, evi_max_iter=iters)
            assert np.all(res.values >= prev - 1e-12)
            prev = res.values

    def test_tie_break_lowest_action(self):
        opt_loss = np.array([[0.5, 0.5]])
        p_ctx = np.zeros((1, 2, 1))
        res = evi_plan(opt_loss, p_ctx, np.zeros((1, 2)), b_cap=1e6,
                       evi_tol=1e-9, evi_max_iter=100)
        assert res.policy[0] == 0


class TestRun:
    def test_deterministic_replay(self):
        _, log1 = ref_run(K=20)
        _, log2 = ref_run(K=20)
        assert log1.total_steps == log2.total_steps
        assert log1.total_intervals == log2.total_intervals
        assert [e.total_loss for e in log1.episodes] == \
            [e.total_loss for e in log2.episodes]
        assert log1.step_trace == log2.step_trace

    def test_seed_changes_trajectories(self):
        _, log1 = ref_run(K=20, run_seed=3)
        _, log2 = ref_run(K=20, run_seed=4)
        assert [e.total_loss for e in log1.episodes] != \
            [e.total_loss for e in log2.episodes]

    def test_interval_triggers_replay(self):
        # reconstruct the trigger sequence from the step trace and compare
        # with the recorded interval triggers
        _, log = ref_run(K=15)
        expected = []
        for k, episode in enumerate(log.episodes):
            expected.append("start" if k == 0 else "goal")
            steps = [t for t in log.step_trace if t[0] == k]
            for (_, _, _, goal_reached, known) in steps[:-1]:
                assert not goal_reached
                if not known:
                    expected.append("unknown")
            # last step either reaches the goal (no new interval) or not
            if not steps[-1][3] and not steps[-1][4]:
                expected.append("unknown")
        got = [r.trigger for r in log.interval_records]
        assert got == expected

    def test_goal_step_never_opens_interval(self):
        _, log = ref_run(K=15)
        for r, nxt in zip(log.interval_records, log.interval_records[1:]):
            if nxt.trigger == "unknown":
                assert nxt.episode == r.episode

    def test_episode_accounting(self):
        _, log = ref_run(K=15)
        for e in log.episodes:
            assert e.steps == sum(r.steps for r in e.intervals)
            assert e.total_loss == pytest.approx(
                sum(r.interval_loss for r in e.intervals))
            assert e.intervals_started == len(e.intervals)
        assert log.total_steps == len(log.step_trace)
        assert log.total_intervals == len(log.interval_records)
        assert int(log.unknown_counts.sum()) == sum(
            e.unknown_triggers for e in log.episodes)

    def test_interval_indices_strictly_increase(self):
        _, log = ref_run(K=10)
        ms = [r.m for r in log.interval_records]
        assert ms == list(range(1, len(ms) + 1))

    def test_doubling_bound(self):
        # the final working bound is b_star_init * 2^doublings and can
        # overshoot any reachable optimistic value by at most one doubling
        model, log = ref_run(K=50)
        final_b = log.episodes[-1].b_star_end
        assert final_b == REF_CFG.b_star_init * 2 ** log.doubling_events
        # true B* on the reference family stays below ~2, so
        assert log.doubling_events <= 4

    def test_perturbation_mode(self):
        cfg = LearnerConfig(delta=0.1, l_min=0.0)
        model = generate_instance(REF_SPEC)
        K = 40
        contexts = context_sequence("uniform", K, model.d,
                                    rng=np.random.default_rng(0))
        log = run(cfg, model, contexts, seed=3)
        assert log.epsilon == pytest.approx(
            auto_epsilon(model.n_states, model.d, model.n_actions, K))
        # losses in the log stay raw: with bernoulli noise each episode's
        # total is an integer
        for e in log.episodes:
            assert e.total_loss == int(e.total_loss)

    def test_explicit_perturbation_overrides_auto(self):
        cfg = LearnerConfig(delta=0.1, l_min=0.0, epsilon_perturb=0.25)
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 10, model.d,
                                    rng=np.random.default_rng(0))
        log = run(cfg, model, contexts, seed=3)
        assert log.epsilon == 0.25

    def test_positive_l_min_disables_perturbation(self):
        _, log = ref_run(K=10)
        assert log.epsilon == 0.0

    def test_adaptive_contexts_drive_run(self):
        model = generate_instance(REF_SPEC)
        calls = []

        def cb(history):
            calls.append(len(history))
            return np.full(model.d, 1.0 / model.d)

        provider = context_sequence("adaptive", 8, model.d, callback=cb)
        log = run(REF_CFG, model, provider, seed=3, n_episodes=8)
        assert len(log.episodes) == 8
        assert calls == list(range(8))

    def test_adaptive_requires_n_episodes(self):
        model = generate_instance(REF_SPEC)
        provider = context_sequence(
            "adaptive", 8, model.d,
            callback=lambda h: np.full(model.d, 1.0 / model.d))
        with pytest.raises(ConfigError):
            run(REF_CFG, model, provider, seed=3)

    def test_perceived_contexts_change_learning_not_environment(self):
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 12, model.d,
                                    rng=np.random.default_rng(0))
        blind = [np.full(model.d, 1.0 / model.d) for _ in contexts]
        log = run(REF_CFG, model, contexts, seed=3, perceived_contexts=blind)
        for e, c in zip(log.episodes, contexts):
            assert np.array_equal(e.context, c)  # environment context logged

    def test_init_states_respected(self):
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 6, model.d,
                                    rng=np.random.default_rng(0))
        init = [4, 3, 2, 1, 0, 4]
        log = run(REF_CFG, model, contexts, seed=3, init_states=init)
        for e, s0 in zip(log.episodes, init):
            k = e.episode
            first = next(t for t in log.step_trace if t[0] == k)
            assert first[1] == s0

    @pytest.mark.parametrize("init", [
        [-1, -1, -1, -1], [99, 0, 0, 0], [0, 0, 0], [0, 0, 0, 0, 0],
        [0, 1.0, 2, 3],
    ], ids=["goal_sentinel", "out_of_range", "too_few", "too_many", "not_int"])
    def test_rejects_invalid_init_states(self, init):
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 4, model.d,
                                    rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            run(REF_CFG, model, contexts, seed=3, init_states=init)

    def test_truncation_counted(self):
        cfg = LearnerConfig(delta=0.1, l_min=0.1, episode_step_cap=1)
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 5, model.d,
                                    rng=np.random.default_rng(0))
        log = run(cfg, model, contexts, seed=3)
        # cap of one step: any episode not reaching the goal immediately
        # truncates; with gamma_goal = 0.1 some must
        assert log.truncation_count >= 1
        assert all(e.steps <= 1 for e in log.episodes)

    def test_diagnostics_do_not_disturb_run(self):
        model, plain = ref_run(K=12)
        _, diag = ref_run(K=12, diagnostics_model=model)
        assert plain.step_trace == diag.step_trace
        assert [e.total_loss for e in plain.episodes] == \
            [e.total_loss for e in diag.episodes]
        assert all(r.coverage_ok is not None for r in diag.interval_records)


class TestStackedStatistics:
    """The learner's pair statistics live in one stacked store."""

    def _learner(self, visits=40, seed=0):
        model = generate_instance(REF_SPEC)
        learner = Learner(REF_CFG, model, REF_CFG.l_min)
        rng = np.random.default_rng(seed)
        for _ in range(visits):
            s = int(rng.integers(model.n_states))
            a = int(rng.integers(model.n_actions))
            nxt = int(rng.integers(-1, model.n_states))
            learner.stats[s][a].record_visit(rng.dirichlet(np.ones(model.d)),
                                             nxt, float(rng.random()))
        return model, learner

    def _make_known(self, learner, pairs):
        # pin a tiny uncertainty, writing through the views into the store
        for s, a in pairs:
            learner.stats[s][a].v_bar[...] = 1e12 * np.eye(learner.d)
            learner.stats[s][a].v_bar_inv[...] = 1e-12 * np.eye(learner.d)

    def test_batched_norms_equal_per_pair_norms(self):
        model, learner = self._learner(visits=200)
        rng = np.random.default_rng(1)
        for c in rng.dirichlet(np.ones(model.d), size=20):
            batched = context_norms(learner.store.v_bar_inv, c)
            per_pair = np.array([[st.context_norm(c) for st in row]
                                 for row in learner.stats])
            # the per-pair loop the batched expression replaced
            loop = np.array([
                [math.sqrt(max(0.0, float(c @ st.v_bar_inv @ c)))
                 for st in row] for row in learner.stats])
            np.testing.assert_allclose(batched, per_pair, rtol=1e-12)
            np.testing.assert_allclose(batched, loop, rtol=1e-12)

    def test_vectorised_known_count_equals_scalar_count(self):
        model, learner = self._learner()
        self._make_known(learner, [(0, 0), (2, 1), (4, 2)])
        c = np.array([0.3, 0.7])
        record = learner.start_interval(c, 0, "start")
        assert learner.doubling_events == 0
        scalar = sum(
            is_known(st, c, learner.l_min_eff, learner.b_star_cur, learner.m,
                     REF_CFG.delta, model.n_states, model.n_actions)
            for row in learner.stats for st in row)
        assert scalar == 3
        n_pairs = model.n_states * model.n_actions
        assert record.known_fraction * n_pairs == pytest.approx(scalar)

    def test_interval_losses_match_scalar_oracle(self, monkeypatch):
        # enough visits that the optimistic losses lie inside (0, 1)
        model, learner = self._learner(visits=20_000)
        calls = []

        def recording_evi_plan(opt_loss, *args, **kwargs):
            calls.append(opt_loss.copy())
            return evi_plan(opt_loss, *args, **kwargs)

        monkeypatch.setattr("lrcssp.learner.evi_plan", recording_evi_plan)
        c = np.array([0.3, 0.7])
        learner.start_interval(c, 0, "start")
        assert learner.doubling_events == 0 and len(calls) == 1
        assert 0 < calls[0].min() and calls[0].max() < 1
        est = learner.snapshot_estimates()
        for s in range(model.n_states):
            for a in range(model.n_actions):
                want = optimistic_loss(c, est.l_hat[s, a], est.beta_loss[s, a],
                                       learner.stats[s][a].context_norm(c))
                assert calls[0][s, a] == pytest.approx(want, rel=0, abs=1e-15)

    def test_known_threshold_array_matches_scalar(self):
        beta = np.array([[0.5, 3.0], [40.0, 1e6]])
        got = known_threshold(beta, 0.1, 2.0, 50, 0.1)
        want = [[known_threshold(float(b), 0.1, 2.0, 50, 0.1) for b in row]
                for row in beta]
        assert np.array_equal(got, want)

    def test_refresh_writes_inverse_in_place(self):
        model, learner = self._learner(visits=0)
        stats = learner.stats[1][2]
        rng = np.random.default_rng(2)
        for c in rng.dirichlet(np.ones(model.d), size=REFRESH_EVERY + 100):
            stats.record_visit(c, 0, 0.0)
        assert stats.tau == REFRESH_EVERY + 100
        assert np.shares_memory(stats.v_bar_inv, learner.store.v_bar_inv)
        assert np.shares_memory(stats.v_bar, learner.store.v_bar)
        np.testing.assert_allclose(stats.v_bar_inv, np.linalg.inv(stats.v_bar),
                                   atol=1e-10)
        assert np.array_equal(learner.store.v_bar_inv[1, 2], stats.v_bar_inv)

    def test_snapshot_is_read_only_and_current(self):
        model, learner = self._learner()
        est = learner.snapshot_estimates()
        for name in ("l_hat", "p_hat_raw", "p_hat", "beta_loss", "beta_dyn"):
            with pytest.raises(ValueError):
                getattr(est, name)[...] = 0.0
        fresh = SaStatistics(model.d, model.n_states, REF_CFG.lam)
        stats = learner.stats[3][1]
        for name in ("v_bar", "v_bar_inv", "xty_loss", "xty_trans"):
            getattr(fresh, name)[...] = getattr(stats, name)
        fresh.tau = stats.tau
        want = compute_pair_estimate(fresh, model.n_actions, REF_CFG.delta)
        np.testing.assert_array_equal(est.l_hat[3, 1], want[0])
        np.testing.assert_array_equal(est.p_hat[3, 1], want[2])
        assert est.beta_dyn[3, 1] == want[4]

    def test_plan_builds_optimistic_model_on_demand(self):
        res = evi_plan(np.full((2, 1), 0.5), np.full((2, 1, 2), 0.25),
                       np.zeros((2, 1)), b_cap=1e6, evi_tol=1e-10,
                       evi_max_iter=10**5)
        assert "optimistic_ssp" not in vars(res)
        assert res.optimistic_ssp is res.optimistic_ssp
        assert np.array_equal(res.optimistic_ssp.trans, res.opt_trans)
