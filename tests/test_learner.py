import bisect
import dataclasses
import functools
import itertools
import math
import struct
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lrcssp import estimation
from lrcssp import learner as learner_mod
from lrcssp.errors import ConfigError, ProtocolError, StructuralError
from lrcssp.estimation import (
    REFRESH_EVERY,
    SaStatistics,
    _capped_simplex_columns,
    context_norms,
    dynamics_radius,
    known_floor,
    known_threshold,
    loss_radius,
    project_to_stochastic,
)
from lrcssp.harness import ExperimentConfig, build_contexts
from lrcssp.learner import (
    ROW_EMPTYING_RADIUS,
    UNIFORM_BLOCK,
    Plan,
    Learner,
    LearnerConfig,
    _environment,
    _EpisodeSampler,
    _evi_backup,
    _sampler_tables,
    _uniforms,
    auto_epsilon,
    evi_plan,
    run,
)
from lrcssp.linear_model import (
    SIMPLEX_TOL,
    AdaptiveContexts,
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
    validate_context,
)
from lrcssp.ssp import GOAL, SspInstance, value_iteration
from test_acceptance import _check_identities
from test_estimation import compute_pair_estimate, context_norm, is_known


def pair_stats(learner, s, a):
    """A one-pair SaStatistics holding a copy of the learner's pair (s, a)."""
    store = learner.store
    stats = SaStatistics(store.d, store.n_states, store.lam)
    for name in ("tau", "v_bar", "v_bar_inv", "xty_loss", "xty_trans"):
        getattr(stats, name)[...] = getattr(store, name)[s, a]
    return stats


def visit_at(learner, s, a, c, next_state, loss):
    """learner.visit with c made the interval's context first, as
    start_interval makes it."""
    learner._use_context(c)
    return learner.visit(s, a, next_state, loss)


ESTIMATES = ("l_hat", "p_hat", "beta_loss", "beta_dyn")


def pair_estimate(stats, n_actions, delta):
    """One pair's (l_hat, p_hat, beta_loss, beta_dyn), as in ESTIMATES."""
    l_hat, p_raw, beta_l, beta_p = compute_pair_estimate(
        stats, n_actions, delta)
    return l_hat, project_to_stochastic(p_raw, stats.v_bar), beta_l, beta_p


def pair_estimates_of(est, s, a):
    """The pair (s, a)'s entries of an Estimates, as in ESTIMATES."""
    return tuple(getattr(est, name)[s, a] for name in ESTIMATES)


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

    def test_rejects_epsilon_perturb_beside_l_min(self):
        # epsilon_perturb is the loss floor of l_min == 0 only
        with pytest.raises(ConfigError, match="epsilon_perturb"):
            LearnerConfig(l_min=0.1, epsilon_perturb=0.3)


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


def optimistic_model(opt_loss, p_ctx, radius, values):
    """(S, A, S) optimistic transitions of one EVI backup at values: what a
    plan with those values, radii and dynamics picks."""
    _, order, q_ord = _evi_backup(opt_loss, p_ctx, radius[:, :, None],
                                  np.asarray(values))
    q_trans = np.empty_like(p_ctx)
    q_trans[:, :, order] = q_ord
    return q_trans


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
        v_star, pi_star = value_iteration(SspInstance(opt_loss, p_ctx),
                                          tol=1e-12)
        assert np.allclose(res.values, v_star, atol=1e-9)
        assert np.array_equal(res.policy, pi_star)

    def test_huge_radius_sends_all_mass_to_goal(self):
        rng = np.random.default_rng(3)
        opt_loss, p_ctx = self._random_inputs(rng)
        radius = np.full((4, 3), 2.0)
        res = evi_plan(opt_loss, p_ctx, radius, b_cap=1e6,
                       evi_tol=1e-12, evi_max_iter=10**5)
        assert np.allclose(optimistic_model(opt_loss, p_ctx, radius,
                                            np.asarray(res.values)), 0.0)
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
        v = np.asarray(res.values)
        q_trans = optimistic_model(opt_loss, p_ctx, radius, v)
        for s in range(n_states):
            for a in range(n_actions):
                inner = linprog_inner_oracle(p_ctx[s, a], radius[s, a], v)
                got = q_trans[s, a] @ v
                assert got == pytest.approx(inner, abs=1e-7)

    def test_optimistic_model_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            opt_loss, p_ctx = self._random_inputs(rng)
            radius = rng.uniform(0, 0.6, size=(4, 3))
            res = evi_plan(opt_loss, p_ctx, radius, b_cap=1e6,
                           evi_tol=1e-10, evi_max_iter=10**5)
            q_trans = optimistic_model(opt_loss, p_ctx, radius, res.values)
            for s in range(4):
                for a in range(3):
                    want = l1_optimistic_distribution(p_ctx[s, a],
                                                      radius[s, a], res.values)
                    np.testing.assert_allclose(q_trans[s, a], want,
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
        assert np.all(np.asarray(wide.values) <= np.add(base.values, 1e-8))

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
            prev = np.asarray(res.values)

    def test_residual_at_evi_tol_stops_after_one_sweep(self):
        # the first sweep moves v from 0 to opt_loss, a residual of exactly
        # evi_tol: the stop test is residual <= evi_tol, so one sweep
        res = evi_plan(np.array([[0.25]]), np.zeros((1, 1, 1)),
                       np.zeros((1, 1)), b_cap=1.0, evi_tol=0.25,
                       evi_max_iter=10)
        assert (res.residual, res.converged, res.iterations) == (
            0.25, True, 1)

    def test_tie_break_lowest_action(self):
        opt_loss = np.array([[0.5, 0.5]])
        p_ctx = np.zeros((1, 2, 1))
        res = evi_plan(opt_loss, p_ctx, np.zeros((1, 2)), b_cap=1e6,
                       evi_tol=1e-9, evi_max_iter=100)
        assert res.policy[0] == 0


def evi_plan_full_loop(opt_loss, p_ctx, radius, b_cap, evi_tol,
                       evi_max_iter):
    """Reference: evi_plan with every sweep through the L1 inner step."""
    v = np.zeros(opt_loss.shape[0])
    residual = np.inf
    iterations = 0
    r = radius[:, :, None]
    for iterations in range(1, evi_max_iter + 1):
        q_vals, _, _ = _evi_backup(opt_loss, p_ctx, r, v)
        w = np.clip(q_vals.min(axis=1), 0.0, b_cap)
        residual = float(np.abs(w - v).max())
        v = w
        if residual <= evi_tol:
            break
    q_vals, _, _ = _evi_backup(opt_loss, p_ctx, r, v)
    return Plan(q_vals.argmin(axis=1), v, residual, residual <= evi_tol,
                iterations)


def bits(x):
    """The bytes of x as an array: a plan's lists of Python ints and floats
    give the bytes of the int64 and float64 arrays holding the same values."""
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_evi_plan_lists_equal_the_full_loop_arrays(seed):
    """evi_plan converts its policy and values to lists once; they hold the
    bytes of the full loop's arrays, and every other field is the loop's."""
    rng = np.random.default_rng(seed)
    S, A = rng.integers(1, 7, size=2)
    opt_loss = rng.uniform(0.0, 1.0, size=(S, A))
    p_ctx = 0.9 * rng.dirichlet(np.ones(S + 1), size=(S, A))[..., :S]
    radius = rng.uniform(0.0, 1.2, size=(S, A))
    kwargs = dict(b_cap=10.0, evi_tol=1e-6, evi_max_iter=500)
    got = evi_plan(opt_loss, p_ctx, radius, **kwargs)
    want = evi_plan_full_loop(opt_loss, p_ctx, radius, **kwargs)
    assert type(got.policy) is type(got.values) is list
    assert bits(got.policy) == bits(want.policy)
    assert bits(got.values) == bits(want.values)
    assert (got.residual, got.converged, got.iterations, got.rows) == (
        want.residual, want.converged, want.iterations, None)


class TestNanFixedPoint:
    """A loop whose sweep returns its NaN-holding input stops there; every
    field but the sweep count equals the full-budget loop's."""

    @pytest.mark.parametrize("where", ["opt_loss", "radius", "p_ctx"])
    @pytest.mark.parametrize("S, A", [(1, 1), (4, 3)])
    def test_equals_the_full_budget_loop(self, where, S, A):
        rng = np.random.default_rng(S * A)
        opt_loss = rng.uniform(0.1, 1.0, size=(S, A))
        p_ctx = 0.9 * rng.dirichlet(np.ones(S + 1), size=(S, A))[..., :S]
        radius = rng.uniform(0.0, 0.5, size=(S, A))
        arrays = {"opt_loss": opt_loss, "radius": radius,
                  "p_ctx": p_ctx[..., 0]}
        arrays[where][S - 1, A - 1] = np.nan
        kwargs = dict(b_cap=10.0, evi_tol=1e-6, evi_max_iter=500)
        got = evi_plan(opt_loss, p_ctx, radius, **kwargs)
        want = evi_plan_full_loop(opt_loss, p_ctx, radius, **kwargs)
        assert bits(got.policy) == bits(want.policy)
        assert bits(got.values) == bits(want.values)
        assert np.isnan(got.residual) and np.isnan(want.residual)
        assert not got.converged and not want.converged
        assert got.iterations <= 3 and want.iterations == 500


def emptied_start(opt_loss, radius=None, b_star=1.0, **cfg):
    """start_interval at d = 1 and c = [1] on a fresh learner whose
    optimistic losses are opt_loss and whose L1 radii are radius (every row
    at ROW_EMPTYING_RADIUS by default): store.l_hat holds the losses, beta_l
    is 0 and beta_p the radius, since a fresh pair's norm at c is 1.
    Returns the learner and the interval's record."""
    S, A = opt_loss.shape
    spec = GeneratorSpec(d=1, n_states=S, n_actions=A, gamma_goal=0.1,
                         l_min_target=0.1, seed=0)
    cfg = dataclasses.replace(REF_CFG, b_star_init=b_star, **cfg)
    learner = Learner(cfg, generate_instance(spec), cfg.l_min)
    learner.store.l_hat[...] = opt_loss[..., None]
    learner._beta_l[...] = 0.0
    learner._beta_p[...] = ROW_EMPTYING_RADIUS if radius is None else radius
    return learner, learner.start_interval(np.array([1.0]), 0, "start")


def assert_plans_as(learner, record, want):
    """The learner's plan is want's, bit for bit: policy, values, residual
    and initial value, and its sweeps and convergence."""
    assert bits(learner.plan.policy) == bits(want.policy)
    assert bits(learner.plan.values) == bits(want.values)
    assert (learner.plan.iterations, learner.plan.converged) == (
        want.iterations, want.converged)
    assert_same_bits(record.evi_residual, want.residual)
    assert_same_bits(record.v_tilde_init,
                     np.asarray(want.values).item(learner.model.s_init))


def test_a_value_at_the_bound_does_not_double():
    """An EVI plan whose value at s_init equals b_star_cur exactly keeps the
    bound: the doubling test is value > b_star_cur.  A loss of 1 at an open
    row whose p_hat is still zero plans the value 1 = b_star_init."""
    learner, record = emptied_start(np.array([[1.0]]), np.array([[0.5]]))
    assert learner.plan.iterations == 2  # the EVI loop planned it
    assert record.v_tilde_init == learner.b_star_cur == 1.0
    assert learner.doubling_events == 0


class TestEmptiedPlan:
    """With every row emptied, start_interval plans without the EVI loop and
    matches the full loop bit for bit."""

    def _case(self, seed, S=4, A=3, d=2, radius_lo=ROW_EMPTYING_RADIUS):
        rng = np.random.default_rng(seed)
        p = np.stack([_capped_simplex_columns(m)
                      for m in rng.uniform(-0.5, 1.5, size=(S * A, S, d))])
        c = rng.dirichlet(np.ones(d))
        p_ctx = np.einsum("sand,d->san", p.reshape(S, A, S, d), c)
        radius = rng.uniform(radius_lo, 10.0, size=(S, A))
        opt_loss = rng.uniform(0.0, 1.0, size=(S, A))
        return opt_loss, p_ctx, radius

    def _both(self, opt_loss, p_ctx, radius, b_star=5.0, evi_tol=1e-6,
              evi_max_iter=10**5):
        """The learner's plan over opt_loss and radius, its record, and the
        full loop's plan over the same with the dynamics p_ctx."""
        kwargs = dict(evi_tol=evi_tol, evi_max_iter=evi_max_iter)
        with mock.patch("lrcssp.learner.evi_plan") as evi:
            learner, record = emptied_start(opt_loss, radius, b_star, **kwargs)
        assert not evi.called  # an emptied plan reads no dynamics
        assert bits(learner.plan.rows) == (opt_loss + 0.0).tobytes()
        return learner, record, evi_plan_full_loop(
            opt_loss, p_ctx, radius, b_cap=2.0 * b_star, **kwargs)

    def test_values_above_tolerance_take_two_sweeps(self):
        opt_loss, p_ctx, radius = self._case(0)
        learner, record, want = self._both(opt_loss, p_ctx, radius)
        assert_plans_as(learner, record, want)
        assert (want.iterations, want.residual) == (2, 0.0)
        assert record.evi_residual == 0.0
        assert np.array_equal(
            optimistic_model(opt_loss, p_ctx, radius,
                             np.asarray(learner.plan.values)),
            np.zeros((4, 3, 4)))

    def test_values_below_tolerance_take_one_sweep(self):
        opt_loss, p_ctx, radius = self._case(1)
        learner, record, want = self._both(1e-8 * opt_loss, p_ctx, radius)
        assert_plans_as(learner, record, want)
        assert want.iterations == 1 and want.converged
        assert record.evi_residual == max(learner.plan.values) > 0

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_sweep_budget(self, max_iter):
        if not max_iter:  # no learner plans with an empty budget
            with pytest.raises(ConfigError, match="evi_max_iter"):
                LearnerConfig(evi_max_iter=max_iter)
            return
        learner, record, want = self._both(*self._case(3),
                                           evi_max_iter=max_iter)
        assert_plans_as(learner, record, want)
        assert want.iterations == max_iter
        assert want.converged == (max_iter == 2)
        assert (record.evi_residual == 0.0) == (max_iter == 2)

    def test_radius_exactly_at_bound(self):
        opt_loss, p_ctx, radius = self._case(4)
        radius[::2] = ROW_EMPTYING_RADIUS
        assert_plans_as(*self._both(opt_loss, p_ctx, radius))

    def test_signed_zero_losses(self):
        # the learner's einsum sums from +0.0, so its rows hold +0.0 where
        # l_hat holds -0.0; the full loop reads the -0.0 itself
        opt_loss, p_ctx, radius = self._case(5)
        opt_loss[0] = -0.0
        opt_loss[1, 0] = 0.0
        assert_plans_as(*self._both(opt_loss, p_ctx, radius))

    def test_ties_take_the_first_action(self):
        opt_loss, p_ctx, radius = self._case(7)
        opt_loss[1] = 0.25
        opt_loss[2, 1:] = opt_loss[2, 0]
        learner, record, want = self._both(opt_loss, p_ctx, radius)
        assert_plans_as(learner, record, want)
        assert learner.plan.policy[1] == learner.plan.policy[2] == 0

    def test_one_open_row_takes_the_full_path(self):
        opt_loss, p_ctx, radius = self._case(6)
        radius[2, 1] = np.nextafter(ROW_EMPTYING_RADIUS, 0.0)
        plans = []

        def recording_evi_plan(opt_loss, p_ctx, radius, **kwargs):
            plans.append((p_ctx, evi_plan(opt_loss, p_ctx, radius, **kwargs)))
            return plans[-1][1]

        with mock.patch("lrcssp.learner.evi_plan", recording_evi_plan):
            learner, record = emptied_start(opt_loss, radius, b_star=5.0)
        # the fresh learner's p_hat is zero: nothing was projected
        (p_zero, result), = plans
        assert learner.plan.rows is None and not p_zero.any()
        want = evi_plan_full_loop(opt_loss, p_zero, radius, b_cap=10.0,
                                  evi_tol=REF_CFG.evi_tol,
                                  evi_max_iter=REF_CFG.evi_max_iter)
        assert_plans_as(learner, record, want)
        assert learner.plan is result

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_full_loop(self, data):
        S, A = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        opt_loss, p_ctx, radius = self._case(data.draw(st.integers(0, 10**6)),
                                             S=S, A=A)
        opt_loss = opt_loss * data.draw(st.sampled_from([0.0, 1e-7, 1.0]))
        assert_plans_as(*self._both(
            opt_loss, p_ctx, radius,
            b_star=data.draw(st.floats(1.0, 4.0)),
            evi_tol=data.draw(st.sampled_from([1e-10, 1e-6, 0.5])),
            evi_max_iter=data.draw(st.integers(1, 4))))


def emptied_plan_oracle(opt_loss, b_cap, evi_tol, evi_max_iter):
    """Reference: the EVI loop over emptied rows in numpy.  Every sweep
    lands on v = clip(min_a opt_loss + 0.0, 0, b_cap); the first moves v
    from zero by max v and stops there within evi_tol or the budget, else a
    second confirms v with residual 0."""
    q_vals = opt_loss + 0.0
    values = np.minimum(np.maximum(0.0, q_vals.min(axis=1)), b_cap)
    top = float(values.max())
    residual, iterations = ((top, 1) if top <= evi_tol or evi_max_iter == 1
                            else (0.0, 2))
    return Plan(q_vals.argmin(axis=1), values, residual,
                residual <= evi_tol, iterations)


# what the learner builds: losses in [0, 1] with ties, and -0.0 written to
# l_hat, which reaches opt_loss as +0.0; and the working bound B >= 1
LOSSES = st.one_of(st.sampled_from([-0.0, 0.0, 1e-7, 0.5, 1.0]),
                   st.floats(0.0, 1.0))
B_STARS = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(1.0, 8.0))
# loss estimates of a moved pair, on both sides of the row update's clip
LOSS_ESTIMATES = st.one_of(st.sampled_from([-0.0, 0.0, 1e-7, 0.5, 1.0, 3.0]),
                      st.floats(-1.0, 5.0, allow_nan=False))
SHAPES = [(1, 1), (1, 3), (4, 1), (3, 2), (5, 4)]


def loss_rows(data, S, A):
    return [data.draw(st.lists(LOSSES, min_size=A, max_size=A))
            for _ in range(S)]


def assert_same_bits(got, want):
    """Equal, and equal in sign for zeros and in type."""
    assert type(got) is type(want) and math.copysign(1.0, got) == \
        math.copysign(1.0, want) and got == want


class TestEmptiedRowOracle:
    """The emptied-row rule in Python floats, in start_interval's full plan
    and in its row update, equals the numpy oracle bit for bit."""

    @pytest.mark.parametrize("S, A", SHAPES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_full_plan_equals_numpy_branch(self, S, A, data):
        opt_loss = np.array(loss_rows(data, S, A))
        b_star = data.draw(B_STARS)
        kwargs = dict(evi_tol=data.draw(st.sampled_from([1e-10, 1e-6, 0.5])),
                      evi_max_iter=data.draw(st.integers(1, 4)))
        learner, record = emptied_start(opt_loss, b_star=b_star, **kwargs)
        want = emptied_plan_oracle(opt_loss, 2.0 * b_star, **kwargs)
        assert_plans_as(learner, record, want)
        assert [type(v) for v in learner.plan.values] == [float] * S
        assert learner.plan.policy == want.policy.tolist()
        assert bits(learner.plan.rows) == (opt_loss + 0.0).tobytes()

    @pytest.mark.parametrize("S, A", SHAPES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_update_equals_numpy_branch(self, S, A, data):
        """A kept emptied plan over drawn losses, then one to three moves of
        a pair (s, a) to a drawn loss estimate at c = [1], each handed over
        as a visit hands it: the rows updated in place, the values, actions
        and residual are the oracle's over the updated losses."""
        b_star = data.draw(B_STARS)
        learner, _ = emptied_start(np.array(loss_rows(data, S, A)),
                                   b_star=b_star)
        rows = learner.plan.rows
        opt_loss = np.array(rows)
        for _ in range(data.draw(st.integers(1, 3))):
            s = data.draw(st.integers(0, S - 1))
            a = data.draw(st.integers(0, A - 1))
            beta_l = data.draw(st.sampled_from([0.0, 0.25]))
            # (norm, beta_l, beta_p): the radius 2 leaves the row empty
            learner._moved[s, a] = 2.0, beta_l, 1.0
            learner.store.l_hat[s, a] = data.draw(LOSS_ESTIMATES)
            opt_loss[s, a] = np.clip(
                np.einsum("sad,d->sa", learner.store.l_hat, [1.0])
                - beta_l * 2.0, 0.0, 1.0)[s, a]
        record = learner.start_interval(np.array([1.0]), 0, "unknown")
        want = emptied_plan_oracle(opt_loss, 2.0 * b_star, REF_CFG.evi_tol,
                                   REF_CFG.evi_max_iter)
        assert learner.plan.rows is rows and not learner._moved
        assert bits(rows) == opt_loss.tobytes()
        assert_plans_as(learner, record, want)
        assert learner.plan.policy == want.policy.tolist()

    def test_emptied_full_plan_keeps_its_rows(self):
        # an emptied full plan keeps opt_loss as lists without evi_plan
        learner = Learner(REF_CFG, generate_instance(REF_SPEC), REF_CFG.l_min)
        c = np.array([0.3, 0.7])
        with mock.patch("lrcssp.learner.evi_plan") as evi:
            record = learner.start_interval(c, 0, "start")
        assert not evi.called
        plan, opt_loss, _, open_row = fresh_plan(learner, c)
        assert not open_row
        assert bits(learner.plan.rows) == opt_loss.tobytes()
        assert type(learner.plan.policy) is type(learner.plan.values) is list
        assert_plans_as(learner, record, plan)


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
        ms = [r.interval for r in log.interval_records]
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

        provider = AdaptiveContexts(8, model.d, cb)
        log = run(REF_CFG, model, provider, seed=3)
        assert len(log.episodes) == 8
        assert calls == list(range(8))

    def test_perceived_contexts_change_learning_not_environment(self):
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 12, model.d,
                                    rng=np.random.default_rng(0))
        blind = [np.full(model.d, 1.0 / model.d) for _ in contexts]
        log = run(REF_CFG, model, contexts, seed=3, perceived_contexts=blind)
        for e, c in zip(log.episodes, contexts):
            assert np.array_equal(e.context, c)  # environment context logged

    def test_rejects_short_perceived_contexts(self):
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 4, model.d,
                                    rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            run(REF_CFG, model, contexts, seed=3,
                perceived_contexts=contexts[:3])

    @staticmethod
    def count_steps(monkeypatch):
        steps = []
        step = _EpisodeSampler.step

        def counting_step(self, *args):
            steps.append(args)
            return step(self, *args)

        monkeypatch.setattr(_EpisodeSampler, "step", counting_step)
        return steps

    @pytest.mark.parametrize("which", ["contexts", "perceived_contexts"])
    def test_bad_context_row_raises_before_first_step(self, monkeypatch,
                                                      which):
        # the whole sequence is checked once, so row 3 is rejected, with
        # its index, before episode 0 takes a step
        model = generate_instance(REF_SPEC)
        good = [np.full(model.d, 1.0 / model.d)] * 5
        bad = list(good)
        bad[3] = np.array([0.9, 0.9])
        steps = self.count_steps(monkeypatch)
        with pytest.raises(StructuralError) as exc:
            run(REF_CFG, model, seed=3, **{"contexts": good, which: bad})
        assert exc.value.index == 3 and "sum to 1" in str(exc.value)
        assert steps == []

    def test_ragged_contexts_raise_before_first_step(self, monkeypatch):
        model = generate_instance(REF_SPEC)
        steps = self.count_steps(monkeypatch)
        with pytest.raises(StructuralError, match=r"\(K, d\) array"):
            run(REF_CFG, model, [[0.5, 0.5], [1.0]], seed=3)
        assert steps == []

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

    def test_capped_last_step_opens_no_interval(self):
        # an unknown step that is the episode's episode_step_cap-th ends it
        # as truncated, so no interval of 0 steps opens after it
        cfg = LearnerConfig(delta=0.1, l_min=0.1, episode_step_cap=2)
        log = run(cfg, generate_instance(REF_SPEC), context_sequence(
            "uniform", 20, 2, rng=np.random.default_rng(0)), seed=0)
        assert log.truncation_count == 7
        assert min(r.steps for r in log.interval_records) >= 1
        assert log.unknown_counts.sum() == sum(
            e.unknown_triggers for e in log.episodes) == (
            log.total_intervals - len(log.episodes))
        _check_identities(log)

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
        learner.m = 1  # known_threshold takes log(4m / delta)
        rng = np.random.default_rng(seed)
        for _ in range(visits):
            s = int(rng.integers(model.n_states))
            a = int(rng.integers(model.n_actions))
            nxt = int(rng.integers(-1, model.n_states))
            visit_at(learner, s, a, rng.dirichlet(np.ones(model.d)), nxt,
                     float(rng.random()))
        return model, learner

    def _make_known(self, learner, pairs):
        # pin a tiny uncertainty in the store
        for s, a in pairs:
            learner.store.v_bar[s, a] = 1e12 * np.eye(learner.d)
            learner.store.v_bar_inv[s, a] = 1e-12 * np.eye(learner.d)

    def _pairs(self, learner):
        return [[pair_stats(learner, s, a) for a in range(learner.n_actions)]
                for s in range(learner.n_states)]

    def test_batched_norms_equal_per_pair_norms(self):
        model, learner = self._learner(visits=200)
        rng = np.random.default_rng(1)
        for c in rng.dirichlet(np.ones(model.d), size=20):
            batched = context_norms(learner.store.v_bar_inv, c)
            per_pair = np.array([[context_norm(st, c) for st in row]
                                 for row in self._pairs(learner)])
            # the per-pair loop the batched expression replaced
            loop = np.array([
                [math.sqrt(max(0.0, float(c @ st.v_bar_inv @ c)))
                 for st in row] for row in self._pairs(learner)])
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
            for row in self._pairs(learner) for st in row)
        assert scalar == 3
        n_pairs = model.n_states * model.n_actions
        assert record.known_fraction * n_pairs == pytest.approx(scalar)

    def test_known_count_equals_the_full_count(self, monkeypatch):
        """start_interval skips the count when the kept norms' lower bound
        reaches the floor's threshold; at every interval, through known
        pairs, visits, a doubling, context changes and NaN norms, the count
        equals the full expression over freshly computed norms."""
        model, learner = self._learner(visits=200)
        self._make_known(learner, [(0, 0), (2, 1), (4, 2)])
        n_pairs = model.n_states * model.n_actions
        skipped = []

        def checked_start_interval(c, trigger="unknown"):
            record = Learner.start_interval(learner, c, 0, trigger)
            norms = context_norms(learner.store.v_bar_inv, c)
            full = np.count_nonzero(norms < known_threshold(
                learner._beta_p, learner.l_min_eff, learner.b_star_cur,
                learner.m, REF_CFG.delta))
            # the largest threshold, the one at the floor
            cap = learner.l_min_eff / (10.0 * learner.b_star_cur * known_floor(
                learner.m, REF_CFG.delta))
            assert learner._use_context(c).tobytes() == norms.tobytes()
            assert not learner._norms_lo > np.nanmin(norms)
            assert record.known_fraction == full / n_pairs
            skipped.append((learner._norms_lo >= cap, full))
            return record

        c, other = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        rng = np.random.default_rng(5)
        checked_start_interval(c, "start")
        for s, a in [(1, 1), (0, 0), (3, 2), (1, 1)]:
            visit_at(learner, s, a, c, int(rng.integers(-1, 5)), 0.5)
            checked_start_interval(c)
        visit_at(learner, 1, 0, other, 1, 0.5)  # a context change
        checked_start_interval(other)
        # a NaN norm, first from a visit at the kept context, then among
        # the norms a new context recomputes
        learner.store.v_bar_inv[3, 1] = np.nan
        visit_at(learner, 3, 1, other, 1, 0.5)
        assert np.isnan(learner._use_context(other)[3, 1])
        checked_start_interval(other)
        checked_start_interval(c)
        assert math.isnan(learner._norms_lo)
        with monkeypatch.context() as mp:
            # every plan reads an open row, so evi_plan runs and escapes
            mp.setattr("lrcssp.learner.ROW_EMPTYING_RADIUS", math.inf)
            mp.setattr("lrcssp.learner.evi_plan", lambda *args, **kwargs: (
                Plan([0] * 5, [2.0 * kwargs["b_cap"]] * 5, 0.0, True, 1)
                if learner.doubling_events == 0
                else evi_plan(*args, **kwargs)))
            checked_start_interval(c)  # a doubling resets the statistics
        assert learner.doubling_events == 1
        for s, a in [(2, 2), (2, 2), (4, 0)]:
            visit_at(learner, s, a, c, int(rng.integers(-1, 5)), 0.5)
            checked_start_interval(c)
        # a visit that leaves its pair's norm just below the threshold of
        # the next interval lowers the bound below it
        beta = dynamics_radius(learner.store.tau[1, 2] + 1, model.d,
                               model.n_states, model.n_actions, REF_CFG.lam,
                               REF_CFG.delta)
        floor = known_floor(learner.m + 1, REF_CFG.delta)
        t = 0.99 * learner.l_min_eff / (10.0 * learner.b_star_cur
                                        * max(beta, floor))
        k = t * t / (1.0 - t * t) / (c @ c)  # the visit makes c V^-1 c t^2
        learner.store.v_bar[1, 2] = np.eye(model.d) / k
        learner.store.v_bar_inv[1, 2] = k * np.eye(model.d)
        assert visit_at(learner, 1, 2, c, 1, 0.5)
        checked_start_interval(c)
        learner.store.v_bar_inv[0, 1] = np.nan
        visit_at(learner, 0, 1, other, 1, 0.5)
        checked_start_interval(other)
        assert math.isnan(learner._norms_lo)
        # known pairs, a bound just below the threshold and a NaN bound take
        # the full count, fresh statistics the shortcut
        assert skipped[:8] == [(False, 3)] * 8
        assert skipped[8:13] == [(True, 0)] * 4 + [(False, 1)]
        assert not skipped[13][0]

    def test_visit_known_bit_and_norms_match_scalar_oracles(self):
        model, learner = self._learner(visits=200)
        pumped = [(0, 0), (2, 1), (4, 2)]
        self._make_known(learner, pumped)
        learner.m = 9
        rng = np.random.default_rng(3)
        bits = []
        for s, a in pumped + [(1, 1), (3, 0), (0, 0)]:
            c = rng.dirichlet(np.ones(model.d))
            known = visit_at(learner, s, a, c, int(rng.integers(-1, 5)),
                             float(rng.random()))
            # the scalar test, after the visit, at the same m and b_star
            assert known == is_known(
                pair_stats(learner, s, a), c, learner.l_min_eff,
                learner.b_star_cur, learner.m, REF_CFG.delta, model.n_states,
                model.n_actions)
            # the learner keeps every pair's norm at c current
            norms = learner._use_context(c)
            fresh = context_norms(learner.store.v_bar_inv, c)
            assert norms.tobytes() == fresh.tobytes()
            assert norms[s, a] == context_norm(pair_stats(learner, s, a), c)
            bits.append(known)
        assert bits == [True, True, True, False, False, True]
        # the visit brought the pair's estimates up to date, and the
        # snapshot its projection
        est = learner.snapshot_estimates()
        want = pair_estimate(pair_stats(learner, 0, 0), model.n_actions,
                             REF_CFG.delta)
        for got, w in zip(pair_estimates_of(est, 0, 0), want):
            assert np.array_equal(got, w)

    def test_doubling_does_not_reuse_carried_norms(self, monkeypatch):
        model, learner = self._learner(visits=200)
        c = np.array([0.3, 0.7])
        learner.m = 3
        visit_at(learner, 1, 1, c, 0, 0.5)
        norms = context_norms(learner.store.v_bar_inv, c)
        radii = []

        def escaping_evi_plan(opt_loss, p_ctx, radius, **kwargs):
            radii.append(radius.copy())
            result = evi_plan(opt_loss, p_ctx, radius, **kwargs)
            if len(radii) == 1:  # the first plan escapes the bound once
                result.values = np.add(result.values, 2 * kwargs["b_cap"])
            return result

        monkeypatch.setattr("lrcssp.learner.evi_plan", escaping_evi_plan)
        # every plan reads an open row, so evi_plan sees every radius
        monkeypatch.setattr("lrcssp.learner.ROW_EMPTYING_RADIUS", math.inf)
        beta_before = learner.snapshot_estimates().beta_dyn.copy()
        learner.start_interval(c, 0, "unknown")
        assert learner.doubling_events == 1 and len(radii) == 2
        assert np.array_equal(radii[0], beta_before * norms)
        # the reset statistics give every pair the norm of a fresh pair
        fresh = context_norms(learner.store.v_bar_inv, c)
        assert np.all(learner.store.tau == 0) and not np.array_equal(
            fresh, norms)
        beta0 = dynamics_radius(0, model.d, model.n_states, model.n_actions,
                                REF_CFG.lam, REF_CFG.delta)
        assert np.array_equal(radii[1], beta0 * fresh)

    def test_interval_losses_match_scalar_oracle(self):
        # enough visits that the optimistic losses lie inside (0, 1); the
        # plan empties every row and keeps them
        model, learner = self._learner(visits=20_000)
        c = np.array([0.3, 0.7])
        learner.start_interval(c, 0, "start")
        assert learner.doubling_events == 0
        opt_loss = np.array(learner.plan.rows)
        assert 0 < opt_loss.min() and opt_loss.max() < 1
        est = learner.snapshot_estimates()
        for s in range(model.n_states):
            for a in range(model.n_actions):
                want = optimistic_loss(c, est.l_hat[s, a], est.beta_loss[s, a],
                                       context_norm(pair_stats(learner, s, a),
                                                    c))
                assert opt_loss[s, a] == pytest.approx(want, rel=0, abs=1e-15)

    def test_coverage_flag_matches_pair_loop(self):
        model, learner = self._learner(visits=3000)
        est = learner.snapshot_estimates()

        def pair_loop(truth):
            # the per-pair loop the two array expressions replaced
            for s in range(model.n_states):
                for a in range(model.n_actions):
                    v_bar = learner.store.v_bar[s, a]
                    dl = truth.loss_embed[s, a] - est.l_hat[s, a]
                    if math.sqrt(dl @ v_bar @ dl) > est.beta_loss[s, a]:
                        return False
                    dp = truth.trans_embed[s, a] - est.p_hat[s, a]
                    if math.sqrt(np.einsum("ij,jk,ik->", dp, v_bar, dp)) \
                            > est.beta_dyn[s, a]:
                        return False
            return True

        flags = []
        for loss_shift, trans_scale in ((0, 1), (2.0, 1), (0, 30.0), (0, 3.0)):
            # columns scaled past mass 1 are no LinearCsspModel, and
            # _coverage_ok reads only the two arrays
            truth = types.SimpleNamespace(
                loss_embed=np.clip(model.loss_embed + loss_shift, 0, 1),
                trans_embed=model.trans_embed * trans_scale)
            learner.diagnostics_model = truth
            flags.append(learner._coverage_ok())
            assert flags[-1] == pair_loop(truth)
        assert True in flags and False in flags

    def test_known_threshold_array_matches_scalar(self, monkeypatch):
        """known_threshold over an array and at a float, and the learner's
        scalar threshold, all equal l_min / (10 B max(beta, floor)) bit for
        bit: beta below, at and above the floor, l_min 0, and B after a
        doubling."""
        m, delta = 50, 0.1
        floor = math.sqrt(math.log(4.0 * m / delta))
        assert known_floor(m, delta) == floor
        betas = [0.5, math.nextafter(floor, 0.0), floor,
                 math.nextafter(floor, math.inf), 3.0, 40.0, 1e6]
        for l_min, doubled in ((0.1, False), (0.1, True), (0.0, False),
                               (7.5, True)):
            cfg = LearnerConfig(delta=delta, l_min=l_min)
            learner = Learner(cfg, generate_instance(REF_SPEC), l_min)
            if doubled:
                TestStepState()._doubling(monkeypatch, learner,
                                          np.array([0.3, 0.7]))
            learner.m = m
            b = learner.b_star_cur
            assert b == (2.0 if doubled else 1.0)
            got = known_threshold(np.array(betas), l_min, b, m, delta)
            for beta, from_array in zip(betas, got.tolist()):
                want = l_min / (10.0 * b * (beta if beta > floor else floor))
                for x in (from_array, learner._known_threshold(beta),
                          known_threshold(beta, l_min, b, m, delta)):
                    assert struct.pack("<d", x) == struct.pack("<d", want)

    def test_refresh_writes_inverse_in_place(self):
        model, learner = self._learner(visits=0)
        stats = SaStatistics(model.d, model.n_states, REF_CFG.lam)
        rng = np.random.default_rng(2)
        for c in rng.dirichlet(np.ones(model.d), size=REFRESH_EVERY + 100):
            visit_at(learner, 1, 2, c, 0, 0.0)
            stats.record_visit(c, 0, 0.0)
        assert learner.store.tau[1, 2] == REFRESH_EVERY + 100
        np.testing.assert_allclose(learner.store.v_bar_inv[1, 2],
                                   np.linalg.inv(learner.store.v_bar[1, 2]),
                                   atol=1e-10)
        assert np.array_equal(learner.store.v_bar_inv[1, 2], stats.v_bar_inv)

    def test_snapshot_is_read_only_and_current(self):
        model, learner = self._learner()
        est = learner.snapshot_estimates()
        assert tuple(f.name for f in dataclasses.fields(est)) == ESTIMATES
        for name in ESTIMATES:
            with pytest.raises(ValueError):
                getattr(est, name)[...] = 0.0
        want = pair_estimate(pair_stats(learner, 3, 1), model.n_actions,
                             REF_CFG.delta)
        for got, w in zip(pair_estimates_of(est, 3, 1), want):
            np.testing.assert_array_equal(got, w)


@st.composite
def simplex_contexts(draw, d=None):
    """Contexts validate_context admits: interior, vertex, or off by its
    tolerance; of dimension d, or of a drawn one from 1 to 4."""
    if d is None:
        d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["interior", "vertex", "tolerance"]))
    if kind == "vertex":
        return np.eye(d)[draw(st.integers(0, d - 1))]
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    assume(w.sum() > 0)
    c = w / w.sum()
    if kind == "tolerance":
        c = c + np.array(draw(st.lists(
            st.floats(-SIMPLEX_TOL / d, SIMPLEX_TOL / d),
            min_size=d, max_size=d)))
    try:
        return validate_context(c)
    except StructuralError:
        assume(False)


def clip_sampler(model, c):
    """Oracle: the normalised probabilities, their cumsum and the means of
    the episode sampler, built with np.clip and batched np.cumsum."""
    probs = np.clip(model.trans_embed @ c, 0.0, None)  # (S, A, S)
    goal = np.clip(1.0 - probs.sum(axis=-1, keepdims=True), 0.0, None)
    full = np.concatenate([probs, goal], axis=-1)
    full /= full.sum(axis=-1, keepdims=True)
    return (full, np.cumsum(full, axis=-1),
            np.clip(model.loss_embed @ c, 0.0, 1.0))


def episode_sampler(model, c):
    """The episode sampler at c, built from a stack of one context."""
    tables = _sampler_tables(model, np.asarray(c, dtype=float)[None])
    return _EpisodeSampler(model, *(x[0] for x in tables))


def assert_sampler_equals_clip_oracle(sampler, model, c):
    """Every forced (s, a) row, summed on its draw, the normalised
    probabilities and the means equal the np.clip oracle's bit for bit."""
    full, cum, means = clip_sampler(model, c)
    rows = np.array([[sampler.row(s, a) for a in range(cum.shape[1])]
                     for s in range(cum.shape[0])])
    assert rows.tobytes() == cum.tobytes()
    assert sampler.probs.tobytes() == full.tobytes()
    assert sampler.means.tobytes() == means.tobytes()


def edge_model(rng, d, n_states, n_actions, negative, full, zero_losses):
    """A model with entries on the edges LinearCsspModel admits.

    negative    : about a third of the transition entries at -SIMPLEX_TOL
    full        : about half the columns scaled to a mass of 1 + SIMPLEX_TOL,
                  less the few ulps the mass check asks for
    zero_losses : about a third of the loss entries at 0.0, -0.0 or 1.0
    """
    shape = (n_states, n_actions, d)
    loss = rng.uniform(0.0, 1.0, shape)
    if zero_losses:
        hit = rng.random(shape) < 1 / 3
        loss[hit] = rng.choice([0.0, -0.0, 1.0], size=int(hit.sum()))
    # (S, A, d, S + 1) Dirichlet rows; the last entry is the goal's share
    trans = np.moveaxis(
        rng.dirichlet(np.ones(n_states + 1), size=shape)[..., :-1], 2, 3)
    if negative:
        trans[rng.random(trans.shape) < 1 / 3] = -SIMPLEX_TOL
    if full:
        pos = np.maximum(trans, 0.0)
        mass = pos.sum(axis=2, keepdims=True)
        scale = (1.0 + SIMPLEX_TOL - (trans - pos).sum(axis=2, keepdims=True))
        cols = (rng.random(mass.shape) < 0.5) & (mass > 0)
        trans = np.where(cols, pos * (scale / np.where(cols, mass, 1.0))
                         + (trans - pos), trans)
        # step positive entries down by an ulp until the check admits them
        while (over := trans.sum(axis=2) > 1.0 + SIMPLEX_TOL).any():
            trans = np.where(over[:, :, None, :] & (trans > 0),
                             np.nextafter(trans, 0.0), trans)
    return LinearCsspModel(loss, trans)


class TestEpisodeSampler:
    """The sampler's stacked ufunc build and per-pair rows equal the np.clip
    build and batched cumsum bit for bit, its draws equal searchsorted's,
    and its block-drawn doubles equal the generator's."""

    @settings(max_examples=200, deadline=None)
    @given(c=simplex_contexts(), n_states=st.integers(1, 5),
           n_actions=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           negative=st.booleans(), full=st.booleans(),
           zero_losses=st.booleans())
    def test_build_equals_clip_oracle(self, c, n_states, n_actions, seed,
                                      negative, full, zero_losses):
        model = edge_model(np.random.default_rng(seed), len(c), n_states,
                           n_actions, negative, full, zero_losses)
        assert_sampler_equals_clip_oracle(episode_sampler(model, c), model, c)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), n_states=st.integers(1, 5),
           n_actions=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           negative=st.booleans(), full=st.booleans(),
           zero_losses=st.booleans(), size=st.integers(1, 3))
    def test_stacked_tables_equal_clip_oracle(self, data, d, n_states,
                                              n_actions, seed, negative, full,
                                              zero_losses, size):
        # every row of a whole stack, and of the stacks run reads in turn
        # (at most size contexts each, so K > size crosses a boundary),
        # equals the one-context np.clip build
        model = edge_model(np.random.default_rng(seed), d, n_states,
                           n_actions, negative, full, zero_losses)
        contexts = np.array(data.draw(st.lists(
            simplex_contexts(d), min_size=1, max_size=7)))
        entries = size * n_states * n_actions * (n_states + 1)
        with mock.patch.object(learner_mod, "SAMPLER_STACK_ENTRIES", entries):
            episodes = list(_environment(model, contexts))
        whole = zip(contexts, *_sampler_tables(model, contexts))
        for (c, *tables), (c_run, *tables_run) in zip(
                whole, episodes, strict=True):
            assert c_run.tobytes() == c.tobytes()
            for sampler in (_EpisodeSampler(model, *tables),
                            _EpisodeSampler(model, *tables_run)):
                assert_sampler_equals_clip_oracle(sampler, model, c)

    @pytest.mark.parametrize("d", [1, 3])
    def test_both_clips_act(self, d):
        # columns at mass 1 + SIMPLEX_TOL and a vertex context: the goal
        # share 1 - sum is negative and clipped; entries at -SIMPLEX_TOL
        # make next-state probabilities negative, clipped too
        model = edge_model(np.random.default_rng(d), d, 4, 2, negative=True,
                           full=True, zero_losses=True)
        c = np.eye(d)[0]
        probs = model.trans_embed @ c
        assert (probs < 0).any()
        assert (1.0 - np.clip(probs, 0.0, None).sum(axis=-1) < 0).any()
        assert_sampler_equals_clip_oracle(episode_sampler(model, c), model, c)

    def test_signed_zero_products(self):
        # a matmul's sum starts from +0.0, so no model gives a -0.0
        # product; stand-in embeddings whose product with c is fixed show
        # that both builds treat one alike (clip(x, 0.0, 1.0) keeps -0.0)
        class Product:
            def __init__(self, value):
                self.value = value

            def __matmul__(self, c):
                return self.value.copy()

            def __array_ufunc__(self, ufunc, method, embed, stack):
                # np.matmul against a stack: the value for every context,
                # with the trailing axis of length one matmul leaves
                assert ufunc is np.matmul and method == "__call__"
                return np.repeat(self.value[None, ..., None], len(stack), 0)

        zeros = np.array([-0.0, 0.0, -1e-12, 0.5, 1.0, 1.5])
        model = types.SimpleNamespace(
            trans_embed=Product(zeros.reshape(1, 2, 3)),
            loss_embed=Product(zeros.reshape(3, 2)), n_states=3,
            loss_noise="bernoulli", noise_width=0.0)
        assert np.signbit(clip_sampler(model, None)[2][0, 0])
        assert_sampler_equals_clip_oracle(
            episode_sampler(model, np.ones(1)), model, None)
        # and every row of a stack of three
        for tables in zip(*_sampler_tables(model, np.ones((3, 1)))):
            assert_sampler_equals_clip_oracle(
                _EpisodeSampler(model, *tables), model, None)

    @staticmethod
    def draw_points(cum_row):
        """Each entry, its nextafter neighbours, 0.0 and the largest u < 1."""
        entries = np.asarray(cum_row)
        return np.concatenate([
            entries, np.nextafter(entries, -np.inf),
            np.nextafter(entries, np.inf), [0.0, np.nextafter(1.0, 0.0)]])

    @pytest.mark.parametrize("d, negative, full", [
        (1, False, False), (2, True, False), (3, True, True),
        (4, False, True)])
    def test_draw_equals_searchsorted(self, d, negative, full):
        # entries at -SIMPLEX_TOL clip to zero-probability next states, whose
        # cumulative entries repeat the one before
        model = edge_model(np.random.default_rng(10 + d), d, 5, 3, negative,
                           full, zero_losses=False)
        c = np.eye(d)[0] if negative else np.full(d, 1.0 / d)
        sampler = episode_sampler(model, c)
        _, cum, _ = clip_sampler(model, c)
        repeated = 0
        for s in range(model.n_states):
            for a in range(model.n_actions):
                row = sampler.row(s, a)
                repeated += int((np.diff(cum[s, a]) == 0).any())
                for u in self.draw_points(cum[s, a]).tolist():
                    want = int(np.searchsorted(cum[s, a], u, side="right"))
                    assert bisect.bisect_right(row, u) == want, (s, a, u)
                    # and through step, whose uniform draws all read u
                    nxt, _ = sampler.step(s, a, lambda: u)
                    assert nxt == (GOAL if want >= model.n_states else want)
        assert repeated or not negative

    def test_repeated_entries_draw_past_the_zero_state(self):
        # next state 1 has probability 0: a draw at the repeated entry goes
        # to state 2, as searchsorted does, never to state 1
        cum_row = np.cumsum([0.25, 0.0, 0.5, 0.25])
        row = list(itertools.accumulate([0.25, 0.0, 0.5, 0.25]))
        assert row == cum_row.tolist()
        for u in self.draw_points(cum_row).tolist():
            assert bisect.bisect_right(row, u) == int(np.searchsorted(
                cum_row, u, side="right"))
        assert bisect.bisect_right(row, 0.25) == 2

    @pytest.mark.parametrize("noise", ["bernoulli", "truncated_uniform"])
    def test_steps_equal_the_batched_cumsum(self, noise):
        # the same draws through step and through searchsorted on the oracle
        base = edge_model(np.random.default_rng(3), 2, 4, 2, negative=True,
                          full=True, zero_losses=True)
        model = LinearCsspModel(base.loss_embed, base.trans_embed,
                                loss_noise=noise, noise_width=0.05)
        c = np.array([0.7, 0.3])
        sampler = episode_sampler(model, c)
        _, cum, _ = clip_sampler(model, c)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        pairs = [(s, a) for s in range(4) for a in range(2)] * 25
        for s, a in pairs:
            nxt, _ = sampler.step(s, a, rng.random)
            want = int(np.searchsorted(cum[s, a], ref.random(), side="right"))
            assert nxt == (GOAL if want >= model.n_states else want)
            ref.random() if noise == "bernoulli" else ref.uniform()
            assert sampler.rows[s, a] == cum[s, a].tolist()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_block_uniforms_equal_the_generator(self):
        # a double and a truncated-uniform loss lo + (hi - lo) * u in turn,
        # as a truncated-uniform step draws them, across three block
        # boundaries, against random() and uniform(lo, hi); the bounds
        # include the equal bounds a clipped mean of 0 or 1 gives, and a
        # signed zero
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        random = _uniforms(rng).__next__
        bounds = [(0.0, 0.0), (-0.0, 0.0), (0.25, 0.35),
                  (0.95, 1.0), (0.0, 1.0), (1.0, 1.0)]
        for i in range(3 * UNIFORM_BLOCK // 2 + 7):
            assert random().hex() == ref.random().hex()
            lo, hi = bounds[i % len(bounds)]
            loss = lo + (hi - lo) * random()
            assert loss.hex() == ref.uniform(lo, hi).hex()
        # the generator ran ahead by whole blocks only
        drawn = 2 * (3 * UNIFORM_BLOCK // 2 + 7)
        ahead = -drawn % UNIFORM_BLOCK
        ref.random(ahead)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("noise", ["bernoulli", "truncated_uniform"])
    def test_steps_through_blocks_equal_steps_through_the_generator(
            self, noise):
        # one step draws two doubles, so 1,500 steps cross the block twice
        base = edge_model(np.random.default_rng(4), 3, 5, 3, negative=True,
                          full=True, zero_losses=True)
        model = LinearCsspModel(base.loss_embed, base.trans_embed,
                                loss_noise=noise, noise_width=0.05)
        sampler = episode_sampler(model, np.array([0.5, 0.0, 0.5]))
        blocks = _uniforms(np.random.default_rng(8)).__next__
        ref = np.random.default_rng(8)
        pairs = [(s, a) for s in range(5) for a in range(3)] * 100
        for s, a in pairs:
            got = sampler.step(s, a, blocks)
            want = sampler.step(s, a, ref.random)
            assert (got[0], got[1].hex()) == (want[0], want[1].hex())


class TestDeferredProjection:
    """p_hat is projected only for pairs whose radius lets a plan read it."""

    def _pumped_learner(self, visits=40, pumped=(2, 1), pump=20_000):
        # a few random visits everywhere, and one pair visited so often
        # that its L1 radius at a context falls below the bound
        model, learner = TestStackedStatistics()._learner(visits=visits)
        rng = np.random.default_rng(5)
        for c in rng.dirichlet(np.ones(model.d), size=pump):
            visit_at(learner, *pumped, c, int(rng.integers(model.n_states)),
                     float(rng.random()))
        return model, learner

    def _radius(self, learner, c):
        store = learner.store
        beta = np.array([[dynamics_radius(tau, store.d, store.n_states,
                                          learner.n_actions, store.lam,
                                          REF_CFG.delta) for tau in row]
                         for row in store.tau])
        return beta * context_norms(learner.store.v_bar_inv, c)

    def _record_projections(self, monkeypatch, learner):
        pairs = []
        project = estimation.project_to_stochastic

        def recording(p_raw, v_bar):
            pairs.extend(
                (s, a) for s in range(learner.n_states)
                for a in range(learner.n_actions)
                if np.shares_memory(v_bar, learner.store.v_bar[s, a]))
            return project(p_raw, v_bar)

        monkeypatch.setattr(estimation, "project_to_stochastic", recording)
        return pairs

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_row_is_exactly_zero_at_or_above_bound(self, data):
        c = data.draw(simplex_contexts())
        d = len(c)
        n_states = data.draw(st.integers(1, 5))
        n_actions = data.draw(st.integers(1, 3))
        n_pairs = n_states * n_actions
        raw = np.array(data.draw(st.lists(
            st.floats(-0.5, 1.5), min_size=n_pairs * n_states * d,
            max_size=n_pairs * n_states * d)))
        # sub-stochastic columns, as the projection leaves them
        p = np.stack([_capped_simplex_columns(m)
                      for m in raw.reshape(n_pairs, n_states, d)])
        p_ctx = np.einsum("sand,d->san",
                          p.reshape(n_states, n_actions, n_states, d), c)
        radius = np.array(data.draw(st.lists(
            st.floats(ROW_EMPTYING_RADIUS, 1e6),
            min_size=n_pairs, max_size=n_pairs)))
        v = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6), min_size=n_states, max_size=n_states)))
        opt_loss = np.full((n_states, n_actions), 0.5)
        q_vals, _, q_ord = _evi_backup(
            opt_loss, p_ctx, radius.reshape(n_states, n_actions, 1), v)
        assert np.array_equal(q_ord, np.zeros_like(q_ord))
        assert np.array_equal(q_vals, opt_loss)

    def test_mixed_regime_plan_equals_fully_projected_plan(self, monkeypatch):
        model, learner = self._pumped_learner()
        c = np.array([0.3, 0.7])
        below = self._radius(learner, c) < ROW_EMPTYING_RADIUS
        assert 0 < below.sum() < below.size
        plans = []

        def recording_evi_plan(*args, **kwargs):
            plans.append((args, evi_plan(*args, **kwargs)))
            return plans[-1][1]

        monkeypatch.setattr("lrcssp.learner.evi_plan", recording_evi_plan)
        learner.start_interval(c, 0, "start")
        assert learner.doubling_events == 0 and len(plans) == 1
        est = learner.snapshot_estimates()
        norms = context_norms(learner.store.v_bar_inv, c)
        opt_loss = np.clip(
            np.einsum("sad,d->sa", est.l_hat, c) - est.beta_loss * norms,
            0.0, 1.0)
        p_ctx = np.einsum("sand,d->san", est.p_hat, c)
        radius = est.beta_dyn * norms
        full = evi_plan(opt_loss, p_ctx, radius,
                        b_cap=2.0 * learner.b_star_cur,
                        evi_tol=REF_CFG.evi_tol,
                        evi_max_iter=REF_CFG.evi_max_iter)
        lazy_args, lazy = plans[0]
        assert np.array_equal(lazy.policy, full.policy)
        assert np.array_equal(lazy.values, full.values)
        assert np.array_equal(
            optimistic_model(*lazy_args[:3], lazy.values),
            optimistic_model(opt_loss, p_ctx, radius, full.values))
        assert lazy.residual == full.residual

    def test_projects_only_pairs_below_bound(self, monkeypatch):
        model, learner = self._pumped_learner()
        pairs = self._record_projections(monkeypatch, learner)
        c = np.array([0.3, 0.7])
        below = self._radius(learner, c) < ROW_EMPTYING_RADIUS
        learner.start_interval(c, 0, "start")
        assert learner.doubling_events == 0
        assert sorted(pairs) == [tuple(x) for x in np.argwhere(below)]
        # nothing moved since: the next plan projects nothing
        pairs.clear()
        learner.start_interval(c, 0, "unknown")
        assert pairs == []
        # the full snapshot projects the visited pairs the plans skipped
        est = learner.snapshot_estimates()
        visited = learner.store.tau > 0
        assert sorted(pairs) == [tuple(x)
                                 for x in np.argwhere(visited & ~below)]
        for s in range(model.n_states):
            for a in range(model.n_actions):
                want = pair_estimate(pair_stats(learner, s, a),
                                     model.n_actions, REF_CFG.delta)
                for g, w in zip(pair_estimates_of(est, s, a), want):
                    assert np.array_equal(g, w)

    def test_unvisited_pairs_need_no_refresh(self, monkeypatch):
        model, learner = TestStackedStatistics()._learner(visits=0)
        calls = self._record_projections(monkeypatch, learner)
        fresh = SaStatistics(model.d, model.n_states, REF_CFG.lam)
        want = pair_estimate(fresh, model.n_actions, REF_CFG.delta)
        est = learner.snapshot_estimates()
        assert calls == []
        for s in range(model.n_states):
            for a in range(model.n_actions):
                got = pair_estimates_of(est, s, a)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                # +0.0, not -0.0, as the ridge estimates of zero moments
                assert not any(np.signbit(g).any() for g in got[:2])

    def test_projection_out_of_passes_keeps_the_run_going(self, monkeypatch):
        """The mixed-regime run of test_reference_runs at d = 2, (d, S, A) =
        (2, 2, 2), l_min=0.5, K=150, run seed 0, with every projection cut
        to one pass: each warns and hands back a feasible iterate, and the
        run ends.  At d = 1 the capped-simplex start is already the weighted
        projection, and that run's 70 inputs are all feasible, so none of
        its projections can run out; here all 12 do."""
        monkeypatch.setattr(estimation, "project_to_stochastic",
                            functools.partial(project_to_stochastic,
                                              max_iter=1))
        snapshots = []
        snapshot_estimates = Learner.snapshot_estimates

        def checked_snapshot(learner, radius=None):
            est = snapshot_estimates(learner, radius)
            snapshots.append(radius is not None)
            assert np.all(est.p_hat >= 0.0)
            assert np.all(est.p_hat.sum(axis=2)
                          <= 1.0 + 4 * np.finfo(float).eps)
            return est

        monkeypatch.setattr(Learner, "snapshot_estimates", checked_snapshot)
        cfg = ExperimentConfig.from_dict({
            "generator": {"d": 2, "n_states": 2, "n_actions": 2,
                          "gamma_goal": 0.1, "l_min_target": 0.1, "seed": 0},
            "contexts": {"kind": "uniform", "K": 150},
            "learner": {"delta": 0.1, "l_min": 0.5}, "seeds": [0]})
        with pytest.warns(RuntimeWarning,
                          match="projection stopped after 1 passes") as caught:
            log = run(cfg.learner, generate_instance(cfg.generator),
                      build_contexts(cfg, 0), seed=0)
        assert len(caught) == 12
        assert len(log.episodes) == 150
        assert any(snapshots)  # some plan read p_hat


def fresh_plan(learner, c):
    """evi_plan over every pair from the learner's current statistics at c,
    with its optimistic losses, the known fraction and whether some row is
    open."""
    cfg = learner.cfg
    norms = context_norms(learner.store.v_bar_inv, c)
    radius = learner._beta_p * norms
    est = learner.snapshot_estimates(radius)
    opt_loss = np.clip(
        np.einsum("sad,d->sa", est.l_hat, c) - est.beta_loss * norms,
        0.0, 1.0)
    plan = evi_plan(opt_loss, np.einsum("sand,d->san", est.p_hat, c), radius,
                    b_cap=2.0 * learner.b_star_cur, evi_tol=cfg.evi_tol,
                    evi_max_iter=cfg.evi_max_iter)
    threshold = known_threshold(est.beta_dyn, learner.l_min_eff,
                                learner.b_star_cur, learner.m, cfg.delta)
    known_fraction = np.count_nonzero(norms < threshold) / norms.size
    return plan, opt_loss, known_fraction, radius.min() < ROW_EMPTYING_RADIUS


def checked_run(cfg, model, contexts, seed, perceived=None):
    """run() with every interval checked against fresh_plan.

    Returns the log, the number of full plans (the intervals that are not
    row updates of the kept rows) and the number of plans that read an open
    row.  The run's own RunLog.work agrees: evi_plan runs once for each plan
    that reads an open row and once for each doubling, as only a plan over
    an open row can escape B >= 1, and a full plan is an emptied one or the
    last evi_plan call of its interval.
    """
    counts = {"full": 0, "open": 0}
    start_interval = Learner.start_interval

    def checked_start_interval(learner, c, episode, trigger):
        kept = None if learner.plan is None else learner.plan.rows
        record = start_interval(learner, c, episode, trigger)
        plan, opt_loss, known_fraction, open_row = fresh_plan(learner, c)
        assert bits(learner.plan.policy) == bits(plan.policy)
        assert bits(learner.plan.values) == bits(plan.values)
        assert (learner.plan.iterations, learner.plan.converged) == (
            plan.iterations, plan.converged)
        assert record.evi_residual == plan.residual
        assert record.v_tilde_init == plan.values[model.s_init]
        assert record.known_fraction == known_fraction
        if learner.plan.rows is not None:  # kept for the next row update
            assert bits(learner.plan.rows) == opt_loss.tobytes()
        counts["full"] += kept is None or learner.plan.rows is not kept
        counts["open"] += open_row
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Learner, "start_interval", checked_start_interval)
        log = run(cfg, model, contexts, seed=seed,
                  perceived_contexts=perceived)
    work = log.work
    assert work["evi_plans"] == counts["open"] + log.doubling_events
    assert counts["full"] == (
        work["emptied_plans"] + work["evi_plans"] - log.doubling_events)
    # the checks read the learner's state without disturbing the run
    plain = run(cfg, model, contexts, seed=seed, perceived_contexts=perceived)
    assert log.step_trace == plain.step_trace
    assert [r.to_event() for r in log.interval_records] == \
        [r.to_event() for r in plain.interval_records]
    return log, counts["full"], counts["open"]


# tiny configs: (generator, l_min, K)
TINY = {
    # rows open after about 73 visits (docs/regimes.md)
    "open_rows": (GeneratorSpec(d=1, n_states=2, n_actions=2, gamma_goal=0.1,
                                l_min_target=0.1, seed=0), 0.5, 150),
    "two_d": (GeneratorSpec(d=2, n_states=2, n_actions=2, gamma_goal=0.1,
                            l_min_target=0.1, seed=0), 0.5, 150),
    "perturbation": (GeneratorSpec(d=1, n_states=2, n_actions=2,
                                   gamma_goal=0.1, l_min_target=0.1, seed=1),
                     0.0, 150),
    # optimistic values escape B = 1 once the single row opens
    "doubling": (GeneratorSpec(d=1, n_states=1, n_actions=1, gamma_goal=0.02,
                               l_min_target=0.5, seed=0), 0.5, 8),
    # l_min > 10 B: pairs turn known while their rows are empty, so a known
    # step moves a second pair before the next plan
    "known_steps": (GeneratorSpec(d=1, n_states=2, n_actions=2,
                                  gamma_goal=0.1, l_min_target=0.1, seed=0),
                    20.0, 60),
}


def tiny_run(name, kind="uniform", ctx_seed=0, run_seed=0, perceived=False):
    spec, l_min, K = TINY[name]
    model = generate_instance(spec)
    rng = np.random.default_rng(ctx_seed)
    c0 = rng.dirichlet(np.ones(spec.d))  # read by `fixed` only
    contexts = context_sequence(kind, K, spec.d, rng=rng, c0=c0)
    blind = np.full((K, spec.d), 1.0 / spec.d) if perceived else None
    return checked_run(LearnerConfig(delta=0.1, l_min=l_min), model,
                       contexts, run_seed, blind)


class TestRowUpdate:
    """An emptied plan replans only the rows visits moved, and every
    interval's plan equals a fresh evi_plan over every pair."""

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(TINY)),
           kind=st.sampled_from(["uniform", "fixed", "cyclic_vertices"]),
           ctx_seed=st.integers(0, 1000), run_seed=st.integers(0, 1000),
           perceived=st.booleans())
    def test_every_interval_matches_a_fresh_plan(self, name, kind, ctx_seed,
                                                 run_seed, perceived):
        tiny_run(name, kind, ctx_seed, run_seed, perceived)

    def test_plans_switch_between_row_updates_and_open_rows(self):
        log, plans, open_plans = tiny_run("open_rows")
        # some plans read an open row, some empty every row, and the rest
        # of the intervals are row updates
        assert 0 < open_plans < plans < log.total_intervals

    def test_every_interval_starts_a_full_plan_at_new_contexts(self):
        log, plans, open_plans = tiny_run("two_d", kind="cyclic_vertices")
        assert open_plans == 0
        assert len(log.episodes) == plans < log.total_intervals

    def test_doubling_replans_in_full(self):
        log, plans, open_plans = tiny_run("doubling")
        assert log.doubling_events == 1 and open_plans > 0
        assert plans < log.total_intervals

    def test_known_steps_update_several_rows(self, monkeypatch):
        moved = []
        start_interval = Learner.start_interval

        def counting_start_interval(learner, c, episode, trigger):
            if learner.plan is not None and learner.plan.rows is not None:
                moved.append(len(learner._moved))
            return start_interval(learner, c, episode, trigger)

        monkeypatch.setattr(Learner, "start_interval", counting_start_interval)
        log, plans, open_plans = tiny_run("known_steps")
        assert max(moved) > 1 and open_plans == 0
        assert plans < log.total_intervals

    def test_kept_norms_follow_visits_at_one_context(self):
        model = generate_instance(REF_SPEC)
        learner = Learner(REF_CFG, model, REF_CFG.l_min)
        c = np.array([0.3, 0.7])
        rng = np.random.default_rng(4)
        learner.start_interval(c, 0, "start")
        for i in range(REFRESH_EVERY + 50):
            # mostly one pair, so its inverse is refreshed once
            s, a = (1, 2) if i % 4 else (int(rng.integers(5)),
                                         int(rng.integers(3)))
            visit_at(learner, s, a, c, int(rng.integers(-1, 5)),
                     float(rng.random()))
            fresh = context_norms(learner.store.v_bar_inv, c)
            assert learner._use_context(c).tobytes() == fresh.tobytes()

    def test_a_visit_at_another_context_replans_in_full(self):
        model = generate_instance(REF_SPEC)
        learner = Learner(REF_CFG, model, REF_CFG.l_min)
        c, other = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        with mock.patch("lrcssp.learner.evi_plan") as evi:
            learner.start_interval(c, 0, "start")
            rows = learner.plan.rows
            visit_at(learner, 0, 0, c, 1, 0.5)
            learner.start_interval(c, 0, "unknown")
            assert learner.plan.rows is rows  # the row update
            visit_at(learner, 1, 0, other, 1, 0.5)
            learner.start_interval(c, 0, "unknown")
            assert learner.plan.rows is not rows  # a full plan
        assert not evi.called  # every row stays empty

    def test_two_moved_pairs_update_their_rows_in_place(self):
        """Two distinct pairs visited at the kept context since an emptied
        plan, both rows still empty: both rows are updated in place, and
        the plan equals a fresh one bit for bit.  run reaches this only
        after a known step, whose pair's radius lies below
        l_min_eff / (10 B), so only where l_min_eff > 10 B."""
        # enough visits that the optimistic losses lie inside (0, 1)
        model, learner = TestStackedStatistics()._learner(visits=20_000)
        c = np.array([0.3, 0.7])
        learner.start_interval(c, 0, "start")
        rows = learner.plan.rows
        before = np.array(rows)
        visit_at(learner, 1, 0, c, 1, 0.5)
        visit_at(learner, 2, 2, c, GOAL, 0.0)
        assert sorted(learner._moved) == [(1, 0), (2, 2)]
        record = learner.start_interval(c, 0, "unknown")
        assert learner.plan.rows is rows and not learner._moved
        plan, opt_loss, known_fraction, open_row = fresh_plan(learner, c)
        assert not open_row
        assert bits(rows) == opt_loss.tobytes()
        assert (before != opt_loss).sum() == 2
        assert_plans_as(learner, record, plan)
        assert bits(record.known_fraction) == bits(known_fraction)


class TestStepState:
    """What a visit keeps for its pair: both radii at its visit count, with
    p_hat left to the snapshot."""

    def _doubling(self, monkeypatch, learner, c):
        """start_interval with a full plan that escapes the bound once."""
        escaped = []

        def escaping_evi_plan(opt_loss, p_ctx, radius, **kwargs):
            result = evi_plan(opt_loss, p_ctx, radius, **kwargs)
            if not escaped:
                escaped.append(True)
                result.values = np.add(result.values, 2 * kwargs["b_cap"])
            return result

        doublings = learner.doubling_events
        with monkeypatch.context() as mp:
            mp.setattr("lrcssp.learner.evi_plan", escaping_evi_plan)
            # every row reads open, so the plan is neither an emptied one
            # nor an update of the kept rows, which no visit may have moved
            mp.setattr("lrcssp.learner.ROW_EMPTYING_RADIUS", math.inf)
            learner.plan = None
            record = learner.start_interval(c, 0, "unknown")
        assert learner.doubling_events == doublings + 1
        return record

    def _one_state(self, l_min):
        """A learner on (d, S, A) = (1, 1, 2) with delta = 0.9."""
        spec = GeneratorSpec(d=1, n_states=1, n_actions=2, gamma_goal=0.1,
                             l_min_target=0.1, seed=0)
        cfg = LearnerConfig(delta=0.9, l_min=l_min)
        return cfg, Learner(cfg, generate_instance(spec), cfg.l_min)

    def test_visit_before_any_interval_is_named(self):
        model = generate_instance(REF_SPEC)
        learner = Learner(REF_CFG, model, REF_CFG.l_min)
        with pytest.raises(ProtocolError, match="start_interval"):
            visit_at(learner, 0, 0, np.array([0.3, 0.7]), 1, 0.5)
        # the refused visit left the statistics as they were
        assert not learner.store.tau.any()
        learner.start_interval(np.array([0.3, 0.7]), 0, "start")
        visit_at(learner, 0, 0, np.array([0.3, 0.7]), 1, 0.5)
        assert learner.store.tau[0, 0] == 1

    def test_visit_without_a_context_is_named(self):
        # m set by hand, as the tests do, leaves no context to fold at
        learner = Learner(REF_CFG, generate_instance(REF_SPEC), REF_CFG.l_min)
        learner.m = 1
        with pytest.raises(ProtocolError, match="start_interval"):
            learner.visit(0, 0, 1, 0.5)
        assert not learner.store.tau.any() and not learner.store._pending

    @pytest.mark.parametrize("spec, l_min, K, doublings", [
        (REF_SPEC, REF_CFG.l_min, 30, 0), TINY["doubling"] + (1,)])
    def test_the_context_is_keyed_once_per_interval(self, monkeypatch, spec,
                                                    l_min, K, doublings):
        """A visit folds its step at the interval's context: run keys the
        context at each interval's start and after each doubling, never at
        a step."""
        use_context = Learner._use_context
        calls = []

        def counting_use_context(learner, c):
            calls.append(c)
            return use_context(learner, c)

        monkeypatch.setattr(Learner, "_use_context", counting_use_context)
        contexts = context_sequence("uniform", K, spec.d,
                                    rng=np.random.default_rng(0))
        log = run(LearnerConfig(delta=0.1, l_min=l_min),
                  generate_instance(spec), contexts, seed=0)
        assert log.doubling_events == doublings
        assert len(calls) == log.total_intervals + log.doubling_events

    def test_radii_follow_the_visit_count(self, monkeypatch):
        model = generate_instance(REF_SPEC)
        learner = Learner(REF_CFG, model, REF_CFG.l_min)
        c = np.array([0.3, 0.7])
        learner.start_interval(c, 0, "start")
        dims = (model.d, model.n_states, model.n_actions, REF_CFG.lam,
                REF_CFG.delta)

        def check_every_pair():
            est = learner.snapshot_estimates()
            for (s, a), tau in np.ndenumerate(learner.store.tau):
                assert est.beta_loss[s, a] == loss_radius(tau, *dims)
                assert est.beta_dyn[s, a] == dynamics_radius(tau, *dims)

        rng = np.random.default_rng(6)
        check_every_pair()
        for _ in range(REFRESH_EVERY + 1):
            visit_at(learner, 2, 1, c, int(rng.integers(-1, 5)),
                     float(rng.random()))
            check_every_pair()
        assert learner.store.tau[2, 1] == REFRESH_EVERY + 1
        # a doubling resets every count to 0; the radii follow it down and
        # up again
        self._doubling(monkeypatch, learner, c)
        check_every_pair()
        for _ in range(3):
            visit_at(learner, 2, 1, c, 0, 0.5)
            visit_at(learner, 0, 0, c, 1, 0.5)
            check_every_pair()
        assert learner.store.tau[2, 1] == 3

    def test_p_hat_raw_after_a_run(self, monkeypatch):
        learners = []

        class Recording(Learner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                learners.append(self)

        monkeypatch.setattr("lrcssp.learner.Learner", Recording)
        ref_run(K=40)
        store = learners[0].store
        assert np.count_nonzero(store.tau) > 1
        est = learners[0].snapshot_estimates()
        for s, a in np.ndindex(store.tau.shape):
            want = project_to_stochastic(
                store.xty_trans[s, a] @ store.v_bar_inv[s, a],
                store.v_bar[s, a])
            assert est.p_hat[s, a].tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [10**6, 1])
    def test_known_threshold_before_and_after_a_doubling(self, monkeypatch,
                                                          m):
        # at m = 10**6 the floor sqrt(log(4m / delta)) = 3.912 exceeds
        # beta_dyn for visit counts up to 270 (beta_dyn(0) = 2.696), which
        # no shipped config reaches; at m = 1 it is 1.22 and never binds
        cfg, learner = self._one_state(l_min=0.5)
        learner.m = m - 1
        c = np.array([1.0])
        dims = (1, 1, 2, cfg.lam, cfg.delta)

        def threshold(beta):
            return known_threshold(beta, cfg.l_min, learner.b_star_cur,
                                   learner.m, cfg.delta)

        def visit(s, a, norm):
            # pin the pair's norm at c after the visit (d = 1, c = 1)
            learner.store.v_bar_inv[s, a] = norm**2 / (1.0 - norm**2)
            known = visit_at(learner, s, a, c, GOAL, 0.5)
            norms = context_norms(learner.store.v_bar_inv, c)
            beta = learner.snapshot_estimates().beta_dyn
            assert known == (norms[s, a] < threshold(beta)[s, a])
            return known

        def known_fraction(record):
            norms = context_norms(learner.store.v_bar_inv, c)
            fresh = np.mean(norms < threshold(
                learner.snapshot_estimates().beta_dyn))
            assert record.known_fraction == fresh
            return fresh

        floor_binds = []
        for doubled in (False, True):
            record = (self._doubling(monkeypatch, learner, c) if doubled
                      else learner.start_interval(c, 0, "start"))
            assert known_fraction(record) == 0.0
            floor = math.sqrt(math.log(4.0 * learner.m / cfg.delta))
            beta = dynamics_radius(learner.store.tau[0, 1] + 1, *dims)
            floor_binds.append(floor > beta)
            # (0, 1) lies just above its threshold, and below the threshold
            # without the floor where the floor binds (1.3 times higher)
            assert visit(0, 0, norm=1e-6)
            assert not visit(0, 1, norm=1.01 * threshold(beta))
            record = learner.start_interval(c, 0, "unknown")
            assert known_fraction(record) == 0.5
        assert floor_binds == [m > 1] * 2

    @pytest.mark.parametrize("m0", [0, 10**6])
    def test_known_bit_of_every_visit_across_a_doubling(self, monkeypatch,
                                                         m0):
        """Every visit's known bit equals the paper's test recomputed from
        the store: the pair's norm at c against known_threshold at
        dynamics_radius(tau), l_min, b_star_cur, m and delta.

        (d, S, A) = (1, 1, 1): the single row opens after a few visits and
        its values escape B = 1 once.  l_min = 10 puts visits on both sides
        of the threshold before and after the doubling.  With the interval
        count started at m0 = 10**6 the floor sqrt(log(4m / delta)) exceeds
        beta_dyn at every visit, so the floor's threshold decides.
        """
        seen = []

        class Checked(Learner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.m = m0

            def visit(self, s, a, next_state, loss):
                known = super().visit(s, a, next_state, loss)
                cfg = self.cfg
                beta = dynamics_radius(self.store.tau[s, a], self.d,
                                       self.n_states, self.n_actions,
                                       cfg.lam, cfg.delta)
                norm = context_norms(self.store.v_bar_inv[s, a],
                                     self._context)
                assert known == (norm < known_threshold(
                    beta, self.l_min_eff, self.b_star_cur, self.m,
                    cfg.delta))
                seen.append((self.doubling_events, known,
                             known_floor(self.m, cfg.delta) > beta))
                return known

        monkeypatch.setattr("lrcssp.learner.Learner", Checked)
        spec = GeneratorSpec(d=1, n_states=1, n_actions=1, gamma_goal=0.02,
                             l_min_target=0.5, seed=0)
        contexts = context_sequence("uniform", 20, 1,
                                    rng=np.random.default_rng(0))
        log = run(LearnerConfig(delta=0.1, l_min=10.0),
                  generate_instance(spec), contexts, seed=0)
        assert log.doubling_events == 1
        assert {(doubled, known) for doubled, known, _ in seen} == {
            (0, False), (0, True), (1, False), (1, True)}
        assert {floor for _, _, floor in seen} == {m0 > 0}

    def test_known_bit_follows_m_set_between_visits(self):
        # the floor's threshold follows m, which the helpers above set
        # between visits.  Each visit's norm lies just below
        # the threshold without the floor, so the pair is known at m = 1
        # (floor 1.22) and not at m = 10**6 (floor 3.91 > beta_dyn)
        cfg, learner = self._one_state(l_min=0.5)
        c = np.array([1.0])
        learner.start_interval(c, 0, "start")
        bits = []
        for m in (10**6, 1, 10**6, 1):
            learner.m = m
            beta = dynamics_radius(learner.store.tau[0, 0] + 1, 1, 1, 2,
                                   cfg.lam, cfg.delta)
            norm = 0.99 * cfg.l_min / (10.0 * learner.b_star_cur * beta)
            learner.store.v_bar_inv[0, 0] = norm**2 / (1.0 - norm**2)
            bits.append(visit_at(learner, 0, 0, c, GOAL, 0.5))
        assert bits == [False, True, False, True]

    def test_known_count_just_below_the_floor(self):
        # at m = 10**6 the floor's threshold decides (floor 3.91 > beta_dyn):
        # a fresh pair's norm 1 lies above it, so the count is skipped, and
        # a norm just below it is counted
        cfg, learner = self._one_state(l_min=0.5)
        c = np.array([1.0])

        def thresholds():
            return known_threshold(learner._beta_p, cfg.l_min,
                                   learner.b_star_cur, learner.m, cfg.delta)

        learner.m = 10**6 - 1
        assert learner.start_interval(c, 0, "start").known_fraction == 0.0
        assert np.all(learner._norms_lo >= thresholds())
        t = 0.99 * cfg.l_min / (10.0 * learner.b_star_cur
                                * known_floor(learner.m + 1, cfg.delta))
        learner.store.v_bar[0, 0] = (1.0 - t * t) / (t * t)
        learner.store.v_bar_inv[0, 0] = t * t / (1.0 - t * t)
        assert visit_at(learner, 0, 0, c, GOAL, 0.5)
        assert learner.start_interval(c, 0, "goal").known_fraction == 0.5
        assert np.all(thresholds() / 2 < learner._norms_lo)
        assert np.all(learner._norms_lo < thresholds())

    def test_known_count_follows_a_doubling(self, monkeypatch):
        # l_min = 40 puts the threshold of a fresh pair (norm 1 at c = 1)
        # above 1 at b_star 1 and below it at b_star 2: every pair is known
        # until the doubling and none after
        _, learner = self._one_state(l_min=40.0)
        c = np.array([1.0])
        assert learner.start_interval(c, 0, "start").known_fraction == 1.0
        record = self._doubling(monkeypatch, learner, c)
        assert learner.b_star_cur == 2.0 and record.known_fraction == 0.0

    def test_a_doubling_keeps_the_work_counts(self, monkeypatch):
        # one emptied plan; then a visited pair projected for the EVI plan
        # that escapes, and its rerun on the reset statistics, which
        # projects nothing
        learner = Learner(REF_CFG, generate_instance(REF_SPEC), REF_CFG.l_min)
        c = np.array([0.3, 0.7])
        learner.start_interval(c, 0, "start")
        visit_at(learner, 0, 0, c, 1, 0.5)
        self._doubling(monkeypatch, learner, c)
        assert learner.work == {"emptied_plans": 1, "evi_plans": 2,
                                "projections": 1}
