import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrcssp import estimation
from lrcssp.errors import StructuralError
from lrcssp.estimation import (
    REFRESH_EVERY,
    PairStore,
    SaStatistics,
    _capped_simplex_columns,
    capped_simplex_projection,
    context_norms,
    dynamics_radius,
    loss_radius,
    project_to_stochastic,
)
from lrcssp.learner import Learner, LearnerConfig
from lrcssp.linear_model import GeneratorSpec, generate_instance
from lrcssp.ssp import GOAL
from known_oracle import known_threshold


def random_contexts(rng, n, d):
    return rng.dirichlet(np.ones(d), size=n)


# Scalar oracles of one pair's statistics; the learner computes all of
# these for every pair at once (Learner.visit, Learner.snapshot_estimates).


def ridge_loss_estimate(stats):
    """Closed-form ridge minimizer for the loss embedding."""
    return stats.v_bar_inv @ stats.xty_loss


def ridge_dynamics_estimate(stats):
    """(S, d) matrix of per-next-state ridge solves sharing one inverse."""
    return stats.xty_trans @ stats.v_bar_inv


def context_norm(stats, c):
    """||c||_{V^-1}: the context-weighted uncertainty at one pair."""
    return float(context_norms(stats.v_bar_inv, c))


def is_known(stats, c, l_min, b_star, m, delta, n_states, n_actions):
    """Known test: context-weighted uncertainty below the safety threshold."""
    beta = dynamics_radius(stats.tau, stats.d, n_states, n_actions,
                           stats.lam, delta)
    return bool(context_norm(stats, c)
                < known_threshold(beta, l_min, b_star, m, delta))


def compute_pair_estimate(stats, n_actions, delta):
    """(l_hat, p_raw, beta_l, beta_p) for a single pair's statistics."""
    l_hat = ridge_loss_estimate(stats)
    p_raw = ridge_dynamics_estimate(stats)
    beta_l = loss_radius(stats.tau, stats.d, stats.n_states, n_actions,
                         stats.lam, delta)
    beta_p = dynamics_radius(stats.tau, stats.d, stats.n_states, n_actions,
                             stats.lam, delta)
    return l_hat, p_raw, beta_l, beta_p


class TestSaStatistics:
    def test_rank_one_inverse_tracks_direct(self):
        rng = np.random.default_rng(0)
        d, lam = 3, 0.5
        stats = SaStatistics(d, 4, lam=lam)
        direct = lam * np.eye(d)
        for i, c in enumerate(random_contexts(rng, 500, d)):
            stats.record_visit(c, int(rng.integers(0, 4)), float(rng.random()))
            direct += np.outer(c, c)
            assert np.allclose(stats.v_bar_inv, np.linalg.inv(direct),
                               atol=1e-8), f"diverged at visit {i}"

    def test_ridge_loss_matches_batch_solve(self):
        rng = np.random.default_rng(1)
        d, lam = 4, 1.0
        stats = SaStatistics(d, 3, lam=lam)
        cs = random_contexts(rng, 200, d)
        ys = rng.random(200)
        for c, y in zip(cs, ys):
            stats.record_visit(c, 0, float(y))
        batch = np.linalg.solve(lam * np.eye(d) + cs.T @ cs, cs.T @ ys)
        assert np.allclose(ridge_loss_estimate(stats), batch, atol=1e-9)

    def test_ridge_dynamics_matches_batch_solve(self):
        rng = np.random.default_rng(2)
        d, n_states, lam = 3, 4, 1.0
        stats = SaStatistics(d, n_states, lam=lam)
        cs = random_contexts(rng, 300, d)
        nxt = rng.integers(-1, n_states, size=300)  # -1 encodes the goal
        for c, s in zip(cs, nxt):
            stats.record_visit(c, GOAL if s == -1 else int(s), 0.0)
        v = lam * np.eye(d) + cs.T @ cs
        expect = np.zeros((n_states, d))
        for sp in range(n_states):
            onehot = (nxt == sp).astype(float)
            expect[sp] = np.linalg.solve(v, cs.T @ onehot)
        assert np.allclose(ridge_dynamics_estimate(stats), expect, atol=1e-9)

    def test_goal_visits_leave_dynamics_moments_zero(self):
        stats = SaStatistics(2, 3)
        for _ in range(10):
            stats.record_visit([0.5, 0.5], GOAL, 1.0)
        assert np.all(stats.xty_trans == 0)
        assert stats.tau == 10

    def test_context_norm_decreases_on_repeat_context(self):
        stats = SaStatistics(2, 3, lam=1.0)
        c = np.array([0.7, 0.3])
        norms = []
        for _ in range(20):
            norms.append(context_norm(stats, c))
            stats.record_visit(c, 0, 0.0)
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_refresh_keeps_inverse_exact_past_cadence(self):
        rng = np.random.default_rng(3)
        stats = SaStatistics(2, 2, lam=1.0)
        for c in random_contexts(rng, 1500, 2):
            stats.record_visit(c, 0, 0.0)
        assert np.allclose(stats.v_bar_inv, np.linalg.inv(stats.v_bar),
                           atol=1e-10)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("kind", ["fixed_interior", "cycling_vertices"])
    def test_worst_case_drift_before_refresh(self, d, kind):
        # REFRESH_EVERY - 1 rank-one updates and no refresh: the most drift
        # the inverse can carry.  Each update rounds with a relative error of
        # a few eps, amplified at most by cond(V), so the drift relative to
        # the largest entry stays below n_updates * cond(V) * eps.  Measured:
        # 8.7e-13 against a bound of 7.0e-11 at d = 4 with the fixed context,
        # 4.4e-16 against 2.3e-13 at d = 2 with the vertices.
        stats = SaStatistics(d, 2, lam=1.0)
        interior = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
        n_updates = REFRESH_EVERY - 1
        for t in range(n_updates):
            c = interior if kind == "fixed_interior" else np.eye(d)[t % d]
            stats.record_visit(c, t % 2, 0.5)
        assert int(stats.tau) == n_updates
        direct = np.linalg.inv(stats.v_bar)
        drift = np.abs(stats.v_bar_inv - direct).max() / np.abs(direct).max()
        eps = np.finfo(float).eps
        assert drift <= n_updates * np.linalg.cond(stats.v_bar) * eps
        # the next visit re-inverts, so the drift is gone
        stats.record_visit(interior, 0, 0.5)
        assert stats.v_bar_inv.tobytes() == np.linalg.inv(
            stats.v_bar).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 4), n_states=st.integers(1, 3),
           grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           visits=st.integers(0, REFRESH_EVERY + 50),
           lam=st.sampled_from([1.0, 2.5]), seed=st.integers(0, 2**32 - 1))
    @example(d=3, n_states=2, grid=(2, 3), visits=REFRESH_EVERY + 50,
             lam=1.0, seed=0)
    def test_one_pair_store_equals_pair_of_grid(self, d, n_states, grid,
                                                visits, lam, seed):
        # SaStatistics is the shape-() PairStore: fed the same visits, it
        # holds the bits pair (s, a) of an (S, A) store holds, whatever
        # the store's other pairs see
        rng = np.random.default_rng(seed)
        index = tuple(int(rng.integers(n)) for n in grid)
        one = SaStatistics(d, n_states, lam=lam)
        store = PairStore(grid, d, n_states, lam)
        # small concentrations put contexts near the simplex's vertices
        alpha = rng.uniform(0.05, 2.0)
        for c in rng.dirichlet(np.full(d, alpha), size=visits):
            nxt = int(rng.integers(-1, n_states))  # -1 is the goal
            loss = float(rng.random())
            one.record_visit(c, nxt, loss)
            store.record_visit(c, nxt, loss, index)
            other = tuple(int(rng.integers(n)) for n in grid)
            if other != index:
                store.record_visit(c[::-1], nxt, 1.0 - loss, other)
        assert one.tau.shape == ()
        for name in ("tau", "v_bar", "v_bar_inv", "xty_loss", "xty_trans"):
            got, want = getattr(one, name), getattr(store, name)[index]
            assert got.tobytes() == want.tobytes(), name


class EagerStore:
    """Reference: PairStore as it was, every array updated at every visit."""

    def __init__(self, shape, d, n_states, lam=1.0):
        self.tau = np.zeros(shape)
        self.v_bar = np.tile(lam * np.eye(d), shape + (1, 1))
        self.v_bar_inv = np.tile(np.eye(d) / lam, shape + (1, 1))
        self.xty_loss = np.zeros(shape + (d,))
        self.l_hat = np.zeros(shape + (d,))
        self.xty_trans = np.zeros(shape + (n_states, d))

    def record_visit(self, c, next_state, loss, index=()):
        c = np.asarray(c, dtype=float)
        tau = self.tau.item(index) + 1
        self.tau[index] = tau
        v_bar, v_bar_inv = self.v_bar[index], self.v_bar_inv[index]
        v_bar += c[:, None] * c
        vc = v_bar_inv @ c
        v_bar_inv -= vc[:, None] * vc / (1.0 + c @ vc)
        if tau % estimation.REFRESH_EVERY == 0:
            v_bar_inv[...] = np.linalg.inv(v_bar)
        xty_loss = self.xty_loss[index]
        xty_loss += loss * c
        # as the learner wrote l_hat after each visit
        v_bar_inv.dot(xty_loss, out=self.l_hat[index])
        if next_state != GOAL:
            xty_trans = self.xty_trans[index]
            xty_trans[next_state] += c
        return tau, context_norms(v_bar_inv, c)


STORE_NAMES = ("tau", "v_bar", "v_bar_inv", "xty_loss", "l_hat",
               "xty_trans")
# context entries: both zeros, a tiny and an overflowing c c^T, and the rest
CONTEXT_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-300, 0.5, 1.0, 1e154, 1e200]),
    st.floats(-2.0, 2.0))


class TestDeferredStore:
    """v_bar and xty_trans, folded from the pending log on read, and every
    other array equal the eager store's at every read, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), n_states=st.integers(1, 3),
           grid=st.sampled_from([(), (2, 3)]),
           lam=st.sampled_from([1.0, 2.5]), refresh=st.integers(1, 6),
           limit=st.integers(1, 5))
    def test_folds_equal_the_eager_store(self, data, d, n_states, grid, lam,
                                         refresh, limit):
        # a small refresh cadence and log bound, so both run often; reads
        # and in-place writes of every array fall between visits, and the
        # caller changes c after each visit it hands over
        store = (SaStatistics(d, n_states, lam) if grid == ()
                 else PairStore(grid, d, n_states, lam))
        eager = EagerStore(grid, d, n_states, lam)
        indices = st.tuples(*(st.integers(0, n - 1) for n in grid))
        ops = st.sampled_from(["visit"] * 6 + ["read"] + [
            "write " + name for name in STORE_NAMES[1:]])
        with mock.patch.object(estimation, "REFRESH_EVERY", refresh), \
                mock.patch.object(estimation, "PENDING_LIMIT", limit), \
                np.errstate(all="ignore"):
            for op in data.draw(st.lists(ops, max_size=40)):
                if op == "visit":
                    c = np.array(data.draw(st.lists(
                        CONTEXT_ENTRIES, min_size=d, max_size=d)))
                    nxt = data.draw(st.integers(-1, n_states - 1))  # -1: goal
                    loss = data.draw(st.sampled_from([0.0, 0.25, 1.0]))
                    index = data.draw(indices)
                    try:
                        want = eager.record_visit(c.copy(), nxt, loss, index)
                    except np.linalg.LinAlgError:
                        # a refresh of a V singular in floating point (an
                        # overflowing c c^T): the store fails at that visit
                        with pytest.raises(np.linalg.LinAlgError):
                            store.record_visit(c, nxt, loss, index)
                        return
                    tau, norm = store.record_visit(c, nxt, loss, index)
                    assert tau == want[0] and type(norm) is float
                    assert np.float64(norm).tobytes() == want[1].tobytes()
                    c[...] = data.draw(st.sampled_from([7.0, np.nan]))
                elif op == "read":
                    # in any order: either folded array may be read first
                    for name in data.draw(st.permutations(STORE_NAMES)):
                        assert getattr(store, name).tobytes() == \
                            getattr(eager, name).tobytes(), name
                else:
                    name = op.split()[1]
                    value = data.draw(st.sampled_from([0.5, 3.0])) * \
                        getattr(eager, name)
                    getattr(eager, name)[...] = value
                    getattr(store, name)[...] = value
                assert len(store._pending) < limit
            for name in data.draw(st.permutations(STORE_NAMES)):
                assert getattr(store, name).tobytes() == \
                    getattr(eager, name).tobytes(), name

    @pytest.mark.parametrize("grid", [(), (2, 3)])
    def test_next_state_out_of_range_raises(self, grid):
        # a flat index past a pair's rows would land in the next pair's
        store = PairStore(grid, 2, 3)
        for nxt in (-2, 3):
            with pytest.raises(IndexError, match="next state"):
                store.record_visit([0.5, 0.5], nxt, 0.0, (1, 2)[:len(grid)])
        assert not store.tau.any() and not store._pending

    def test_refresh_reads_the_folded_v_bar(self):
        # the real cadence and bound: a refresh that read v_bar before its
        # log was folded would invert lam*I plus the folded visits only.
        # Every third context has a -0.0 entry, where the store's
        # v_bar_inv.dot(c) may return -0.0 and the eager @ +0.0
        # (TestDotSpelling, d = 1); neither zero moves a bit
        for d in (1, 2):
            rng = np.random.default_rng(3)
            store, eager = PairStore((2, 2), d, 3), EagerStore((2, 2), d, 3)
            for k in range(2 * REFRESH_EVERY):
                c = rng.dirichlet(np.ones(d))
                if k % 3 == 1:
                    c[rng.integers(d)] = -0.0
                index = (0, 1) if k % 3 else (int(k % 2), 0)
                nxt = int(rng.integers(-1, 3))
                store.record_visit(c, nxt, 0.5, index)
                eager.record_visit(c, nxt, 0.5, index)
            assert store.tau[0, 1] > REFRESH_EVERY
            for name in STORE_NAMES:
                assert getattr(store, name).tobytes() == \
                    getattr(eager, name).tobytes(), name

    @pytest.mark.parametrize("d", [1, 2])
    def test_norm_of_a_negative_zero_sum(self, d):
        # every product of c V^-1 c is -0.0: .dot keeps the sign, while
        # context_norms' sums start at +0.0 (a V^-1 gone negative, as an
        # overflowing c c^T can leave it)
        store = PairStore((), d, 1)
        store.v_bar_inv[...] = -2.0 * np.eye(d)
        c = np.zeros(d)
        _, norm = store.record_visit(c, 0, 0.5)
        assert np.float64(norm).tobytes() == context_norms(
            store.v_bar_inv, c).tobytes() == np.float64(0.0).tobytes()


class TestArraysWrittenInPlace:
    """A store's arrays are allocated once and written in place, so the
    views a visit writes through, kept per pair, are the arrays' own."""

    @pytest.mark.parametrize("name", STORE_NAMES[1:])
    @pytest.mark.parametrize("grid", [(), (2, 3)])
    def test_assigning_an_array_raises_and_changes_nothing(self, grid, name):
        index = (1, 2)[:len(grid)]
        stores = [SaStatistics(2, 3) if grid == () else PairStore(grid, 2, 3)
                  for _ in range(2)]
        for store in stores:
            store.record_visit([0.3, 0.7], 1, 0.5, index)
        store, twin = stores
        pending, pairs = list(store._pending), dict(store._pairs)
        # a delete and then an assign would bind an array the views miss
        with pytest.raises(AttributeError):
            delattr(store, name)
        with pytest.raises(AttributeError):
            setattr(store, name, np.zeros_like(getattr(twin, name)))
        assert store._pending == pending
        assert store._pairs.keys() == pairs.keys()
        assert all(x is y for x, y in zip(store._pairs[index], pairs[index]))
        for visit in (False, True):
            # and a visit after it goes through the same views
            for each in stores if visit else ():
                each.record_visit([0.6, 0.4], GOAL, 0.25, index)
            for each in STORE_NAMES:
                assert getattr(store, each).tobytes() == \
                    getattr(twin, each).tobytes(), each
        assert store.l_hat[index].tobytes() == store.v_bar_inv[index].dot(
            store.xty_loss[index]).tobytes()

    def test_a_learner_sees_no_stale_view(self):
        # replacing v_bar_inv once left the learner's own views on the old
        # array, so the next visit's l_hat and norm disagreed with the store
        spec = GeneratorSpec(d=2, n_states=3, n_actions=2, seed=0)
        learner = Learner(LearnerConfig(), generate_instance(spec), 0.1)
        c = np.array([0.3, 0.7])
        learner.start_interval(c, 0, "start")
        learner.visit(1, 0, 2, 0.5)
        store = learner.store
        with pytest.raises(AttributeError):
            store.v_bar_inv = store.v_bar_inv.copy()
        learner.visit(1, 0, 0, 0.75)
        assert learner.snapshot_estimates().l_hat[1, 0].tobytes() == \
            store.v_bar_inv[1, 0].dot(store.xty_loss[1, 0]).tobytes()
        assert learner._use_context(c).tobytes() == \
            context_norms(store.v_bar_inv, c).tobytes()


# entries that stress a sum's bits: signed zeros, subnormals, huge and
# non-finite values, and ordinary floats
DOT_ENTRIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 1e300, -1e300, 1.7e308,
                     np.inf, -np.inf, np.nan]),
    st.floats(-4.0, 4.0))


def same_bits(new, old):
    """Equal bytes entry by entry, where two NaNs count as equal."""
    new, old = np.asarray(new), np.asarray(old)
    nan = np.isnan(old)
    return (np.isnan(new) == nan).all() and \
        new[~nan].tobytes() == old[~nan].tobytes()


def all_negative_zero(products):
    """Is every product of a sum (the last axis) -0.0?"""
    return ((products == 0.0) & np.signbit(products)).all(axis=-1)


class TestDotSpelling:
    """The per-visit products, spelled with ndarray.dot, give the bits of the
    operator each replaced: PairStore.record_visit's V^-1 c, c.(V^-1 c),
    l_hat (out=) and the returned norm's c V^-1 c, and the (S, d) by (d, d)
    products of snapshot_estimates and project_to_stochastic.

    They differ in two ways, neither of which the learner meets.  Where
    every product of a sum is -0.0, the two may return zeros of opposite
    sign: the one-pair operators' sums start at +0.0, and .dot returns -0.0
    at d = 1 (test_all_negative_zero_sum_keeps_its_sign).  The learner's
    V^-1 has a positive diagonal and its xty_loss never holds -0.0, and a
    -0.0 in V^-1 c leaves every bit of the update (TestDeferredStore).  And
    an (S, 1) by (1, 1) .dot scales by the one entry, which at 0 gives 0
    for a non-finite entry where the operator gives NaN; the learner's
    (1, 1) V and V^-1 are positive.
    """

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(1, 8), n_rows=st.integers(1, 6),
           symmetric=st.booleans())
    def test_dot_equals_the_operator(self, data, d, n_rows, symmetric):
        def draw(*shape):
            n = math.prod(shape)
            return np.array(data.draw(st.lists(
                DOT_ENTRIES, min_size=n, max_size=n))).reshape(shape)

        m, c, x, rows = draw(d, d), draw(d), draw(d), draw(n_rows, d)
        if symmetric:
            m = np.triu(m) + np.triu(m, 1).T
        with np.errstate(all="ignore"):
            spelled = [
                # new, old and the products each entry's sum runs over
                # (for the norm, its second sum's, as .dot forms them)
                (m.dot(c), m @ c, m * c),
                (c.dot(x), c @ x, c * x),
                (m.dot(x, out=np.empty(d)), np.matmul(m, x, out=np.empty(d)),
                 m * x),
                (c.dot(m).dot(c).item(), np.vecdot(np.vecmat(c, m), c).item(),
                 c.dot(m) * c),
                (rows.dot(m), rows @ m, rows[:, None, :] * m.T),
            ]
        for new, old, products in spelled:
            new, old = np.asarray(new), np.asarray(old)
            if products.ndim == 3 and d == 1 and m.item() == 0.0:
                seen = np.isfinite(rows)  # scaled by zero
                new, old, products = new[seen], old[seen], products[seen]
            signed = all_negative_zero(products)
            assert (new[signed] == 0.0).all() and (old[signed] == 0.0).all()
            assert same_bits(new[~signed], old[~signed]), (new, old)

    def test_all_negative_zero_sum_keeps_its_sign(self):
        # d = 1: every product is -0.0
        v_bar_inv, c = np.array([[2.0]]), np.array([-0.0])
        assert np.signbit(v_bar_inv.dot(c)).all()
        assert not np.signbit(v_bar_inv @ c).any()
        assert np.signbit(c.dot(np.ones(1)))
        assert not np.signbit(c @ np.ones(1))
        l_hat = np.empty(1)
        v_bar_inv.dot(c, out=l_hat)
        assert np.signbit(l_hat).all()
        np.matmul(v_bar_inv, c, out=l_hat)
        assert not np.signbit(l_hat).any()
        # the norm's second sum is over (-0)(-0) = +0.0 either way
        assert np.signbit(c.dot(v_bar_inv)).all()
        assert not np.signbit(np.vecmat(c, v_bar_inv)).any()
        assert not np.signbit(c.dot(v_bar_inv).dot(c))


def capped_simplex_oracle(y, iters=200):
    """Independent oracle: bisection on the shift theta.

    The projection is max(y - theta, 0) where theta = 0 if that point is
    already inside the cap, else the unique theta with sum = 1.
    """
    x = np.maximum(y, 0.0)
    if x.sum() <= 1.0:
        return x
    lo, hi = 0.0, float(np.max(y))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(y - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(y - 0.5 * (lo + hi), 0.0)


def capped_simplex_sorted(y):
    """The one-dimensional sort-based rule capped_simplex_projection had."""
    x = np.maximum(y, 0.0)
    if x.sum() <= 1.0:
        return x
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(y) + 1) > css)[0][-1]
    return np.maximum(y - css[rho] / (rho + 1.0), 0.0)


class TestCappedSimplexProjection:
    def test_feasible_point_unchanged(self):
        y = np.array([0.2, 0.3, 0.1])
        assert np.array_equal(capped_simplex_projection(y), y)

    def test_negative_entries_clipped(self):
        y = np.array([-0.5, 0.4])
        assert np.allclose(capped_simplex_projection(y), [0.0, 0.4])

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            y = rng.normal(0, 1, size=rng.integers(1, 8))
            assert np.allclose(capped_simplex_projection(y),
                               capped_simplex_oracle(y), atol=1e-10)

    def test_bit_equal_to_one_dimensional_rule(self):
        # now one column of the column-wise pass; rounding makes ties and -0.0
        rng = np.random.default_rng(6)
        for i in range(2000):
            y = rng.normal(rng.normal(0, 1), rng.uniform(0.01, 3),
                           size=rng.integers(1, 300))
            if i % 4 == 0:
                y = np.round(y, 1)
            got = capped_simplex_projection(y)
            assert got.tobytes() == capped_simplex_sorted(y).tobytes()

    def test_output_always_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = capped_simplex_projection(rng.normal(0, 2, size=5))
            assert np.all(x >= 0) and x.sum() <= 1 + 1e-12


def weighted_projection_oracle(p_raw, v_bar, rounds=8, grid=21):
    """Hierarchical grid refinement for small (S, d) weighted projections.

    Scans a product grid per column (columns separate in the objective),
    then zooms around the best cell; returns a point within ~1e-6 of the
    optimum for 2x2 problems.
    """
    s, d = p_raw.shape
    assert s == 2, "oracle written for two-state problems"
    out = np.empty_like(p_raw)
    for j in range(d):
        lo = np.zeros(s)
        hi = np.ones(s)
        best = None
        for _ in range(rounds):
            g0 = np.linspace(lo[0], hi[0], grid)
            g1 = np.linspace(lo[1], hi[1], grid)
            a, b = np.meshgrid(g0, g1, indexing="ij")
            mask = a + b <= 1.0 + 1e-12
            cand = np.stack([a[mask], b[mask]], axis=1)  # (n, 2) column values
            # objective restricted to column j with the others at p_raw:
            # sum over columns couples through v_bar, so evaluate fully
            vals = np.empty(len(cand))
            for i, col in enumerate(cand):
                p = p_raw.copy()
                p[:, j] = col
                diff = p - p_raw
                vals[i] = np.einsum("ij,jk,ik->", diff, v_bar, diff)
            best = cand[np.argmin(vals)]
            span0 = (hi[0] - lo[0]) / (grid - 1)
            span1 = (hi[1] - lo[1]) / (grid - 1)
            lo = np.maximum([best[0] - span0, best[1] - span1], 0.0)
            hi = np.minimum([best[0] + span0, best[1] + span1], 1.0)
        out[:, j] = best
    return out


def full_grid_oracle(p_raw, v_bar, rounds=9, grid=13):
    """Joint grid refinement over all entries of a 2x2 matrix.

    Needed when v_bar is non-diagonal: the objective couples the columns
    through the quadratic form, so columns cannot be optimized separately.
    """
    assert p_raw.shape == (2, 2)
    lo = np.zeros(4)
    hi = np.ones(4)
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], grid) for i in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.stack([m.ravel() for m in mesh], axis=1)
        # columns are (p00, p10) and (p01, p11)
        feas = (flat[:, 0] + flat[:, 1] <= 1 + 1e-12) & \
               (flat[:, 2] + flat[:, 3] <= 1 + 1e-12)
        cand = flat[feas]
        p = np.empty((len(cand), 2, 2))
        p[:, 0, 0], p[:, 1, 0] = cand[:, 0], cand[:, 1]
        p[:, 0, 1], p[:, 1, 1] = cand[:, 2], cand[:, 3]
        diff = p - p_raw
        vals = np.einsum("nij,jk,nik->n", diff, v_bar, diff)
        best = cand[np.argmin(vals)]
        span = (hi - lo) / (grid - 1)
        lo = np.maximum(best - span, 0.0)
        hi = np.minimum(best + span, 1.0)
    out = np.empty((2, 2))
    out[0, 0], out[1, 0] = best[0], best[1]
    out[0, 1], out[1, 1] = best[2], best[3]
    return out


class TestProjectToStochastic:
    def test_feasible_input_unchanged(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(3), size=2).T * 0.8  # (3, 2), sums 0.8
        v = np.eye(2)
        assert np.array_equal(project_to_stochastic(p, v), p)

    def test_identity_weight_equals_capped_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p_raw = rng.normal(0, 1, size=(4, 3))
            got = project_to_stochastic(p_raw, np.eye(3))
            want = np.stack([capped_simplex_oracle(p_raw[:, j])
                             for j in range(3)], axis=1)
            assert np.allclose(got, want, atol=1e-5)

    def test_matches_grid_oracle_diagonal_weight(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p_raw = rng.normal(0.4, 0.8, size=(2, 2))
            v = np.diag(rng.uniform(0.5, 5.0, size=2))
            got = project_to_stochastic(p_raw, v)
            want = weighted_projection_oracle(p_raw, v)
            assert np.allclose(got, want, atol=1e-4)

    def test_matches_grid_oracle_full_weight(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            a = rng.normal(0, 1, size=(2, 2))
            v = a @ a.T + 0.5 * np.eye(2)
            p_raw = rng.normal(0.5, 0.8, size=(2, 2))
            got = project_to_stochastic(p_raw, v)
            want = full_grid_oracle(p_raw, v)

            def obj(p):
                diff = p - p_raw
                return np.einsum("ij,jk,ik->", diff, v, diff)

            assert obj(got) <= obj(want) + 1e-5

    def test_output_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            a = rng.normal(0, 1, size=(3, 3))
            v = a @ a.T + 0.1 * np.eye(3)
            p = project_to_stochastic(rng.normal(0, 1, size=(5, 3)), v)
            assert np.all(p >= -1e-12)
            assert np.all(p.sum(axis=0) <= 1 + 1e-9)

    def test_non_expansive_toward_feasible_points(self):
        # the projection lands no farther (in the V-weighted norm) from any
        # feasible Q than the input was
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.normal(0, 1, size=(2, 2))
            v = a @ a.T + 0.3 * np.eye(2)
            p_raw = rng.normal(0.5, 1.0, size=(3, 2))
            p = project_to_stochastic(p_raw, v)
            q = rng.dirichlet(np.ones(4), size=2).T[:3]  # feasible columns
            dist = lambda x: np.einsum("ij,jk,ik->", x - q, v, x - q)
            assert dist(p) <= dist(p_raw) + 1e-9

    def test_rejects_bad_shapes(self):
        with pytest.raises(StructuralError):
            project_to_stochastic(np.zeros((2, 2)), np.eye(3))

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 4), n_states=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), visits=st.integers(0, 2000))
    def test_kkt_conditions(self, d, n_states, seed, visits):
        """P = project_to_stochastic(p_raw, V) meets the KKT conditions of
        min tr((P - p_raw) V (P - p_raw)^T) over columns >= 0 with sums
        <= 1, column by column, with G = 2 (P - p_raw) V: G is equal on the
        column's support (to -mu), at least that off it, mu >= 0, and mu = 0
        where the column's mass is below 1.

        Tolerance: the solver stops after a step P -> Q that lowers the
        objective by less than tol = 1e-10.  Its step is 1/L with L = 2
        lambda_max(V), so a step lowers the objective by at least
        L/2 ||Q - P||_F^2, and ||Q - P||_F <= sqrt(2 tol / L).  Q is the
        exact projection of P - G(P) / L, so H = G(P) + L (Q - P) meets the
        conditions exactly at Q, and G(Q) - H = (Q - P)(2V - L I) has
        entries at most L ||Q - P||_F <= e = 2 sqrt(lambda_max tol).  A
        condition that compares two entries of G allows 2e, one that reads
        one entry e, each plus 1e-9 for rounding.

        visits = 0 draws a random positive definite V and p_raw around the
        simplex; otherwise V and p_raw are a learner's pair after that many
        visits at random contexts.
        """
        rng = np.random.default_rng(seed)
        if visits:
            stats = SaStatistics(d, n_states)
            for c in random_contexts(rng, visits, d):
                stats.record_visit(c, int(rng.integers(-1, n_states)), 0.0)
            v, p_raw = stats.v_bar, stats.xty_trans @ stats.v_bar_inv
        else:
            a = rng.normal(0.0, 1.0, size=(d, d))
            v = a @ a.T + rng.uniform(0.1, 2.0) * np.eye(d)
            p_raw = rng.normal(0.3, 1.0, size=(n_states, d))
        p = project_to_stochastic(p_raw, v)
        e = 2.0 * math.sqrt(np.linalg.eigvalsh(v)[-1] * 1e-10)
        atol = 1e-9
        assert np.all(p >= 0.0) and np.all(p.sum(axis=0) <= 1.0 + atol)
        g = 2.0 * (p - p_raw) @ v
        for j in range(d):
            support = p[:, j] > 0.0
            if support.any():
                g_on = g[support, j]
                assert g_on.max() - g_on.min() <= 2 * e + atol
                assert np.all(g[~support, j] >= g_on.max() - 2 * e - atol)
                mu = -g_on.mean()
            else:  # mass 0 < 1, so mu = 0
                mu = 0.0
                assert np.all(g[:, j] >= -e - atol)
            assert mu >= -e - atol
            if p[:, j].sum() < 1.0 - atol:
                assert abs(mu) <= e + atol


def projection_oracle(p_raw, v_bar, tol=1e-10, max_iter=10_000):
    """project_to_stochastic's loop as it was when it raised out of passes,
    returning the last accepted iterate there instead."""
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
    return p


class TestProjectionOutOfPasses:
    """A projection that runs out of passes warns and keeps its best
    feasible iterate."""

    @pytest.fixture(scope="class")
    def slow_pair(self):
        # one context, so V has condition 1 + 5000 * |c|^2 = 2901, and the
        # first column of p_raw sums to 1.076: 69 passes to converge
        rng = np.random.default_rng(0)
        stats = SaStatistics(2, 5)
        c = np.array([0.7, 0.3])
        for _ in range(5000):
            nxt = GOAL if rng.random() < 0.1 else int(rng.integers(5))
            stats.record_visit(c, nxt, 0.0)
        return stats.xty_trans @ stats.v_bar_inv, stats.v_bar

    @staticmethod
    def objective(p, p_raw, v_bar):
        diff = p - p_raw
        return float(np.einsum("ij,jk,ik->", diff, v_bar, diff))

    def test_fixture_converges_in_69_passes(self, slow_pair):
        p_raw, v_bar = slow_pair
        assert np.linalg.cond(v_bar) == pytest.approx(2901.0)
        assert p_raw.sum(axis=0)[0] > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            project_to_stochastic(p_raw, v_bar, max_iter=69)
        with pytest.warns(RuntimeWarning):
            project_to_stochastic(p_raw, v_bar, max_iter=68)

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 5, 68])
    def test_budget_below_convergence(self, slow_pair, max_iter):
        p_raw, v_bar = slow_pair
        with pytest.warns(RuntimeWarning) as caught:
            got = project_to_stochastic(p_raw, v_bar, max_iter=max_iter)
        assert [str(w.message) for w in caught] == [
            f"projection stopped after {max_iter} passes"]
        want = projection_oracle(p_raw, v_bar, max_iter=max_iter)
        assert got.tobytes() == want.tobytes()
        # column sums at most 1 up to the capped-simplex step's rounding
        assert np.all(got >= 0.0)
        assert np.all(got.sum(axis=0) <= 1.0 + 4 * np.finfo(float).eps)
        # no worse than the capped-simplex start, and no worse than any
        # smaller budget
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            objs = [self.objective(
                project_to_stochastic(p_raw, v_bar, max_iter=k), p_raw, v_bar)
                for k in range(max_iter, -1, -1)]
        assert objs == sorted(objs)
        if max_iter == 0:
            assert got.tobytes() == _capped_simplex_columns(p_raw).tobytes()

    def test_default_budget_converges_silently(self, slow_pair):
        p_raw, v_bar = slow_pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = project_to_stochastic(p_raw, v_bar)
        assert got.tobytes() == projection_oracle(p_raw, v_bar).tobytes()


class TestRadii:
    def test_loss_radius_formula(self):
        tau, d, s, a, lam, delta = 17, 3, 5, 2, 1.0, 0.1
        expect = math.sqrt(
            d * math.log(8 * s * a * (1 + tau / lam) / delta)) + math.sqrt(lam)
        assert loss_radius(tau, d, s, a, lam, delta) == pytest.approx(expect)

    def test_dynamics_radius_formula(self):
        tau, d, s, a, lam, delta = 40, 2, 4, 3, 0.5, 0.05
        expect = s * (math.sqrt(
            d * math.log(8 * s * s * a * (1 + tau / lam) / delta))
            + math.sqrt(lam))
        assert dynamics_radius(tau, d, s, a, lam, delta) == pytest.approx(expect)

    def test_dynamics_radius_keeps_the_two_line_bits(self):
        # dynamics_radius is S times loss_radius at S^2 A: the same float
        # operations, in the same order, as the formula written out
        def two_line(tau, d, n_states, n_actions, lam, delta):
            arg = 8.0 * n_states**2 * n_actions * (1.0 + tau / lam) / delta
            return n_states * (math.sqrt(d * math.log(arg)) + math.sqrt(lam))

        rng = random.Random(0)
        for i in range(5000):
            tau = ([0, 1023, 1024, 1e9][i] if i < 4 else rng.choice(
                [rng.randint(0, 10**7), rng.uniform(0.0, 1e12)]))
            args = (tau, rng.randint(1, 16), rng.randint(1, 60),
                    rng.randint(1, 12), rng.choice([1.0, rng.uniform(1, 100)]),
                    rng.choice([0.1, rng.uniform(1e-9, 1.0)]))
            assert dynamics_radius(*args).hex() == two_line(*args).hex(), args

    def test_radii_grow_with_tau(self):
        r = [loss_radius(t, 2, 3, 2, 1.0, 0.1) for t in (0, 10, 100, 1000)]
        assert all(b > a for a, b in zip(r, r[1:]))


class TestIsKnown:
    def test_fresh_pair_unknown(self):
        stats = SaStatistics(2, 3, lam=1.0)
        assert not is_known(stats, np.array([0.5, 0.5]), l_min=0.1,
                            b_star=1.0, m=100, delta=0.1, n_states=3,
                            n_actions=2)

    def test_threshold_matches_formula(self):
        stats = SaStatistics(2, 3, lam=1.0)
        c = np.array([0.5, 0.5])
        for _ in range(50):
            stats.record_visit(c, 0, 0.0)
        l_min, b_star, m, delta = 0.1, 1.0, 100, 0.1
        beta = dynamics_radius(stats.tau, 2, 3, 2, 1.0, delta)
        thr = l_min / (10 * b_star * max(beta, math.sqrt(math.log(4 * m / delta))))
        want = context_norm(stats, c) < thr
        assert is_known(stats, c, l_min, b_star, m, delta, 3, 2) == want

    def test_becomes_known_with_enough_data(self):
        # drive the norm below the threshold by faking a huge design matrix
        stats = SaStatistics(2, 3, lam=1.0)
        stats.tau[...] = 10**9
        stats.v_bar[...] = 1e12 * np.eye(2)
        stats.v_bar_inv[...] = 1e-12 * np.eye(2)
        assert is_known(stats, np.array([0.5, 0.5]), l_min=0.1, b_star=1.0,
                        m=100, delta=0.1, n_states=3, n_actions=2)

    def test_known_can_flip_back_to_unknown(self):
        # the threshold shrinks as tau grows; with the norm pinned, a pair
        # that was known at small tau is unknown again at astronomically
        # larger tau
        stats = SaStatistics(2, 3, lam=1.0)
        c = np.array([0.5, 0.5])
        stats.v_bar_inv[...] = 1.8e-7 * np.eye(2)  # norm ~3e-4, between thresholds
        stats.tau[...] = 10
        known_small = is_known(stats, c, 0.1, 1.0, 100, 0.1, 3, 2)
        stats.tau[...] = 10**300
        known_huge = is_known(stats, c, 0.1, 1.0, 100, 0.1, 3, 2)
        assert known_small and not known_huge


class TestComputePairEstimate:
    def test_consistency_with_components(self):
        rng = np.random.default_rng(13)
        stats = SaStatistics(2, 3, lam=1.0)
        for c in random_contexts(rng, 80, 2):
            stats.record_visit(c, int(rng.integers(-1, 3)), float(rng.random()))
        l_hat, p_raw, beta_l, beta_p = compute_pair_estimate(
            stats, n_actions=2, delta=0.1)
        assert np.allclose(l_hat, ridge_loss_estimate(stats))
        assert np.allclose(p_raw, ridge_dynamics_estimate(stats))
        p_hat = project_to_stochastic(p_raw, stats.v_bar)
        assert np.all(p_hat >= -1e-12)
        assert np.all(p_hat.sum(axis=0) <= 1 + 1e-9)
        assert beta_l == loss_radius(stats.tau, 2, 3, 2, 1.0, 0.1)
        assert beta_p == dynamics_radius(stats.tau, 2, 3, 2, 1.0, 0.1)
