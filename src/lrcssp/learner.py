"""The online learner: interval-based optimistic planning over confidence sets.

Planning runs extended value iteration: each backup jointly minimizes over
actions, over loss vectors in the per-pair ellipsoid (closed form by
Cauchy-Schwarz), and over next-state distributions in an L1 ball around the
projected estimate, with freed mass absorbed by the zero-value goal.

A plan whose L1 radii all empty their rows is state-separable: each state's
value and action depend on its own optimistic losses only.  The learner
plans it without the EVI loop, and while the context stays the same and the
rows of the pairs visited since stay empty, it replans only those rows (see
docs/regimes.md, "What a replan costs").
"""

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from numpy._core.multiarray import c_einsum

from . import estimation
from .errors import ConfigError, ProtocolError, check_field_types
from .linear_model import (AdaptiveContexts, _induced_products,
                           validate_contexts)
from .ssp import GOAL


# L1 radius at or above which a plan empties a pair's optimistic row, so the
# pair's projected dynamics p_hat cannot affect the plan.  The row is
# p_hat @ c.  p_hat's columns are non-negative with sums at most 1 up to a few
# ulps (a projection, or zeros before any visit), and validate_context admits
# entries >= -SIMPLEX_TOL summing to 1 within SIMPLEX_TOL, so the row's
# positive mass is at most 1 + d * SIMPLEX_TOL plus rounding.  _evi_backup
# takes min(radius - prior, p) from each entry p, prior being the mass ahead
# of it, so a radius above the whole mass leaves every entry exactly 0.  With
# SIMPLEX_TOL = 1e-9 the margin 1e-6 holds for d below 999 with room for the
# rounding of the S-term sums.
ROW_EMPTYING_RADIUS = 1.0 + 1e-6

# Entries of the sampler tables run builds at once: about 91 contexts of
# S * A * (S + 1) = 90 entries at (S, A) = (5, 3), one at (30, 5).  A stack
# of every episode's context was slower than one context at a time at
# (30, 5): the larger tables fall out of the cache.
SAMPLER_STACK_ENTRIES = 2**13
# Uniform doubles _uniforms draws from the generator at once.
UNIFORM_BLOCK = 1024


@dataclass(frozen=True)
class LearnerConfig:
    delta: float = 0.1
    lam: float = 1.0
    l_min: float = 0.0  # 0 switches on the epsilon perturbation
    epsilon_perturb: float = None  # None = auto formula when l_min == 0
    b_star_init: float = 1.0
    evi_tol: float = 1e-6
    evi_max_iter: int = 10**5
    episode_step_cap: int = 10**6

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.delta < 1:
            raise ConfigError("delta must lie in (0, 1)")
        if self.lam < 1:
            raise ConfigError("lambda must be >= 1")
        if self.l_min < 0:
            raise ConfigError("l_min must be >= 0")
        if self.epsilon_perturb is not None and self.epsilon_perturb < 0:
            raise ConfigError("epsilon_perturb must be >= 0")
        if self.epsilon_perturb is not None and self.l_min > 0:
            raise ConfigError("epsilon_perturb applies only when l_min == 0")
        if self.b_star_init < 1:
            raise ConfigError("b_star_init must be >= 1")
        if self.evi_tol <= 0:
            raise ConfigError("evi_tol must be positive")
        if self.evi_max_iter < 1:
            raise ConfigError("evi_max_iter must be >= 1")
        if self.episode_step_cap < 1:
            raise ConfigError("episode_step_cap must be >= 1")


def auto_epsilon(n_states, d, n_actions, K):
    """Perturbation size used when no loss lower bound is given."""
    return n_states * (d * d * n_actions / K) ** (1.0 / 3.0)


@dataclass(slots=True)
class Plan:
    """One plan: the greedy action and value per state as lists, the last
    sweep's residual, whether it is within evi_tol, the sweep count, and for
    a plan that empties every row its opt_loss as lists (else None)."""
    policy: list
    values: list
    residual: float
    converged: bool
    iterations: int
    rows: list = None


def _evi_backup(opt_loss, p_ctx, r, v):
    """One extended Bellman backup at v, before the min over actions.

    Each pair's L1 step takes up to r of mass from the highest-value states
    first; the goal absorbs it.  Returns the (S, A) Q-values, the
    value-descending state order, and the optimistic transitions in that
    order.
    """
    order = (-v).argsort()
    p_ord = p_ctx[:, :, order]
    prior = p_ord.cumsum(axis=2) - p_ord
    # np.clip(r - prior, 0.0, p_ord) in ufuncs: with an array bound, clip
    # turns -0.0 into +0.0 as maximum(x, 0.0) does (see _induced_products)
    q_ord = p_ord - np.minimum(np.maximum(r - prior, 0.0), p_ord)
    return opt_loss + q_ord @ v[order], order, q_ord


def evi_plan(opt_loss, p_ctx, radius, b_cap, evi_tol, evi_max_iter):
    """Extended value iteration over per-pair confidence sets.

    opt_loss : (S, A) optimistic losses for the current context
    p_ctx    : (S, A, S) projected dynamics applied to the context
    radius   : (S, A) L1 radii beta_P * ||c||_{V^-1}
    Values start at zero, grow monotonically, and are truncated to
    [0, b_cap]; non-convergence is flagged, not raised.  Returns the Plan
    of the greedy policy under the last values, with rows None.
    """
    v = np.zeros(opt_loss.shape[0])
    residual = np.inf
    iterations = 0
    r = radius[:, :, None]
    for iterations in range(1, evi_max_iter + 1):
        q_vals, _, _ = _evi_backup(opt_loss, p_ctx, r, v)
        # np.clip(x, 0.0, b_cap) in ufuncs (see _induced_products)
        w = np.minimum(np.maximum(0.0, q_vals.min(axis=1)), b_cap)
        residual = float(np.abs(w - v).max())
        # a sweep depends on v alone, so each sweep repeats a NaN fixed point
        fixed = math.isnan(residual) and np.array_equal(w, v, equal_nan=True)
        v = w
        if residual <= evi_tol or fixed:
            break
    # greedy policy under the converged values
    q_vals, _, _ = _evi_backup(opt_loss, p_ctx, r, v)
    return Plan(q_vals.argmin(axis=1).tolist(), v.tolist(), residual,
                residual <= evi_tol, iterations)


@dataclass(slots=True)
class IntervalRecord:
    episode: int
    interval: int
    trigger: str  # "start" | "goal" | "unknown"
    steps: int = 0
    interval_loss: float = 0.0
    evi_residual: float = 0.0
    v_tilde_init: float = 0.0
    b_star_cur: float = 1.0
    known_fraction: float = 0.0
    context: np.ndarray = None  # read-only, shared by records at one context
    coverage_ok: bool = None  # only filled when diagnostics are enabled

    EVENT_FIELDS = ("episode", "interval", "trigger", "steps",
                    "interval_loss", "evi_residual", "v_tilde_init",
                    "b_star_cur", "known_fraction")

    def to_event(self):
        return {key: getattr(self, key) for key in self.EVENT_FIELDS}


@dataclass
class EpisodeLog:
    episode: int
    context: np.ndarray
    steps: int = 0
    total_loss: float = 0.0  # raw sampled losses, never perturbed
    intervals_started: int = 0
    unknown_triggers: int = 0
    truncated: bool = False
    b_star_end: float = 1.0
    intervals: list = field(default_factory=list)


@dataclass
class RunLog:
    episodes: list
    interval_records: list
    unknown_counts: np.ndarray  # (S, A) per-pair unknown triggers
    doubling_events: int
    total_steps: int
    total_intervals: int
    truncation_count: int
    epsilon: float
    # per-step trace for replay checks: (episode, s, a, goal_reached, known)
    step_trace: list = field(default_factory=list)
    # Learner.work, which no digest or artifact reads
    work: dict = field(default_factory=dict)


def _read_only(x):
    view = x.view()
    view.flags.writeable = False
    return view


class Learner:
    """State of one run of the interval-based optimistic learner."""

    def __init__(self, cfg, model, l_min_eff, diagnostics_model=None):
        self.cfg = cfg
        self.model = model
        self.l_min_eff = l_min_eff
        self.diagnostics_model = diagnostics_model
        self.n_states = model.n_states
        self.n_actions = model.n_actions
        self.d = model.d
        self.b_star_cur = cfg.b_star_init
        self.m = 0
        self.doubling_events = 0
        # the run's plans by kind and projections, kept across a doubling
        self.work = dict.fromkeys(("emptied_plans", "evi_plans",
                                   "projections"), 0)
        # the context last seen, as bytes and as a read-only array shared
        # by the interval records
        self._norms_key = self._context = None
        # the loss and dynamics radii at a visit count, which outlive a
        # doubling
        dims = (self.d, self.n_states, self.n_actions, float(cfg.lam),
                cfg.delta)
        self._radii = functools.cache(lambda tau: (
            estimation.loss_radius(tau, *dims),
            estimation.dynamics_radius(tau, *dims)))
        self._init_statistics()
        # the last Plan, kept with its rows for row updates at its context
        self.plan = None

    def _init_statistics(self):
        S, A, d = self.n_states, self.n_actions, self.d
        self.store = estimation.PairStore((S, A), d, S, self.cfg.lam)
        # visit counts each pair's p_hat was last projected at; every pair
        # starts at tau = 0, where zero moments give exactly +0.0 estimates
        # and the radii are shared
        self._projected_tau = np.zeros((S, A))
        self._p_hat = np.zeros((S, A, S, d))
        # every pair's loss and dynamics radii
        self._beta_l, self._beta_p = (
            np.full((S, A), x) for x in self._radii(0.0))
        self._estimates = estimation.Estimates(*(
            _read_only(x) for x in (self.store.l_hat, self._p_hat,
                                    self._beta_l, self._beta_p)))
        # the (S, A) norms at the kept context (visits keep them current)
        # and a lower bound on them; and (norm, beta_l, beta_p) by pair of
        # the pairs visited since the plan
        self._norms = self._norms_lo = None
        self._moved = {}

    def _known_threshold(self, beta_p):
        """estimation.known_threshold at a Python float radius beta_p, the
        current interval and b_star_cur, in Python floats bit for bit."""
        floor = estimation.known_floor(self.m, self.cfg.delta)
        return self.l_min_eff / (10.0 * self.b_star_cur * max(beta_p, floor))

    def snapshot_estimates(self, radius=None):
        """Current Estimates over all pairs, updating the lagging p_hat.

        visit keeps l_hat and the radii current; p_hat, the projected ridge
        estimate xty_trans @ V^-1 (the costly part), follows here: every
        pair's without radius, and given a plan's (S, A) L1 radii only
        those of pairs whose radius is below ROW_EMPTYING_RADIUS.  The plan
        empties every other pair's row whatever p_hat holds, so there p_hat
        may lag until a later call needs it.

        The arrays are read-only views of the learner's state: they follow
        later visits up to a doubling, whose new arrays (_init_statistics) an
        Estimates taken before it never sees; copy them to keep a snapshot.
        """
        tau = self.store.tau
        wanted = self._projected_tau != tau
        if radius is not None:
            wanted &= radius < ROW_EMPTYING_RADIUS
        for s, a in zip(*wanted.nonzero()):
            self._p_hat[s, a] = estimation.project_to_stochastic(
                self.store.xty_trans[s, a].dot(self.store.v_bar_inv[s, a]),
                self.store.v_bar[s, a])
            self._projected_tau[s, a] = tau[s, a]
            self.work["projections"] += 1
        return self._estimates

    def _use_context(self, c):
        """Keep c, the interval's context, by its bytes (a new c drops norms
        and the plan) and return the (S, A) context norms at it, built when
        unset with their lower bound _norms_lo; visit keeps both current."""
        key = np.asarray(c, dtype=float).tobytes()
        if key != self._norms_key:
            self._norms_key = key
            self._context = np.frombuffer(key)
            self._norms = self.plan = None
        if self._norms is None:
            self._norms = estimation.context_norms(self.store.v_bar_inv, c)
            self._norms_lo = float(self._norms.min())
        return self._norms

    def visit(self, s, a, next_state, loss):
        """Fold one observed step at (s, a) into the statistics and test it.

        The step is at the interval's context (_use_context).  The only path
        that moves a pair's statistics: the store refreshes the pair's l_hat
        and returns its norm, kept here with its radii; p_hat follows in
        snapshot_estimates.  Returns the paper's known test: the pair's norm
        below known_threshold at its new radius, m and b_star_cur.
        """
        if not self.m or self._context is None:
            raise ProtocolError("visit needs a plan: call start_interval first")
        tau, norm = self.store.record_visit(self._context, next_state, loss,
                                            (s, a))
        beta_l, beta_p = self._radii(tau)
        self._beta_l[s, a] = beta_l
        self._beta_p[s, a] = beta_p
        self._norms[s, a] = norm
        if norm < self._norms_lo:
            self._norms_lo = norm
        self._moved[s, a] = norm, beta_l, beta_p
        return norm < self._known_threshold(beta_p)

    def _coverage_ok(self):
        """Do the true embeddings lie in every pair's confidence set right now?"""
        model = self.diagnostics_model
        est = self.snapshot_estimates()
        v_bar = self.store.v_bar
        dl = model.loss_embed - est.l_hat
        dp = model.trans_embed - est.p_hat
        return not (
            np.any(np.sqrt(c_einsum("sai,saij,saj->sa", dl, v_bar, dl))
                   > est.beta_loss)
            or np.any(np.sqrt(c_einsum("sari,saij,sarj->sa", dp, v_bar, dp))
                      > est.beta_dyn))

    def start_interval(self, c, episode, trigger):
        """Advance the interval counter, refresh estimates, and replan at c.

        While the kept plan empties every row at c and the rows of the pairs
        visited since stay empty, only those rows are replanned.  Otherwise
        every pair is: with every row emptied each state takes its first
        minimum optimistic loss, else evi_plan runs.  b_star_cur doubles,
        resetting the statistics, while an EVI plan's initial value escapes
        it; an emptied plan's values lie in [0, 1], so it never doubles.
        """
        self.m += 1
        norms = self._use_context(c)
        plan = self.plan
        rows = None if plan is None else plan.rows
        for (s, a), (norm, beta_l, beta_p) in self._moved.items():
            if rows is None or beta_p * norm < ROW_EMPTYING_RADIUS:
                rows = None
                break
            # np.clip(x, 0.0, 1.0) in Python floats
            x = c_einsum("d,d->", self.store.l_hat[s, a], c).item() - (
                beta_l * norm)
            row = rows[s]
            row[a] = 1.0 if x > 1.0 else 0.0 if x < 0.0 else x
            lo = min(row)
            plan.values[s] = lo + 0.0
            plan.policy[s] = row.index(lo)
        while rows is None:
            # np.clip(x, 0.0, 1.0) in ufuncs (see _induced_products)
            opt_loss = np.minimum(np.maximum(0.0, c_einsum(
                "sad,d->sa", self.store.l_hat, c)
                - self._beta_l * norms), 1.0)
            radius = self._beta_p * norms
            if radius.min() >= ROW_EMPTYING_RADIUS:
                # every row empties: no p_hat is read or projected, and each
                # sweep of evi_plan would land on these values, its clip to
                # [0, 2B >= 2] never binding: opt_loss is NaN or in [0, 1],
                # as einsum sums from +0.0 (no -0.0 reaches it)
                rows = opt_loss.tolist()
                policy = opt_loss.argmin(axis=1).tolist()
                values = [row[a] + 0.0 for row, a in zip(rows, policy)]
                plan = Plan(policy, values, None, None, None, rows)
                self.work["emptied_plans"] += 1
                break  # its sweeps are set below
            plan = evi_plan(opt_loss, c_einsum(
                "sand,d->san", self.snapshot_estimates(radius).p_hat, c),
                radius, b_cap=2.0 * self.b_star_cur, evi_tol=self.cfg.evi_tol,
                evi_max_iter=self.cfg.evi_max_iter)
            self.work["evi_plans"] += 1
            if not plan.values[self.model.s_init] > self.b_star_cur:
                break  # a NaN value does not double
            # doubling trick: optimistic value escaped the current bound
            self.b_star_cur *= 2.0
            self.doubling_events += 1
            self._init_statistics()
            norms = self._use_context(c)
        if rows is not None:
            # the EVI loop's: a sweep moves v from zero by max v and stops
            # within evi_tol or the budget, else a second confirms v at 0
            top = max(plan.values)
            plan.residual, plan.iterations = (
                (top, 1) if top <= self.cfg.evi_tol
                or self.cfg.evi_max_iter == 1 else (0.0, 2))
            plan.converged = plan.residual <= self.cfg.evi_tol
        self.plan, self._moved = plan, {}
        # no norm lies below _norms_lo, and no threshold above the one at
        # the floor, radius 0 (a NaN bound takes the full count)
        known = 0 if self._norms_lo >= self._known_threshold(0.0) else (
            np.count_nonzero(norms < estimation.known_threshold(
                self._beta_p, self.l_min_eff, self.b_star_cur, self.m,
                self.cfg.delta)))
        record = IntervalRecord(
            episode, self.m, trigger, 0, 0.0, plan.residual,
            plan.values[self.model.s_init], self.b_star_cur,
            known / (self.n_states * self.n_actions), self._context)
        if self.diagnostics_model is not None:
            record.coverage_ok = self._coverage_ok()
        return record


def _sampler_tables(model, contexts):
    """The episode samplers' tables for a (k, d) stack of contexts: the
    (k, S, A, S + 1) induced probabilities, goal last, each row normalised
    by its pairwise sum, and the (k, S, A) loss means.  Every row is
    reduced on its own, so a stack's rows equal one context's bit for bit.
    """
    means, probs = _induced_products(model, contexts)
    goal = 1.0 - probs.sum(axis=-1, keepdims=True)
    full = np.concatenate((probs, np.maximum(goal, 0.0, out=goal)), -1)
    full /= full.sum(axis=-1, keepdims=True)
    return full, means


def _environment(model, contexts):
    """Yield each episode's true context with its sampler's probabilities
    and means, the tables built once per stack of SAMPLER_STACK_ENTRIES.

    An AdaptiveContexts provider is asked for one context at a time, when
    the episode before it has been recorded, so its stacks hold one.
    """
    adaptive = isinstance(contexts, AdaptiveContexts)
    S = model.n_states
    size = 1 if adaptive else max(
        1, SAMPLER_STACK_ENTRIES // (S * model.n_actions * (S + 1)))
    for start in range(0, contexts.K if adaptive else len(contexts), size):
        stack = (contexts.next_context()[None] if adaptive
                 else contexts[start:start + size])
        yield from zip(stack, *_sampler_tables(model, stack))


def _uniforms(rng):
    """Yield a numpy Generator's random() doubles, drawn UNIFORM_BLOCK at a
    time: the n-th is the generator's n-th random() bit for bit."""
    while True:
        yield from rng.random(UNIFORM_BLOCK).tolist()


class _EpisodeSampler:
    """Induced categorical for one episode's fixed context, from its rows of
    the stacked tables (_sampler_tables): a pair's cumulative row is summed
    on its first draw (see docs/regimes.md)."""

    def __init__(self, model, probs, means):
        self.probs, self.means, self.rows = probs, means, {}
        self.n_states = model.n_states
        self.bernoulli = model.loss_noise == "bernoulli"
        self.width = model.noise_width

    def row(self, s, a):
        """The cumulative row of (s, a): left to right, as np.cumsum sums."""
        row = self.rows[s, a] = list(accumulate(self.probs[s, a].tolist()))
        return row

    def step(self, s, a, random):
        """Draw (s, a)'s next state and loss with random(), a uniform double
        a call.  A truncated-uniform loss is low + (high - low) * random(),
        the formula Generator.uniform applies to the one double it draws."""
        row = self.rows.get((s, a)) or self.row(s, a)
        nxt = bisect_right(row, random())
        if nxt >= self.n_states:
            nxt = GOAL
        mean = self.means.item(s, a)
        if self.bernoulli:
            loss = float(random() < mean)
        else:
            half = min(mean, 1.0 - mean, self.width)
            low, high = mean - half, mean + half
            loss = low + (high - low) * random()
        return nxt, loss


def run(cfg, model, contexts, seed=0, perceived_contexts=None,
        diagnostics_model=None):
    """Full interaction over the given context sequence.

    contexts may be K contexts, checked as one (K, d) array before the first
    step, or an AdaptiveContexts provider (its callback sees the history).
    perceived_contexts : optional parallel sequence fed to estimation and
        planning instead of the true contexts (context-blind baseline)
    diagnostics_model  : optional ground truth; fills per-interval coverage
        flags without touching learner state or the RNG stream
    Deterministic given (seed, cfg, model, contexts).
    """
    adaptive = isinstance(contexts, AdaptiveContexts)
    if not adaptive:
        contexts = validate_contexts(contexts, model.d)
    K = contexts.K if adaptive else len(contexts)
    if perceived_contexts is not None:
        perceived_contexts = validate_contexts(perceived_contexts, model.d)
        if len(perceived_contexts) != K:
            raise ConfigError(
                f"perceived_contexts must have {K} entries, one per episode")
    if cfg.l_min == 0:
        eps = (cfg.epsilon_perturb if cfg.epsilon_perturb is not None
               else auto_epsilon(model.n_states, model.d, model.n_actions, K))
        l_min_eff = eps
    else:
        eps = 0.0
        l_min_eff = cfg.l_min

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    random = _uniforms(rng).__next__
    learner = Learner(cfg, model, l_min_eff, diagnostics_model)
    episodes, all_records, step_trace = [], [], []
    unknown_counts = [[0] * model.n_actions for _ in range(model.n_states)]

    for k, (c_true, probs, means) in enumerate(_environment(model, contexts)):
        c_seen = (perceived_contexts[k] if perceived_contexts is not None
                  else c_true)
        log = EpisodeLog(episode=k, context=c_true)
        trigger = "start" if k == 0 else "goal"
        record = learner.start_interval(c_seen, k, trigger)
        log.intervals.append(record)
        log.intervals_started += 1
        sampler = _EpisodeSampler(model, probs, means)
        s = model.s_init
        for step in range(1, cfg.episode_step_cap + 1):
            a = learner.plan.policy[s]
            nxt, raw_loss = sampler.step(s, a, random)
            obs_loss = max(raw_loss, eps) if eps > 0 else raw_loss
            known = learner.visit(s, a, nxt, obs_loss)
            log.steps += 1
            log.total_loss += raw_loss
            record.steps += 1
            record.interval_loss += raw_loss
            reached_goal = nxt == GOAL
            step_trace.append((k, s, a, reached_goal, known))
            if reached_goal:
                break
            # the capped last step truncates the episode: no interval opens
            if not known and step < cfg.episode_step_cap:
                unknown_counts[s][a] += 1
                log.unknown_triggers += 1
                record = learner.start_interval(c_seen, k, "unknown")
                log.intervals.append(record)
                log.intervals_started += 1
            s = nxt
        else:
            log.truncated = True
        log.b_star_end = learner.b_star_cur
        all_records.extend(log.intervals)
        episodes.append(log)
        if adaptive:
            contexts.record(log)

    return RunLog(
        episodes=episodes,
        interval_records=all_records,
        unknown_counts=np.array(unknown_counts, dtype=int),
        doubling_events=learner.doubling_events,
        total_steps=sum(e.steps for e in episodes),
        total_intervals=sum(e.intervals_started for e in episodes),
        truncation_count=sum(e.truncated for e in episodes),
        epsilon=eps,
        step_trace=step_trace,
        work=learner.work,
    )
