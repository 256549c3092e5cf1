"""The online learner: interval-based optimistic planning over confidence sets.

Planning runs extended value iteration: each backup jointly minimizes over
actions, over loss vectors in the per-pair ellipsoid (closed form by
Cauchy-Schwarz), and over next-state distributions in an L1 ball around the
projected estimate, with freed mass absorbed by the zero-value goal.

A plan whose L1 radii all empty their rows is state-separable: each state's
value and action depend on its own optimistic losses only.  While the
context stays the same and a visit moves one pair whose row stays empty,
the learner replans that one row in place of a full plan (see
docs/regimes.md, "What a replan costs").
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import estimation
from .errors import (ConfigError, ProjectionError, ProtocolError,
                     check_field_types)
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
# Uniform doubles _BlockUniforms draws from the generator at once.
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


@dataclass
class EviResult:
    policy: np.ndarray  # or a list, as values, when every row is emptied
    values: np.ndarray
    residual: float
    converged: bool
    iterations: int
    rows: list = None  # opt_loss as lists, when every row is emptied


def _evi_backup(opt_loss, p_ctx, r, v):
    """One extended Bellman backup at v, before the min over actions.

    Each pair's L1 step takes up to r of mass from the highest-value states
    first; the goal absorbs it.  Returns the (S, A) Q-values, the
    value-descending state order, and the optimistic transitions in that
    order.
    """
    order = np.argsort(-v)
    p_ord = p_ctx[:, :, order]
    prior = np.cumsum(p_ord, axis=2) - p_ord
    q_ord = p_ord - np.clip(r - prior, 0.0, p_ord)
    return opt_loss + q_ord @ v[order], order, q_ord


def _emptied_sweeps(top, evi_tol, evi_max_iter):
    """Residual and sweep count of the EVI loop when every sweep lands on
    values of maximum top: the first moves v from zero by top and stops
    there within evi_tol or the budget; else a second confirms them, at 0."""
    return (top, 1) if top <= evi_tol or evi_max_iter == 1 else (0.0, 2)


def _emptied_row(row, b_cap):
    """Value and action of a state with every row empty, from its optimistic
    losses: min(row) + 0.0 (no -0.0) clipped to [0, b_cap] keeping -0.0 as
    np.clip does, and the first minimum, as argmin finds it (no NaN)."""
    lo = min(row) + 0.0
    return (b_cap if lo > b_cap else 0.0 if lo < 0.0 else lo), row.index(lo)


def evi_plan(opt_loss, p_ctx, radius, b_cap, evi_tol, evi_max_iter):
    """Extended value iteration over per-pair confidence sets.

    opt_loss : (S, A) optimistic losses for the current context
    p_ctx    : (S, A, S) projected dynamics applied to the context; not read
               (and may be None) when every radius empties its row
    radius   : (S, A) L1 radii beta_P * ||c||_{V^-1}
    Values start at zero, grow monotonically, and are truncated to
    [0, b_cap]; non-convergence is flagged, not raised.  The EviResult
    carries the greedy policy under the last values, those (S,) values, the
    last sweep's residual, whether it is within evi_tol, and the sweep count.

    When every radius is at least ROW_EMPTYING_RADIUS, every optimistic row
    is empty and backs up to opt_loss + 0 @ v = opt_loss + 0.0 whatever v
    is, so every sweep lands on the same values, each state's from its own
    row only (_emptied_row, as in Learner._row_update).  The plan then skips
    the loop and p_ctx and reports the residual and sweep count the loop
    would (_emptied_sweeps), bit for bit, with policy, values and the rows
    of opt_loss as lists.  Such radii are finite: no NaN reaches it.
    """
    if radius.min() >= ROW_EMPTYING_RADIUS:
        rows = opt_loss.tolist()
        values, policy = map(list, zip(*(_emptied_row(row, b_cap)
                                         for row in rows)))
        residual, iterations = _emptied_sweeps(max(values), evi_tol,
                                               evi_max_iter)
        return EviResult(policy, values, residual, residual <= evi_tol,
                         iterations, rows)
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
    # greedy policy under the converged values
    q_vals, _, _ = _evi_backup(opt_loss, p_ctx, r, v)
    return EviResult(q_vals.argmin(axis=1), v, residual, residual <= evi_tol,
                     iterations)


@dataclass(slots=True)
class IntervalRecord:
    episode: int
    m: int
    trigger: str  # "start" | "goal" | "unknown"
    steps: int = 0
    interval_loss: float = 0.0
    evi_residual: float = 0.0
    v_tilde_init: float = 0.0
    b_star_cur: float = 1.0
    known_fraction: float = 0.0
    context: np.ndarray = None  # read-only, shared by records at one context
    coverage_ok: bool = None  # only filled when diagnostics are enabled

    # an event's keys, in order, and the attribute each one reads
    EVENT_FIELDS = {key: "m" if key == "interval" else key for key in (
        "episode", "interval", "trigger", "steps", "interval_loss",
        "evi_residual", "v_tilde_init", "b_star_cur", "known_fraction")}

    def to_event(self):
        return {key: getattr(self, name)
                for key, name in self.EVENT_FIELDS.items()}


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
    config: LearnerConfig
    # per-step trigger trace for replay checks: (s, a, goal_reached, known)
    step_trace: list = field(default_factory=list)


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
        # the context last seen, as bytes, as a read-only array shared by
        # the interval records and as c c^T
        self._norms_key = self._context = self._outer = None
        self._init_statistics()
        self.policy = np.zeros(self.n_states, dtype=int)

    def _init_statistics(self):
        S, A, d = self.n_states, self.n_actions, self.d
        self.store = estimation.PairStore((S, A), d, S, self.cfg.lam)
        # visit counts each pair's p_hat was last projected at; every pair
        # starts at tau = 0, where zero moments give exactly +0.0 estimates
        # and the radii are shared
        self._projected_tau = np.zeros((S, A))
        self._l_hat = np.zeros((S, A, d))
        self._p_hat = np.zeros((S, A, S, d))
        # the loss and dynamics radii per visit count, and every pair's
        self._by_tau = {}
        self._beta_l, self._beta_p = (
            np.full((S, A), x) for x in self._tau_row(0.0))
        self._estimates = estimation.Estimates(*(
            _read_only(x) for x in (self._l_hat, self._p_hat, self._beta_l,
                                    self._beta_p)))
        # the (S, A) norms at the kept context (visits keep them current)
        # and a lower bound on them; the last plan's (opt_loss, values) as
        # lists while it emptied every row; (s, a, norm, beta_l, beta_p) of
        # the pair visited since (None before a visit, False after a second)
        self._norms = self._norms_lo = self._plan = self._moved = None

    def _tau_row(self, tau):
        """Compute and keep the _by_tau entry of visit count tau."""
        dims = (self.d, self.n_states, self.n_actions, self.store.lam,
                self.cfg.delta)
        row = self._by_tau[tau] = (estimation.loss_radius(tau, *dims),
                                   estimation.dynamics_radius(tau, *dims))
        return row

    def _known_threshold(self, beta_p):
        """estimation.known_threshold at a Python float radius beta_p, the
        current interval and b_star_cur, in Python floats bit for bit."""
        floor = estimation.known_floor(self.m, self.cfg.delta)
        return self.l_min_eff / (10.0 * self.b_star_cur * max(beta_p, floor))

    def snapshot_estimates(self, norms=None):
        """Current Estimates over all pairs, updating the lagging p_hat.

        visit keeps l_hat and the radii current; p_hat, the projected ridge
        estimate xty_trans @ V^-1 (the costly part), follows here: every
        pair's without norms, and given a plan's (S, A) context norms only
        those whose L1 radius beta_dyn * norm is below ROW_EMPTYING_RADIUS.
        The plan empties every other pair's row whatever p_hat holds, so
        there p_hat may lag until a later call needs it.

        The arrays are read-only views of the learner's state: they follow
        later visits, so copy them to keep a snapshot.
        """
        tau = self.store.tau
        wanted = self._projected_tau != tau
        if norms is not None:
            wanted &= self._beta_p * norms < ROW_EMPTYING_RADIUS
        for s, a in zip(*np.nonzero(wanted)):
            try:
                self._p_hat[s, a] = estimation.project_to_stochastic(
                    self.store.xty_trans[s, a] @ self.store.v_bar_inv[s, a],
                    self.store.v_bar[s, a])
            except ProjectionError as err:
                raise ProjectionError(
                    err.gap, err.iterations, pair=(int(s), int(a)),
                    tau=int(tau[s, a]), interval=self.m) from err
            self._projected_tau[s, a] = tau[s, a]
        return self._estimates

    def _use_context(self, c):
        """Keep c, by its bytes, with c c^T; a new c drops norms and plan."""
        key = np.asarray(c, dtype=float).tobytes()
        if key != self._norms_key:
            self._norms_key = key
            self._context = np.frombuffer(key)
            self._outer = self._context[:, None] * self._context
            self._norms = self._plan = None

    def _norms_at(self, c):
        """The (S, A) context norms of the current statistics at the kept c,
        kept across calls at that context (visit updates the visited pair's
        and lowers their bound _norms_lo to it)."""
        if self._norms is None:
            self._norms = estimation.context_norms(self.store.v_bar_inv, c)
            self._norms_lo = float(self._norms.min())
        return self._norms

    def visit(self, s, a, c, next_state, loss):
        """Fold one observed step at (s, a) into the statistics and test it.

        The only path that moves a pair's statistics: it refreshes the
        pair's l_hat, both radii and its context norm at c (every pair's
        when c is not the context of the kept norms); p_hat follows in
        snapshot_estimates.  Returns the paper's known test for the pair at
        c: its norm below known_threshold at the pair's new radius, the
        current interval m and b_star_cur (_known_threshold).
        """
        if not self.m:
            raise ProtocolError("visit needs a plan: call start_interval first")
        store = self.store
        self._use_context(c)
        tau = store.record_visit(c, next_state, loss, (s, a), self._outer)
        self._l_hat[s, a] = store.v_bar_inv[s, a] @ store.xty_loss[s, a]
        beta_l, beta_p = self._by_tau.get(tau) or self._tau_row(tau)
        self._beta_l[s, a] = beta_l
        self._beta_p[s, a] = beta_p
        if self._norms is None:
            norm = self._norms_at(c).item(s, a)
        else:
            # context_norms' bits: maximum(0.0, x) keeps -0.0 and NaN too
            x = np.vecdot(np.vecmat(c, store.v_bar_inv[s, a]), c).item()
            norm = self._norms[s, a] = math.sqrt(x) if not x < 0.0 else 0.0
            if norm < self._norms_lo:
                self._norms_lo = norm
        moved = self._moved
        self._moved = (s, a, norm, beta_l, beta_p) if moved is None or (
            moved and moved[:2] == (s, a)) else False
        return norm < self._known_threshold(beta_p)

    def _coverage_ok(self):
        """Do the true embeddings lie in every pair's confidence set right now?"""
        model = self.diagnostics_model
        est = self.snapshot_estimates()
        v_bar = self.store.v_bar
        dl = model.loss_embed - est.l_hat
        dp = model.trans_embed - est.p_hat
        return not (
            np.any(np.sqrt(np.einsum("sai,saij,saj->sa", dl, v_bar, dl))
                   > est.beta_loss)
            or np.any(np.sqrt(np.einsum("sari,saij,sarj->sa", dp, v_bar, dp))
                      > est.beta_dyn))

    def _row_update(self, c):
        """Replan only the row of the one pair moved since the kept plan.

        That suffices when the kept plan emptied every row at c, one pair
        (s, a) has moved since, and its row stays empty: then only
        opt_loss[s, a] and state s's value and action change, to what
        evi_plan would give (_emptied_row).  Returns the plan's residual and
        initial value, or None when evi_plan must run.
        """
        if self._plan is None or not self._moved:
            return None
        s, a, norm, beta_l, beta_p = self._moved
        if beta_p * norm < ROW_EMPTYING_RADIUS:
            return None
        opt_loss, values = self._plan
        # np.clip(x, 0.0, 1.0) in Python floats: the comparisons keep -0.0
        x = np.einsum("d,d->", self._l_hat[s, a], c).item() - beta_l * norm
        row = opt_loss[s]
        row[a] = 1.0 if x > 1.0 else 0.0 if x < 0.0 else x
        values[s], self.policy[s] = _emptied_row(row, 2.0 * self.b_star_cur)
        v_init = values[self.model.s_init]
        if v_init > self.b_star_cur:
            return None
        residual, _ = _emptied_sweeps(max(values), self.cfg.evi_tol,
                                      self.cfg.evi_max_iter)
        return residual, v_init

    def start_interval(self, c, episode, trigger):
        """Advance the interval counter, refresh estimates, and replan at c.

        After a visit to one pair whose row the kept plan empties, and still
        empties, only that row is replanned (_row_update).  Otherwise
        evi_plan runs over every pair, and b_star_cur doubles, resetting the
        statistics, while the plan's initial value escapes it.
        """
        self.m += 1
        self._use_context(c)
        norms = self._norms_at(c)
        planned = self._row_update(c)
        while planned is None:
            # np.clip(x, 0.0, 1.0) in ufuncs (see _induced_products); with
            # every row emptied no p_hat is read or projected
            opt_loss = np.minimum(np.maximum(0.0, np.einsum(
                "sad,d->sa", self._l_hat, c) - self._beta_l * norms), 1.0)
            radius = self._beta_p * norms
            p_ctx = None if radius.min() >= ROW_EMPTYING_RADIUS else np.einsum(
                "sand,d->san", self.snapshot_estimates(norms).p_hat, c)
            result = evi_plan(opt_loss, p_ctx, radius,
                              b_cap=2.0 * self.b_star_cur,
                              evi_tol=self.cfg.evi_tol,
                              evi_max_iter=self.cfg.evi_max_iter)
            v_init = float(result.values[self.model.s_init])
            if v_init > self.b_star_cur:
                # doubling trick: optimistic value escaped the current bound
                self.b_star_cur *= 2.0
                self.doubling_events += 1
                self._init_statistics()
                norms = self._norms_at(c)
                continue
            self.policy = result.policy
            self._plan = ((result.rows, result.values)
                          if p_ctx is None else None)
            planned = result.residual, v_init
        residual, v_init = planned
        self._moved = None
        # no norm lies below _norms_lo, and no threshold above the one at
        # the floor, radius 0 (a NaN bound takes the full count)
        known = 0 if self._norms_lo >= self._known_threshold(0.0) else (
            np.count_nonzero(norms < estimation.known_threshold(
                self._beta_p, self.l_min_eff, self.b_star_cur, self.m,
                self.cfg.delta)))
        record = IntervalRecord(
            episode, self.m, trigger, evi_residual=residual,
            v_tilde_init=v_init, b_star_cur=self.b_star_cur,
            known_fraction=known / (self.n_states * self.n_actions),
            context=self._context)
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


class _BlockUniforms:
    """A numpy Generator's uniform doubles, drawn UNIFORM_BLOCK at a time.

    The n-th random() is the generator's n-th random() bit for bit, and
    uniform(low, high) is low + (high - low) * random(), the formula
    Generator.uniform applies to the one double it draws.
    """

    def __init__(self, rng):
        self._rng = rng
        self._block = []

    def random(self):
        if not self._block:
            self._block = self._rng.random(UNIFORM_BLOCK).tolist()[::-1]
        return self._block.pop()

    def uniform(self, low, high):
        return low + (high - low) * self.random()


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

    def step(self, s, a, rng):
        row = self.rows.get((s, a)) or self.row(s, a)
        nxt = bisect_right(row, rng.random())
        if nxt >= self.n_states:
            nxt = GOAL
        mean = self.means.item(s, a)
        if self.bernoulli:
            loss = float(rng.random() < mean)
        else:
            half = min(mean, 1.0 - mean, self.width)
            loss = float(rng.uniform(mean - half, mean + half))
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

    draws = _BlockUniforms(np.random.default_rng(np.random.SeedSequence(seed)))
    learner = Learner(cfg, model, l_min_eff, diagnostics_model)
    episodes, all_records, step_trace = [], [], []
    unknown_counts = np.zeros((model.n_states, model.n_actions), dtype=int)

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
        while True:
            if log.steps >= cfg.episode_step_cap:
                log.truncated = True
                break
            a = int(learner.policy[s])
            nxt, raw_loss = sampler.step(s, a, draws)
            obs_loss = max(raw_loss, eps) if eps > 0 else raw_loss
            known = learner.visit(s, a, c_seen, nxt, obs_loss)
            log.steps += 1
            log.total_loss += raw_loss
            record.steps += 1
            record.interval_loss += raw_loss
            reached_goal = nxt == GOAL
            step_trace.append((k, s, a, reached_goal, known))
            if reached_goal:
                break
            if not known:
                unknown_counts[s, a] += 1
                log.unknown_triggers += 1
                record = learner.start_interval(c_seen, k, "unknown")
                log.intervals.append(record)
                log.intervals_started += 1
            s = nxt
        log.b_star_end = learner.b_star_cur
        all_records.extend(log.intervals)
        episodes.append(log)
        if adaptive:
            contexts.record(log)

    return RunLog(
        episodes=episodes,
        interval_records=all_records,
        unknown_counts=unknown_counts,
        doubling_events=learner.doubling_events,
        total_steps=sum(e.steps for e in episodes),
        total_intervals=sum(e.intervals_started for e in episodes),
        truncation_count=sum(e.truncated for e in episodes),
        epsilon=eps,
        config=cfg,
        step_trace=step_trace,
    )
