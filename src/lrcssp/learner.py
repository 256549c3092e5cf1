"""The online learner: interval-based optimistic planning over confidence sets.

Planning runs extended value iteration: each backup jointly minimizes over
actions, over loss vectors in the per-pair ellipsoid (closed form by
Cauchy-Schwarz), and over next-state distributions in an L1 ball around the
projected estimate, with freed mass absorbed by the zero-value goal.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import estimation
from .errors import ConfigError
from .linear_model import AdaptiveContexts, validate_context
from .ssp import GOAL, SspInstance


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


def auto_epsilon(n_states, d, n_actions, K):
    """Perturbation size used when no loss lower bound is given."""
    return n_states * (d * d * n_actions / K) ** (1.0 / 3.0)


@dataclass
class EviResult:
    policy: np.ndarray
    opt_loss: np.ndarray  # (S, A)
    opt_trans: np.ndarray  # (S, A, S)
    values: np.ndarray
    residual: float
    converged: bool
    iterations: int

    @cached_property
    def optimistic_ssp(self):
        """The optimistic model as a validated SspInstance, built on demand."""
        return SspInstance(self.opt_loss, self.opt_trans)


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


def evi_plan(opt_loss, p_ctx, radius, b_cap, evi_tol, evi_max_iter):
    """Extended value iteration over per-pair confidence sets.

    opt_loss : (S, A) optimistic losses for the current context
    p_ctx    : (S, A, S) projected dynamics applied to the context
    radius   : (S, A) L1 radii beta_P * ||c||_{V^-1}
    Values start at zero, grow monotonically, and are truncated to
    [0, b_cap]; non-convergence is flagged, not raised.
    """
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
    converged = residual <= evi_tol
    # final optimistic model and greedy policy under the converged values
    q_vals, order, q_ord = _evi_backup(opt_loss, p_ctx, r, v)
    q_trans = np.empty_like(p_ctx)
    q_trans[:, :, order] = q_ord
    return EviResult(q_vals.argmin(axis=1), opt_loss, q_trans, v, residual,
                     converged, iterations)


@dataclass
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
    context: np.ndarray = None
    coverage_ok: bool = None  # only filled when diagnostics are enabled

    def to_event(self):
        return {
            "episode": self.episode,
            "interval": self.m,
            "trigger": self.trigger,
            "steps": self.steps,
            "interval_loss": self.interval_loss,
            "evi_residual": self.evi_residual,
            "v_tilde_init": self.v_tilde_init,
            "b_star_cur": self.b_star_cur,
            "known_fraction": self.known_fraction,
        }


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
        self._init_statistics()
        self.policy = np.zeros(self.n_states, dtype=int)
        self.current_values = np.zeros(self.n_states)

    def _init_statistics(self):
        S, A, d = self.n_states, self.n_actions, self.d
        self.store = estimation.PairStore((S, A), d, S, self.cfg.lam)
        self.stats = [[self.store.pair(s, a) for a in range(A)]
                      for s in range(S)]
        # visit count each pair's estimate was last computed at
        self._computed_tau = np.full((S, A), -1.0)
        self._l_hat = np.zeros((S, A, d))
        self._p_raw = np.zeros((S, A, S, d))
        self._p_hat = np.zeros((S, A, S, d))
        self._beta_l = np.zeros((S, A))
        self._beta_p = np.zeros((S, A))
        self._estimates = estimation.Estimates(*(
            _read_only(x) for x in (self._l_hat, self._p_raw, self._p_hat,
                                    self._beta_l, self._beta_p)))

    def snapshot_estimates(self):
        """Current Estimates over all pairs (recomputed only where stats moved).

        The arrays are read-only views of the learner's state: they follow
        later visits, so copy them to keep a snapshot.
        """
        stale = np.argwhere(self._computed_tau != self.store.tau)
        for s, a in stale:
            (self._l_hat[s, a], self._p_raw[s, a], self._p_hat[s, a],
             self._beta_l[s, a], self._beta_p[s, a]) = \
                estimation.compute_pair_estimate(
                    self.stats[s][a], self.n_actions, self.cfg.delta)
            self._computed_tau[s, a] = self.store.tau[s, a]
        return self._estimates

    def _coverage_ok(self, est):
        """Do the true embeddings lie in every pair's confidence set right now?"""
        model = self.diagnostics_model
        for s in range(self.n_states):
            for a in range(self.n_actions):
                v_bar = self.stats[s][a].v_bar
                dl = model.loss_embed[s, a] - est.l_hat[s, a]
                if math.sqrt(dl @ v_bar @ dl) > est.beta_loss[s, a]:
                    return False
                dp = model.trans_embed[s, a] - est.p_hat[s, a]
                if math.sqrt(np.einsum("ij,jk,ik->", dp, v_bar, dp)) \
                        > est.beta_dyn[s, a]:
                    return False
        return True

    def start_interval(self, c, episode, trigger):
        """Advance the interval counter, refresh estimates, and replan."""
        self.m += 1
        while True:
            est = self.snapshot_estimates()
            norms = estimation.context_norms(self.store.v_bar_inv, c)
            opt_loss = np.clip(
                np.einsum("sad,d->sa", est.l_hat, c) - est.beta_loss * norms,
                0.0, 1.0)
            p_ctx = np.einsum("sand,d->san", est.p_hat, c)
            radius = est.beta_dyn * norms
            result = evi_plan(opt_loss, p_ctx, radius,
                              b_cap=2.0 * self.b_star_cur,
                              evi_tol=self.cfg.evi_tol,
                              evi_max_iter=self.cfg.evi_max_iter)
            v_init = float(result.values[self.model.s_init])
            if v_init <= self.b_star_cur:
                break
            # doubling trick: optimistic value escaped the current bound
            self.b_star_cur *= 2.0
            self.doubling_events += 1
            self._init_statistics()
        self.policy = result.policy
        self.current_values = result.values
        threshold = estimation.known_threshold(
            est.beta_dyn, self.l_min_eff, self.b_star_cur, self.m,
            self.cfg.delta)
        known = np.count_nonzero(norms < threshold)
        record = IntervalRecord(
            episode=episode, m=self.m, trigger=trigger,
            evi_residual=result.residual, v_tilde_init=v_init,
            b_star_cur=self.b_star_cur,
            known_fraction=known / (self.n_states * self.n_actions),
            context=np.array(c),
        )
        if self.diagnostics_model is not None:
            record.coverage_ok = self._coverage_ok(est)
        return record


class _EpisodeSampler:
    """Precomputed induced categorical for one episode's fixed context."""

    def __init__(self, model, c):
        probs = np.clip(model.trans_embed @ c, 0.0, None)  # (S, A, S)
        goal = np.clip(1.0 - probs.sum(axis=-1, keepdims=True), 0.0, None)
        full = np.concatenate([probs, goal], axis=-1)
        full /= full.sum(axis=-1, keepdims=True)
        self.cum = np.cumsum(full, axis=-1)
        self.means = np.clip(model.loss_embed @ c, 0.0, 1.0)
        self.n_states = model.n_states
        self.bernoulli = model.loss_noise == "bernoulli"
        self.width = model.noise_width

    def step(self, s, a, rng):
        nxt = int(np.searchsorted(self.cum[s, a], rng.random(), side="right"))
        if nxt >= self.n_states:
            nxt = GOAL
        mean = float(self.means[s, a])
        if self.bernoulli:
            loss = float(rng.random() < mean)
        else:
            half = min(mean, 1.0 - mean, self.width)
            loss = float(rng.uniform(mean - half, mean + half))
        return nxt, loss


def run(cfg, model, contexts, seed=0, perceived_contexts=None,
        diagnostics_model=None, init_states=None, n_episodes=None):
    """Full interaction over the given context sequence.

    contexts may be a concrete sequence or an AdaptiveContexts provider
    (then n_episodes is required and the callback sees episode history).
    perceived_contexts : optional parallel sequence fed to estimation and
        planning instead of the true contexts (context-blind baseline)
    diagnostics_model  : optional ground truth; fills per-interval coverage
        flags without touching learner state or the RNG stream
    init_states        : optional per-episode initial states, one state
        index in [0, S) per episode
    Deterministic given (seed, cfg, model, contexts).
    """
    adaptive = isinstance(contexts, AdaptiveContexts)
    K = n_episodes if adaptive else len(contexts)
    if adaptive and K is None:
        raise ConfigError("adaptive contexts need an explicit n_episodes")
    if init_states is not None and (
            len(init_states) != K
            or not all(isinstance(s, (int, np.integer))
                       and 0 <= s < model.n_states for s in init_states)):
        raise ConfigError(
            f"init_states must be {K} state indices in [0, {model.n_states})")
    if cfg.l_min == 0:
        eps = (cfg.epsilon_perturb if cfg.epsilon_perturb is not None
               else auto_epsilon(model.n_states, model.d, model.n_actions, K))
        l_min_eff = eps
    else:
        eps = 0.0
        l_min_eff = cfg.l_min

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    learner = Learner(cfg, model, l_min_eff, diagnostics_model)
    episodes = []
    all_records = []
    step_trace = []
    unknown_counts = np.zeros((model.n_states, model.n_actions), dtype=int)

    for k in range(K):
        c_true = (contexts.next_context() if adaptive
                  else validate_context(contexts[k], model.d))
        c_seen = (validate_context(perceived_contexts[k], model.d)
                  if perceived_contexts is not None else c_true)
        log = EpisodeLog(episode=k, context=c_true)
        trigger = "start" if k == 0 else "goal"
        record = learner.start_interval(c_seen, k, trigger)
        log.intervals.append(record)
        log.intervals_started += 1
        sampler = _EpisodeSampler(model, c_true)
        s = model.s_init if init_states is None else init_states[k]
        while True:
            if log.steps >= cfg.episode_step_cap:
                log.truncated = True
                break
            a = int(learner.policy[s])
            nxt, raw_loss = sampler.step(s, a, rng)
            obs_loss = max(raw_loss, eps) if eps > 0 else raw_loss
            learner.stats[s][a].record_visit(c_seen, nxt, obs_loss)
            log.steps += 1
            log.total_loss += raw_loss
            record.steps += 1
            record.interval_loss += raw_loss
            reached_goal = nxt == GOAL
            known = estimation.is_known(
                learner.stats[s][a], c_seen, l_min_eff, learner.b_star_cur,
                learner.m, cfg.delta, model.n_states, model.n_actions)
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
