"""Ground-truth linear model: context simplex, embeddings, induced instances.

A model holds, for every (s, a), a loss embedding L*(s,a) in [0,1]^d and a
transition embedding P*(s,a) of shape (S, d) whose columns are
sub-distributions.  A simplex context c induces the tabular instance with
loss <c, L*> and transitions P* c; convexity keeps both legal.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ProtocolError, StructuralError
from .ssp import SspInstance

SIMPLEX_TOL = 1e-9


def validate_context(c, d=None):
    """Return c as a float array on the probability simplex, or raise."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise StructuralError(f"context must be a vector, got shape {c.shape}")
    if d is not None and c.shape[0] != d:
        raise StructuralError(f"context dimension {c.shape[0]} != model d {d}")
    if np.any(c < -SIMPLEX_TOL):
        raise StructuralError("context entries must be non-negative")
    if abs(c.sum() - 1.0) > SIMPLEX_TOL:
        raise StructuralError(f"context entries must sum to 1, got {c.sum():.12f}")
    return c


@dataclass(frozen=True)
class LinearCsspModel:
    """Fixed but (to the learner) unknown embeddings of a linear contextual SSP.

    loss_embed  : (S, A, d) array with entries in [0, 1]
    trans_embed : (S, A, S, d) array; trans_embed[s, a, :, j] is the j-th
                  component sub-distribution over next states
    s_init      : initial state index, shared by all contexts
    loss_noise  : "bernoulli" or "truncated_uniform"
    noise_width : half-width of the truncated-uniform loss noise
    """

    loss_embed: np.ndarray
    trans_embed: np.ndarray
    s_init: int = 0
    loss_noise: str = "bernoulli"
    noise_width: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "loss_embed", np.asarray(self.loss_embed, float))
        object.__setattr__(self, "trans_embed", np.asarray(self.trans_embed, float))
        if self.loss_embed.ndim != 3:
            raise StructuralError("loss_embed must be (S, A, d)")
        s, a, d = self.loss_embed.shape
        if self.trans_embed.shape != (s, a, s, d):
            raise StructuralError(
                f"trans_embed must be (S, A, S, d) = {(s, a, s, d)}, "
                f"got {self.trans_embed.shape}"
            )
        if not 0 <= self.s_init < s:
            raise StructuralError("s_init out of range")
        if self.loss_noise not in ("bernoulli", "truncated_uniform"):
            raise StructuralError(f"unknown loss_noise {self.loss_noise!r}")

    @property
    def d(self):
        return self.loss_embed.shape[2]

    @property
    def n_states(self):
        return self.loss_embed.shape[0]

    @property
    def n_actions(self):
        return self.loss_embed.shape[1]


@dataclass(frozen=True)
class Violation:
    """One model-invariant violation: where it is and how large."""

    kind: str
    location: tuple
    magnitude: float

    def __str__(self):
        return f"{self.kind} at {self.location}: {self.magnitude:.3e}"


def validate_model(model):
    """All invariant violations of a model; an empty list means valid."""
    out = []
    le, te = model.loss_embed, model.trans_embed
    for idx in zip(*np.nonzero((le < 0) | (le > 1))):
        out.append(Violation("loss_embed_range", tuple(int(i) for i in idx),
                             float(le[idx])))
    for idx in zip(*np.nonzero(te < -SIMPLEX_TOL)):
        out.append(Violation("trans_embed_negative", tuple(int(i) for i in idx),
                             float(te[idx])))
    col_sums = te.sum(axis=2)  # (S, A, d)
    for idx in zip(*np.nonzero(col_sums > 1 + SIMPLEX_TOL)):
        out.append(Violation("column_mass", tuple(int(i) for i in idx),
                             float(col_sums[idx])))
    return out


def induce_ssp(model, c):
    """The tabular instance selected by context c."""
    c = validate_context(c, model.d)
    loss = np.clip(model.loss_embed @ c, 0.0, 1.0)
    trans = np.clip(model.trans_embed @ c, 0.0, None)
    return SspInstance(loss, trans)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the random-model generator.

    gamma_goal   : minimum goal mass of every component distribution; any
                   positive value makes every policy proper for every context
    l_min_target : minimum mean loss enforced per component (0 disables)
    """

    d: int
    n_states: int
    n_actions: int
    gamma_goal: float = 0.1
    l_min_target: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n_states < 1 or self.n_actions < 1:
            raise ConfigError("d, n_states, n_actions must be positive")
        if not 0 < self.gamma_goal <= 1:
            raise ConfigError("gamma_goal must lie in (0, 1]")
        if not 0 <= self.l_min_target < 1:
            raise ConfigError("l_min_target must lie in [0, 1)")


def generate_instance(spec):
    """Random model with goal mass >= gamma_goal in every component column."""
    rng = np.random.default_rng(spec.seed)
    s, a, d = spec.n_states, spec.n_actions, spec.d
    loss_embed = rng.uniform(spec.l_min_target, 1.0, size=(s, a, d))
    # Dirichlet over S states + goal, then guarantee the goal share
    raw = rng.dirichlet(np.ones(s + 1), size=(s, a, d))  # (S, A, d, S+1)
    cols = (1.0 - spec.gamma_goal) * raw[..., :s]  # column sums <= 1 - gamma
    trans_embed = np.transpose(cols, (0, 1, 3, 2))  # -> (S, A, S, d)
    return LinearCsspModel(loss_embed, trans_embed)


def generate_trap_instance(spec):
    """Stress variant: only action 0 is guaranteed to escape to the goal.

    Every other action's component columns may have zero goal mass, so most
    policies are improper, but the all-zeros policy is proper for every
    context by construction.
    """
    rng = np.random.default_rng(spec.seed)
    s, a, d = spec.n_states, spec.n_actions, spec.d
    loss_embed = rng.uniform(spec.l_min_target, 1.0, size=(s, a, d))
    raw = rng.dirichlet(np.ones(s + 1), size=(s, a, d))
    cols = np.empty((s, a, d, s))
    cols[:, 0] = (1.0 - spec.gamma_goal) * raw[:, 0, :, :s]
    if a > 1:
        # renormalize the remaining mass onto non-goal states
        rest = raw[:, 1:, :, :s]
        sums = rest.sum(axis=-1, keepdims=True)
        cols[:, 1:] = np.where(sums > 0, rest / np.maximum(sums, 1e-300), 0.0)
    trans_embed = np.transpose(cols, (0, 1, 3, 2))
    return LinearCsspModel(loss_embed, trans_embed)


@dataclass
class AdaptiveContexts:
    """Adversary hook: callback(history) -> next context.

    history is the list of completed episode records maintained by the run
    loop; each emitted context is validated before use.
    """

    d: int
    callback: Callable[[list], np.ndarray]
    history: list = field(default_factory=list)

    def next_context(self):
        c = self.callback(self.history)
        try:
            return validate_context(c, self.d)
        except StructuralError as exc:
            raise ProtocolError(f"adaptive callback emitted invalid context: {exc}")

    def record(self, episode_log):
        self.history.append(episode_log)


def context_sequence(kind, K, d, rng=None, c0=None, callback=None):
    """Sequence of K contexts, or an AdaptiveContexts provider.

    kind: "uniform" (symmetric Dirichlet(1)), "cyclic_vertices", "fixed",
    or "adaptive" (returns the provider instead of a list).
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    if kind == "uniform":
        if rng is None:
            raise ConfigError("uniform contexts need an rng")
        return [validate_context(c, d) for c in rng.dirichlet(np.ones(d), size=K)]
    if kind == "cyclic_vertices":
        return [np.eye(d)[k % d] for k in range(K)]
    if kind == "fixed":
        c0 = validate_context(c0, d)
        return [c0.copy() for _ in range(K)]
    if kind == "adaptive":
        if callback is None:
            raise ConfigError("adaptive contexts need a callback")
        return AdaptiveContexts(d, callback)
    raise ConfigError(f"unknown context kind {kind!r}")
