"""Ground-truth linear model: context simplex, embeddings, induced instances.

A model holds, for every (s, a), a loss embedding L*(s,a) in [0,1]^d and a
transition embedding P*(s,a) of shape (S, d) whose columns are
sub-distributions.  A simplex context c induces the tabular instance with
loss <c, L*> and transitions P* c; convexity keeps both legal.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigError, ProtocolError, StructuralError,
                     check_field_types, is_of_type)
from .ssp import SspInstance

SIMPLEX_TOL = 1e-9


def validate_context(c, d=None):
    """Return c as a float array on the probability simplex, or raise."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise StructuralError(f"context must be a vector, got shape {c.shape}")
    validate_contexts(c[None], d)
    return c


def validate_contexts(contexts, d=None):
    """Return a sequence of contexts as a (K, d) float array, or raise the
    error validate_context raises for the first row that fails, with that
    row in the error's index.  One array pass over all rows."""
    try:
        rows = np.asarray(contexts, dtype=float)
    except ValueError as exc:  # a ragged sequence, or not numbers
        raise StructuralError(f"contexts must form a (K, d) array: {exc}")
    if rows.ndim != 2:
        raise StructuralError(
            f"contexts must form a (K, d) array, got shape {rows.shape}")
    if d is not None and rows.shape[1] != d:
        raise StructuralError(
            f"context dimension {rows.shape[1]} != model d {d}", 0)
    finite = np.isfinite(rows).all(axis=1)
    negative = (rows < -SIMPLEX_TOL).any(axis=1)
    # contiguous rows sum in the order a single context's sum takes
    sums = np.ascontiguousarray(rows).sum(axis=1)
    bad = ~finite | negative | (np.abs(sums - 1.0) > SIMPLEX_TOL)
    if bad.any():
        k = int(bad.argmax())
        if not finite[k]:
            raise StructuralError("context entries must be finite", k)
        if negative[k]:
            raise StructuralError("context entries must be non-negative", k)
        raise StructuralError(
            f"context entries must sum to 1, got {sums[k]:.12f}", k)
    return rows


@dataclass(frozen=True)
class LinearCsspModel:
    """Fixed but (to the learner) unknown embeddings of a linear contextual SSP.

    loss_embed  : (S, A, d) array with entries in [0, 1]
    trans_embed : (S, A, S, d) array; trans_embed[s, a, :, j] is the j-th
                  component sub-distribution over next states
    s_init      : initial state index, shared by all contexts
    loss_noise  : "bernoulli" or "truncated_uniform"
    noise_width : half-width of the truncated-uniform loss noise

    Building a model checks every entry: a bad one raises a StructuralError
    naming its kind and first index.
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
        if not (is_of_type(self.s_init, int) and 0 <= self.s_init < s):
            raise StructuralError(
                f"s_init must be a state index in [0, {s}), got "
                f"{self.s_init!r}")
        if self.loss_noise not in ("bernoulli", "truncated_uniform"):
            raise StructuralError(f"unknown loss_noise {self.loss_noise!r}")
        if not (is_of_type(self.noise_width, float) and self.noise_width >= 0):
            raise StructuralError(
                f"noise_width must be a finite real >= 0, got "
                f"{self.noise_width!r}")
        le, te = self.loss_embed, self.trans_embed
        with np.errstate(invalid="ignore"):  # inf - inf in a column's mass
            mass = te.sum(axis=2)  # (S, A, d)
        for kind, name, values, bad in (
                ("non_finite", "loss_embed", le, ~np.isfinite(le)),
                ("non_finite", "trans_embed", te, ~np.isfinite(te)),
                ("loss_embed_range", None, le, (le < 0) | (le > 1)),
                ("trans_embed_negative", None, te, te < -SIMPLEX_TOL),
                ("column_mass", None, mass, mass > 1 + SIMPLEX_TOL)):
            if bad.any():
                idx = tuple(int(i) for i in np.argwhere(bad)[0])
                where = idx if name is None else (name, *idx)
                raise StructuralError(f"{kind} at {where}: {values[idx]:.3e}")

    @property
    def d(self):
        return self.loss_embed.shape[2]

    @property
    def n_states(self):
        return self.loss_embed.shape[0]

    @property
    def n_actions(self):
        return self.loss_embed.shape[1]


def induce_ssp(model, c):
    """The tabular instance selected by context c, or the stack of the K
    instances selected by a (K, d) array (or list) of contexts."""
    c = np.asarray(c, dtype=float)
    if c.ndim == 2:
        validate_contexts(c, model.d)
    else:
        validate_context(c, model.d)
    return SspInstance(*_induced_products(model, c))


def _induced_products(model, c):
    """loss_embed @ c clipped to [0, 1] and trans_embed @ c clipped at 0, for
    a context or a (K, d) stack: (S, A) and (S, A, S) arrays, or stacks.

    One (rows, d) @ (d, 1) product per instance and state (and action): the
    same BLAS call as `embed @ c` makes for one context.  np.clip's bits in
    ufuncs: maximum returns its second operand on a tie, so maximum(x, 0.0)
    turns -0.0 into +0.0 as clip(x, 0.0, None) does, and maximum(0.0, x)
    keeps it as clip(x, 0.0, 1.0) does.
    """
    loss = np.matmul(model.loss_embed, c[..., None, :, None])[..., 0]
    trans = np.matmul(model.trans_embed, c[..., None, None, :, None])[..., 0]
    return np.minimum(np.maximum(0.0, loss), 1.0), np.maximum(trans, 0.0)


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
        check_field_types(self)
        if self.d < 1 or self.n_states < 1 or self.n_actions < 1:
            raise ConfigError("d, n_states, n_actions must be positive")
        if not 0 < self.gamma_goal <= 1:
            raise ConfigError("gamma_goal must lie in (0, 1]")
        if not 0 <= self.l_min_target < 1:
            raise ConfigError("l_min_target must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"generator seed must be >= 0, got {self.seed}")


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


@dataclass
class AdaptiveContexts:
    """Adversary hook for K episodes: callback(history) -> next context.

    history is the list of completed episode records maintained by the run
    loop; each emitted context is validated before use.
    """

    K: int
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


def context_sequence(kind, K, d, rng=None, c0=None):
    """(K, d) array of K contexts.

    kind: "uniform" (symmetric Dirichlet(1)), "cyclic_vertices" or "fixed".
    An adaptive adversary is an AdaptiveContexts, built directly.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    if kind == "uniform":
        if rng is None:
            raise ConfigError("uniform contexts need an rng")
        return validate_contexts(rng.dirichlet(np.ones(d), size=K), d)
    if kind == "cyclic_vertices":
        return np.eye(d)[np.arange(K) % d]
    if kind == "fixed":
        return np.tile(validate_context(c0, d), (K, 1))
    raise ConfigError(f"unknown context kind {kind!r}")
