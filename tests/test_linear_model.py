import numpy as np
import pytest

from lrcssp.errors import ConfigError, ProtocolError, StructuralError
from lrcssp.linear_model import (
    AdaptiveContexts,
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
    generate_trap_instance,
    induce_ssp,
    validate_context,
    validate_model,
)
from lrcssp.learner import _EpisodeSampler
from lrcssp.ssp import GOAL, value_iteration


REF_SPEC = GeneratorSpec(d=2, n_states=5, n_actions=3, gamma_goal=0.1,
                         l_min_target=0.1, seed=7)


class TestValidateContext:
    def test_accepts_simplex_point(self):
        c = validate_context([0.25, 0.75])
        assert c.dtype == float

    def test_rejects_negative(self):
        with pytest.raises(StructuralError):
            validate_context([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(StructuralError):
            validate_context([0.4, 0.4])

    def test_rejects_dimension(self):
        with pytest.raises(StructuralError):
            validate_context([0.5, 0.5], d=3)

    def test_rejects_matrix(self):
        with pytest.raises(StructuralError):
            validate_context(np.ones((2, 2)) / 2)


class TestInduceSsp:
    def test_vertex_selects_component(self):
        model = generate_instance(REF_SPEC)
        for j in range(model.d):
            e = np.eye(model.d)[j]
            ssp = induce_ssp(model, e)
            assert np.allclose(ssp.loss, model.loss_embed[..., j])
            assert np.allclose(ssp.trans, model.trans_embed[..., j])

    def test_linearity_in_context(self):
        model = generate_instance(REF_SPEC)
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(2))
        b = rng.dirichlet(np.ones(2))
        t = 0.3
        mix = induce_ssp(model, t * a + (1 - t) * b)
        sa, sb = induce_ssp(model, a), induce_ssp(model, b)
        assert np.allclose(mix.loss, t * sa.loss + (1 - t) * sb.loss)
        assert np.allclose(mix.trans, t * sa.trans + (1 - t) * sb.trans)

    def test_every_context_yields_legal_instance(self):
        model = generate_instance(REF_SPEC)
        rng = np.random.default_rng(1)
        for c in rng.dirichlet(np.ones(2), size=50):
            ssp = induce_ssp(model, c)  # SspInstance validates on build
            assert np.all(ssp.goal_mass >= REF_SPEC.gamma_goal - 1e-9)


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = generate_instance(REF_SPEC)
        b = generate_instance(REF_SPEC)
        assert np.array_equal(a.loss_embed, b.loss_embed)
        assert np.array_equal(a.trans_embed, b.trans_embed)

    def test_seed_changes_model(self):
        other = GeneratorSpec(d=2, n_states=5, n_actions=3, seed=8)
        assert not np.array_equal(generate_instance(REF_SPEC).loss_embed,
                                  generate_instance(other).loss_embed)

    def test_validates_clean(self):
        assert validate_model(generate_instance(REF_SPEC)) == []

    def test_goal_mass_floor_per_column(self):
        model = generate_instance(REF_SPEC)
        col_sums = model.trans_embed.sum(axis=2)
        assert np.all(col_sums <= 1 - REF_SPEC.gamma_goal + 1e-12)

    def test_loss_floor(self):
        model = generate_instance(REF_SPEC)
        assert model.loss_embed.min() >= REF_SPEC.l_min_target

    def test_rejects_zero_goal_mass(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(d=2, n_states=3, n_actions=2, gamma_goal=0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(d=0, n_states=3, n_actions=2)

    def test_column_mean_statistics(self):
        # Dirichlet(1_{S+1}) scaled by (1-gamma): each state's column entry
        # has mean (1-gamma)/(S+1); check the empirical mean over a large spec
        spec = GeneratorSpec(d=40, n_states=10, n_actions=8, gamma_goal=0.1,
                             seed=3)
        model = generate_instance(spec)
        expect = (1 - spec.gamma_goal) / (spec.n_states + 1)
        n = model.trans_embed.size
        se = expect / np.sqrt(n)  # crude but sufficient at this sample size
        assert abs(model.trans_embed.mean() - expect) <= 6 * se

    def test_trap_instance_properness(self):
        spec = GeneratorSpec(d=2, n_states=4, n_actions=3, gamma_goal=0.2,
                             seed=5)
        model = generate_trap_instance(spec)
        assert validate_model(model) == []
        rng = np.random.default_rng(6)
        for c in rng.dirichlet(np.ones(2), size=10):
            ssp = induce_ssp(model, c)
            # action 0 reaches the goal with mass >= gamma from every state
            assert np.all(ssp.goal_mass[:, 0] >= spec.gamma_goal - 1e-9)
            # other actions keep all mass inside the state space
            assert np.all(ssp.goal_mass[:, 1:] <= 1e-9)
            # the instance is still solvable
            v, _ = value_iteration(ssp, tol=1e-8)
            assert np.all(np.isfinite(v))


class TestSampleStep:
    """The environment sampler that `learner.run` steps through."""

    def test_transition_frequencies(self):
        model = generate_instance(REF_SPEC)
        c = np.array([0.6, 0.4])
        ssp = induce_ssp(model, c)
        s, a = 2, 1
        sampler = _EpisodeSampler(model, c)
        rng = np.random.default_rng(10)
        n = 50_000
        counts = np.zeros(model.n_states + 1)
        for _ in range(n):
            nxt, _ = sampler.step(s, a, rng)
            counts[nxt if nxt != GOAL else model.n_states] += 1
        freq = counts / n
        target = np.append(ssp.trans[s, a], ssp.goal_mass[s, a])
        sigma = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(freq - target) <= 4 * sigma + 1e-12)

    def test_bernoulli_loss_mean_and_support(self):
        model = generate_instance(REF_SPEC)
        c = np.array([0.3, 0.7])
        mean = float(model.loss_embed[0, 0] @ c)
        sampler = _EpisodeSampler(model, c)
        rng = np.random.default_rng(11)
        losses = np.array([sampler.step(0, 0, rng)[1]
                           for _ in range(40_000)])
        assert set(np.unique(losses)) <= {0.0, 1.0}
        se = np.sqrt(mean * (1 - mean) / losses.size)
        assert abs(losses.mean() - mean) <= 4 * se

    def test_truncated_uniform_loss(self):
        base = generate_instance(REF_SPEC)
        model = LinearCsspModel(base.loss_embed, base.trans_embed,
                                loss_noise="truncated_uniform",
                                noise_width=0.05)
        c = np.array([0.5, 0.5])
        mean = float(model.loss_embed[1, 2] @ c)
        sampler = _EpisodeSampler(model, c)
        rng = np.random.default_rng(12)
        losses = np.array([sampler.step(1, 2, rng)[1]
                           for _ in range(20_000)])
        assert losses.min() >= 0.0 and losses.max() <= 1.0
        assert np.all(np.abs(losses - mean) <= 0.05 + 1e-12)
        assert abs(losses.mean() - mean) <= 4 * 0.05 / np.sqrt(losses.size)


class TestValidateModel:
    def test_flags_range_violation(self):
        model = generate_instance(REF_SPEC)
        le = model.loss_embed.copy()
        le[0, 0, 0] = 1.2
        bad = object.__new__(LinearCsspModel)
        object.__setattr__(bad, "loss_embed", le)
        object.__setattr__(bad, "trans_embed", model.trans_embed)
        object.__setattr__(bad, "s_init", 0)
        object.__setattr__(bad, "loss_noise", "bernoulli")
        object.__setattr__(bad, "noise_width", 0.0)
        vs = validate_model(bad)
        assert any(v.kind == "loss_embed_range" and v.location == (0, 0, 0)
                   for v in vs)

    def test_flags_excess_column_mass(self):
        model = generate_instance(REF_SPEC)
        te = model.trans_embed.copy()
        te[1, 1, :, 0] = 2.0 / model.n_states
        bad = object.__new__(LinearCsspModel)
        object.__setattr__(bad, "loss_embed", model.loss_embed)
        object.__setattr__(bad, "trans_embed", te)
        object.__setattr__(bad, "s_init", 0)
        object.__setattr__(bad, "loss_noise", "bernoulli")
        object.__setattr__(bad, "noise_width", 0.0)
        assert any(v.kind == "column_mass" for v in validate_model(bad))


class TestContextSequences:
    def test_uniform_on_simplex(self):
        cs = context_sequence("uniform", 100, 3, rng=np.random.default_rng(0))
        assert len(cs) == 100
        for c in cs:
            assert abs(c.sum() - 1) <= 1e-9 and np.all(c >= 0)

    def test_cyclic_vertices(self):
        cs = context_sequence("cyclic_vertices", 5, 2)
        assert np.array_equal(np.array(cs),
                              [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0]])

    def test_fixed(self):
        cs = context_sequence("fixed", 3, 2, c0=[0.2, 0.8])
        assert all(np.array_equal(c, [0.2, 0.8]) for c in cs)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            context_sequence("nope", 3, 2)

    def test_adaptive_round_trip(self):
        seen = []

        def cb(history):
            seen.append(len(history))
            return np.eye(2)[len(history) % 2]

        provider = context_sequence("adaptive", 4, 2, callback=cb)
        assert isinstance(provider, AdaptiveContexts)
        c0 = provider.next_context()
        provider.record({"episode": 0})
        c1 = provider.next_context()
        assert np.array_equal(c0, [1, 0]) and np.array_equal(c1, [0, 1])
        assert seen == [0, 1]

    def test_adaptive_invalid_context_raises_protocol(self):
        provider = context_sequence("adaptive", 2, 2,
                                    callback=lambda h: np.array([0.9, 0.9]))
        with pytest.raises(ProtocolError):
            provider.next_context()
