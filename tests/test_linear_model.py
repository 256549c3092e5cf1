import numpy as np
import pytest

from lrcssp.errors import ConfigError, ProtocolError, StructuralError
from lrcssp.linear_model import (
    AdaptiveContexts,
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
    induce_ssp,
    validate_context,
)
from lrcssp.ssp import GOAL
from test_learner import episode_sampler


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


class TestStackValidation:
    """induce_ssp checks a (K, d) stack of contexts in one array pass."""

    def _error(self, fn, *args):
        with pytest.raises(StructuralError) as info:
            fn(*args)
        return info.value

    @pytest.mark.parametrize("bad", [
        [-0.1, 1.1],  # negative entry
        [0.4, 0.4],  # sum below 1
        [0.5, 0.5 + 3e-9],  # sum above 1 by more than the tolerance
        [-2e-9, 1.0 + 2e-9],  # negative beyond the tolerance, sum fine
        [0.2, 0.3, 0.5],  # wrong dimension
        [float("nan"), 1.0],  # non-finite, though no comparison fails
        [float("inf"), 0.0],  # non-finite
    ])
    def test_bad_row_raises_the_per_row_message(self, bad):
        model = generate_instance(REF_SPEC)
        rng = np.random.default_rng(0)
        good = rng.dirichlet(np.ones(model.d), size=5)
        if len(bad) == model.d:
            stack = np.vstack([good[:3], bad, good[3:]])
            row = 3
        else:
            stack = np.full((6, len(bad)), 1.0 / len(bad))
            row = 0
        want = self._error(validate_context, bad, model.d)
        got = self._error(induce_ssp, model, stack)
        assert str(got) == str(want)
        assert got.index == row

    def test_first_offending_row_is_reported(self):
        model = generate_instance(REF_SPEC)
        stack = np.array([[0.5, 0.5], [0.3, 0.3], [-0.5, 1.5], [0.1, 0.1]])
        err = self._error(induce_ssp, model, stack)
        assert str(err) == "context entries must sum to 1, got 0.600000000000"
        assert err.index == 1

    def test_tolerance_rows_pass(self):
        model = generate_instance(REF_SPEC)
        stack = np.array([[0.5, 0.5 + 0.9e-9], [-0.9e-9, 1.0], [1.0, 0.0]])
        ssp = induce_ssp(model, stack)
        for k, c in enumerate(stack):
            single = induce_ssp(model, c)
            assert ssp.loss[k].tobytes() == single.loss.tobytes()
            assert ssp.trans[k].tobytes() == single.trans.tobytes()


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
        # generate_instance builds a LinearCsspModel, which checks every entry
        for seed in range(5):
            for gamma_goal in (1e-6, 0.1, 1.0):
                generate_instance(GeneratorSpec(
                    d=3, n_states=4, n_actions=2, gamma_goal=gamma_goal,
                    seed=seed))

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


class TestSampleStep:
    """The environment sampler that `learner.run` steps through."""

    def test_transition_frequencies(self):
        model = generate_instance(REF_SPEC)
        c = np.array([0.6, 0.4])
        ssp = induce_ssp(model, c)
        s, a = 2, 1
        sampler = episode_sampler(model, c)
        rng = np.random.default_rng(10)
        n = 50_000
        counts = np.zeros(model.n_states + 1)
        for _ in range(n):
            nxt, _ = sampler.step(s, a, rng.random)
            counts[nxt if nxt != GOAL else model.n_states] += 1
        freq = counts / n
        target = np.append(ssp.trans[s, a], ssp.goal_mass[s, a])
        sigma = np.sqrt(target * (1 - target) / n)
        assert np.all(np.abs(freq - target) <= 4 * sigma + 1e-12)

    def test_bernoulli_loss_mean_and_support(self):
        model = generate_instance(REF_SPEC)
        c = np.array([0.3, 0.7])
        mean = float(model.loss_embed[0, 0] @ c)
        sampler = episode_sampler(model, c)
        rng = np.random.default_rng(11)
        losses = np.array([sampler.step(0, 0, rng.random)[1]
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
        sampler = episode_sampler(model, c)
        rng = np.random.default_rng(12)
        losses = np.array([sampler.step(1, 2, rng.random)[1]
                           for _ in range(20_000)])
        assert losses.min() >= 0.0 and losses.max() <= 1.0
        assert np.all(np.abs(losses - mean) <= 0.05 + 1e-12)
        assert abs(losses.mean() - mean) <= 4 * 0.05 / np.sqrt(losses.size)


class TestValidateModel:
    """A model with a bad entry cannot be built: the StructuralError names
    the kind and the first bad index."""

    def _build(self, name, index, value):
        model = generate_instance(REF_SPEC)
        embeds = {"loss_embed": model.loss_embed.copy(),
                  "trans_embed": model.trans_embed.copy()}
        embeds[name][index] = value
        return LinearCsspModel(**embeds)

    def test_flags_range_violation(self):
        for index, value in (((0, 0, 0), 1.2), ((2, 1, 1), -0.1)):
            with pytest.raises(StructuralError) as info:
                self._build("loss_embed", index, value)
            assert str(info.value) == \
                f"loss_embed_range at {index}: {value:.3e}"

    def test_flags_negative_transition(self):
        with pytest.raises(StructuralError) as info:
            self._build("trans_embed", (1, 2, 3, 0), -0.1)
        assert str(info.value) == \
            "trans_embed_negative at (1, 2, 3, 0): -1.000e-01"

    def test_flags_excess_column_mass(self):
        with pytest.raises(StructuralError) as info:
            self._build("trans_embed", (1, 1, slice(None), 0),
                        2.0 / REF_SPEC.n_states)
        assert str(info.value) == "column_mass at (1, 1, 0): 2.000e+00"

    @pytest.mark.parametrize("name", ["loss_embed", "trans_embed"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_flags_non_finite(self, name, value):
        # NaN passes every range comparison, so it needs its own check
        index = (0, 1, 0) if name == "loss_embed" else (0, 1, 0, 0)
        with pytest.raises(StructuralError) as info:
            self._build(name, index, value)
        assert str(info.value) == f"non_finite at {(name, *index)}: {value}"

    def test_kinds_checked_in_order(self):
        # a non-finite entry is reported before an earlier out-of-range one
        model = generate_instance(REF_SPEC)
        le = model.loss_embed.copy()
        le[0, 0, 0], le[4, 2, 1] = 1.5, np.nan
        with pytest.raises(StructuralError, match=r"^non_finite at "
                           r"\('loss_embed', 4, 2, 1\)"):
            LinearCsspModel(le, model.trans_embed)

    def test_tolerances(self):
        # a column may carry 1e-9 of excess mass and an entry -1e-9
        model = generate_instance(REF_SPEC)
        te = model.trans_embed.copy()
        te[0, 0, :, 0] *= (1 + 0.5e-9) / te[0, 0, :, 0].sum()
        te[0, 0, 0, 1] = -0.5e-9
        LinearCsspModel(model.loss_embed, te)


class TestContextSequences:
    def test_uniform_on_simplex(self):
        cs = context_sequence("uniform", 100, 3, rng=np.random.default_rng(0))
        assert len(cs) == 100
        for c in cs:
            assert abs(c.sum() - 1) <= 1e-9 and np.all(c >= 0)

    @pytest.mark.parametrize("kind", ["uniform", "cyclic_vertices", "fixed"])
    def test_one_float_array(self, kind):
        cs = context_sequence(kind, 7, 3, rng=np.random.default_rng(0),
                              c0=[0.2, 0.3, 0.5])
        assert isinstance(cs, np.ndarray)
        assert cs.shape == (7, 3) and cs.dtype == float

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

        provider = AdaptiveContexts(4, 2, cb)
        assert isinstance(provider, AdaptiveContexts) and provider.K == 4
        c0 = provider.next_context()
        provider.record({"episode": 0})
        c1 = provider.next_context()
        assert np.array_equal(c0, [1, 0]) and np.array_equal(c1, [0, 1])
        assert seen == [0, 1]

    def test_adaptive_invalid_context_raises_protocol(self):
        provider = AdaptiveContexts(2, 2, lambda h: np.array([0.9, 0.9]))
        with pytest.raises(ProtocolError):
            provider.next_context()
