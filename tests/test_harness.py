import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math
import os
import pathlib
import shutil
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcssp import harness, ssp as ssp_mod
from lrcssp.errors import ConfigError, NonConvergenceError
from lrcssp.harness import (
    CSV_HEADER,
    ExperimentConfig,
    OracleValues,
    aggregate_summaries,
    baseline_context_blind,
    build_contexts,
    RegretCurve,
    compute_regret,
    final_regret_mean,
    hpe_diagnostics,
    model_fingerprint,
    model_from_dict,
    model_to_dict,
    oracle_values,
    read_regret_csv,
    read_summary,
    run_experiment,
    slope_statistic,
    summarize_run,
    write_events_jsonl,
    write_regret_csv,
    write_summary,
)
from lrcssp.learner import EpisodeLog, IntervalRecord, LearnerConfig, run
from lrcssp.linear_model import (
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
    induce_ssp,
    validate_context,
)
from test_ssp import bellman_backup


REF_SPEC = GeneratorSpec(d=2, n_states=5, n_actions=3, gamma_goal=0.1,
                         l_min_target=0.1, seed=7)
REF_CFG = LearnerConfig(delta=0.1, l_min=0.1)


def small_run(K=12, seed=3):
    model = generate_instance(REF_SPEC)
    contexts = context_sequence("uniform", K, model.d,
                                rng=np.random.default_rng(0))
    log = run(REF_CFG, model, contexts, seed=seed)
    oracle = oracle_values(model, contexts)
    return model, contexts, log, oracle


def reference_oracle(model, contexts, tol=1e-10):
    """The per-context oracle in scalar form: per context, induce the
    instance, run value iteration from zero until the residual is at most
    tol, take the greedy policy of the last v and solve for its hitting
    times.  Returns the OracleValues and each context's sweep count."""
    rows = np.arange(model.n_states)
    v_init, v_all, t_max, sweeps = [], [], 0.0, []
    for c in contexts:
        c = validate_context(c, model.d)
        loss = np.clip(model.loss_embed @ c, 0.0, 1.0)
        trans = np.clip(model.trans_embed @ c, 0.0, None)
        v = np.zeros(model.n_states)
        for sweep in itertools.count(1):
            q = loss + trans @ v
            w = q.min(axis=1)
            if np.abs(w - v).max() <= tol:
                break
            v = w
        pi = q.argmin(axis=1)
        t = np.linalg.solve(np.eye(model.n_states) - trans[rows, pi],
                            np.ones(model.n_states))
        v_init.append(float(v[model.s_init]))
        v_all.append(v)
        t_max = max(t_max, float(t.max()))
        sweeps.append(sweep)
    v_all = np.array(v_all)
    oracle = OracleValues(np.array(v_init), v_all, float(v_all.max()), t_max)
    return oracle, sweeps


def assert_same_oracle(got, want):
    """Bit-for-bit equality of every OracleValues field."""
    for name in ("v_star", "v_star_all"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.b_star_emp.hex() == want.b_star_emp.hex()
    assert got.t_star_emp.hex() == want.t_star_emp.hex()


def two_component_model(loop_loss, loop_mass=1.0):
    """S=2, A=1, d=2: under component 0 both states go straight to the goal;
    under component 1 state 0 moves to state 1 w.p. 0.5 and state 1 loops
    to itself w.p. `loop_mass` at loss `loop_loss`."""
    loss_embed = np.array([[[0.5, 0.5]], [[0.5, loop_loss]]])
    trans_embed = np.zeros((2, 1, 2, 2))
    trans_embed[0, 0, 1, 1] = 0.5
    trans_embed[1, 0, 1, 1] = loop_mass
    return LinearCsspModel(loss_embed, trans_embed)


E0, E1, MID = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])


class TestOracleValues:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_batched_equals_per_context_reference(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        n_states = data.draw(st.integers(1, 6), label="S")
        n_actions = data.draw(st.integers(1, 4), label="A")
        K = data.draw(st.integers(1, 12), label="K")
        spec = GeneratorSpec(
            d=d, n_states=n_states, n_actions=n_actions,
            gamma_goal=data.draw(st.floats(0.05, 1.0), label="gamma_goal"),
            l_min_target=data.draw(st.sampled_from([0.0, 0.1, 0.5]),
                                   label="l_min_target"),
            seed=data.draw(st.integers(0, 2**16), label="seed"))
        model = generate_instance(spec)
        kind = data.draw(st.sampled_from(["uniform", "cyclic_vertices",
                                          "fixed"]), label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        contexts = context_sequence(kind, K, d, rng=rng,
                                    c0=rng.dirichlet(np.ones(d)))
        # stacks of `chunk` contexts, so several stacks are solved too
        chunk = data.draw(st.integers(1, K), label="chunk")
        with mock.patch.object(harness, "ORACLE_STACK_ENTRIES",
                               chunk * n_states * n_actions * n_states):
            got = oracle_values(model, contexts)
        want, _ = reference_oracle(model, contexts)
        assert_same_oracle(got, want)

    def test_contexts_stop_at_their_own_sweep(self):
        # the contexts of one stack need different sweep counts, and each
        # keeps the v of its own stopping sweep
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 40, model.d,
                                    rng=np.random.default_rng(5))
        want, sweeps = reference_oracle(model, contexts)
        assert len(set(sweeps)) > 3
        assert_same_oracle(oracle_values(model, contexts), want)

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_improper_greedy_policy_names_context(self, chunk):
        # context 2 makes state 1 a zero-loss self-loop: value iteration
        # converges to v = 0 there, with a greedy policy that never leaves
        model = two_component_model(loop_loss=0.0)
        entries = (harness.ORACLE_STACK_ENTRIES if chunk is None
                   else chunk * 4)
        with mock.patch.object(harness, "ORACLE_STACK_ENTRIES", entries):
            with pytest.raises(ConfigError, match=r"model rejected: .* "
                               r"context 2 \(policy appears improper: "
                               r"states \[1\]"):
                oracle_values(model, [E0, MID, E1, E0, E1])

    def test_nonconvergence_names_context(self, monkeypatch):
        # context 1 loops at loss 1 and reaches the goal w.p. 1e-3 a step,
        # so its residual stays near 1 for 50 sweeps while contexts 0 and 2
        # converge and freeze
        model = two_component_model(loop_loss=1.0, loop_mass=0.999)
        monkeypatch.setattr(harness, "value_iteration", functools.partial(
            ssp_mod.value_iteration, max_iter=50))
        with pytest.raises(ConfigError) as exc:
            oracle_values(model, [E0, E1, E0, E1])
        # the batch of one reports the same failure
        with pytest.raises(NonConvergenceError) as single:
            ssp_mod.value_iteration(induce_ssp(model, E1), max_iter=50)
        assert str(exc.value) == (f"model rejected: oracle planning failed "
                                  f"at context 1 ({single.value})")
        assert single.value.residual > 0.9 and single.value.index is None

    def test_values_solve_bellman(self):
        model, contexts, _, oracle = small_run(K=6)
        for k, c in enumerate(contexts):
            ssp = induce_ssp(model, c)
            v = oracle.v_star_all[k]
            assert np.allclose(v, bellman_backup(v, ssp), atol=1e-8)
            assert oracle.v_star[k] == v[model.s_init]

    def test_empirical_bounds(self):
        _, _, _, oracle = small_run(K=6)
        assert oracle.b_star_emp == oracle.v_star_all.max()
        assert oracle.t_star_emp >= 1.0

    def test_oracle_does_not_mutate_run(self):
        # the learner's outputs are identical whether or not the oracle ran
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 8, model.d,
                                    rng=np.random.default_rng(0))
        log1 = run(REF_CFG, model, contexts, seed=3)
        oracle_values(model, contexts)
        log2 = run(REF_CFG, model, contexts, seed=3)
        assert log1.step_trace == log2.step_trace


class TestComputeRegret:
    def test_hand_arithmetic(self):
        # fabricate a two-episode log with known losses and oracle values
        class Ep:
            def __init__(self, loss, trunc):
                self.total_loss = loss
                self.truncated = trunc

        class Log:
            episodes = [Ep(3.0, False), Ep(10.0, True), Ep(1.5, False)]

        class Oracle:
            v_star = np.array([1.0, 2.0, 0.5])

        curve = compute_regret(Log(), Oracle())
        assert curve.regret[0] == 2.0
        assert math.isnan(curve.regret[1])
        assert curve.regret[2] == 1.0
        assert np.allclose(curve.cum_regret, [2.0, 2.0, 3.0])

    def test_mismatched_lengths_rejected(self):
        _, _, log, oracle = small_run(K=5)
        short = type(oracle)(oracle.v_star[:3], oracle.v_star_all[:3],
                             oracle.b_star_emp, oracle.t_star_emp)
        with pytest.raises(ConfigError):
            compute_regret(log, short)

    def test_real_run_identity(self):
        _, _, log, oracle = small_run(K=12)
        curve = compute_regret(log, oracle)
        for k, e in enumerate(log.episodes):
            assert curve.realized_loss[k] == e.total_loss
            if not e.truncated:
                assert curve.regret[k] == pytest.approx(
                    e.total_loss - oracle.v_star[k])


class TestSlopeStatistic:
    def test_windows_and_ratio(self):
        class Curve:
            regret = np.array([4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                               2.0, 2.0])

        head, tail, ratio = slope_statistic(Curve(), frac=0.2)
        assert head == 4.0 and tail == 2.0 and ratio == 0.5

    def test_nan_excluded(self):
        class Curve:
            regret = np.array([4.0, float("nan"), 1.0, 1.0, 1.0,
                               float("nan"), 1.0, 1.0, 2.0, 2.0])

        head, tail, _ = slope_statistic(Curve(), frac=0.2)
        assert head == 4.0 and tail == 2.0


class TestHpeDiagnostics:
    def test_real_run_identities(self):
        _, _, log, oracle = small_run(K=12)
        diag = hpe_diagnostics(log, oracle, REF_CFG.delta)
        assert diag["intervals"] == log.total_intervals
        assert diag["interval_count_bound_ok"]
        # recompute the violation count independently
        b = max(1.0, oracle.b_star_emp)
        expect = sum(rec.interval_loss > 48 * b * math.log(
            4 * rec.interval / REF_CFG.delta) for rec in log.interval_records)
        assert diag["interval_loss_violations"] == expect

    @pytest.mark.parametrize("b_star_emp, delta", [
        (0.5, 0.1), (1.0, 0.05), (2.75, 0.1), (40.0, 1e-6)])
    def test_violations_equal_full_expression(self, b_star_emp, delta):
        # losses at, just below and just above the threshold of their own
        # interval m and of m = 1, which every larger m's threshold exceeds
        b = max(1.0, b_star_emp)

        def threshold(m):
            return 48.0 * b * math.log(4.0 * m / delta)

        records = []
        for m in (1, 2, 3, 7, 100, 10**6):
            for t in (threshold(m), threshold(1)):
                for loss in (t, np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                             0.0, -0.0, float("nan"), float("inf")):
                    records.append(IntervalRecord(0, m, "goal",
                                                  interval_loss=float(loss)))
        log = types.SimpleNamespace(
            interval_records=records, total_intervals=len(records),
            episodes=[None], unknown_counts=np.zeros((2, 2), dtype=int))
        oracle = OracleValues(np.zeros(1), np.zeros((1, 2)), b_star_emp, 1.0)
        diag = hpe_diagnostics(log, oracle, delta)
        expect = sum(rec.interval_loss > threshold(rec.interval)
                     for rec in records)
        assert diag["interval_loss_violations"] == expect
        assert 0 < expect < len(records)

    def test_interval_count_identity(self):
        _, _, log, _ = small_run(K=12)
        k = len(log.episodes)
        per_episode = sum(e.intervals_started for e in log.episodes)
        assert log.total_intervals == per_episode
        assert per_episode == k + sum(e.unknown_triggers for e in log.episodes)


class TestBaselineContextBlind:
    def test_same_environment_different_learning(self):
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("cyclic_vertices", 10, model.d)
        informed = run(REF_CFG, model, contexts, seed=3)
        blind = baseline_context_blind(REF_CFG, model, contexts, seed=3)
        # blind run logs the true environment contexts
        for e, c in zip(blind.episodes, contexts):
            assert np.array_equal(e.context, c)
        # but plans on the uniform context: interval records show it
        u = np.full(model.d, 1.0 / model.d)
        assert all(np.array_equal(r.context, u) for r in blind.interval_records)
        assert any(not np.array_equal(a.context, b.context)
                   for a, b in zip(informed.interval_records,
                                   blind.interval_records))


class TestModelSerialization:
    def test_round_trip(self):
        model = generate_instance(REF_SPEC)
        back = model_from_dict(model_to_dict(model))
        assert np.array_equal(model.loss_embed, back.loss_embed)
        assert np.array_equal(model.trans_embed, back.trans_embed)
        assert model_fingerprint(model) == model_fingerprint(back)

    def test_fingerprint_sensitive(self):
        a = generate_instance(REF_SPEC)
        b = generate_instance(GeneratorSpec(d=2, n_states=5, n_actions=3,
                                            seed=8))
        assert model_fingerprint(a) != model_fingerprint(b)

    def test_rejects_foreign_payload(self):
        with pytest.raises(ConfigError):
            model_from_dict({"format": "other"})


class TestExperimentConfig:
    def _raw(self):
        return {
            "generator": {"d": 2, "n_states": 3, "n_actions": 2,
                          "gamma_goal": 0.2, "l_min_target": 0.1, "seed": 1},
            "contexts": {"kind": "uniform", "K": 5},
            "learner": {"delta": 0.1, "l_min": 0.1},
            "seeds": [0, 1],
            "out_dir": "out",
        }

    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(self._raw())
        again = ExperimentConfig.from_dict(cfg.to_canonical_dict())
        assert again.to_canonical_dict() == cfg.to_canonical_dict()

    def test_rejects_unknown_top_key(self):
        raw = self._raw()
        raw["extra"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_rejects_unknown_section_key(self):
        raw = self._raw()
        raw["learner"]["typo"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_missing_section(self):
        raw = self._raw()
        del raw["contexts"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


class TestArtifacts:
    def test_regret_csv_reads_back_what_was_written(self, tmp_path):
        # a cap of 3 steps truncates some episodes, whose regret is NaN
        model = generate_instance(REF_SPEC)
        contexts = context_sequence("uniform", 30, model.d,
                                    rng=np.random.default_rng(0))
        log = run(dataclasses.replace(REF_CFG, episode_step_cap=3), model,
                  contexts, seed=3)
        curve = compute_regret(log, oracle_values(model, contexts))
        path = tmp_path / "regret.csv"
        write_regret_csv(path, log, curve)
        cols = read_regret_csv(path)
        truncated = [int(e.truncated) for e in log.episodes]
        assert 0 < sum(truncated) < len(truncated)
        assert list(cols) == CSV_HEADER.split(",")
        assert cols["truncated"] == truncated
        assert [int(math.isnan(x)) for x in cols["regret"]] == truncated
        assert cols["steps"] == [e.steps for e in log.episodes]
        assert cols["intervals"] == [e.intervals_started
                                     for e in log.episodes]
        # every cell reads back as the value the writer formatted
        assert [CSV_HEADER] + [",".join(map(harness._fmt, row))
                               for row in zip(*cols.values())] == (
            path.read_text().splitlines())

    def test_csv_header_and_rows(self, tmp_path):
        _, _, log, oracle = small_run(K=8)
        curve = compute_regret(log, oracle)
        path = tmp_path / "regret.csv"
        write_regret_csv(path, log, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        row0 = lines[1].split(",")
        assert row0[0] == "0"
        assert int(row0[1]) == log.episodes[0].steps
        assert float(row0[2]) == log.episodes[0].total_loss
        # unix line endings
        assert "\r" not in path.read_bytes().decode()

    @pytest.mark.parametrize("K", [1, 8])
    def test_csv_equals_row_by_row_writer_on_runs(self, tmp_path, K):
        _, _, log, oracle = small_run(K=K)
        curve = compute_regret(log, oracle)
        write_regret_csv(tmp_path / "regret.csv", log, curve)
        assert (tmp_path / "regret.csv").read_bytes() == \
            regret_csv_oracle(log, curve).encode()

    def test_csv_equals_row_by_row_writer_on_edge_values(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        values = [0.5, -0.0, 0.0, inf, -inf, 1e30, -1e30, 1e-300, 1 / 3,
                  nan, 2.0**70, 123456789.123]
        episodes = [EpisodeLog(k, None, steps=k * 1000, total_loss=x,
                               intervals_started=k + 1, unknown_triggers=k,
                               truncated=np.bool_(k % 3 == 1),
                               b_star_end=(1, 2.0, 2**40, np.float64(8.0))[k % 4])
                    for k, x in enumerate(values)]
        v_star = np.array(values[::-1])
        truncated = np.array([e.truncated for e in episodes])
        realized = np.array(values)
        regret = np.where(truncated, np.nan, realized - v_star)
        with np.errstate(invalid="ignore"):
            curve = RegretCurve(realized, v_star, regret,
                                np.cumsum(np.where(truncated, 0.0, regret)),
                                truncated)
        log = types.SimpleNamespace(episodes=episodes)
        path = tmp_path / "regret.csv"
        for k in (1, 2, len(values)):  # K = 1, and more
            part = types.SimpleNamespace(episodes=episodes[:k])
            cut = RegretCurve(*(x[:k] for x in dataclasses.astuple(curve)))
            write_regret_csv(path, part, cut)
            assert path.read_bytes() == regret_csv_oracle(part, cut).encode()
        text = path.read_text()
        for cell in ("nan", "-0", "inf", "-inf", "1e+30", "1.18059162e+21"):
            assert f",{cell}," in text
        # an int b_star_end prints as an int, a float with .9g
        assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:5]] \
            == ["1", "2", "1099511627776", "8"]

    def assert_events_are_json_dumps(self, path, records):
        write_events_jsonl(path, types.SimpleNamespace(
            interval_records=records))
        want = [json.dumps(rec.to_event()) + "\n" for rec in records]
        assert path.read_text().splitlines(keepends=True) == want
        assert path.read_bytes() == "".join(want).encode()

    @pytest.mark.parametrize("b_star_init, kinds", [
        (1.0, {float}), (1, {int, float}), (2, {int})])
    def test_events_equal_json_dumps_on_runs(self, tmp_path, b_star_init,
                                             kinds):
        # the one-pair instance doubles B = 1 once, and B = 2 never: an int
        # b_star_init is written as an int until a doubling, a float after
        model = generate_instance(GeneratorSpec(
            d=1, n_states=1, n_actions=1, gamma_goal=0.02,
            l_min_target=0.5, seed=0))
        contexts = context_sequence("uniform", 8, 1,
                                    rng=np.random.default_rng(0))
        log = run(LearnerConfig(delta=0.1, l_min=0.5, b_star_init=b_star_init),
                  model, contexts, seed=0)
        assert log.doubling_events == (b_star_init == 1)
        assert {type(rec.b_star_cur) for rec in log.interval_records} == kinds
        self.assert_events_are_json_dumps(tmp_path / "events.jsonl",
                                          log.interval_records)
        _, _, log, _ = small_run(K=8)
        self.assert_events_are_json_dumps(tmp_path / "ref.jsonl",
                                          log.interval_records)

    def test_events_equal_json_dumps_on_edge_values(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        records = [
            IntervalRecord(0, 1, "start", 1, 0.5, inf, 0.25, 1.0, 0.0),
            IntervalRecord(0, 2, "unknown", 1, -0.0, nan, -0.0, 1.0, -0.0),
            IntervalRecord(2**70, 10**30, "goal", 2**64, 1e-300, -inf,
                           1.7976931348623157e308, 2, 1 / 3),
            IntervalRecord(-1, 4, "caf\u00e9 \"x\"\n%s", 0, 0.1 + 0.2, 0.0,
                           np.float64(0.75), 4, 2.0),
        ]
        path = tmp_path / "events.jsonl"
        self.assert_events_are_json_dumps(path, records)
        for rec in records:  # each record on its own: one kind per column
            self.assert_events_are_json_dumps(path, [rec])
        # finite floats whose sum overflows, ints only, and no records
        self.assert_events_are_json_dumps(path, [
            IntervalRecord(k, k, "goal", k, 1e308, 1e308, 0.0, 1, 0.0)
            for k in range(3)])
        self.assert_events_are_json_dumps(path, [])
        # blocks of the writer (128 records) whose columns differ in kind:
        # b_star_cur an int, then mixed, then a float, and a residual NaN
        # in one block
        self.assert_events_are_json_dumps(path, [
            IntervalRecord(k, k + 1, "unknown", 1, 0.5, nan if k == 270 else
                           0.0, 0.25, 1 if k < 150 else 2.0, 0.0)
            for k in range(300)])

    def test_fmt_equals_former_fmt(self):
        values = [True, False, 0, -3, 2**70, np.int64(-5), np.uint8(7), 0.5,
                  -0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e30,
                  1 / 3, np.float64(2.5), np.float64(-0.0), np.float32(0.1),
                  np.float16(1.5)]
        for x in values:
            assert harness._fmt(x) == fmt_oracle(x), x

    def test_event_keys_and_values(self):
        rec = IntervalRecord(3, 9, "unknown", 2, 0.5, 1e-7, 1.25, 2.0, 0.25,
                             context=np.ones(2), coverage_ok=True)
        event = rec.to_event()
        assert list(event.items()) == [
            ("episode", 3), ("interval", 9), ("trigger", "unknown"),
            ("steps", 2), ("interval_loss", 0.5), ("evi_residual", 1e-7),
            ("v_tilde_init", 1.25), ("b_star_cur", 2.0),
            ("known_fraction", 0.25)]

    def test_summary_round_trip(self, tmp_path):
        _, _, log, oracle = small_run(K=8)
        curve = compute_regret(log, oracle)
        summary = summarize_run(log, curve, oracle, REF_CFG.delta)
        path = tmp_path / "summary.txt"
        write_summary(path, summary)
        back = read_summary(path)
        assert set(back) == set(summary)
        assert float(back["final_cum_regret"]) == pytest.approx(
            summary["final_cum_regret"], rel=1e-8)

    def test_aggregate_recompute(self):
        per_run = [
            ("lrcssp", 0, {"final_cum_regret": 10.0, "truncation_count": 0,
                           "hpe_violation_fraction": 0.0, "b_star_emp": 1.5,
                           "t_star_emp": 9.0}),
            ("lrcssp", 1, {"final_cum_regret": 14.0, "truncation_count": 1,
                           "hpe_violation_fraction": 0.5, "b_star_emp": 1.2,
                           "t_star_emp": 11.0}),
        ]
        agg = aggregate_summaries(per_run)["lrcssp"]
        assert agg["final_regret_mean"] == 12.0
        assert agg["final_regret_median"] == 12.0
        assert agg["final_regret_iqr"] == 2.0
        assert agg["truncation_count"] == 1
        assert agg["hpe_violation_fraction"] == 0.25
        assert agg["b_star_emp"] == 1.5 and agg["t_star_emp"] == 11.0

    def test_aggregate_skips_nan_finals(self):
        per_run = [
            ("lrcssp", 0, {"final_cum_regret": float("nan"),
                           "truncation_count": 5,
                           "hpe_violation_fraction": 0.0, "b_star_emp": 1.0,
                           "t_star_emp": 2.0}),
            ("lrcssp", 1, {"final_cum_regret": 8.0, "truncation_count": 0,
                           "hpe_violation_fraction": 0.0, "b_star_emp": 1.0,
                           "t_star_emp": 2.0}),
        ]
        agg = aggregate_summaries(per_run)["lrcssp"]
        assert agg["final_regret_mean"] == 8.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=False, width=64),
        st.sampled_from([float("nan"), -0.0, 0.0, 1e308])), max_size=9))
    def test_final_regret_mean_equals_both_former_means(self, finals):
        # the summary's mean over the non-NaN finals of an array, and the
        # report's over those of the seeds it plots
        arr = np.array(finals, dtype=float)
        finite = arr[~np.isnan(arr)]
        with np.errstate(over="ignore", invalid="ignore"):
            summary = float(finite.mean()) if finite.size else float("nan")
            kept = [x for x in finals if not np.isnan(x)]
            report = float(np.mean(kept)) if kept else float("nan")
            got = final_regret_mean(finals)
        assert got.hex() == summary.hex() == report.hex()


def fmt_oracle(x):
    """_fmt as it was: bools, then ints, then .9g."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.9g}"


def regret_csv_oracle(run_log, curve):
    """regret.csv's text as the row-by-row writer built it."""
    lines = [CSV_HEADER]
    for k, ep in enumerate(run_log.episodes):
        lines.append(",".join([
            str(k), str(ep.steps), fmt_oracle(curve.realized_loss[k]),
            fmt_oracle(curve.optimal_value[k]), fmt_oracle(curve.regret[k]),
            fmt_oracle(curve.cum_regret[k]), str(ep.intervals_started),
            str(ep.unknown_triggers), fmt_oracle(bool(ep.truncated)),
            fmt_oracle(ep.b_star_end),
        ]))
    return "\n".join(lines) + "\n"


def tree_bytes(root):
    """Every file under root by its relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, f), root):
            pathlib.Path(d, f).read_bytes()
            for d, _, files in os.walk(root) for f in files}


class TestRunExperiment:
    def _cfg(self, tmp_path, K=6, seeds=(0,), baseline=False):
        return ExperimentConfig.from_dict({
            "generator": {"d": 2, "n_states": 3, "n_actions": 2,
                          "gamma_goal": 0.2, "l_min_target": 0.1, "seed": 1},
            "contexts": {"kind": "uniform", "K": K},
            "learner": {"delta": 0.1, "l_min": 0.1},
            "seeds": list(seeds),
            "out_dir": str(tmp_path / "out"),
            "baseline_context_blind": baseline,
        })

    def test_writes_expected_tree(self, tmp_path):
        cfg = self._cfg(tmp_path, seeds=(0, 1), baseline=True)
        run_experiment(cfg)
        base = tmp_path / "out"
        assert (base / "config.json").exists()
        assert (base / "summary.txt").exists()
        for variant in ("lrcssp", "context_blind"):
            for seed in (0, 1):
                d = base / variant / f"seed_{seed}"
                for name in ("regret.csv", "events.jsonl", "summary.txt"):
                    assert (d / name).exists(), (variant, seed, name)

    def test_reproducible_artifacts(self, tmp_path):
        cfg1 = self._cfg(tmp_path / "a")
        cfg2 = self._cfg(tmp_path / "b")
        run_experiment(cfg1)
        run_experiment(cfg2)
        f1 = (tmp_path / "a" / "out" / "lrcssp" / "seed_0" / "regret.csv")
        f2 = (tmp_path / "b" / "out" / "lrcssp" / "seed_0" / "regret.csv")
        assert f1.read_bytes() == f2.read_bytes()

    def test_jobs_match_serial(self, tmp_path):
        cfg1 = self._cfg(tmp_path / "serial", seeds=(0, 1))
        cfg2 = self._cfg(tmp_path / "par", seeds=(0, 1))
        run_experiment(cfg1, jobs=1)
        run_experiment(cfg2, jobs=2)
        for seed in (0, 1):
            a = (tmp_path / "serial" / "out" / "lrcssp" / f"seed_{seed}"
                 / "regret.csv").read_bytes()
            b = (tmp_path / "par" / "out" / "lrcssp" / f"seed_{seed}"
                 / "regret.csv").read_bytes()
            assert a == b

    @pytest.mark.parametrize("seeds, asked", [((0, 1), [2]), ((0,), [])],
                             ids=["two_seeds", "one_seed"])
    def test_pool_opens_at_most_one_worker_per_seed(self, tmp_path,
                                                    monkeypatch, seeds,
                                                    asked):
        cfg = self._cfg(tmp_path, seeds=seeds)
        run_experiment(cfg, jobs=1)
        serial = tree_bytes(tmp_path / "out")
        shutil.rmtree(tmp_path / "out")
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        # run_experiment imports the pool class when it opens a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        run_experiment(cfg, jobs=4)
        assert pools == asked
        assert tree_bytes(tmp_path / "out") == serial

    @pytest.mark.parametrize("informed", [True, False])
    def test_oracle_informed_starts_from_b_star_emp(self, tmp_path,
                                                    informed):
        # the first plan reads zero statistics, so it cannot double: the
        # first interval runs at the initial bound itself
        cfg = dataclasses.replace(self._cfg(tmp_path, seeds=(0, 1)),
                                  oracle_informed=informed)
        run_experiment(cfg)
        for seed in (0, 1):
            run_dir = tmp_path / "out" / "lrcssp" / f"seed_{seed}"
            b_emp = float(read_summary(run_dir / "summary.txt")["b_star_emp"])
            assert b_emp > 1.0  # else the flag could not move the bound
            first = json.loads(
                (run_dir / "events.jsonl").read_text().splitlines()[0])
            want = max(1.0, b_emp) if informed else 1.0
            assert first["b_star_cur"] == pytest.approx(want, rel=1e-8)

    def test_context_stream_independent_of_run_seed(self):
        cfg_raw = {
            "generator": {"d": 2, "n_states": 3, "n_actions": 2, "seed": 1},
            "contexts": {"kind": "uniform", "K": 4},
            "learner": {"delta": 0.1, "l_min": 0.1},
        }
        cfg = ExperimentConfig.from_dict(cfg_raw)
        c_a = build_contexts(cfg, seed=0)
        c_b = build_contexts(cfg, seed=1)
        c_a2 = build_contexts(cfg, seed=0)
        assert all(np.array_equal(x, y) for x, y in zip(c_a, c_a2))
        assert any(not np.array_equal(x, y) for x, y in zip(c_a, c_b))

    def test_events_jsonl_schema(self, tmp_path):
        cfg = self._cfg(tmp_path)
        run_experiment(cfg)
        path = tmp_path / "out" / "lrcssp" / "seed_0" / "events.jsonl"
        keys = {"episode", "interval", "trigger", "steps", "interval_loss",
                "evi_residual", "v_tilde_init", "b_star_cur",
                "known_fraction"}
        intervals = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == keys
            intervals.append(rec["interval"])
        assert intervals == list(range(1, len(intervals) + 1))
