"""Exact run outcomes that every change meant to keep behaviour must keep.

The expected values come from the benchmark's reference table
(bench/reference.json), which was recorded from the learner before the
stacked-statistics store: step and interval counts must match exactly and
the final cumulative regret to a relative 1e-6 (the artifacts print nine
significant digits).  Seven runs also pin every bit the RunLog records, as
the benchmark's run_log_digest (bench/workloads.py) in hex, and the golden
pipeline pins the sha256 of every artifact: a change meant to keep
behaviour keeps each of them.  Five more digests pin the paths no
benchmark part takes: truncated-uniform losses, adaptive contexts, the
l_min=0 loss floor, a refresh of a pair's inverse with projections, and
known steps, which open no interval.
"""

import collections
import hashlib
import json

import numpy as np
import pytest

import oracle_soak as soak
from digest_gate import CHECKED_RUNS, whole_run
from lrcssp import estimation, learner, linear_model
from lrcssp.cli import main
from lrcssp.harness import (
    ExperimentConfig,
    baseline_context_blind,
    build_contexts,
    compute_regret,
    oracle_values,
    read_summary,
    summarize_run,
)
from lrcssp.learner import LearnerConfig, run
from lrcssp.linear_model import (
    AdaptiveContexts,
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
)

# the acceptance REF_SPEC and REF_CFG
REF_GENERATOR = {"d": 2, "n_states": 5, "n_actions": 3, "gamma_goal": 0.1,
                 "l_min_target": 0.1, "seed": 7}
WIDE_GENERATOR = dict(REF_GENERATOR, d=4, n_states=30, n_actions=5)
LEARNER = {"delta": 0.1, "l_min": 0.1}
RTOL = 1e-6


# the soak loads bench/workloads.py by the tools' one loader
run_log_digest = soak.workloads.run_log_digest


def experiment(generator, K, seed, out_dir, baseline=False):
    return {"generator": dict(generator),
            "contexts": {"kind": "uniform", "K": K},
            "learner": dict(LEARNER), "seeds": [seed], "out_dir": out_dir,
            "baseline_context_blind": baseline}


# sha256 of every file the golden pipeline writes under out/, except
# config.json, which records the out_dir under tmp_path
GOLDEN_SHA256 = {
    "context_blind/seed_0/events.jsonl":
        "f4e7e09a3f1f5536d42afe46d1f0608c01e96f5c88f616d0b1739fe5b02a2ea1",
    "context_blind/seed_0/regret.csv":
        "dd6ee6a4b064f3620c2702c0bb24094025c75628216084d7fcb84b08a1c61f13",
    "context_blind/seed_0/summary.txt":
        "221e891855fd99381d068b0b9dbb9402199447247d9e875c2b9f33909713effb",
    "lrcssp/seed_0/events.jsonl":
        "fd31a09169901b806ca943be4abc2c45f485d19eb736ff547edb43f533e4508c",
    "lrcssp/seed_0/regret.csv":
        "f7f3ed48565698e65540e5be12f90ceddcf858059f76a138f43ebda5fceea0b7",
    "lrcssp/seed_0/summary.txt":
        "82246e1d075276fed0b0744b686eb47e8246e1c2b8b5b10696ce7b9756757f3e",
    "model.json":
        "e85ec2bc6e06ddb3e577635913e92116c595e9ddd3b21a96dc5b229ad2b18cc0",
    "plot_context_blind.csv":
        "1085d96916d54e2e11f4bd2f9f20cc36cb7d7226ef1e455255b41d2aaf7bb41e",
    "plot_lrcssp.csv":
        "5fb0e65f54ae3424ba8e583fa902d47d9f12a2ac03ca0bcaa25815bca02699a3",
    "summary.txt":
        "593587bd29d0645e23c4849d1eee3dd85dc49f97ac5cf9ddc89c5ec193d35764",
}


def test_golden_pipeline(tmp_path):
    """gen, run and report at REF_SPEC, K=60, run seed 0, both variants."""
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        experiment(REF_GENERATOR, 60, 0, str(out), baseline=True)))
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--jobs", "1"]) == 0
    assert main(["report", str(out)]) == 0
    expected = {
        "lrcssp": (158, 158, 13.8374824),
        "context_blind": (163, 163, 15.8374824),
    }
    for variant, (steps, intervals, regret) in expected.items():
        summary = read_summary(out / variant / "seed_0" / "summary.txt")
        assert int(summary["total_steps"]) == steps
        assert int(summary["total_intervals"]) == intervals
        assert float(summary["final_cum_regret"]) == pytest.approx(
            regret, rel=RTOL)
    written = {str(path.relative_to(out)): hashlib.sha256(
        path.read_bytes()).hexdigest() for path in out.rglob("*")
        if path.is_file() and path != out / "config.json"}
    assert written == GOLDEN_SHA256


# run seed -> digest: both parts of the benchmark's `ref` seeds 0 and 1009
REF_DIGESTS = {
    0: "3233a33db8d9fba8aa2de6da3d771e8e8f7ec490eb87304a5f943cac04aec6bb",
    1: "6138c488d96e894e7d89e7edf6532cd4c4a8e9542c868e0490c7e2e953667685",
    2018: "5822ff110b7955ea817e728f5a7d6a6b861f2127d5d91b950bb0e70e251ef4a0",
    2019: "008dc67442fd077980a470cd41dc05cc22260280655213de26472792a6bfc198",
}


@pytest.mark.parametrize("run_seed", sorted(REF_DIGESTS))
def test_ref_part_bits(tmp_path, run_seed):
    """REF_SPEC, K=1000: a part of the benchmark's `ref` workload."""
    cfg = ExperimentConfig.from_dict(
        experiment(REF_GENERATOR, 1000, run_seed, str(tmp_path)))
    log = run(cfg.learner, generate_instance(cfg.generator),
              build_contexts(cfg, run_seed), seed=run_seed)
    assert run_log_digest(log) == REF_DIGESTS[run_seed]


def test_context_blind_bits(tmp_path):
    """REF_SPEC, K=100, run seed 0, context-blind: the `sweep` variant, which
    perceives one context throughout, so every plan after the first is the
    one-row update."""
    cfg = ExperimentConfig.from_dict(
        experiment(REF_GENERATOR, 100, 0, str(tmp_path), baseline=True))
    log = baseline_context_blind(cfg.learner, generate_instance(cfg.generator),
                                 build_contexts(cfg, 0), seed=0)
    assert (log.total_steps, log.total_intervals) == (331, 331)
    assert run_log_digest(log) == (
        "30bde0def21fc5e3a4ac4225bd51d4252a4c583d24958fb0eef86be7bbbd7e42")


WIDE_DIGESTS = {
    2: "1a0938efa91adabc5056a425ed726e50dad4d6632a50954dccf3f274b8772594",
    4: "c72ea94e567fc289a82818fe0228563bf9d702c10956b310359aa638788e2a8c",
}


@pytest.mark.parametrize("run_seed, steps, intervals, regret", [
    (2, 153, 153, 25.677368865430882),
    (4, 112, 112, -8.203314399431703),
])
def test_wide_runs(tmp_path, run_seed, steps, intervals, regret):
    """(S, A, d) = (30, 5, 4), K=25: the benchmark's `wide` parts."""
    cfg = ExperimentConfig.from_dict(
        experiment(WIDE_GENERATOR, 25, run_seed, str(tmp_path)))
    model = generate_instance(cfg.generator)
    contexts = build_contexts(cfg, run_seed)
    log = run(cfg.learner, model, contexts, seed=run_seed)
    assert log.total_steps == steps
    assert log.total_intervals == intervals
    assert run_log_digest(log) == WIDE_DIGESTS[run_seed]
    oracle = oracle_values(model, contexts)
    summary = summarize_run(log, compute_regret(log, oracle), oracle,
                            cfg.learner.delta)
    assert summary["final_cum_regret"] == pytest.approx(regret, rel=RTOL)


def test_mixed_regime_run(tmp_path):
    """(d, S, A) = (1, 2, 2), l_min=0.5, K=150, run seed 0.

    Rows open after about 73 visits (docs/regimes.md), so the run's plans
    switch between the one-row update of an emptied plan and the full EVI
    loop: of its 244 plans, 91 read an open row and make 70 projections in
    all, 15 empty every row, and the other 138 are row updates
    (RunLog.work).  Recorded before the row update existed; the digest and
    work after it.
    """
    generator = {"d": 1, "n_states": 2, "n_actions": 2, "gamma_goal": 0.1,
                 "l_min_target": 0.1, "seed": 0}
    raw = experiment(generator, 150, 0, str(tmp_path))
    raw["learner"] = {"delta": 0.1, "l_min": 0.5}
    cfg = ExperimentConfig.from_dict(raw)
    model = generate_instance(cfg.generator)
    contexts = build_contexts(cfg, 0)
    log = run(cfg.learner, model, contexts, seed=0)
    assert (log.total_steps, log.total_intervals) == (244, 244)
    assert log.work == {"emptied_plans": 15, "evi_plans": 91,
                        "projections": 70}
    assert run_log_digest(log) == (
        "e48f565d33c6390826c9ec06aab4075d2701a064595ddade2f0da80ea2ac4c6c")
    oracle = oracle_values(model, contexts)
    summary = summarize_run(log, compute_regret(log, oracle), oracle,
                            cfg.learner.delta)
    assert summary["final_cum_regret"] == pytest.approx(12.039177846179843,
                                                        rel=RTOL)


REFRESH_DIGEST = (
    "d0f88b115d61041ebb4c7fbf374d099887cd746224b5f39b9f35548e718453c1")
REFRESH_WORK = {"emptied_plans": 211, "evi_plans": 2112, "projections": 2029}


def test_refresh_and_projection_run_bits():
    """The gate's refresh run: (d, S, A) = (2, 2, 1), l_min=0.1, K=1200
    uniform contexts from default_rng(0), run seed 0, with no doubling: pair
    (0, 0) passes REFRESH_EVERY visits, so its inverse is refreshed from V,
    and 2,029 projections read V and the next-state moments.  No benchmark
    part reaches a refresh.  Recorded before a visit's V and next-state
    moments were folded on read."""
    log = whole_run(CHECKED_RUNS["refresh_k1200/seed_0"], learner,
                    linear_model)
    assert (log.total_steps, log.total_intervals) == (2515, 2515)
    assert log.doubling_events == 0
    visits = collections.Counter((s, a) for _, s, a, _, _ in log.step_trace)
    assert visits == {(0, 0): 1679, (1, 0): 836}
    assert visits[0, 0] > estimation.REFRESH_EVERY
    assert log.work == REFRESH_WORK
    assert run_log_digest(log) == REFRESH_DIGEST


REF_SPEC = GeneratorSpec(**REF_GENERATOR)
REF_CFG = LearnerConfig(**LEARNER)


def test_truncated_uniform_bits():
    """REF_SPEC with truncated-uniform loss noise of half-width 0.05, K=1500
    uniform contexts from default_rng(0), run seed 0: two doubles per step,
    so the run spans many of the sampler's uniform blocks and table stacks.
    """
    base = generate_instance(REF_SPEC)
    model = LinearCsspModel(base.loss_embed, base.trans_embed,
                            loss_noise="truncated_uniform", noise_width=0.05)
    contexts = context_sequence("uniform", 1500, model.d,
                                rng=np.random.default_rng(0))
    log = run(REF_CFG, model, contexts, seed=0)
    assert (log.total_steps, log.total_intervals) == (5551, 5551)
    assert run_log_digest(log) == (
        "9236d24b8ca566a9b2efd2ef44633c6bc7341a0d64b54250e5df01944bef4881")


def test_adaptive_contexts_bits():
    """REF_SPEC, 300 episodes whose context an AdaptiveContexts callback
    picks from the length of the episode before, run seed 1."""
    def lean(history):
        if not history:
            return np.array([0.5, 0.5])
        w = min(1.0, history[-1].steps / 10.0)
        return np.array([w, 1.0 - w])

    log = run(REF_CFG, generate_instance(REF_SPEC),
              AdaptiveContexts(300, 2, lean), seed=1)
    assert (log.total_steps, log.total_intervals) == (1046, 1046)
    assert run_log_digest(log) == (
        "31f299268e2c4c0f586c4879d4bb649b623bb1f7baaec305e6d35842f32b65e2")


def test_perturbed_losses_bits():
    """REF_SPEC, l_min=0, so observed losses are floored at the automatic
    epsilon; K=400 uniform contexts from default_rng(1), run seed 2."""
    contexts = context_sequence("uniform", 400, 2,
                                rng=np.random.default_rng(1))
    log = run(LearnerConfig(delta=0.1, l_min=0.0), generate_instance(REF_SPEC),
              contexts, seed=2)
    assert (log.total_steps, log.total_intervals) == (1338, 1338)
    assert log.epsilon == 1.5536162529769295
    assert run_log_digest(log) == (
        "c24e569393abddf4b7db6c5fb8ee5aeb06986ade74c6629e05e0223edb3fad88")


# the known-step run, defined in tools/digest_gate.py's CHECKED_RUNS, whose
# gate prints its digest; docs/regimes.md tabulates its counts under these
# names
KNOWN_STEP = CHECKED_RUNS["known_step_k4000/seed_0"]
KNOWN_STEP_COUNTS = {
    "episodes": 4000, "steps": 4378, "intervals": 4321,
    "unknown triggers": 321, "known steps": 1196,
    "first known step (index)": 3158, "known steps that miss the goal": 57,
    "intervals with one pair of two known": 1162, "doublings": 0,
    "truncations": 0, "emptied plans": 1, "EVI plans": 4307,
    "projections": 4294}
KNOWN_STEP_DIGEST = (
    "eae59c171cdb17f5dca3f734c8e7bfaab94f6d90e3d2a21f3d91c10b6be50725")


def test_known_step_run():
    """(d, S, A) = (1, 1, 2), l_min=0.9, K=4000 contexts [1.0], run seed 0.

    A pair is known after about 2,609 visits (docs/regimes.md), so the run's
    last episodes take known steps.  The paper's accounting holds: an
    interval opens at each episode start and at each unknown step that
    misses the goal, and never at a known step.
    """
    log = whole_run(KNOWN_STEP, learner, linear_model)
    known = [i for i, step in enumerate(log.step_trace) if step[4]]
    assert {
        "episodes": len(log.episodes), "steps": log.total_steps,
        "intervals": log.total_intervals,
        "unknown triggers": log.unknown_counts.sum(),
        "known steps": len(known), "first known step (index)": known[0],
        "known steps that miss the goal": sum(
            not log.step_trace[i][3] for i in known),
        "intervals with one pair of two known": sum(
            r.known_fraction == 0.5 for r in log.interval_records),
        "doublings": log.doubling_events,
        "truncations": log.truncation_count,
        "emptied plans": log.work["emptied_plans"],
        "EVI plans": log.work["evi_plans"],
        "projections": log.work["projections"]} == KNOWN_STEP_COUNTS
    assert log.total_intervals == KNOWN_STEP["K"] + log.unknown_counts.sum()
    trace = iter(log.step_trace)
    for episode in log.episodes:
        steps = [next(trace) for _ in range(episode.steps)]
        # an interval ends at the goal or at an unknown step
        ends = [i + 1 for i, (_, _, _, goal, is_known) in enumerate(steps)
                if goal or not is_known]
        assert [r.steps for r in episode.intervals] == np.diff(
            [0] + ends).tolist()
        assert [r.trigger for r in episode.intervals[1:]] == (
            ["unknown"] * (len(ends) - 1))
    assert run_log_digest(log) == KNOWN_STEP_DIGEST
