"""The whole run against the seed learner, on drawn configs.

bench/yardstick holds a verbatim copy of the seed's learner modules (see its
__init__).  It is imported here read-only, under its own package name, and
never edited: the benchmark's calibration rests on it.  Every rewrite of the
learner since the seed kept every bit a RunLog records, so on every config
drawn here the two runs must have the same run_log_digest (bench/workloads.py).
This checks the learner's fast paths together, on configs no one picked by
hand; each path keeps its own oracle test as well.  The draw is fixed
(derandomize), so the suite's time does not move with it; tools/oracle_soak.py
draws fresh, longer configs that reach open rows and known pairs.  The
configs drawn here never reach a known step, so the known-step run of
test_reference_runs is a fixed case here: the seed learner alone must give
its pinned digest.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_soak as soak
from lrcssp import learner, linear_model
from digest_gate import known_step_run
from test_reference_runs import KNOWN_STEP_DIGEST

# the soak loads the seed learner and bench/workloads.py; both are used
# from it
seed, run_log_digest = soak.seed, soak.workloads.run_log_digest


@settings(max_examples=25, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), n_states=st.integers(1, 6),
       n_actions=st.integers(1, 4),
       l_min=st.sampled_from([0.0, 0.1, 0.5, 0.9]), K=st.integers(1, 300),
       kind=st.sampled_from(["uniform", "cyclic_vertices"]),
       blind=st.booleans(), model_seed=st.integers(0, 2**16),
       run_seed=st.integers(0, 2**16))
def test_run_equals_the_seed_learner(d, n_states, n_actions, l_min, K, kind,
                                     blind, model_seed, run_seed):
    # the context-blind baseline perceives the uniform context throughout
    spec = dict(d=d, n_states=n_states, n_actions=n_actions, gamma_goal=0.1,
                l_min_target=0.1, seed=model_seed)
    model = linear_model.generate_instance(linear_model.GeneratorSpec(**spec))
    seed_model = seed.generate_instance(seed.GeneratorSpec(**spec))
    assert model.loss_embed.tobytes() == seed_model.loss_embed.tobytes()
    assert model.trans_embed.tobytes() == seed_model.trans_embed.tobytes()
    contexts = linear_model.context_sequence(
        kind, K, d, rng=np.random.default_rng(run_seed))
    perceived = np.full((K, d), 1.0 / d) if blind else None
    log = learner.run(learner.LearnerConfig(delta=0.1, l_min=l_min), model,
                      contexts, seed=run_seed, perceived_contexts=perceived)
    seed_log = seed.run(seed.LearnerConfig(delta=0.1, l_min=l_min), seed_model,
                        list(contexts), seed=run_seed,
                        perceived_contexts=None if perceived is None
                        else list(perceived))
    assert run_log_digest(log) == run_log_digest(seed_log)


def test_seed_learner_gives_the_known_step_digest():
    # the seed learner's one module holds both the learner and the model
    log = known_step_run(seed, seed)
    assert run_log_digest(log) == KNOWN_STEP_DIGEST


# the soak's one tiny config: rows open after about 73 visits
# (docs/regimes.md), and an l_min far above 1 makes pairs known early
TINY_SOAK_CONFIG = {
    "generator": {"d": 1, "n_states": 2, "n_actions": 2, "gamma_goal": 0.1,
                  "l_min_target": 0.1, "seed": 0},
    "l_min": 20.0, "K": 150, "contexts": "uniform", "run_seed": 0}


def test_oracle_soak_on_a_tiny_config(monkeypatch, capsys):
    monkeypatch.setattr(soak, "draw_config", lambda rng: TINY_SOAK_CONFIG)
    bindings = soak.learner.evi_plan, soak.estimation.project_to_stochastic
    assert soak.main(["--seed", "0", "--configs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and out[2].endswith(" equal")
    totals = re.fullmatch(
        r"1 configs equal in [\d.]+ s: (\d+) open-row plans, "
        r"(\d+) projections, (\d+) known steps, (\d+) doublings", out[3])
    plans, projections, known, doublings = map(int, totals.groups())
    assert plans > 0 and projections > 0 and known > 0 and doublings == 0
    # the counting wrappers are gone
    assert (soak.learner.evi_plan,
            soak.estimation.project_to_stochastic) == bindings
    # a seed learner one run seed off: the soak stops at the first config
    seed_run = soak.seed.run
    monkeypatch.setattr(soak.seed, "run", lambda *args, seed, **kwargs:
                        seed_run(*args, seed=seed + 1, **kwargs))
    assert soak.main(["--seed", "0", "--configs", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[2].endswith(" MISMATCH")
