"""The whole run against the seed learner, on drawn configs.

bench/yardstick holds a verbatim copy of the seed's learner modules (see its
__init__).  It is imported here read-only, under its own package name, and
never edited: the benchmark's calibration rests on it.  Every rewrite of the
learner since the seed kept every bit a RunLog records, so on every config
drawn here the two runs must have the same run_log_digest (bench/workloads.py).
This checks the learner's fast paths together, on configs no one picked by
hand; each path keeps its own oracle test as well.  The drawn configs never
reach a known step, so the known-step run of test_reference_runs is a fixed
case here: the seed learner alone must give its pinned digest.
"""

import importlib.util
import os
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcssp import learner, linear_model
from test_reference_runs import (
    KNOWN_STEP_DIGEST,
    KNOWN_STEP_GENERATOR,
    KNOWN_STEP_K,
    KNOWN_STEP_LEARNER,
)

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def _load(name, path, package_dir=None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package_dir and [package_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports find it
    spec.loader.exec_module(module)
    return module


seed = _load("bench_yardstick",
             os.path.join(BENCH, "yardstick", "__init__.py"),
             os.path.join(BENCH, "yardstick"))
run_log_digest = _load("bench_workloads_for_oracle",
                       os.path.join(BENCH, "workloads.py")).run_log_digest


@settings(max_examples=25, deadline=None)
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
    model = seed.generate_instance(seed.GeneratorSpec(**KNOWN_STEP_GENERATOR))
    log = seed.run(seed.LearnerConfig(**KNOWN_STEP_LEARNER), model,
                   [np.ones(1)] * KNOWN_STEP_K, seed=0)
    assert run_log_digest(log) == KNOWN_STEP_DIGEST
