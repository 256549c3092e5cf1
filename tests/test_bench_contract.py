"""The benchmark's tracer still finds what it times in the package.

bench/tracer.py patches package bindings by name and reads fields of the
values they return.  A change to src/ that breaks either would otherwise
show only when the benchmark runs.
"""

import os

import numpy as np

from lrcssp import cli, learner
from lrcssp.linear_model import GeneratorSpec, context_sequence, generate_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# rows open after about 73 visits (docs/regimes.md), so some plans run EVI
OPEN_ROWS_SPEC = GeneratorSpec(d=1, n_states=2, n_actions=2, gamma_goal=0.1,
                               l_min_target=0.1, seed=0)

# bindings the tracer still names but the package no longer has; their
# metrics read 0 until the benchmark's trace points are brought up to date
STALE = {
    "lrcssp.estimation.compute_pair_estimate",
    "SaStatistics.context_norm",
    "lrcssp.estimation.is_known",
    "SaStatistics.record_visit",
    "lrcssp.ssp.bellman_backup",
}


def test_tracer_patches_observes_and_restores(monkeypatch):
    for path in ("bench", "src"):
        monkeypatch.syspath_prepend(os.path.join(ROOT, path))
    import tracer

    originals = [(owner, attr, vars(owner).get(attr))
                 for _, bindings, _ in tracer.TRACE_POINTS
                 for owner, attr in bindings]
    model = generate_instance(OPEN_ROWS_SPEC)
    contexts = context_sequence("uniform", 150, model.d,
                                rng=np.random.default_rng(0))
    t = tracer.Tracer()
    t.install()
    try:
        log = learner.run(learner.LearnerConfig(delta=0.1, l_min=0.5), model,
                          contexts, seed=0)
    finally:
        t.remove()

    assert t.missing <= STALE
    calls = t.span_counts(tracer.SETUP_REQUEST)
    assert calls["learner.run"] == 1
    assert calls["learner.sampler"] == log.total_steps
    # every interval opens through start_interval, so the traced
    # learner.intervals_per_step counts each one
    assert calls["learner.start_interval"] == log.total_intervals
    # the tracer observes each evi_plan call the run counts itself, and
    # only some plans read an open row and run it
    plans = calls["learner.evi_plan"]
    assert 0 < plans == log.work["evi_plans"] < log.total_intervals
    assert len(t.observed["learner.evi_plan.iters"]) == plans
    assert len(t.observed["learner.evi_plan.converged"]) == plans
    for owner, attr, original in originals:
        assert vars(owner).get(attr) is original, (owner, attr)


def test_tracer_times_cli_commands_through_the_kept_parser(monkeypatch,
                                                           tmp_path):
    for path in ("bench", "src"):
        monkeypatch.syspath_prepend(os.path.join(ROOT, path))
    import tracer

    cli.build_parser()  # built before the tracer patches cli
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["report", str(tmp_path / "missing")])
    finally:
        t.remove()
    assert code == 2
    calls = t.span_counts(tracer.SETUP_REQUEST)
    assert calls["cli.report"] == 1
    assert calls["cli.gen"] == calls["cli.run"] == 0
