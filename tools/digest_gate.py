#!/usr/bin/env python3
"""Print the digest gate of the lrcssp package under a source directory.

    python3 tools/digest_gate.py src > gate.json
    python3 tools/digest_gate.py /path/to/other/checkout/src > other.json
    diff gate.json other.json

A change meant to keep behaviour keeps every digest printed here (ROADMAP,
"The digest gate"):

- the run_log_digest of every part of the `ref` workload at seeds 0 and 1009
  and of the `wide` workload at seeds 0 and 1;
- the artifact-tree digest of every part of the `sweep` workload at seed 0
  and of the golden pipeline;
- the run_log_digest of each whole run of CHECKED_RUNS, run by whole_run:
  the REF_SPEC K=8000 run, which reads open rows and projects; the
  known-step run, the one run here that takes known steps, so a change to
  the known test moves it; and the refresh run, whose busiest pair passes
  REFRESH_EVERY visits, so its inverse is refreshed;
- the work of each of those runs, one `<run>/work` line by work_line: its
  emptied full plans, evi_plan calls, projections (RunLog.work) and
  doublings, so a change to how much a run plans or projects moves a line
  even where no bit of the RunLog moves.

The workloads and digests are the benchmark's own (bench/workloads.py, read
only), bound to the package under <src-dir> by tools/ledger.py's load_tree.
Output is one JSON object with sorted keys, one digest or work count a line,
so two trees compare with `diff`.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from ledger import load_tree

GATE_SEEDS = {"ref": (0, 1009), "wide": (0, 1), "sweep": (0,)}
# gate line -> whole run, in tools/oracle_soak.py's config format; the
# tests of tests/test_reference_runs.py pin the last two
CHECKED_RUNS = {
    "ref_spec_k8000/seed_0": {
        "generator": {"d": 2, "n_states": 5, "n_actions": 3,
                      "gamma_goal": 0.1, "l_min_target": 0.1, "seed": 7},
        "l_min": 0.1, "K": 8000, "contexts": "uniform", "run_seed": 0},
    # one state, two actions, every context [1.0]
    "known_step_k4000/seed_0": {
        "generator": {"d": 1, "n_states": 1, "n_actions": 2,
                      "gamma_goal": 0.1, "l_min_target": 0.9, "seed": 7},
        "l_min": 0.9, "K": 4000, "contexts": "cyclic_vertices",
        "run_seed": 0},
    "refresh_k1200/seed_0": {
        "generator": {"d": 2, "n_states": 2, "n_actions": 1,
                      "gamma_goal": 0.1, "l_min_target": 0.1, "seed": 0},
        "l_min": 0.1, "K": 1200, "contexts": "uniform", "run_seed": 0},
}


def whole_run(config, learner, linear_model):
    """The RunLog of one config, run by the given learner and linear_model
    modules: a loaded tree's, or the seed learner's one module for both.

    A config is tools/oracle_soak.py's: the generator spec, l_min, K, the
    context kind, and the run seed, which also seeds the uniform contexts.
    A kind "blind <kind>" draws the contexts of <kind>, and the learner
    perceives the centre context throughout (the context-blind baseline).
    """
    spec, K, run_seed = config["generator"], config["K"], config["run_seed"]
    kind = config["contexts"]
    blind = kind.startswith("blind ")
    model = linear_model.generate_instance(linear_model.GeneratorSpec(**spec))
    contexts = linear_model.context_sequence(
        kind.removeprefix("blind "), K, spec["d"],
        rng=np.random.default_rng(run_seed))
    return learner.run(
        learner.LearnerConfig(delta=0.1, l_min=config["l_min"]), model,
        contexts, seed=run_seed,
        perceived_contexts=np.full((K, spec["d"]), 1.0 / spec["d"])
        if blind else None)


def work_line(log):
    """A RunLog's work and doublings as one gate line."""
    return ", ".join(f"{key} {count}" for key, count in dict(
        log.work, doublings=log.doubling_events).items())


def part_digests(workload, seed, workdir):
    """{key: digest} of every part of one workload seed, checked as the
    benchmark checks a unit."""
    digests = {}
    for p, part in enumerate(workload.setup(seed, workdir)):
        outcome = workload.inspect(part, workload.unit(part))
        if outcome.problems:
            sys.exit(f"digest_gate: {workload.name} seed {seed} part {p}: "
                     f"{outcome.problems}")
        digests[f"{workload.name}/seed_{seed}/part_{p}"] = outcome.digest
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the lrcssp package")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "lrcssp", "__init__.py")):
        sys.exit(f"digest_gate: no lrcssp source under {src}")
    workloads = load_tree("gate", src)
    gate = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, seeds in GATE_SEEDS.items():
            for seed in seeds:
                gate.update(part_digests(
                    workloads.WORKLOADS[name], seed,
                    os.path.join(workdir, f"{name}_{seed}")))
        gate.update(part_digests(workloads.GOLDEN, workloads.GOLDEN_SEED,
                                 os.path.join(workdir, "golden")))
    for name, config in CHECKED_RUNS.items():
        log = whole_run(config, workloads.learner, workloads.linear_model)
        gate[name] = workloads.run_log_digest(log)
        gate[f"{name}/work"] = work_line(log)
    print(json.dumps(gate, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
