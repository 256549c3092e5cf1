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
- the run_log_digest of the REF_SPEC K=8000 run (uniform contexts from
  default_rng(0), run seed 0), which reads open rows and projects;
- the run_log_digest of the known-step run (known_step_run), the one run
  here that takes known steps, so a change to the known test moves it.

The workloads and digests are the benchmark's own (bench/workloads.py, read
only), bound to the package under <src-dir> by tools/ledger.py's load_tree.
Output is one JSON object with sorted keys, one digest a line, so two trees
compare with `diff`.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from ledger import load_tree

GATE_SEEDS = {"ref": (0, 1009), "wide": (0, 1), "sweep": (0,)}
LONG_K = 8000
# the known-step run: one state, two actions, KNOWN_STEP_K episodes at the
# single context [1.0], run seed 0 (tests/test_reference_runs.py pins it)
KNOWN_STEP_GENERATOR = {"d": 1, "n_states": 1, "n_actions": 2,
                        "gamma_goal": 0.1, "l_min_target": 0.9, "seed": 7}
KNOWN_STEP_LEARNER = {"delta": 0.1, "l_min": 0.9}
KNOWN_STEP_K = 4000


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


def long_run_digest(workloads):
    """run_log_digest of the REF_SPEC run at K = LONG_K."""
    learner, linear_model = workloads.learner, workloads.linear_model
    model = linear_model.generate_instance(
        linear_model.GeneratorSpec(**workloads.REF_GENERATOR))
    contexts = linear_model.context_sequence(
        "uniform", LONG_K, model.d, rng=np.random.default_rng(0))
    log = learner.run(learner.LearnerConfig(**workloads.REF_LEARNER), model,
                      contexts, seed=0)
    return workloads.run_log_digest(log)


def known_step_run(learner, linear_model):
    """The known-step run's RunLog, by the given learner and linear_model
    modules of one tree."""
    return learner.run(
        learner.LearnerConfig(**KNOWN_STEP_LEARNER),
        linear_model.generate_instance(
            linear_model.GeneratorSpec(**KNOWN_STEP_GENERATOR)),
        np.ones((KNOWN_STEP_K, 1)), seed=0)


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
    gate[f"ref_spec_k{LONG_K}/seed_0"] = long_run_digest(workloads)
    gate[f"known_step_k{KNOWN_STEP_K}/seed_0"] = workloads.run_log_digest(
        known_step_run(workloads.learner, workloads.linear_model))
    print(json.dumps(gate, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
