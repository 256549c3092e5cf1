#!/usr/bin/env python3
"""Run drawn configs through the learner and the frozen seed learner.

    python3 tools/oracle_soak.py --seed 0              # about 5 minutes
    python3 tools/oracle_soak.py --seed 3 --configs 20

Each config runs through `lrcssp.learner.run` of this checkout's src/ and
through the seed learner in bench/yardstick, both loaded read-only by
tools/ledger.py's loaders, and the two RunLogs must have the same
run_log_digest (bench/workloads.py).  The draws lean towards the paths
that the tests' draws seldom reach, plans that read an open row and known
pairs:

- one config in five is the acceptance REF_SPEC at K 1,000-3,000;
- the rest are small instances, d 1-2, S 1-3 and A 1-3, with l_min 0.5 or
  0.9 and K up to 4,000; the instance's loss floor is 0.1 or l_min.  A
  quarter of them can reach known pairs: d = S = 1, A 1-2, l_min 0.9 and
  K 2,500-4,000;
- each takes uniform or cyclic_vertices contexts, or the context-blind
  baseline, which perceives the uniform context throughout.

Each config prints as JSON, the form digest_gate.whole_run runs, with what
the learner's run covered and both digests; the first mismatch ends the
soak with exit code 1.  The last line gives the wall time and the totals
of what the runs covered: plans that read an open row (calls of
learner.evi_plan), projections (calls of estimation.project_to_stochastic),
known steps and doublings.  The run counts the two calls itself, in
RunLog.work; the soak patches no binding.
"""

import argparse
import json
import os
import random
import sys
import time

from digest_gate import whole_run
from ledger import BENCH, ROOT, load_module, load_tree

workloads = load_tree("soak", os.path.join(ROOT, "src"))
learner, linear_model = workloads.learner, workloads.linear_model
seed = load_module("bench_yardstick", os.path.join(BENCH, "yardstick"))

# configs at the default --configs take about 5 minutes on a 2-core machine
DEFAULT_CONFIGS = 75
COUNTED = ("plans", "projections", "known", "doublings")


def draw_config(rng):
    """One config from a random.Random: the generator spec, l_min, K, the
    context kind (or "blind uniform") and the run seed."""
    kind = rng.random()
    if kind < 0.2:
        generator = dict(workloads.REF_GENERATOR)
        l_min = workloads.REF_LEARNER["l_min"]
        K = rng.randint(1000, 3000)
    else:
        # a (1, 1, A) pair at l_min 0.9 is known after about 2,600 visits
        # (docs/regimes.md) unless the bound doubles, which a low loss floor
        # of the instance makes rare
        known = kind < 0.4
        l_min = 0.9 if known else rng.choice([0.5, 0.9])
        generator = {"d": 1 if known else rng.randint(1, 2),
                     "n_states": 1 if known else rng.randint(1, 3),
                     "n_actions": rng.randint(1, 2 if known else 3),
                     "gamma_goal": 0.1,
                     "l_min_target": rng.choice([0.1, l_min]),
                     "seed": rng.randint(0, 2**16)}
        K = rng.randint(2500 if known else 1, 4000)
    contexts = rng.choice(["uniform", "cyclic_vertices", "blind uniform"])
    return {"generator": generator, "l_min": l_min, "K": K,
            "contexts": contexts, "run_seed": rng.randint(0, 2**16)}


def run_config(config):
    """Both learners' run_log_digest on one config, and what the learner's
    run covered, by the names in COUNTED.  Exits if the two sides' model
    embeddings differ."""
    embeddings, spec = [], config["generator"]
    for side in (linear_model, seed):
        model = side.generate_instance(side.GeneratorSpec(**spec))
        embeddings.append((model.loss_embed.tobytes(),
                           model.trans_embed.tobytes()))
    if embeddings[0] != embeddings[1]:
        sys.exit(f"oracle_soak: model embeddings differ on "
                 f"{json.dumps(config)}")
    log = whole_run(config, learner, linear_model)
    counts = {"plans": log.work["evi_plans"],
              "projections": log.work["projections"],
              "known": sum(step[4] for step in log.step_trace),
              "doublings": log.doubling_events}
    return (workloads.run_log_digest(log),
            workloads.run_log_digest(whole_run(config, seed, seed)), counts)


def covered(counts):
    """What one run, or the whole soak, covered, on one line."""
    return (f"{counts['plans']} open-row plans, "
            f"{counts['projections']} projections, "
            f"{counts['known']} known steps, {counts['doublings']} doublings")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the config draws (default 0)")
    parser.add_argument("--configs", type=int, default=DEFAULT_CONFIGS,
                        help=f"configs to run (default {DEFAULT_CONFIGS})")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    totals = dict.fromkeys(COUNTED, 0)
    start = time.perf_counter()
    for i in range(args.configs):
        config = draw_config(rng)
        ours, theirs, counts = run_config(config)
        equal = ours == theirs
        print(f"{i} {json.dumps(config)}: {covered(counts)}\n"
              f"  learner {ours}\n  seed    {theirs} "
              f"{'equal' if equal else 'MISMATCH'}", flush=True)
        if not equal:
            return 1
        for name in COUNTED:
            totals[name] += counts[name]
    print(f"{args.configs} configs equal in "
          f"{time.perf_counter() - start:.1f} s: {covered(totals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
