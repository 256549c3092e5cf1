#!/usr/bin/env python3
"""Regenerate bench/reference.json: the expected per-seed run records.

    python3 bench/make_reference.py

For every workload and every seed in SEEDS (plus the held-out seed) it runs
each part once and stores, per learner run, the exact step and interval counts and
the final cumulative regret.  `bench.py` compares against these when the
workload seed is in the table, and against the golden CLI pipeline always.
Regenerate only when the learner's behaviour is meant to change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

SEEDS = list(range(20))
HELD_OUT_SEED = 1009
REGRET_RTOL = 1e-6


def records_for(wl, seed, workdir):
    records = {}
    for part in wl.setup(seed, workdir):
        output = wl.unit(part)
        outcome = wl.inspect(part, output)
        if outcome.problems:
            raise SystemExit(f"{wl.name} seed {seed}: {outcome.problems}")
        records.update(wl.reference_record(part, output, outcome)[0])
    return records


def main():
    workdir = os.path.join(HERE, "out", "make-reference")
    table = {"regret_rtol": REGRET_RTOL, "held_out_seed": HELD_OUT_SEED,
             "golden": {str(workloads.GOLDEN_SEED): records_for(
                 workloads.GOLDEN, workloads.GOLDEN_SEED, workdir)}}
    try:
        for name, wl in workloads.WORKLOADS.items():
            table[name] = {}
            for seed in SEEDS + [HELD_OUT_SEED]:
                table[name][str(seed)] = records_for(wl, seed, workdir)
                print(name, seed, file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_table(table, os.path.join(HERE, "reference.json"))


def write_table(table, path):
    """JSON with one line per workload seed, so a diff shows which seeds moved."""
    lines = []
    for key, value in sorted(table.items()):
        if isinstance(value, dict):
            rows = [f'  "{seed}": {json.dumps(value[seed], sort_keys=True)}'
                    for seed in sorted(value, key=int)]
            lines.append(f' "{key}": {{\n' + ",\n".join(rows) + "\n }")
        else:
            lines.append(f' "{key}": {json.dumps(value)}')
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
