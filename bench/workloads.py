"""The benchmark's workloads: what each one sets up, times and checks.

A workload seed expands into `parts` run seeds (seed * parts + p).  Each part
is one fixed, short unit of work on its own inputs, built through the same
JSON config the CLI reads; together the parts are the seed's fixed work.
`unit` is what gets timed; `inspect` and `reference_record` run outside the
timed region.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil

from lrcssp import cli, harness, learner, linear_model

# The acceptance reference instance (REF_SPEC / REF_CFG in tests/test_acceptance.py).
REF_GENERATOR = {"d": 2, "n_states": 5, "n_actions": 3, "gamma_goal": 0.1,
                 "l_min_target": 0.1, "seed": 7}
WIDE_GENERATOR = dict(REF_GENERATOR, d=4, n_states=30, n_actions=5)
REF_LEARNER = {"delta": 0.1, "l_min": 0.1}


def tree_digest(root):
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def run_log_digest(log):
    """sha256 of everything a RunLog records per step, episode and interval."""
    payload = {
        "step_trace": [[int(k), int(s), int(a), bool(g), bool(known)]
                       for k, s, a, g, known in log.step_trace],
        "episodes": [[e.steps, e.total_loss, e.intervals_started,
                      e.unknown_triggers, e.truncated, e.b_star_end]
                     for e in log.episodes],
        "intervals": [rec.to_event() for rec in log.interval_records],
        "unknown_counts": log.unknown_counts.tolist(),
        "totals": [log.total_steps, log.total_intervals,
                   log.truncation_count, log.doubling_events, log.epsilon],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class Part:
    """One part's inputs, as set-up leaves them for the timed unit."""

    def __init__(self, run_seed, workdir, cfg, model, contexts):
        self.run_seed = run_seed
        self.workdir = workdir
        self.cfg = cfg
        self.model = model
        self.contexts = contexts


class Outcome:
    """One unit's checked output: steps taken, output digest, failed checks."""

    def __init__(self, steps, digest, problems, records=None):
        self.steps = steps
        self.digest = digest
        self.problems = problems
        self.records = records  # {run key: {steps, intervals, final_cum_regret}}


def _run_identities(key, steps, episode_steps, trace_steps, intervals,
                    interval_records, episodes):
    """RunLog accounting identities, as a list of the ones that fail."""
    problems = []
    if not steps == episode_steps == trace_steps:
        problems.append(f"{key}: total steps {steps}, episode steps "
                        f"{episode_steps}, traced steps {trace_steps}")
    if intervals != interval_records:
        problems.append(f"{key}: {intervals} intervals but "
                        f"{interval_records} interval records")
    if intervals < episodes:
        problems.append(f"{key}: {intervals} intervals < {episodes} episodes")
    return problems


class Workload:
    """A named workload: `parts` runs of K episodes per workload seed."""

    baseline = False

    def __init__(self, name, generator, K, parts):
        self.name = name
        self.generator = generator
        self.K = K
        self.parts = parts

    def setup(self, seed, workdir):
        """Config write and parse, model generation and context draw, per part."""
        model = None
        parts = []
        for p in range(self.parts):
            run_seed = seed * self.parts + p
            part_dir = os.path.join(workdir, f"part_{p}")
            os.makedirs(part_dir, exist_ok=True)
            raw = {"generator": dict(self.generator),
                   "contexts": {"kind": "uniform", "K": self.K},
                   "learner": dict(REF_LEARNER),
                   "seeds": [run_seed],
                   "out_dir": "out",
                   "baseline_context_blind": self.baseline}
            config_path = os.path.join(part_dir, "config.json")
            with open(config_path, "w") as fh:
                json.dump(raw, fh, indent=1)
            with open(config_path) as fh:
                cfg = harness.ExperimentConfig.from_dict(json.load(fh))
            if model is None:
                model = linear_model.generate_instance(cfg.generator)
            contexts = harness.build_contexts(cfg, run_seed)
            parts.append(Part(run_seed, part_dir, cfg, model, contexts))
        return parts


class LearnerWorkload(Workload):
    """One `learner.run` per part on the list path, as the harness calls it."""

    def unit(self, part):
        return learner.run(part.cfg.learner, part.model, part.contexts,
                           seed=part.run_seed)

    def inspect(self, part, log):
        problems = _run_identities(
            f"seed {part.run_seed}", log.total_steps,
            sum(e.steps for e in log.episodes), len(log.step_trace),
            log.total_intervals, len(log.interval_records), len(log.episodes))
        return Outcome(log.total_steps, run_log_digest(log), problems)

    def reference_record(self, part, log, outcome):
        """Regret accounting and artifacts of the part's run, with their digest."""
        oracle = harness.oracle_values(part.model, part.contexts)
        curve = harness.compute_regret(log, oracle)
        summary = harness.summarize_run(log, curve, oracle,
                                        part.cfg.learner.delta)
        out = os.path.join(part.workdir, "check")
        os.makedirs(out, exist_ok=True)
        harness.write_regret_csv(os.path.join(out, "regret.csv"), log, curve)
        harness.write_events_jsonl(os.path.join(out, "events.jsonl"), log)
        harness.write_summary(os.path.join(out, "summary.txt"), summary)
        digest = tree_digest(out)
        shutil.rmtree(out)
        record = {"steps": log.total_steps,
                  "intervals": log.total_intervals,
                  "final_cum_regret": summary["final_cum_regret"]}
        return {f"lrcssp/seed_{part.run_seed}": record}, digest


class SweepWorkload(Workload):
    """`lrcssp gen`, `run --jobs 1` and `report` per part, in process."""

    baseline = True
    variants = ("lrcssp", "context_blind")

    def unit(self, part):
        # run from the part's directory: the config's relative out_dir keeps
        # the artifacts (config.json records it) free of the work path
        cwd = os.getcwd()
        os.chdir(part.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [
                    cli.main(["gen", "--config", "config.json"]),
                    cli.main(["run", "--config", "config.json",
                              "--jobs", "1"]),
                    cli.main(["report", "out"]),
                ]
        finally:
            os.chdir(cwd)
        return os.path.join(part.workdir, "out"), codes

    def inspect(self, part, result):
        out, codes = result
        problems = []
        if codes != [0, 0, 0]:
            problems.append(f"gen/run/report exit codes {codes}")
        records = {}
        for variant in self.variants:
            key = f"{variant}/seed_{part.run_seed}"
            run_dir = os.path.join(out, variant, f"seed_{part.run_seed}")
            try:
                records[key], found = _read_run_dir(key, run_dir)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"{key}: unreadable artifacts ({exc})")
                continue
            problems.extend(found)
        digest = tree_digest(out) if os.path.isdir(out) else None
        shutil.rmtree(out, ignore_errors=True)
        steps = sum(r["steps"] for r in records.values())
        return Outcome(steps, digest, problems, records)

    def reference_record(self, part, result, outcome):
        return outcome.records, outcome.digest


def _read_run_dir(key, run_dir):
    """Accounting identities of one run's artifacts, and its reference record."""
    with open(os.path.join(run_dir, "regret.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    with open(os.path.join(run_dir, "events.jsonl")) as fh:
        events = [json.loads(line) for line in fh]
    summary = harness.read_summary(os.path.join(run_dir, "summary.txt"))
    steps = int(summary["total_steps"])
    intervals = int(summary["total_intervals"])
    # events.jsonl holds one record per interval, so its steps stand in for
    # the step trace, which the artifacts do not keep
    problems = _run_identities(
        key, steps, sum(int(r["steps"]) for r in rows),
        sum(e["steps"] for e in events), intervals, len(events), len(rows))
    if sum(int(r["intervals"]) for r in rows) != intervals:
        problems.append(f"{key}: per-episode intervals do not sum to "
                        f"{intervals}")
    record = {"steps": steps, "intervals": intervals,
              "final_cum_regret": float(summary["final_cum_regret"])}
    return record, problems


WORKLOADS = {
    "ref": LearnerWorkload("ref", REF_GENERATOR, K=1000, parts=2),
    "wide": LearnerWorkload("wide", WIDE_GENERATOR, K=25, parts=24),
    "sweep": SweepWorkload("sweep", REF_GENERATOR, K=100, parts=12),
}

# A small fixed CLI pipeline checked on every run, whatever the workload seed.
GOLDEN = SweepWorkload("golden", REF_GENERATOR, K=60, parts=1)
GOLDEN_SEED = 0


def compare(records, expected, rtol):
    """Problems where records differ from the stored reference records."""
    problems = []
    for key, want in sorted(expected.items()):
        got = records.get(key)
        if got is None:
            problems.append(f"{key}: no run to compare with the reference")
            continue
        for field in ("steps", "intervals"):
            if got[field] != want[field]:
                problems.append(f"{key}: {field} {got[field]} != reference "
                                f"{want[field]}")
        a, b = got["final_cum_regret"], want["final_cum_regret"]
        if not abs(a - b) <= rtol * max(1.0, abs(b)):
            problems.append(f"{key}: final_cum_regret {a!r} != reference "
                            f"{b!r} (rtol {rtol})")
    return problems
