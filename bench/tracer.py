"""In-memory span tracer that times the lrcssp layers from outside the package.

Each traced function is replaced, at the binding its callers look up at call
time (a module global, a class attribute, or a CLI handler that
`build_parser` reads when `main` runs), by a wrapper that records one span:
name, start, end, parent span and request id.  No source file of the package
changes, and the original bindings come back when tracing stops.

Spans go into flat arrays while the program runs and are written out once,
at the end.  Self time is the span's duration minus the durations of its
direct children; spans nest strictly because the traced code is
single-threaded.
"""

import os
import time
from array import array

import numpy as np

from lrcssp import cli, estimation, harness, learner, linear_model, ssp

# request ids for spans that belong to no timed unit
SETUP_REQUEST = -1
CHECK_REQUEST = -2


def _observe_run(observed, args, result):
    observed.setdefault("learner.doubling_events", []).append(
        result.doubling_events)


def _observe_evi(observed, args, result):
    observed.setdefault("learner.evi_plan.iters", []).append(result.iterations)
    observed.setdefault("learner.evi_plan.converged", []).append(
        bool(result.converged))


def _observe_known(observed, args, result):
    observed.setdefault("estimation.is_known.passed", []).append(bool(result))


def _observe_oracle(observed, args, result):
    observed.setdefault("harness.oracle_values.contexts", []).append(
        len(result.v_star))


def _observe_bytes(observed, args, result):
    observed.setdefault("harness.artifacts.bytes", []).append(
        os.path.getsize(args[0]))


# (span name, call-site bindings, observer of the return value)
TRACE_POINTS = [
    ("learner.run", [(learner, "run")], _observe_run),
    ("learner.start_interval", [(learner.Learner, "start_interval")], None),
    ("learner.snapshot_estimates",
     [(learner.Learner, "snapshot_estimates")], None),
    ("learner.evi_plan", [(learner, "evi_plan")], _observe_evi),
    ("learner.sampler", [(learner._EpisodeSampler, "step")], None),
    ("estimation.compute_pair_estimate",
     [(estimation, "compute_pair_estimate")], None),
    ("estimation.project_to_stochastic",
     [(estimation, "project_to_stochastic")], None),
    ("estimation.capped_simplex_pass",
     [(estimation, "_capped_simplex_columns")], None),
    ("estimation.context_norm",
     [(estimation.SaStatistics, "context_norm")], None),
    ("estimation.is_known", [(estimation, "is_known")], _observe_known),
    ("estimation.record_visit",
     [(estimation.SaStatistics, "record_visit")], None),
    ("ssp.value_iteration",
     [(ssp, "value_iteration"), (harness, "value_iteration")], None),
    ("ssp.bellman_backup", [(ssp, "bellman_backup")], None),
    ("ssp.expected_hitting_time",
     [(ssp, "expected_hitting_time"), (harness, "expected_hitting_time")],
     None),
    ("linear_model.induce_ssp",
     [(linear_model, "induce_ssp"), (harness, "induce_ssp")], None),
    ("linear_model.generate_instance",
     [(linear_model, "generate_instance"), (harness, "generate_instance"),
      (cli, "generate_instance")], None),
    ("linear_model.context_sequence",
     [(linear_model, "context_sequence"), (harness, "context_sequence")],
     None),
    ("harness.oracle_values", [(harness, "oracle_values")], _observe_oracle),
    ("harness.artifacts",
     [(harness, "write_regret_csv"), (harness, "write_events_jsonl"),
      (harness, "write_summary")], _observe_bytes),
    ("harness.accounting",
     [(harness, "compute_regret"), (harness, "summarize_run"),
      (harness, "aggregate_summaries")], None),
    ("cli.gen", [(cli, "cmd_gen")], None),
    ("cli.run", [(cli, "cmd_run")], None),
    ("cli.report", [(cli, "cmd_report")], None),
]


class Tracer:
    """Span recorder; `install()` patches the trace points, `remove()` undoes it."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACE_POINTS]
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.observed = {}
        self.request_id = SETUP_REQUEST
        self.missing = set()  # bindings absent from this version of the package
        self._stack = []
        self._patches = []

    def install(self):
        for nid, (_, bindings, observe) in enumerate(TRACE_POINTS):
            for owner, attr in bindings:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(original, nid, observe))
                self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original, nid, observe):
        stack, observed = self._stack, self.observed
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(observed, args, result)
            return result

        return traced

    def arrays(self):
        """Spans as numpy columns: name id, parent index, request id, start, end."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.request, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def write(self, path):
        name_id, parent, request, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, request=request, start=start,
                            end=end)

    def span_counts(self, request_id):
        """Calls per span name within one request (for the exact-repeat check)."""
        name_id, _, request, _, _ = self.arrays()
        counts = np.bincount(name_id[request == request_id],
                             minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def layer_metrics(self, overhead_frac):
        """Per-layer figures over every span recorded, keyed by metric name."""
        name_id, parent, _, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested],
                                 minlength=len(dur))
        self_time = dur - child_time
        ids = {name: i for i, name in enumerate(self.names)}

        def sel(name):
            return name_id == ids[name]

        def calls(name):
            return int(sel(name).sum())

        def secs(name):
            return float(dur[sel(name)].sum())

        def self_secs(name):
            return float(self_time[sel(name)].sum())

        def mean(values):
            return float(np.mean(values)) if len(values) else 0.0

        obs = self.observed
        out = {}
        out["learner.run.calls"] = calls("learner.run")
        out["learner.run.s"] = secs("learner.run")
        si = "learner.start_interval"
        si_ms = dur[sel(si)] * 1e3
        out[si + ".calls"] = calls(si)
        out[si + ".s"] = secs(si)
        out[si + ".self_s"] = self_secs(si)
        out[si + ".ms_p50"] = float(np.percentile(si_ms, 50)) if si_ms.size else 0.0
        out[si + ".ms_p99"] = float(np.percentile(si_ms, 99)) if si_ms.size else 0.0
        steps = calls("learner.sampler")
        out["learner.intervals_per_step"] = calls(si) / steps if steps else 0.0
        out["learner.doubling_events"] = int(sum(obs.get("learner.doubling_events", [])))
        evi_iters = obs.get("learner.evi_plan.iters", [])
        out["learner.evi_plan.calls"] = calls("learner.evi_plan")
        out["learner.evi_plan.s"] = secs("learner.evi_plan")
        out["learner.evi_plan.iters_mean"] = mean(evi_iters)
        out["learner.evi_plan.iters_max"] = int(max(evi_iters, default=0))
        out["learner.evi_plan.unconverged"] = int(sum(
            not ok for ok in obs.get("learner.evi_plan.converged", [])))
        out["learner.snapshot_estimates.self_s"] = self_secs("learner.snapshot_estimates")
        out["learner.sampler.calls"] = steps
        out["learner.sampler.s"] = secs("learner.sampler")

        for name in ("estimation.compute_pair_estimate",
                     "estimation.context_norm", "estimation.record_visit"):
            out[name + ".calls"] = calls(name)
            out[name + ".s"] = secs(name)
        proj = "estimation.project_to_stochastic"
        passes_per_span = np.bincount(
            parent[sel("estimation.capped_simplex_pass") & nested],
            minlength=len(dur))
        passes = passes_per_span[sel(proj)]
        out[proj + ".calls"] = calls(proj)
        out[proj + ".s"] = secs(proj)
        out[proj + ".iters_mean"] = mean(passes)
        out[proj + ".feasible_ratio"] = mean(passes == 0)
        known = "estimation.is_known"
        out[known + ".calls"] = calls(known)
        out[known + ".s"] = secs(known)
        out[known + ".pass_ratio"] = mean(obs.get(known + ".passed", []))

        for name in ("ssp.value_iteration", "ssp.expected_hitting_time",
                     "linear_model.induce_ssp"):
            out[name + ".calls"] = calls(name)
            out[name + ".s"] = secs(name)
        out["ssp.bellman_backup.calls"] = calls("ssp.bellman_backup")
        out["linear_model.generate_instance.s"] = secs("linear_model.generate_instance")
        out["linear_model.context_sequence.s"] = secs("linear_model.context_sequence")

        oracle = "harness.oracle_values"
        oracle_s = secs(oracle)
        contexts = sum(obs.get(oracle + ".contexts", []))
        out[oracle + ".calls"] = calls(oracle)
        out[oracle + ".s"] = oracle_s
        out[oracle + ".self_s"] = self_secs(oracle)
        out[oracle + ".contexts_per_s"] = contexts / oracle_s if oracle_s else 0.0
        out["harness.artifacts.s"] = secs("harness.artifacts")
        out["harness.artifacts.bytes"] = int(sum(obs.get("harness.artifacts.bytes", [])))
        out["harness.accounting.s"] = secs("harness.accounting")
        for name in ("cli.gen", "cli.run", "cli.report"):
            out[name + ".s"] = secs(name)
        out["trace.overhead_frac"] = overhead_frac
        return out
