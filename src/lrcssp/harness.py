"""Experiment orchestration: oracles, regret curves, diagnostics, sweeps."""

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import learner as learner_mod
from .errors import (
    ConfigError,
    ImproperPolicyError,
    LrcsspError,
    NonConvergenceError,
    StructuralError,
    check_field_types,
    is_of_type,
)
from .linear_model import (
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
    induce_ssp,
    validate_context,
)
from .ssp import check_goal_reachable, expected_hitting_time, value_iteration

SENTINEL = float("nan")


@dataclass
class OracleValues:
    """Per-episode optimal values plus empirical uniform bounds.

    v_star      : (K,) optimal value at the initial state per context
    v_star_all  : (K, S) optimal values at every state
    b_star_emp  : max optimal value over episodes and states
    t_star_emp  : max expected hitting time of the optimal policies
    """

    v_star: np.ndarray
    v_star_all: np.ndarray
    b_star_emp: float
    t_star_emp: float


# transition entries per stack of induced instances (2**22 floats, 32 MB):
# bounds the oracle's memory for large K without changing any value
ORACLE_STACK_ENTRIES = 2**22


def oracle_values(model, contexts):
    """Exact planning on every induced instance; never leaked to the learner.

    The contexts are solved as stacks of induced instances: one value
    iteration per stack, in which each context stops at its own sweep, and
    one batched hitting-time solve.  A context that induces no valid
    instance, a state no policy takes to the goal (seen before any sweep),
    no convergence, or a greedy policy that cannot reach the goal, rejects
    the model with a ConfigError naming the context.
    """
    n = model.n_states * model.n_actions * model.n_states
    chunk = max(1, ORACLE_STACK_ENTRIES // n)
    v_all, t_max = [], 0.0
    for start in range(0, len(contexts), chunk):
        try:
            ssp = induce_ssp(model, contexts[start:start + chunk])
        except StructuralError as exc:
            # a model's column mass and a context's sum each admit 1e-9,
            # so their product can exceed what an SspInstance admits
            raise ConfigError(f"model rejected: context {start + exc.index} "
                              f"induces an invalid instance ({exc})")
        try:
            check_goal_reachable(ssp.trans)
            v, pi = value_iteration(ssp)
            t_max = max(t_max, float(expected_hitting_time(ssp, pi).max()))
        except (NonConvergenceError, ImproperPolicyError) as exc:
            raise ConfigError(f"model rejected: oracle planning failed at "
                              f"context {start + exc.index} ({exc})")
        v_all.append(v)
    v_all = np.concatenate(v_all)
    return OracleValues(
        v_star=v_all[:, model.s_init].copy(),
        v_star_all=v_all,
        b_star_emp=float(v_all.max()),
        t_star_emp=t_max,
    )


@dataclass
class RegretCurve:
    """Per-episode regret accounting; truncated episodes carry NaN sentinels."""

    realized_loss: np.ndarray
    optimal_value: np.ndarray
    regret: np.ndarray  # NaN where truncated
    cum_regret: np.ndarray  # prefix sums over non-truncated episodes
    truncated: np.ndarray


def compute_regret(run_log, oracle):
    """Realized sampled losses minus the exact optimal values per episode."""
    if len(oracle.v_star) != len(run_log.episodes):
        raise ConfigError("oracle/run episode counts differ")
    realized = np.array([e.total_loss for e in run_log.episodes])
    truncated = np.array([e.truncated for e in run_log.episodes])
    regret = realized - oracle.v_star
    regret = np.where(truncated, SENTINEL, regret)
    cum = np.cumsum(np.where(truncated, 0.0, regret))
    return RegretCurve(realized, oracle.v_star.copy(), regret, cum, truncated)


def final_regret(cum_regret, truncated):
    """A seed's final cumulative regret: NaN when every episode truncated.

    Shared by the run summary and `report`, which re-derives it from the
    regret.csv columns.
    """
    if len(truncated) and all(truncated):
        return SENTINEL
    return float(cum_regret[-1])


def final_regret_mean(finals):
    """A variant's mean over its seeds' finals that are not NaN, or NaN."""
    finite = [x for x in finals if not math.isnan(x)]
    return float(np.mean(finite)) if finite else SENTINEL


def hpe_diagnostics(run_log, oracle, delta):
    """Statistical sanity report on interval losses and interval counts.

    Checks every interval's loss against 48 * B_emp * log(4m / delta) and
    reports the violating fraction; also checks the interval-count
    identity M <= K + |S||A| * max per-pair unknown triggers.
    """
    b = max(1.0, oracle.b_star_emp)
    # thresholds grow with the interval (log is monotone): none below 1's
    first = 48.0 * b * math.log(4.0 / delta)
    violations = sum(
        rec.interval_loss > 48.0 * b * math.log(4.0 * rec.interval / delta)
        for rec in run_log.interval_records if rec.interval_loss > first)
    m_total = run_log.total_intervals
    k = len(run_log.episodes)
    n_pairs = run_log.unknown_counts.size
    max_unknown = int(run_log.unknown_counts.max()) if n_pairs else 0
    interval_bound_ok = m_total <= k + n_pairs * max_unknown
    return {
        "intervals": m_total,
        "interval_loss_violations": violations,
        "violation_fraction": violations / max(1, m_total),
        "interval_count_bound_ok": bool(interval_bound_ok),
    }


def baseline_context_blind(cfg, model, contexts, seed=0):
    """Same learner, but estimation/planning always sees the uniform context."""
    perceived = np.full((len(contexts), model.d), 1.0 / model.d)
    return learner_mod.run(cfg, model, contexts, seed=seed,
                           perceived_contexts=perceived)


# ---------------------------------------------------------------------------
# experiment configuration and artifacts


@dataclass(frozen=True)
class ContextSpec:
    """A config's contexts: K of one kind, all c0 for `fixed`."""

    kind: str
    K: int
    c0: list = None

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("uniform", "cyclic_vertices", "fixed"):
            raise ConfigError(f"unknown context kind {self.kind!r}")
        if self.K < 1:
            raise ConfigError("contexts.K must be >= 1")
        if self.kind == "fixed" and self.c0 is None:
            raise ConfigError("contexts of kind 'fixed' need 'c0'")


@dataclass(frozen=True)
class ExperimentConfig:
    """A config file; --out and --seed-offset make a checked copy of it."""

    generator: GeneratorSpec
    contexts: ContextSpec
    learner: learner_mod.LearnerConfig
    seeds: list = dataclasses.field(default_factory=lambda: [0])
    out_dir: str = "out"
    baseline_context_blind: bool = False
    oracle_informed: bool = False
    model_file: str = "model.json"

    def __post_init__(self):
        check_field_types(self)
        if not all(is_of_type(s, int) for s in self.seeds):
            raise ConfigError(f"seeds must be integers, got {self.seeds!r}")
        # each seed names one run directory, and the summary counts runs
        if (not self.seeds or len(set(self.seeds)) != len(self.seeds)
                or min(self.seeds) < 0):
            raise ConfigError(
                f"seeds must be a non-empty list of distinct integers >= 0, "
                f"got {self.seeds!r}")
        if self.contexts.c0 is not None:
            try:
                validate_context(self.contexts.c0, self.generator.d)
            except (StructuralError, TypeError, ValueError) as exc:
                raise ConfigError(f"contexts.c0 rejected: {exc}") from None

    @classmethod
    def from_dict(cls, raw):
        """Parse a config; any bad key, type or value is one ConfigError
        (KeyError: a missing section; TypeError: an unknown or missing key)."""
        try:
            return cls(**dict(
                raw, generator=GeneratorSpec(**raw["generator"]),
                contexts=ContextSpec(**raw["contexts"]),
                learner=learner_mod.LearnerConfig(**raw["learner"])))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"config rejected: {exc!r}") from None

    def to_canonical_dict(self):
        """The config as from_dict reads it, keys in documented order."""
        out = dataclasses.asdict(self)
        if self.contexts.c0 is None:
            del out["contexts"]["c0"]
        return out


def model_to_dict(model):
    return {
        "format": "lrcssp-model",
        "version": 1,
        "n_states": model.n_states,
        "n_actions": model.n_actions,
        "d": model.d,
        "s_init": model.s_init,
        "loss_noise": model.loss_noise,
        "noise_width": model.noise_width,
        "loss_embed": model.loss_embed.ravel().tolist(),
        "trans_embed": model.trans_embed.ravel().tolist(),
    }


def model_from_dict(payload):
    if payload.get("format") != "lrcssp-model" or payload.get("version") != 1:
        raise ConfigError("unrecognized model file format")
    s, a, d = payload["n_states"], payload["n_actions"], payload["d"]
    return LinearCsspModel(
        loss_embed=np.array(payload["loss_embed"]).reshape(s, a, d),
        trans_embed=np.array(payload["trans_embed"]).reshape(s, a, s, d),
        s_init=payload["s_init"],
        loss_noise=payload["loss_noise"],
        noise_width=payload["noise_width"],
    )


def _fingerprint(payload):
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def model_fingerprint(model):
    return _fingerprint(model_to_dict(model))


def write_model(path, model):
    """Store the model with its fingerprint; returns the fingerprint."""
    payload = model_to_dict(model)
    payload["fingerprint"] = fingerprint = _fingerprint(payload)
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload) + "\n")
    return fingerprint


def read_model(path):
    """The model stored at path, its fingerprint checked; a malformed file
    raises a ConfigError naming it."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        stored_fp = payload.pop("fingerprint", None)
        model = model_from_dict(payload)
        if stored_fp not in (None, model_fingerprint(model)):
            raise ConfigError("fingerprint mismatch")
    except FileNotFoundError:
        raise ConfigError(f"model file missing: {path} (run 'gen' first)")
    except (LrcsspError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"model file {path} rejected: {exc!r}") from None
    return model


def _fmt(x):
    if isinstance(x, float) or not isinstance(x, (int, np.integer)):
        return f"{x:.9g}"  # floats (np.float64 too) first, the most often
    return str(int(x))  # a bool as 1 or 0


CSV_HEADER = ("episode,steps,realized_loss,optimal_value,regret,cum_regret,"
              "intervals,unknown_triggers,truncated,b_star_cur")
CSV_INTS = {"episode", "steps", "intervals", "unknown_triggers", "truncated"}


def write_regret_csv(path, run_log, curve):
    lines = [CSV_HEADER]
    for k, ep in enumerate(run_log.episodes):
        lines.append(",".join(map(_fmt, (
            k, ep.steps, curve.realized_loss[k], curve.optimal_value[k],
            curve.regret[k], curve.cum_regret[k], ep.intervals_started,
            ep.unknown_triggers, ep.truncated, ep.b_star_end))))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_regret_csv(path):
    """regret.csv's columns by name: lists of int in CSV_INTS, else float."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {name: [(int if name in CSV_INTS else float)(row[i])
                   for row in rows] for i, name in enumerate(header)}


def _json_column(values):
    """json.dumps of each of values: repr for ints or finite floats, once per
    distinct str, else (NaN, inf, mixed or numpy types) value by value."""
    kinds = set(map(type, values))
    if kinds == {int} or kinds == {float} and math.isfinite(sum(values)):
        return map(repr, values)
    if kinds == {str}:
        return map({x: json.dumps(x) for x in set(values)}.__getitem__, values)
    return map(json.dumps, values)


def write_events_jsonl(path, run_log):
    """json.dumps(rec.to_event()) + "\n" per interval record, byte for byte:
    a %-template over the event keys, filled by columns read from the
    records' slots, 128 records at a time."""
    fields = learner_mod.IntervalRecord.EVENT_FIELDS
    template = "{%s}\n" % ", ".join(json.dumps(key) + ": %s" for key in fields)
    row = attrgetter(*fields)
    records = run_log.interval_records
    with open(path, "w", newline="") as fh:
        for start in range(0, len(records), 128):  # bounds the memory held
            block = map(row, records[start:start + 128])
            columns = map(_json_column, zip(*block))
            fh.write("".join(map(template.__mod__, zip(*columns))))


def slope_statistic(curve, frac=0.1):
    """Mean per-episode regret of the last window over the first window."""
    reg = curve.regret
    ok = ~np.isnan(reg)
    k = len(reg)
    w = max(1, int(round(frac * k)))
    head = reg[:w][ok[:w]]
    tail = reg[-w:][ok[-w:]]
    head_mean = float(head.mean()) if head.size else SENTINEL
    tail_mean = float(tail.mean()) if tail.size else SENTINEL
    ratio = tail_mean / head_mean if head_mean and not math.isnan(head_mean) \
        else SENTINEL
    return head_mean, tail_mean, ratio


def summarize_run(run_log, curve, oracle, delta):
    diag = hpe_diagnostics(run_log, oracle, delta)
    head_mean, tail_mean, ratio = slope_statistic(curve)
    return {
        "episodes": len(run_log.episodes),
        "total_steps": run_log.total_steps,
        "total_intervals": run_log.total_intervals,
        "final_cum_regret": final_regret(curve.cum_regret, curve.truncated),
        "regret_head_mean": head_mean,
        "regret_tail_mean": tail_mean,
        "regret_slope_ratio": ratio,
        "truncation_count": run_log.truncation_count,
        "hpe_violation_fraction": diag["violation_fraction"],
        "interval_count_bound_ok": diag["interval_count_bound_ok"],
        "b_star_emp": oracle.b_star_emp,
        "t_star_emp": oracle.t_star_emp,
        "doubling_events": run_log.doubling_events,
        "epsilon": run_log.epsilon,
    }


def write_summary(path, summary):
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"{key}: {_fmt(summary[key])}\n"
                         for key in sorted(summary)))


def read_summary(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.rstrip("\r\n").partition(": ")
            out[key] = val
    return out


def _context_rng_seed(master_seed, seed):
    # contexts drawn from a stream independent of the environment noise
    return np.random.SeedSequence([master_seed, seed, 0xC0]).generate_state(1)[0]


def build_contexts(cfg, seed):
    rng = np.random.default_rng(_context_rng_seed(cfg.generator.seed, seed))
    spec = cfg.contexts
    return context_sequence(spec.kind, spec.K, cfg.generator.d, rng=rng,
                            c0=spec.c0)


def _run_seed(args):
    """Every variant of one seed, sharing its contexts and exact oracle."""
    cfg, model, seed, variants, out_dir = args
    contexts = build_contexts(cfg, seed)
    oracle = oracle_values(model, contexts)
    lcfg = cfg.learner
    if cfg.oracle_informed:
        lcfg = dataclasses.replace(lcfg, b_star_init=max(1.0, oracle.b_star_emp))
    out = []
    for variant in variants:
        if variant == "lrcssp":
            run_log = learner_mod.run(lcfg, model, contexts, seed=seed)
        else:
            run_log = baseline_context_blind(lcfg, model, contexts, seed=seed)
        curve = compute_regret(run_log, oracle)
        summary = summarize_run(run_log, curve, oracle, lcfg.delta)
        run_dir = os.path.join(out_dir, variant, f"seed_{seed}")
        os.makedirs(run_dir, exist_ok=True)
        write_regret_csv(os.path.join(run_dir, "regret.csv"), run_log, curve)
        write_events_jsonl(os.path.join(run_dir, "events.jsonl"), run_log)
        write_summary(os.path.join(run_dir, "summary.txt"), summary)
        out.append((variant, seed, summary))
    return out


def aggregate_summaries(per_run):
    """Mean/median/IQR of final cumulative regret per variant."""
    out, by_variant = {}, {}
    for variant, seed, summary in per_run:
        by_variant.setdefault(variant, []).append(summary)
    for variant, summaries in sorted(by_variant.items()):
        finals = [s["final_cum_regret"] for s in summaries]
        finite = np.array([x for x in finals if not math.isnan(x)])
        q25, q75 = (np.percentile(finite, [25, 75]) if finite.size
                    else (SENTINEL, SENTINEL))
        out[variant] = {
            "runs": len(summaries),
            "final_regret_mean": final_regret_mean(finals),
            "final_regret_median": float(np.median(finite)) if finite.size
            else SENTINEL,
            "final_regret_iqr": float(q75 - q25),
            "truncation_count": int(sum(s["truncation_count"]
                                        for s in summaries)),
            "hpe_violation_fraction": float(np.mean(
                [s["hpe_violation_fraction"] for s in summaries])),
            "b_star_emp": float(max(s["b_star_emp"] for s in summaries)),
            "t_star_emp": float(max(s["t_star_emp"] for s in summaries)),
        }
    return out


def run_experiment(cfg, model=None, jobs=1):
    """Full pipeline: model -> contexts -> learner runs -> artifact files.

    Deterministic per (generator seed, run seeds); jobs only parallelizes
    independent seeds, with at most one worker per seed.
    """
    if model is None:
        model = generate_instance(cfg.generator)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config.json"), "w", newline="") as fh:
        fh.write(json.dumps(cfg.to_canonical_dict(), indent=1) + "\n")
    variants = ["lrcssp"]
    if cfg.baseline_context_blind:
        variants.append("context_blind")
    tasks = [(cfg, model, seed, variants, cfg.out_dir) for seed in cfg.seeds]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: a serial run does not pay for the pool's modules
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_run_seed, tasks))
    else:
        per_seed = [_run_seed(t) for t in tasks]
    # seed-major, so each variant's summaries still aggregate in seed order
    per_run = [run for runs in per_seed for run in runs]
    agg = aggregate_summaries(per_run)
    lines = [f"model_fingerprint: {model_fingerprint(model)}"]
    for variant in sorted(agg):
        for key in sorted(agg[variant]):
            lines.append(f"{variant}.{key}: {_fmt(agg[variant][key])}")
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return per_run, agg
