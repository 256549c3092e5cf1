"""Experiment orchestration: oracles, regret curves, diagnostics, sweeps."""

import dataclasses
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import learner as learner_mod
from .errors import ConfigError, NonConvergenceError
from .linear_model import (
    GeneratorSpec,
    LinearCsspModel,
    context_sequence,
    generate_instance,
    induce_ssp,
    validate_model,
)
from .ssp import expected_hitting_time, value_iteration

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


def oracle_values(model, contexts):
    """Exact planning on every induced instance; never leaked to the learner."""
    v_init, v_all, t_max = [], [], 0.0
    for c in contexts:
        ssp = induce_ssp(model, c)
        try:
            v, pi = value_iteration(ssp)
        except NonConvergenceError as exc:
            raise ConfigError(f"model rejected: oracle planning failed ({exc})")
        v_init.append(float(v[model.s_init]))
        v_all.append(v)
        t_max = max(t_max, float(expected_hitting_time(ssp, pi).max()))
    v_all = np.array(v_all)
    return OracleValues(
        v_star=np.array(v_init),
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
    K = len(run_log.episodes)
    if len(oracle.v_star) != K:
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


def hpe_diagnostics(run_log, oracle, delta):
    """Statistical sanity report on interval losses and interval counts.

    Checks every interval's loss against 48 * B_emp * log(4m / delta) and
    reports the violating fraction; also asserts the interval-count
    identity M <= K + |S||A| * max per-pair unknown triggers.
    """
    b = max(1.0, oracle.b_star_emp)
    violations = 0
    for rec in run_log.interval_records:
        bound = 48.0 * b * math.log(4.0 * rec.m / delta)
        if rec.interval_loss > bound:
            violations += 1
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
        "max_unknown_triggers": max_unknown,
        "unknown_counts": run_log.unknown_counts.tolist(),
    }


def baseline_context_blind(cfg, model, contexts, seed=0):
    """Same learner, but estimation/planning always sees the uniform context."""
    uniform = np.full(model.d, 1.0 / model.d)
    perceived = [uniform] * len(contexts)
    return learner_mod.run(cfg, model, contexts, seed=seed,
                           perceived_contexts=perceived)


# ---------------------------------------------------------------------------
# experiment configuration and artifacts


_LEARNER_KEYS = {"delta", "lam", "l_min", "epsilon_perturb", "b_star_init",
                 "evi_tol", "evi_max_iter", "episode_step_cap"}
_GENERATOR_KEYS = {"d", "n_states", "n_actions", "gamma_goal",
                   "l_min_target", "seed"}
_CONTEXT_KEYS = {"kind", "K", "c0"}
_TOP_KEYS = {"generator", "contexts", "learner", "seeds", "out_dir",
             "baseline_context_blind", "oracle_informed", "model_file"}


@dataclass
class ExperimentConfig:
    generator: GeneratorSpec
    context_kind: str
    K: int
    learner: learner_mod.LearnerConfig
    seeds: list
    out_dir: str
    baseline_context_blind: bool = False
    oracle_informed: bool = False
    model_file: str = "model.json"
    c0: list = None

    @classmethod
    def from_dict(cls, raw):
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for section, allowed in (("generator", _GENERATOR_KEYS),
                                 ("contexts", _CONTEXT_KEYS),
                                 ("learner", _LEARNER_KEYS)):
            if section not in raw:
                raise ConfigError(f"missing config section {section!r}")
            bad = set(raw[section]) - allowed
            if bad:
                raise ConfigError(f"unknown keys in {section!r}: {sorted(bad)}")
        ctx = raw["contexts"]
        if "kind" not in ctx or "K" not in ctx:
            raise ConfigError("contexts section needs 'kind' and 'K'")
        return cls(
            generator=GeneratorSpec(**raw["generator"]),
            context_kind=ctx["kind"],
            K=int(ctx["K"]),
            c0=ctx.get("c0"),
            learner=learner_mod.LearnerConfig(**raw["learner"]),
            seeds=[int(s) for s in raw.get("seeds", [0])],
            out_dir=str(raw.get("out_dir", "out")),
            baseline_context_blind=bool(raw.get("baseline_context_blind", False)),
            oracle_informed=bool(raw.get("oracle_informed", False)),
            model_file=str(raw.get("model_file", "model.json")),
        )

    def to_canonical_dict(self):
        """Documented canonical key order for round-tripping."""
        gen = self.generator
        lrn = self.learner
        out = {
            "generator": {
                "d": gen.d, "n_states": gen.n_states,
                "n_actions": gen.n_actions, "gamma_goal": gen.gamma_goal,
                "l_min_target": gen.l_min_target, "seed": gen.seed,
            },
            "contexts": {"kind": self.context_kind, "K": self.K},
            "learner": {
                "delta": lrn.delta, "lam": lrn.lam, "l_min": lrn.l_min,
                "epsilon_perturb": lrn.epsilon_perturb,
                "b_star_init": lrn.b_star_init, "evi_tol": lrn.evi_tol,
                "evi_max_iter": lrn.evi_max_iter,
                "episode_step_cap": lrn.episode_step_cap,
            },
            "seeds": list(self.seeds),
            "out_dir": self.out_dir,
            "baseline_context_blind": self.baseline_context_blind,
            "oracle_informed": self.oracle_informed,
            "model_file": self.model_file,
        }
        if self.c0 is not None:
            out["contexts"]["c0"] = list(self.c0)
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


def model_fingerprint(model):
    blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.9g}"


CSV_HEADER = ("episode,steps,realized_loss,optimal_value,regret,cum_regret,"
              "intervals,unknown_triggers,truncated,b_star_cur")


def write_regret_csv(path, run_log, curve):
    lines = [CSV_HEADER]
    for k, ep in enumerate(run_log.episodes):
        lines.append(",".join([
            str(k), str(ep.steps), _fmt(curve.realized_loss[k]),
            _fmt(curve.optimal_value[k]), _fmt(curve.regret[k]),
            _fmt(curve.cum_regret[k]), str(ep.intervals_started),
            str(ep.unknown_triggers), _fmt(bool(ep.truncated)),
            _fmt(ep.b_star_end),
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_events_jsonl(path, run_log):
    with open(path, "w", newline="") as fh:
        for rec in run_log.interval_records:
            fh.write(json.dumps(rec.to_event()) + "\n")


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
        for key in sorted(summary):
            fh.write(f"{key}: {_fmt(summary[key])}\n")


def read_summary(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.strip().partition(": ")
            out[key] = val
    return out


def _context_rng_seed(master_seed, seed):
    # contexts drawn from a stream independent of the environment noise
    return np.random.SeedSequence([master_seed, seed, 0xC0]).generate_state(1)[0]


def build_contexts(cfg, seed):
    rng = np.random.default_rng(_context_rng_seed(cfg.generator.seed, seed))
    return context_sequence(cfg.context_kind, cfg.K, cfg.generator.d,
                            rng=rng, c0=cfg.c0)


def _single_run(cfg, model, seed, variant):
    contexts = build_contexts(cfg, seed)
    lcfg = cfg.learner
    oracle = oracle_values(model, contexts)
    if cfg.oracle_informed:
        lcfg = dataclasses.replace(lcfg, b_star_init=max(1.0, oracle.b_star_emp))
    if variant == "lrcssp":
        run_log = learner_mod.run(lcfg, model, contexts, seed=seed)
    elif variant == "context_blind":
        run_log = baseline_context_blind(lcfg, model, contexts, seed=seed)
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    curve = compute_regret(run_log, oracle)
    summary = summarize_run(run_log, curve, oracle, lcfg.delta)
    return run_log, curve, summary


def _run_and_write(args):
    cfg, model_payload, seed, variant, out_dir = args
    model = model_from_dict(model_payload)
    run_log, curve, summary = _single_run(cfg, model, seed, variant)
    run_dir = os.path.join(out_dir, variant, f"seed_{seed}")
    os.makedirs(run_dir, exist_ok=True)
    write_regret_csv(os.path.join(run_dir, "regret.csv"), run_log, curve)
    write_events_jsonl(os.path.join(run_dir, "events.jsonl"), run_log)
    write_summary(os.path.join(run_dir, "summary.txt"), summary)
    return variant, seed, summary


def aggregate_summaries(per_run):
    """Mean/median/IQR of final cumulative regret per variant."""
    out = {}
    by_variant = {}
    for variant, seed, summary in per_run:
        by_variant.setdefault(variant, []).append(summary)
    for variant, summaries in sorted(by_variant.items()):
        finals = np.array([s["final_cum_regret"] for s in summaries])
        finite = finals[~np.isnan(finals)]
        q25, q75 = (np.percentile(finite, [25, 75]) if finite.size
                    else (SENTINEL, SENTINEL))
        out[variant] = {
            "runs": len(summaries),
            "final_regret_mean": float(finite.mean()) if finite.size else SENTINEL,
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
    independent seeds.
    """
    if model is None:
        model = generate_instance(cfg.generator)
    violations = validate_model(model)
    if violations:
        raise ConfigError(f"model invalid: {violations[0]}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    model_payload = model_to_dict(model)
    with open(os.path.join(cfg.out_dir, "config.json"), "w", newline="") as fh:
        json.dump(cfg.to_canonical_dict(), fh, indent=1)
        fh.write("\n")
    variants = ["lrcssp"]
    if cfg.baseline_context_blind:
        variants.append("context_blind")
    tasks = [(cfg, model_payload, seed, variant, cfg.out_dir)
             for variant in variants for seed in cfg.seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_run = list(pool.map(_run_and_write, tasks))
    else:
        per_run = [_run_and_write(t) for t in tasks]
    agg = aggregate_summaries(per_run)
    lines = [f"model_fingerprint: {model_fingerprint(model)}"]
    for variant in sorted(agg):
        for key in sorted(agg[variant]):
            lines.append(f"{variant}.{key}: {_fmt(agg[variant][key])}")
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return per_run, agg
