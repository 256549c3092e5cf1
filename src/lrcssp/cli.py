"""Command-line surface: gen | run | report, driven by a JSON config file.

Exit codes: 0 success, 1 runtime failure, 2 config/usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, LrcsspError
from .harness import (
    ExperimentConfig,
    SENTINEL,
    aggregate_summaries,
    final_regret,
    generate_instance,
    model_fingerprint,
    model_from_dict,
    model_to_dict,
    read_summary,
    run_experiment,
    validate_model,
    _fmt,
)


def _load_config(path, out_override=None, seed_offset=0):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = ExperimentConfig.from_dict(raw)
    if out_override:
        cfg.out_dir = out_override
    if seed_offset:
        cfg.seeds = [s + seed_offset for s in cfg.seeds]
    return cfg


def _model_path(cfg):
    path = cfg.model_file
    if not os.path.isabs(path):
        path = os.path.join(cfg.out_dir, path)
    return path


def cmd_gen(args):
    cfg = _load_config(args.config, args.out, args.seed_offset)
    model = generate_instance(cfg.generator)
    violations = validate_model(model)
    if violations:
        raise ConfigError(f"generated model invalid: {violations[0]}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = _model_path(cfg)
    payload = model_to_dict(model)
    payload["fingerprint"] = model_fingerprint(model)
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    print(f"wrote {path} fingerprint={payload['fingerprint']}")
    return 0


def cmd_run(args):
    cfg = _load_config(args.config, args.out, args.seed_offset)
    path = _model_path(cfg)
    if not os.path.exists(path):
        raise ConfigError(f"model file missing: {path} (run 'gen' first)")
    with open(path) as fh:
        payload = json.load(fh)
    stored_fp = payload.pop("fingerprint", None)
    model = model_from_dict(payload)
    if stored_fp is not None and stored_fp != model_fingerprint(model):
        raise ConfigError("model file fingerprint mismatch")
    per_run, agg = run_experiment(cfg, model=model, jobs=args.jobs)
    for variant in sorted(agg):
        print(f"{variant}: final regret mean "
              f"{_fmt(agg[variant]['final_regret_mean'])} over "
              f"{agg[variant]['runs']} seeds")
    return 0


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    return cols


def cmd_report(args):
    run_dir = args.run_dir
    variants = sorted(
        d for d in (os.listdir(run_dir) if os.path.isdir(run_dir) else [])
        if os.path.isdir(os.path.join(run_dir, d))
    )
    if not variants:
        raise ConfigError(f"no run variants found under {run_dir}")
    stored = read_summary(os.path.join(run_dir, "summary.txt"))
    print(f"{'variant':<16}{'runs':>6}{'final_regret_mean':>20}"
          f"{'truncations':>13}")
    for variant in variants:
        vdir = os.path.join(run_dir, variant)
        seeds = sorted(d for d in os.listdir(vdir) if d.startswith("seed_"))
        finals, truncs, curves = [], 0, {}
        for sd in seeds:
            cols = _read_csv(os.path.join(vdir, sd, "regret.csv"))
            truncated = [int(t) for t in cols["truncated"]]
            curves[sd] = [float(x) for x in cols["cum_regret"]]
            finals.append(final_regret(curves[sd], truncated))
            truncs += sum(truncated)
        finite = [f for f in finals if not np.isnan(f)]
        mean = float(np.mean(finite)) if finite else SENTINEL
        stored_mean = stored.get(f"{variant}.final_regret_mean")
        # CSV cells are rounded to 9 significant digits, so the recomputed
        # mean can differ from the stored full-precision one in the last
        # digit; a variant whose every seed truncated stores nan
        if stored_mean is not None and not np.isclose(
                mean, float(stored_mean), rtol=1e-7, atol=1e-9,
                equal_nan=True):
            raise LrcsspError(
                f"recomputed mean {_fmt(mean)} != stored {stored_mean} "
                f"for {variant}")
        print(f"{variant:<16}{len(seeds):>6}{_fmt(mean):>20}{truncs:>13}")
        # plot-ready data: mean cumulative regret per episode across seeds
        arr = np.array(list(curves.values()))
        plot_path = os.path.join(run_dir, f"plot_{variant}.csv")
        with open(plot_path, "w", newline="") as fh:
            fh.write("episode,cum_regret_mean\n")
            for k, val in enumerate(arr.mean(axis=0)):
                fh.write(f"{k},{_fmt(val)}\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrcssp",
        description="Linear contextual shortest-path learner benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate and store the model")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", default=None)
    gen.add_argument("--seed-offset", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    runp = sub.add_parser("run", help="run the full experiment pipeline")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", default=None)
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--seed-offset", type=int, default=0)
    runp.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="recompute and print a summary")
    rep.add_argument("run_dir")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LrcsspError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
