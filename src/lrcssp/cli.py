"""Command-line surface: gen | run | report, driven by a JSON config file.

Exit codes: 0 success, 1 runtime failure, 2 config/usage error.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .errors import ConfigError, LrcsspError
from .harness import (
    ExperimentConfig,
    SENTINEL,
    final_regret,
    final_regret_mean,
    generate_instance,
    read_model,
    read_summary,
    run_experiment,
    write_model,
    _fmt,
)


def _load_config(args):
    """The config with --out and --seed-offset applied and checked, and the
    path of its model file (os.path.join keeps an absolute model_file)."""
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # invalid JSON or text
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = ExperimentConfig.from_dict(raw)
    cfg = dataclasses.replace(
        cfg, out_dir=args.out or cfg.out_dir,
        seeds=[s + args.seed_offset for s in cfg.seeds])
    return cfg, os.path.join(cfg.out_dir, cfg.model_file)


def cmd_gen(args):
    cfg, path = _load_config(args)
    # a model checks its own entries when built, here and when run reads it
    os.makedirs(cfg.out_dir, exist_ok=True)
    fingerprint = write_model(path, generate_instance(cfg.generator))
    print(f"wrote {path} fingerprint={fingerprint}")
    return 0


def cmd_run(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg, path = _load_config(args)
    model, fingerprint = read_model(path)
    per_run, agg = run_experiment(cfg, model=model, jobs=args.jobs,
                                  fingerprint=fingerprint)
    for variant in sorted(agg):
        print(f"{variant}: final regret mean "
              f"{_fmt(agg[variant]['final_regret_mean'])} over "
              f"{agg[variant]['runs']} seeds")
    return 0


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def cmd_report(args):
    run_dir = args.run_dir
    variants = sorted(
        d for d in (os.listdir(run_dir) if os.path.isdir(run_dir) else [])
        if os.path.isdir(os.path.join(run_dir, d))
    )
    if not variants:
        raise ConfigError(f"no run variants found under {run_dir}")
    summary_path = os.path.join(run_dir, "summary.txt")
    stored = read_summary(summary_path)
    print(f"{'variant':<16}{'runs':>6}{'final_regret_mean':>20}"
          f"{'truncations':>13}")
    for variant in variants:
        vdir = os.path.join(run_dir, variant)
        seeds = sorted(d for d in os.listdir(vdir) if d.startswith("seed_"))
        truncs, curves, finals, n_episodes = 0, [], [], 0
        for sd in seeds:
            path = os.path.join(vdir, sd, "regret.csv")
            # a missing column, a short row, no row, a non-number cell or an
            # uneven episode count is a malformed file, like a missing one
            try:
                cols = _read_csv(path)
                truncated = [int(t) for t in cols["truncated"]]
                curve = [float(x) for x in cols["cum_regret"]]
                final = final_regret(curve, truncated)
                if n_episodes and len(curve) != n_episodes:
                    raise ValueError(f"{len(curve)} rows, not {n_episodes}")
            except (KeyError, IndexError, ValueError) as exc:
                raise ConfigError(f"malformed {path}: {exc!r}") from exc
            n_episodes = len(curve)
            truncs += sum(truncated)
            # a seed whose every episode truncated has no final regret, so
            # it enters neither the mean nor the plot
            finals.append(final)
            if not np.isnan(final):
                curves.append(curve)
        mean = final_regret_mean(finals)
        key = f"{variant}.final_regret_mean"
        try:  # a variant the summary does not name is not compared
            stored_mean = float(stored.get(key, mean))
        except ValueError as exc:
            raise ConfigError(f"malformed {summary_path}: {key}: {exc}")
        # CSV cells are rounded to 9 significant digits, so the recomputed
        # mean can differ from the stored full-precision one in the last
        # digit; a variant whose every seed truncated stores nan
        if not np.isclose(mean, stored_mean, rtol=1e-7, atol=1e-9,
                          equal_nan=True):
            raise LrcsspError(
                f"recomputed mean {_fmt(mean)} != stored "
                f"{_fmt(stored_mean)} for {variant}")
        print(f"{variant:<16}{len(seeds):>6}{_fmt(mean):>20}{truncs:>13}")
        # plot-ready data: mean cumulative regret per episode over the same
        # seeds, so the last point is the mean above
        plot = (np.mean(curves, axis=0) if curves
                else np.full(n_episodes, SENTINEL))
        plot_path = os.path.join(run_dir, f"plot_{variant}.csv")
        with open(plot_path, "w", newline="") as fh:
            fh.write("episode,cum_regret_mean\n" + "".join(map(
                "{},{:.9g}\n".format, range(len(plot)), plot.tolist())))
    return 0


@functools.cache  # parse_args keeps no state: one parser per process
def build_parser():
    """The command-line parser.  main calls cmd_<command> by its module name
    on every call, so a cmd_ function replaced after the build (as a tracer
    does) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="lrcssp",
        description="Linear contextual shortest-path learner benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("gen", "generate and store the model"),
                       ("run", "run the full experiment pipeline")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=None)
        if name == "run":
            cmd.add_argument("--jobs", type=int, default=1)
        cmd.add_argument("--seed-offset", type=int, default=0)

    rep = sub.add_parser("report", help="recompute and print a summary")
    rep.add_argument("run_dir")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LrcsspError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
