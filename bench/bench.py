#!/usr/bin/env python3
"""Benchmark of the lrcssp package built from this checkout's `src/`.

    python3 bench/bench.py --workload ref --seed 0 --seconds 30 --trace 0

Runs one workload (see `workloads.py` and `README.md`): cycles through the
workload seed's parts until `--seconds` have passed, checks every unit's
output, and prints one JSON object as the last line of standard output.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
traces two of the cycles and reports the per-layer metrics from the spans.
A result file with the machine stamp, every raw timing and the output
digests goes to `bench/out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_CYCLES = 2
MIN_SETUP_SAMPLES = 5
# a traced run: one untraced cycle for the overhead, then two traced cycles
# whose span counts must agree
TRACED_CYCLES = (1, 2)
MIN_TRACE_CYCLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Put this checkout's `src/` first on the path and check it is what loads."""
    if not os.path.isfile(os.path.join(SRC, "lrcssp", "__init__.py")):
        sys.exit(f"bench: no lrcssp source under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import lrcssp
    if not os.path.abspath(lrcssp.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: lrcssp loaded from {lrcssp.__file__}, not {SRC}")


def stamp(args):
    import numpy as np
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "lrcssp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*cmd):
            return subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True,
                                  text=True).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty,
            "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def setup_sample(name, seed, workdir):
    """Wall time of a fresh process doing the workload's set-up."""
    code = (f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import workloads; "
            f"workloads.WORKLOADS[{name!r}].setup({seed}, {workdir!r})")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_unit(wl, part, tracer, request_id):
    """Time one unit, traced or not, and check its output."""
    unit = {"part": part.run_seed, "traced": tracer is not None}
    if tracer:
        tracer.request_id = request_id
        tracer.install()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        output = wl.unit(part)
        unit["wall_s"] = time.perf_counter() - t0
        unit["cpu_s"] = time.process_time() - c0
    except Exception:
        traceback.print_exc()
        unit["problems"] = [f"part {part.run_seed}: unit raised"]
        return unit, None, None
    finally:
        if tracer:
            tracer.remove()
    outcome = wl.inspect(part, output)
    unit.update(steps=outcome.steps, digest=outcome.digest,
                problems=outcome.problems)
    return unit, output, outcome


def run_cycles(wl, parts, seconds, tracer, yard, take_setup_sample):
    """Cycle through the parts until `seconds` have passed.

    A set-up sample starts every cycle, and a yardstick sample follows the
    set-up sample and every unit, so each timing sits between two yardstick
    samples and is calibrated by their mean.  Returns every unit's record,
    grouped by part, the first output and outcome of each part, the
    (raw, calibrated) set-up samples and the peak RSS of the timed region;
    a later unit whose output differs from its part's first fails its check.
    """
    units = [[] for _ in parts]
    first = [None] * len(parts)
    setup_s = []
    min_cycles = MIN_TRACE_CYCLES if tracer else MIN_CYCLES
    before = yard.sample()

    def calibrated_setup_sample():
        nonlocal before
        raw = take_setup_sample(len(setup_s))
        after = yard.sample()
        setup_s.append((raw, raw * yard.scale(before, after)[0]))
        before = after

    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < min_cycles or time.perf_counter() < deadline:
        calibrated_setup_sample()
        traced = tracer if tracer and cycle in TRACED_CYCLES else None
        for p, part in enumerate(parts):
            if cycle >= min_cycles and time.perf_counter() >= deadline:
                break
            unit, output, outcome = run_unit(wl, part, traced, cycle)
            after = yard.sample()
            unit["cycle"] = cycle
            if "wall_s" in unit:
                wall_scale, cpu_scale = yard.scale(before, after)
                unit["cal_wall_s"] = unit["wall_s"] * wall_scale
                unit["cal_cpu_s"] = unit["cpu_s"] * cpu_scale
            before = after
            if outcome is not None:
                if first[p] is None:
                    first[p] = (output, outcome)
                elif outcome.digest != first[p][1].digest:
                    unit["problems"].append(
                        f"part {part.run_seed}: cycle {cycle} output differs "
                        f"from the first ({'traced' if traced else 'untraced'})")
            units[p].append(unit)
        cycle += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_s) < MIN_SETUP_SAMPLES:
        calibrated_setup_sample()
    if any(f is None for f in first):
        sys.exit("bench: every unit of some part failed")
    return units, first, setup_s, peak_rss_mb


def per_part_median(units, key, traced=False):
    """Sum over parts of each part's median repetition."""
    return sum(statistics.median(u[key] for u in part
                                 if u["traced"] == traced and key in u)
               for part in units)


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import workloads
    from tracer import CHECK_REQUEST, Tracer
    from yardstick import Yardstick

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    rtol = reference["regret_rtol"]
    info = stamp(args)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    yard = Yardstick()

    def take_setup_sample(i):
        return setup_sample(wl.name, args.seed,
                            os.path.join(workdir, f"setup_{i}"))

    try:
        if tracer:
            tracer.install()
        try:
            parts = wl.setup(args.seed, os.path.join(workdir, "main"))
        finally:
            if tracer:
                tracer.remove()

        units, first, setup_samples, peak_rss_mb = run_cycles(
            wl, parts, args.seconds, tracer, yard, take_setup_sample)

        # output checks, outside the timed region (traced in a traced run)
        expected = reference[wl.name].get(str(args.seed), {})
        records, artifact_digests = {}, []
        if tracer:
            tracer.request_id = CHECK_REQUEST
            tracer.install()
        try:
            for p, part in enumerate(parts):
                part_records, digest = wl.reference_record(part, *first[p])
                records.update(part_records)
                artifact_digests.append(digest)
                want = {k: v for k, v in expected.items() if k in part_records}
                wrong = workloads.compare(part_records, want, rtol)
                for unit in units[p]:
                    if unit.get("digest") == first[p][1].digest:
                        unit["problems"] += wrong
            golden_part, = workloads.GOLDEN.setup(
                workloads.GOLDEN_SEED, os.path.join(workdir, "golden"))
            golden = workloads.GOLDEN.inspect(
                golden_part, workloads.GOLDEN.unit(golden_part))
        finally:
            if tracer:
                tracer.remove()
        golden_problems = golden.problems + workloads.compare(
            golden.records, reference["golden"][str(workloads.GOLDEN_SEED)],
            rtol)
        missing = sorted(set(expected) - set(records))

        all_units = [u for part in units for u in part]
        problems = [p for u in all_units for p in u["problems"]]
        problems += [f"golden: {p}" for p in golden_problems]
        problems += [f"{k}: expected by the reference, not run" for k in missing]
        attempted = len(all_units) + 1
        failed = sum(1 for u in all_units if u["problems"]) + bool(golden_problems)

        wall_s = per_part_median(units, "cal_wall_s")
        if tracer:
            overhead = (per_part_median(units, "cal_wall_s", traced=True)
                        / wall_s - 1.0)
            counts = [tracer.span_counts(c) for c in TRACED_CYCLES]
            if any(c != counts[0] for c in counts):
                problems.append("span counts differ between traced cycles")
            metrics = tracer.layer_metrics(overhead)
            declared = bench_spec()["per_layer"]
            spans_path = os.path.join(OUT, f"spans-{wl.name}.npz")
            tracer.write(spans_path)
        else:
            metrics = {
                "setup_s": statistics.median(cal for _, cal in setup_samples),
                "wall_s": wall_s,
                "cpu_s": per_part_median(units, "cal_cpu_s"),
                "steps_per_s": sum(f[1].steps for f in first) / wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
            declared = bench_spec()["end_to_end"]
            spans_path = None

        result = {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared},
        }
        detail = {"stamp": info,
                  "raw": {"wall_s": per_part_median(units, "wall_s"),
                          "cpu_s": per_part_median(units, "cpu_s"),
                          "setup_s": statistics.median(
                              raw for raw, _ in setup_samples)},
                  "yardstick_samples": {"wall_s": yard.wall, "cpu_s": yard.cpu},
                  "setup_samples_s": setup_samples, "units": units,
                  "seed_records": records,
                  "reference_checked": sorted(expected),
                  "artifact_digests": artifact_digests,
                  "golden_digest": golden.digest, "problems": problems,
                  "spans": spans_path,
                  "untraced_bindings": sorted(tracer.missing) if tracer else [],
                  "result": result}
        name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump(detail, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
