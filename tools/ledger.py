#!/usr/bin/env python3
"""Time another lrcssp source tree against this one, in alternated pairs.

    python3 tools/ledger.py /path/to/other/src --workload ref --pairs 40

This is the method of the fast-path ledger (docs/regimes.md).  The tree
under test is this checkout's src/; the other is <other-src>, say a copy of
the parent commit, or of this tree with one fast path switched off.

- Both trees' lrcssp packages are loaded in one process under two package
  names, and each builds the seed-0 parts of the workload with
  bench/workloads.py, which is only read.
- Before any timing, every part's run_log_digest (ref, wide) or
  artifact-tree digest (sweep) must be equal on both trees; the ledger
  exits 1 at the first that is not.
- A pair of runs times all parts on each tree by process CPU time; the
  tree that runs first alternates by pair.
- The tree a process loads second runs about 1% slower, so half of the
  pairs run in a fresh process that loads this tree first, and the other
  half in one that loads the other tree first.

The last line gives the worth: the median over pairs of the other tree's
time over this tree's, with the quartiles of those ratios in brackets.
Above 1, this tree is the faster.
"""

import argparse
import importlib
import importlib.util
import multiprocessing
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
# pairs when --pairs is not given: the ledger's 40 on ref and wide, 30 on
# sweep
PAIRS = {"ref": 40, "wide": 40, "sweep": 30}


def load_module(name, directory, file="__init__.py"):
    """Load directory/file by its path as the module sys.modules[name], a
    package when file is __init__.py, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(directory, file),
        submodule_search_locations=[directory] if file == "__init__.py"
        else None)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # relative imports find sys.modules[name]
    return module


def load_tree(side, src):
    """bench/workloads.py bound to the lrcssp package under src, which is
    loaded as the package lrcssp_<side>: the tools' one way to load a tree.
    A side loaded from another src is refused: its submodules would stay
    the other tree's."""
    name = f"lrcssp_{side}"
    directory = os.path.join(os.path.abspath(src), "lrcssp")
    loaded = getattr(sys.modules.get(name), "__file__", None)
    if loaded is not None and os.path.dirname(loaded) != directory:
        raise ValueError(f"load_tree: side {side!r} is already loaded from "
                         f"{os.path.dirname(loaded)}, not {directory}")
    package = load_module(name, directory)
    importlib.import_module(f"{name}.cli")  # the package does not import it
    # workloads.py imports from lrcssp: the name is this package while it
    # loads
    saved = sys.modules.get("lrcssp")
    sys.modules["lrcssp"] = package
    try:
        return load_module(f"workloads_{side}", BENCH, "workloads.py")
    finally:
        if saved is None:
            del sys.modules["lrcssp"]
        else:
            sys.modules["lrcssp"] = saved


def time_half(srcs, load_order, workload_name, pairs):
    """Load the trees of srcs ({"this": src, "other": src}) in load_order,
    check that every part's digest agrees, and time pairs pairs.  Returns
    each pair's (this, other) CPU seconds, or the first part whose digests
    or checks differ, as a string."""
    with tempfile.TemporaryDirectory() as workdir:
        trees = {}
        for side in load_order:
            workload = load_tree(side, srcs[side]).WORKLOADS[workload_name]
            trees[side] = workload, workload.setup(
                0, os.path.join(workdir, side))
        outcomes = {side: [workload.inspect(part, workload.unit(part))
                           for part in parts]
                    for side, (workload, parts) in trees.items()}
        for p, (mine, other) in enumerate(zip(outcomes["this"],
                                              outcomes["other"])):
            if mine.problems or other.problems or mine.digest != other.digest:
                return (f"part {p}: this tree {mine.digest} {mine.problems}, "
                        f"other tree {other.digest} {other.problems}")
        seconds = []
        for i in range(pairs):
            pair = {}
            for side in ("this", "other")[::1 if i % 2 == 0 else -1]:
                workload, parts = trees[side]
                pair[side] = 0.0
                for part in parts:
                    start = time.process_time()
                    result = workload.unit(part)
                    pair[side] += time.process_time() - start
                    workload.inspect(part, result)  # clears sweep's artifacts
            seconds.append((pair["this"], pair["other"]))
    return seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src",
                        help="directory that holds the other lrcssp package")
    parser.add_argument("--workload", choices=sorted(PAIRS), required=True)
    parser.add_argument("--pairs", type=int,
                        help="pairs of runs (default: 40, 30 on sweep)")
    args = parser.parse_args(argv)
    pairs = args.pairs or PAIRS[args.workload]
    if pairs < 2:
        parser.error("--pairs must be at least 2")
    srcs = {"this": os.path.join(ROOT, "src"), "other": args.other_src}
    for src in srcs.values():
        if not os.path.isfile(os.path.join(src, "lrcssp", "__init__.py")):
            parser.error(f"no lrcssp source under {src}")
    seconds = []
    for load_order, n in ((("this", "other"), pairs // 2),
                          (("other", "this"), pairs - pairs // 2)):
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(
                "spawn")) as pool:
            half = pool.submit(time_half, srcs, load_order, args.workload,
                               n).result()
        if isinstance(half, str):
            print(f"ledger: {args.workload} differs at {half}",
                  file=sys.stderr)
            return 1
        seconds += half
    this, other = np.median(seconds, axis=0)
    q1, median, q3 = np.percentile([o / t for t, o in seconds], [25, 50, 75])
    print(f"{args.workload}: median CPU s this {this:.4f}, other "
          f"{other:.4f} over {pairs} pairs")
    print(f"{args.workload}: worth {median:.3f} [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
