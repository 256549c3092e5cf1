"""tools/ledger.py: two trees timed in one process, after their digests.

The ledger loads this tree and another under two package names.  Against a
copy of itself every part's digest agrees and each pair times both trees;
a copy whose learner moves one event field stops it with exit code 1
before any timing.  Its load_tree is how every tool loads a tree, and
loading a tool changes neither sys.path nor the package named lrcssp.
"""

import glob
import importlib.util
import os
import re
import shutil
import subprocess
import sys

import pytest

import ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LEDGER = os.path.join(ROOT, "tools", "ledger.py")


def test_a_tree_against_itself_times_both_sides():
    seconds = ledger.time_half({"this": SRC, "other": SRC},
                               ("other", "this"), "wide", 2)
    assert len(seconds) == 2
    assert all(this > 0 and other > 0 for this, other in seconds)
    # each tree is its own package, bench/workloads.py bound to it
    assert sys.modules["lrcssp_this"] is not sys.modules["lrcssp_other"]


def test_a_side_loaded_from_another_tree_is_refused(tmp_path):
    """A side's submodules stay in sys.modules, so loading it again from
    another tree would bind the first tree's learner: load_tree refuses."""
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    first = ledger.load_tree("reused", SRC)
    assert ledger.load_tree("reused", SRC).learner is first.learner
    with pytest.raises(ValueError, match="side 'reused' is already loaded "
                       "from .*, not " + re.escape(str(other / "lrcssp"))):
        ledger.load_tree("reused", other)
    assert ledger.load_tree("other_side", other).learner.__file__ == str(
        other / "lrcssp" / "learner.py")


def test_a_moved_digest_exits_1(tmp_path):
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    path = other / "lrcssp" / "learner.py"
    code = path.read_text()
    assert code.count('else "goal"') == 1
    path.write_text(code.replace('else "goal"', 'else "Goal"'))
    done = subprocess.run(
        [sys.executable, LEDGER, str(other), "--workload", "ref", "--pairs",
         "2"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("ledger: ref differs at part 0:")
    assert done.stdout == ""


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(ROOT, "tools", "*.py"))), ids=os.path.basename)
def test_loading_a_tool_keeps_the_path_and_the_package(path):
    path_before, package = list(sys.path), sys.modules.get("lrcssp")
    name = "loaded_" + os.path.basename(path)[:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert sys.path == path_before
    assert sys.modules.get("lrcssp") is package
