"""tools/digest_gate.py: the gate's digests are the reference pins.

A change meant to keep behaviour is checked by diffing the gate's output on
two trees, so the gate must compute what the pins of test_reference_runs
pin: its `ref` digests at seed 0 are REF_DIGESTS[0] and [1].
"""

import importlib.util
import os
import sys

import pytest

from test_reference_runs import REF_DIGESTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "digest_gate", os.path.join(ROOT, "tools", "digest_gate.py"))
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def test_ref_digests_equal_the_pins(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    gate.load_package(os.path.join(ROOT, "src"))
    import workloads
    digests = gate.part_digests(workloads.WORKLOADS["ref"], 0, str(tmp_path))
    assert digests == {"ref/seed_0/part_0": REF_DIGESTS[0],
                       "ref/seed_0/part_1": REF_DIGESTS[1]}


def test_a_tree_without_the_package_exits(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="digest_gate: no lrcssp source"):
        gate.load_package(str(tmp_path))
