"""tools/digest_gate.py: the gate's digests are the reference pins.

A change meant to keep behaviour is checked by diffing the gate's output on
two trees, so the gate must compute what the pins of test_reference_runs
pin: its `ref` digests at seed 0 are REF_DIGESTS[0] and [1].
"""

import os

import pytest

import digest_gate as gate
from test_reference_runs import REF_DIGESTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ref_digests_equal_the_pins(tmp_path):
    workloads = gate.load_tree("gate", os.path.join(ROOT, "src"))
    digests = gate.part_digests(workloads.WORKLOADS["ref"], 0, str(tmp_path))
    assert digests == {"ref/seed_0/part_0": REF_DIGESTS[0],
                       "ref/seed_0/part_1": REF_DIGESTS[1]}


def test_a_tree_without_the_package_exits(tmp_path):
    with pytest.raises(SystemExit, match="digest_gate: no lrcssp source"):
        gate.main([str(tmp_path)])
