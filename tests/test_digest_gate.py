"""tools/digest_gate.py: the gate's digests are the reference pins.

A change meant to keep behaviour is checked by diffing the gate's output on
two trees, so the gate must compute what the pins of test_reference_runs
pin: its `ref` digests at seed 0 are REF_DIGESTS[0] and [1], its
known-step and refresh lines are KNOWN_STEP_DIGEST and REFRESH_DIGEST, and
their work lines hold the pinned counts of RunLog.work.
"""

import os

import pytest

import digest_gate as gate
from test_reference_runs import (KNOWN_STEP_COUNTS, KNOWN_STEP_DIGEST,
                                 REF_DIGESTS, REFRESH_DIGEST, REFRESH_WORK)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ref_digests_equal_the_pins(tmp_path):
    workloads = gate.load_tree("gate", os.path.join(ROOT, "src"))
    digests = gate.part_digests(workloads.WORKLOADS["ref"], 0, str(tmp_path))
    assert digests == {"ref/seed_0/part_0": REF_DIGESTS[0],
                       "ref/seed_0/part_1": REF_DIGESTS[1]}


# the gate lines of CHECKED_RUNS that test_reference_runs pins
PINS = {"known_step_k4000/seed_0": KNOWN_STEP_DIGEST,
        "refresh_k1200/seed_0": REFRESH_DIGEST}
# each run's emptied plans, EVI plans and projections; the K=8000 run's are
# pinned here alone
WORK = {"ref_spec_k8000/seed_0": (2894, 17166, 12723),
        "known_step_k4000/seed_0": tuple(KNOWN_STEP_COUNTS[key] for key in (
            "emptied plans", "EVI plans", "projections")),
        "refresh_k1200/seed_0": tuple(REFRESH_WORK.values())}


@pytest.mark.parametrize("name", sorted(gate.CHECKED_RUNS))
def test_checked_run_digests_equal_the_pins(name):
    workloads = gate.load_tree("gate", os.path.join(ROOT, "src"))
    log = gate.whole_run(gate.CHECKED_RUNS[name], workloads.learner,
                         workloads.linear_model)
    if name in PINS:
        assert workloads.run_log_digest(log) == PINS[name]
    assert gate.work_line(log) == (
        "emptied_plans {}, evi_plans {}, projections {}, doublings 0"
        .format(*WORK[name]))


def test_a_tree_without_the_package_exits(tmp_path):
    with pytest.raises(SystemExit, match="digest_gate: no lrcssp source"):
        gate.main([str(tmp_path)])
