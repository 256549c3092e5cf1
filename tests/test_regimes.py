"""The crossover table of docs/regimes.md against the package's own tests.

A pair visited tau times with the centre context c (|c|^2 = 1/d) has
||c||^2_{V^-1} = 1 / (d*lam + tau).  Its L1 radius falls below 1 once
d*lam + tau > beta_P(tau)^2, and it is known once
d*lam + tau > (10 * B * beta_P(tau) / l_min)^2.
"""

import math
import os
import re

import numpy as np
import pytest

from lrcssp.estimation import context_norms, dynamics_radius, known_threshold
from lrcssp.learner import auto_epsilon

LAM, DELTA, B = 1.0, 0.1, 1.0
DOC = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "regimes.md")


def documented_rows():
    """(d, S, A, l_min, radius tau, known tau) for each row of the table."""
    with open(DOC) as fh:
        text = fh.read()
    row = re.compile(r"^\| \((\d+), (\d+), (\d+)\) \| ([\d.]+) \| ([\d,]+) "
                     r"\| ([\d,]+) \|$", re.M)
    return [(int(d), int(s), int(a), float(l_min), int(r.replace(",", "")),
             int(k.replace(",", "")))
            for d, s, a, l_min, r, k in row.findall(text)]


def first_tau(pred):
    """Smallest tau >= 0 with pred(tau), for pred false then true."""
    lo, hi = 0, 1
    while not pred(hi):
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def centre_norm(d, tau):
    """||c||_{V^-1} after tau visits at the centre, by the package's norms."""
    c = np.full(d, 1.0 / d)
    v_bar = LAM * np.eye(d) + tau * np.outer(c, c)
    return float(context_norms(np.linalg.inv(v_bar), c))


def test_table_has_the_four_configs():
    assert [row[:4] for row in documented_rows()] == [
        (2, 5, 3, 0.1), (4, 30, 5, 0.1), (1, 1, 1, 0.1), (1, 2, 2, 0.5)]


@pytest.mark.parametrize("d, S, A, l_min, radius_tau, known_tau",
                         documented_rows())
def test_crossovers_match_formulas(d, S, A, l_min, radius_tau, known_tau):
    def beta(tau):
        return dynamics_radius(tau, d, S, A, LAM, DELTA)

    # the closed-form norm is the package's norm of the ridge design
    for tau in (0, 1, 10, radius_tau):
        assert centre_norm(d, tau) == pytest.approx(
            1.0 / math.sqrt(d * LAM + tau), rel=1e-9)

    assert first_tau(lambda t: d * LAM + t > beta(t) ** 2) == radius_tau
    # the package's radius crosses 1 there
    assert beta(radius_tau) * centre_norm(d, radius_tau) < 1.0
    assert beta(radius_tau - 1) * centre_norm(d, radius_tau - 1) >= 1.0

    assert first_tau(
        lambda t: d * LAM + t > (10 * B * beta(t) / l_min) ** 2) == known_tau

    # the package's threshold, with one interval per step (m = tau); the
    # norm is taken in closed form, as inverting V at tau ~ 1e9 would lose
    # the digits that separate tau from tau - 1
    def known(tau):
        norm = 1.0 / math.sqrt(d * LAM + tau)
        return norm < known_threshold(beta(tau), l_min, B, tau, DELTA)

    assert known(known_tau) and not known(known_tau - 1)
    # beta_P exceeds the floor sqrt(log(4m/delta)), which plays no part
    assert beta(known_tau) > math.sqrt(math.log(4 * known_tau / DELTA))


def test_perturbation_mode_crossover():
    d, S, A = 2, 5, 3
    eps = auto_epsilon(S, d, A, 2000)
    assert round(eps, 3) == 0.909

    def beta(tau):
        return dynamics_radius(tau, d, S, A, LAM, DELTA)

    assert first_tau(
        lambda t: d * LAM + t > (10 * B * beta(t) / eps) ** 2) == 167_582
    with open(DOC) as fh:
        assert "167,582" in fh.read()
