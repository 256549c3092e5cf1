"""docs/regimes.md against the package: its figures and what it cites.

The crossover table against the package's own radius and threshold
functions.  A pair visited tau times with the centre context c
(|c|^2 = 1/d) has ||c||^2_{V^-1} = 1 / (d*lam + tau).  Its L1 radius falls
below 1 once d*lam + tau > beta_P(tau)^2, and it is known once
d*lam + tau > (10 * B * beta_P(tau) / l_min)^2.

The known-step table against the pinned run's counts, and a lint of the
page: every BENCH_*.json file, test, module constant and backticked
`module.name` or `Class.attr` it cites must exist at this tree.
"""

import ast
import functools
import json
import math
import os
import re

import numpy as np
import pytest

from lrcssp import cli, estimation, harness, learner, linear_model, ssp
from lrcssp.estimation import context_norms, dynamics_radius
from lrcssp.learner import auto_epsilon
from known_oracle import known_threshold
from test_reference_runs import KNOWN_STEP, KNOWN_STEP_COUNTS

LAM, DELTA, B = 1.0, 0.1, 1.0
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DOC = os.path.join(ROOT, "docs", "regimes.md")
MODULES = {module.__name__.rsplit(".", 1)[1]: module for module in (
    cli, estimation, harness, learner, linear_model, ssp)}


def doc_text():
    with open(DOC) as fh:
        return fh.read()


def documented_rows():
    """(d, S, A, l_min, radius tau, known tau) for each row of the table."""
    text = doc_text()
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


def test_table_has_the_five_configs():
    assert [row[:4] for row in documented_rows()] == [
        (2, 5, 3, 0.1), (4, 30, 5, 0.1), (1, 1, 1, 0.1), (1, 2, 2, 0.5),
        (1, 1, 2, 0.9)]


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
    assert "167,582" in doc_text()


def test_known_step_counts_match_the_pin():
    section = doc_text().split("## The known-step run")[1].split("\n## ")[0]
    rows = re.findall(r"^\| ([^|]+?) \| ([\d,]+) \|$", section, re.M)
    assert {label: int(value.replace(",", "")) for label, value in rows} == (
        KNOWN_STEP_COUNTS)


def backticked():
    return re.findall(r"`([^`\n]+)`", doc_text())


def test_cited_bench_files_exist():
    cited = set(re.findall(r"BENCH_\d+\.json", doc_text()))
    assert cited
    assert sorted(name for name in cited
                  if not os.path.isfile(os.path.join(ROOT, name))) == []


@functools.cache
def parsed(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def test_cited_tests_exist():
    """tests/<file>.py::<Class or function>[::<method>] names a definition."""
    missing = []
    for span in backticked():
        match = re.fullmatch(r"(tests/\w+\.py)((?:::\w+)*)", span)
        if not match:
            continue
        path = os.path.join(ROOT, match[1])
        if not os.path.isfile(path):
            missing.append(span)
            continue
        scope = parsed(path).body
        for part in match[2].split("::")[1:]:
            found = [node for node in scope if isinstance(node, (
                ast.ClassDef, ast.FunctionDef)) and node.name == part]
            if not found:
                missing.append(span)
                break
            scope = found[0].body
    assert missing == []


def namespaces():
    """Where a cited name may live: the module, or the class and an
    instance of it built the way a run builds one (Plan: the class)."""
    model = linear_model.generate_instance(
        linear_model.GeneratorSpec(**KNOWN_STEP["generator"]))
    fresh = learner.Learner(learner.LearnerConfig(), model, 0.9)
    return dict({name: [module] for name, module in MODULES.items()},
                Learner=[learner.Learner, fresh],
                PairStore=[estimation.PairStore, fresh.store],
                Plan=[learner.Plan])


def test_cited_names_resolve():
    """A backticked name under a module, Learner, PairStore or Plan (a file
    name aside) resolves at this tree, or is a per-layer metric of
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"] for m in json.load(fh)["per_layer"]}
    spaces = namespaces()

    def resolves(head, rest):
        for obj in spaces[head]:
            try:
                functools.reduce(getattr, rest, obj)
                return True
            except AttributeError:
                pass
        return False

    cited, missing = 0, []
    for span in backticked():
        name = re.sub(r"\(.*\)$", "", span)
        match = re.fullmatch(r"(\w+)((?:\.\w+)+)", name)
        if not match or match[1] not in spaces or name.endswith(".py"):
            continue
        cited += 1
        if name not in metrics and not resolves(
                match[1], match[2].split(".")[1:]):
            missing.append(span)
    assert cited and missing == []


def test_stated_constants_match():
    stated = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)` = ([\d,]+)",
                        doc_text())
    assert stated
    for module, name, value in stated:
        assert getattr(MODULES[module], name) == int(value.replace(",", ""))
