"""The paper's known threshold over arrays, written out: a test oracle.

A pair is known while ||c||_{V^-1} < l_min / (10 B max(beta_P, f_m)), with
the floor f_m = sqrt(log(4m / delta)).  The package computes this one pair
at a time in Python floats (Learner._known_threshold); the tests check it,
and the counts built on it, against this array form.
"""

import math

import numpy as np


def known_threshold(beta_dyn, l_min, b_star, m, delta):
    """Context norm below which a pair is known; beta_dyn may be an array."""
    floor = math.sqrt(math.log(4.0 * m / delta))
    return l_min / (10.0 * b_star * np.maximum(beta_dyn, floor))
