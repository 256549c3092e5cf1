"""The plan, EVI and projection layers call numpy's C entry points.

learner.py and estimation.py call c_einsum, the C function np.einsum
forwards to when optimize is off, and ndarray methods in place of the
np.sort, np.cumsum, np.argsort, np.argmax, np.all and np.nonzero wrappers,
which forward to those methods.  np.clip's two sites are spelled in
np.minimum and np.maximum; these tests pin that each spelling keeps
np.clip's bits on the inputs the learner can give it, and a lint keeps the
wrappers out of the two modules.
"""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrcssp import estimation, learner
from lrcssp.errors import ConfigError
from lrcssp.learner import LearnerConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "lrcssp")
MODULES = {"learner.py": learner, "estimation.py": estimation}
SPECIALS = (-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf)

# each c_einsum subscript of src/ and the operand shapes its site passes, at
# (S, A) = (3, 2) and context dimension d
SHAPES = {
    "d,d->": lambda d: [(d,), (d,)],
    "sad,d->sa": lambda d: [(3, 2, d), (d,)],
    "sand,d->san": lambda d: [(3, 2, 3, d), (d,)],
    "sai,saij,saj->sa": lambda d: [(3, 2, d), (3, 2, d, d), (3, 2, d)],
    "sari,saij,sarj->sa": lambda d: [(3, 2, 3, d), (3, 2, d, d),
                                     (3, 2, 3, d)],
    "ij,jk,ik->": lambda d: [(3, d), (d, d), (3, d)],
}


def parsed(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read())


def calls(name):
    """(callee name, call node) of every call in src/lrcssp/<name>, the
    callee as written: "np.einsum", "c_einsum", ..."""
    for node in ast.walk(parsed(name)):
        if isinstance(node, ast.Call):
            yield ast.unparse(node.func), node


def src_subscripts():
    return {node.args[0].value for name in MODULES
            for callee, node in calls(name) if callee == "c_einsum"}


def operands(rng, shapes, specials):
    """Normal draws with about a fifth of the entries replaced by SPECIALS
    (none when specials is False)."""
    out = []
    for shape in shapes:
        x = rng.normal(size=shape)
        if specials:
            mask = rng.random(shape) < 0.2
            x[mask] = rng.choice(SPECIALS, size=shape)[mask]
        out.append(x)
    return out


def test_every_src_subscript_is_covered():
    assert src_subscripts() == set(SHAPES)


@pytest.mark.parametrize("module", sorted(MODULES))
@pytest.mark.parametrize("subscript", sorted(SHAPES))
def test_c_einsum_keeps_the_bytes_of_einsum(module, subscript):
    """Each module's c_einsum gives np.einsum's bytes, d from 1 to 8, on
    plain draws, on draws holding -0.0, NaN and +-inf, and on operands of
    -0.0 only."""
    c_einsum = MODULES[module].c_einsum
    rng = np.random.default_rng(len(subscript))
    for d in range(1, 9):
        shapes = SHAPES[subscript](d)
        cases = [operands(rng, shapes, specials)
                 for specials in (False, True, True, True)]
        cases.append([np.full(shape, -0.0) for shape in shapes])
        for ops in cases:
            got = np.asarray(c_einsum(subscript, *ops))
            want = np.asarray(np.einsum(subscript, *ops))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (subscript, d)


def any_floats():
    return st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))


def bit_equal(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(1, 40), elements=any_floats()),
       bound=st.one_of(st.sampled_from((2.0, math.inf, -math.inf)),
                       st.floats(min_value=2.0),
                       st.floats(allow_nan=False).filter(bool)))
def test_scalar_bound_spelling_keeps_clip_bits(x, bound):
    """evi_plan's clip of the min-over-actions to [0, b_cap]: b_cap is
    2 * b_star_cur >= 2, and +inf only after 1,023 doublings.  Every other
    bound but +-0.0 and NaN keeps the bits too, negative ones included."""
    assert bit_equal(np.minimum(np.maximum(0.0, x), bound),
                     np.clip(x, 0.0, bound))


def test_scalar_bounds_that_change_bits_are_not_reachable():
    """np.clip with a scalar bound of +-0.0 takes the bound's sign on a tie
    at zero, and with a NaN bound the bound's NaN: the spelling differs
    there.  b_cap = 2 * b_star_cur is neither, since b_star_init is a
    finite float >= 1 and only doubles."""
    spelled = np.minimum(np.maximum(0.0, np.array([0.0, -1.0])), -0.0)
    assert not bit_equal(spelled, np.clip(np.array([0.0, -1.0]), 0.0, -0.0))
    x = np.array([math.nan])
    assert not bit_equal(np.minimum(np.maximum(0.0, x), -math.nan),
                         np.clip(x, 0.0, -math.nan))
    for b_star in (math.nan, math.inf, 0.0, -0.0, 0.5):
        with pytest.raises(ConfigError):
            LearnerConfig(b_star_init=b_star)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=hnp.array_shapes(max_dims=3, max_side=6))
def test_array_bound_spelling_keeps_clip_bits(data, shape):
    """_evi_backup's clip of r - prior to [0, p_ord], p_ord an array of the
    same shape, at every float of x and of the bound."""
    x = data.draw(hnp.arrays(np.float64, shape, elements=any_floats()))
    p_ord = data.draw(hnp.arrays(np.float64, shape, elements=any_floats()))
    assert bit_equal(np.minimum(np.maximum(x, 0.0), p_ord),
                     np.clip(x, 0.0, p_ord))


def test_array_bound_turns_negative_zero_positive():
    """With an array bound np.clip maps -0.0 to +0.0, as maximum(x, 0.0)
    does and maximum(0.0, x) does not: why the two sites differ in order."""
    x, p_ord = np.array([-0.0]), np.array([0.5])
    assert bit_equal(np.clip(x, 0.0, p_ord), [0.0])
    assert bit_equal(np.minimum(np.maximum(x, 0.0), p_ord), [0.0])
    assert bit_equal(np.minimum(np.maximum(0.0, x), p_ord), [-0.0])


WRAPPERS = {"np.einsum", "np.clip", "np.sort", "np.cumsum", "np.argsort",
            "np.argmax", "np.all", "np.nonzero"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_python_wrapper_in_the_hot_modules(name):
    """learner.py and estimation.py call no numpy function whose wrapper
    only forwards to c_einsum, an ndarray method or a ufunc."""
    found = [f"{name}:{node.lineno} {callee}"
             for callee, node in calls(name) if callee in WRAPPERS]
    assert found == []
