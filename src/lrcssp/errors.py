"""Exception hierarchy and config field check shared across the package."""

import dataclasses
import math
import numbers


class LrcsspError(Exception):
    """Base class for all package errors."""


class StructuralError(LrcsspError):
    """Dimension mismatch or malformed input data.

    A check over a stack of contexts or instances sets `index` to the first
    failing one (None otherwise).
    """

    def __init__(self, message="", index=None):
        super().__init__(message)
        self.index = index


class ConfigError(LrcsspError):
    """Invalid configuration or generator specification."""


def is_of_type(value, kind):
    """isinstance for a field annotation; an int is any integral number and
    a float any finite real one, but a bool is neither."""
    if kind is int or kind is float:
        return not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) if kind is int
            else isinstance(value, numbers.Real) and math.isfinite(value))
    return isinstance(value, kind)


def check_field_types(obj):
    """Raise a ConfigError naming the first field of the dataclass obj whose
    value is not of its annotated type; a field whose default is None may
    hold None."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not (value is None and f.default is None
                or is_of_type(value, f.type)):
            raise ConfigError(f"{type(obj).__name__}.{f.name} must be of "
                              f"type {f.type.__name__}, got {value!r}")


class NonConvergenceError(LrcsspError):
    """Value iteration failed to reach the requested residual.

    On a stack of instances `index` is the first one that failed (None for
    a single instance) and `residual` is its last residual.
    """

    def __init__(self, residual, max_iter, index=None):
        super().__init__(
            f"residual {residual:.3e} after {max_iter} iterations "
            "(possible zero-loss loop or improper structure)"
        )
        self.residual = residual
        self.max_iter = max_iter
        self.index = index


class ImproperPolicyError(LrcsspError):
    """Policy evaluation diverged: the policy does not reach the goal.

    On a stack of instances `index` is the first improper one (None for a
    single instance).
    """

    def __init__(self, detail="", index=None):
        super().__init__(f"policy appears improper: {detail}")
        self.index = index


class ProtocolError(LrcsspError):
    """The interaction protocol was broken: an adversary callback emitted an
    invalid context, or a learner saw a visit before its first interval."""
