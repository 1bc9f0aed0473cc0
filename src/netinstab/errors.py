"""Exception types shared across the package, and the rules every value from outside passes:
`whole_number`, `real_number`, `number_table` and `sequence`. Each names the field it refuses
and returns built-in values; the number rules refuse `bool`, so a JSON `true` is not read as 1."""
import math
import numbers
from collections.abc import Iterable
from itertools import chain

import numpy as np


class NetinstabError(Exception):
    """Base class for all package errors."""


class MalformedModel(NetinstabError):
    """Model file or graph data violates a structural requirement."""


class BadNode(NetinstabError):
    """Node index outside the graph."""


class BadParameter(NetinstabError):
    """Argument outside its documented domain."""


class BadMatrix(NetinstabError):
    """Matrix input is non-square or contains non-finite entries."""


class NumericalFailure(NetinstabError):
    """A numerical result is unusable: an eigenvalue computation failed to
    converge or failed verification, or walk or motif costs overflowed to
    non-finite."""


class TooLarge(NetinstabError):
    """Graph exceeds the work bound of exact cycle enumeration."""


class DivergedTraining(NetinstabError):
    """Training produced a non-finite loss.

    Carries the training seed that diverged and the iteration at which its
    loss was first non-finite (`iterations` when only the final loss is).
    """

    def __init__(self, iteration: int, seed: int):
        self.iteration = iteration
        self.seed = seed
        super().__init__(f"training with seed {seed}: loss became non-finite at iteration {iteration}")


def whole_number(value, name: str, low: int, high: int | None = None, error=BadParameter):
    """`int(value)` for an integer from `low` to `high` (None: no bound), else raise `error`."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def real_number(value, name: str, error=BadParameter):
    """A finite real `value` as a built-in `int` (an integer) or `float`, else raise `error`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an integer past float range, whose repr can run to thousands of digits
        raise error(f"{name} must be a finite number, got one past float range") from None
    if not finite:
        raise error(f"{name} must be a finite number, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def sequence(value, name: str) -> tuple:
    """`value` as a tuple if it is iterable and not a string, else raise `BadParameter`."""
    iterable = isinstance(value, Iterable) and getattr(value, "ndim", 1) != 0  # 0-d arrays are not
    if isinstance(value, (str, bytes)) or not iterable:
        raise BadParameter(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def number_table(value, name: str, error=BadParameter) -> np.ndarray:
    """A read-only float copy of `value` if its rows are not ragged and its cells are finite
    reals, else raise `error` naming `name`. A float or integer array's cells are real by
    dtype; of any other input, each distinct cell type is checked once."""
    try:
        table = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # no number, past float range, or ragged
        raise error(f"{name} must be a table of numbers: {exc}") from exc
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
        cells = [value]
        for _ in range(table.ndim):
            cells = chain.from_iterable(cells)
        for kind in set(map(type, cells)):
            if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
                raise error(f"{name} must be a table of numbers, got a {kind.__name__} cell")
    if not np.isfinite(table).all():
        raise error(f"{name} must be a table of finite numbers")
    table.setflags(write=False)
    return table
