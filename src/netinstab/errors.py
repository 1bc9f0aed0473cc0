"""Exception types shared across the package, and the whole-number rule for input."""
import numbers


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
    """`value` if it is an integer from `low` to `high` (None: no upper bound), else raise
    `error` naming `name`. `bool` is refused, so `true` in a JSON file is not read as 1."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return value
