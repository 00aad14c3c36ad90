"""Shared exception types."""


class InputError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class DegenerateMetricError(InputError):
    """Raised when a weight profile makes the requested construction undefined
    (a vanishing or wrongly ordered jump in the piecewise-exponential weight)."""


class NeedsMoreRootsError(RuntimeError):
    """Raised when a root set is too short to answer the question asked of it."""


class NumericalFailure(RuntimeError):
    """Raised when an iteration diverges or a state becomes nonfinite; t is
    the model time at which it did, where there is one."""

    def __init__(self, *args, t: float | None = None):
        super().__init__(*args)
        self.t = t
