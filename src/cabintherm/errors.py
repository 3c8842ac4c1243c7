"""Exception hierarchy shared by all cabintherm modules."""


class CabinThermError(Exception):
    """Base class for all cabintherm errors."""


class ConfigError(CabinThermError):
    """Invalid configuration file or parameter set."""


class DataError(CabinThermError):
    """Invalid scenario data (bad CSV rows, missing columns, ...)."""


class EvaluationError(CabinThermError):
    """A model evaluation produced a non-finite or non-convergent result."""


class SolverError(CabinThermError):
    """A solve did not converge.

    Carries diagnostics useful for debugging: the last iterate and the
    residual vector at that iterate (may be None when not applicable).
    """

    def __init__(self, message, last_x=None, last_residuals=None):
        super().__init__(message)
        self.last_x = last_x
        self.last_residuals = last_residuals


class InadmissibleStateError(SolverError):
    """A solve converged to a state the model does not admit: powered
    radiant panels colder than the cabin air."""
