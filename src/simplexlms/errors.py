"""Exception types shared across the package.

The CLI maps these onto process exit codes, so runners should raise the
most specific type that applies.
"""


class SimplexLmsError(Exception):
    """Base class for package errors."""


class ConfigError(SimplexLmsError):
    """Invalid configuration file, flag value, or input file format."""


class DivergenceError(SimplexLmsError):
    """An adaptive recursion produced a non-finite iterate."""


class StabilityError(SimplexLmsError):
    """A step-size violates the mean-stability bound required by a formula."""


class SingularMomentError(StabilityError):
    """No step-size is stable: the regressor moment matrix has a zero eigenvalue."""


class InfeasibleProblemError(SimplexLmsError):
    """The sampling design problem has no feasible point inside the box."""
