"""Exception hierarchy.

The base class decides the exit class: precondition violations (bad
parameters or input files, functionals outside the dual cone, probes off
the boundary) derive from PreconditionError, numerical breakdowns
(root brackets, degenerate cones, failed perturbations) from LimconeError
directly; the command line front end exits 3 and 4 on them.
"""


class LimconeError(Exception):
    """Base class for all package errors."""


class PreconditionError(LimconeError):
    """An input violates a documented precondition of the computation."""


class InvalidParameterError(PreconditionError, ValueError):
    """A parameter violates a documented precondition."""


class InvalidInputError(PreconditionError, ValueError):
    """Malformed input data (unknown letters, empty words, bad files)."""


class PerturbationFailedError(LimconeError):
    """Perturbed generator cannot be rescaled back to determinant one."""


class NotInDualConeError(PreconditionError):
    """Functional is not positive on all sampled Jordan projections."""


class InsufficientDataError(PreconditionError):
    """Not enough usable samples or thresholds for the estimate."""


class DegenerateConeError(LimconeError):
    """Sampled spectra span a lower-dimensional cone."""


class BracketFailureError(LimconeError):
    """Root of the pressure could not be bracketed."""


class NotOnBoundaryError(PreconditionError):
    """Functional is not certified to lie on the unit-exponent boundary."""
