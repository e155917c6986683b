"""Exception hierarchy for the floquet_lindblad package.

Every error raised deliberately by this package derives from
:class:`FloquetLindbladError`, so callers can catch the package's failures
with a single except clause while letting genuine bugs propagate.
"""

__all__ = [
    "FloquetLindbladError",
    "DimensionMismatchError",
    "InvalidIndexError",
    "HermiticityError",
    "BranchCutError",
    "ConditioningError",
    "NotLindbladCandidateError",
    "DecompositionInconsistencyError",
    "StructureViolationError",
    "UnsupportedOrderError",
    "SupportsUndeclaredError",
    "NoReferenceError",
    "ConfigError",
]


class FloquetLindbladError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(FloquetLindbladError):
    """Array shapes or dimensions are inconsistent with the operation."""


class InvalidIndexError(FloquetLindbladError):
    """A Pauli multi-index contains entries outside {0, 1, 2, 3} or has
    the wrong length for the system."""


class HermiticityError(FloquetLindbladError):
    """A matrix that must be Hermitian fails the Hermiticity tolerance."""


class BranchCutError(FloquetLindbladError):
    """A matrix logarithm is ambiguous: an eigenvalue lies on or too close
    to the negative real axis (or at zero), so the principal branch is not
    trustworthy."""


class ConditioningError(FloquetLindbladError):
    """An eigenvector matrix is too ill conditioned for a reliable
    similarity-transform functional calculus."""


class NotLindbladCandidateError(FloquetLindbladError):
    """A superoperator fails the structural prerequisites (trace
    preservation or Hermiticity preservation) for a Lindblad-form
    decomposition."""


class DecompositionInconsistencyError(FloquetLindbladError):
    """The Hamiltonian/dissipator split of a superoperator is internally
    inconsistent beyond tolerance (for example a non-real extracted
    Hamiltonian coefficient)."""


class StructureViolationError(FloquetLindbladError):
    """A matrix violates a structural guarantee it was claimed to satisfy
    (for example a nonzero block where the locality theory requires
    zeros)."""


class UnsupportedOrderError(FloquetLindbladError):
    """An expansion order outside the implemented range was requested."""


class SupportsUndeclaredError(FloquetLindbladError):
    """A computation that needs declared operator supports was given a
    drive built without them."""


class NoReferenceError(FloquetLindbladError):
    """No closed-form reference is available for the requested model and
    order."""


class ConfigError(FloquetLindbladError):
    """A configuration file is malformed, has unknown keys, or holds
    values outside the supported envelope."""
