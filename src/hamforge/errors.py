"""Typed errors shared across the package.

Every domain failure raises a subclass of HamforgeError so callers (and the
CLI) can separate usage mistakes from domain-level refusals.
"""


class HamforgeError(Exception):
    """Base class for all typed domain errors."""


class DegenerateCycle(HamforgeError):
    """Cycle operation on n < r+2, where the 2n-symmetry association breaks."""


class ScaleLimit(HamforgeError):
    """Input is beyond the configured exact-computation budget."""


class ParseError(HamforgeError):
    """Malformed serialized input; message names the offending line."""


class TooSmall(HamforgeError):
    """Construction parameter below its minimum size."""


class InvalidParams(HamforgeError):
    """Parameters violate a construction precondition."""


class ExtensionFailed(HamforgeError):
    """Word extension could not reach a good word within its budget."""


class FieldDivisionError(HamforgeError, ZeroDivisionError):
    """Inversion of the zero field element."""


class ConstructionBug(HamforgeError):
    """A construction produced output that fails its own validator (fatal)."""


class InfeasibleParams(HamforgeError):
    """Faithful-mode packing parameters collapse (e.g. M = 0)."""


class RetryBudgetExhausted(HamforgeError):
    """Randomized construction failed every attempt in its retry budget;
    `shortfall` says how close the nearest attempt came, when known."""

    def __init__(self, message, failure_counts=None, shortfall=None):
        super().__init__(message)
        self.failure_counts = dict(failure_counts or {})
        self.shortfall = shortfall


class PartitionFailed(HamforgeError):
    """Disjoint-group partitioner exhausted its local-search budget."""


class DivisibilityViolation(HamforgeError):
    """A set size is not the required multiple; carries the residue."""

    def __init__(self, message, residue=None):
        super().__init__(message)
        self.residue = residue


class FamilyIncomplete(HamforgeError):
    """A window is not locatable in any element or leftover group."""


class FamilyKindMismatch(HamforgeError):
    """Formula path requested for a family of the wrong kind."""


class InsufficientGoodSamples(HamforgeError):
    """No good permutation found within the sampling budget."""
