"""Exception types shared across the package.

Grouping them here keeps the command line driver's exit-code mapping in one
import: schema/validation problems exit 1, numerical failures exit 2.
"""


class StimpairsError(Exception):
    """Base class for package-specific failures."""


class TruncationError(StimpairsError):
    """Evolution left more weight on the cutoff shell than the tolerance allows."""

    def __init__(self, message: str, leakage: float | None = None, cutoff: int | None = None):
        super().__init__(message)
        self.leakage = leakage
        self.cutoff = cutoff


class FitError(StimpairsError):
    """Fringe scan cannot be fit, or its parameters are not identifiable."""


class ReconstructionError(StimpairsError):
    """Density-matrix reconstruction failed (incomplete settings, no convergence)."""


class SchemaError(StimpairsError):
    """Input file does not match the documented schema."""
