"""Exception types shared across the toolkit."""

from __future__ import annotations


class Lie2Error(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(Lie2Error):
    """Malformed or out-of-contract input (bad JSON, bad dimensions, bad field)."""


class NotTwoMapClosed(Lie2Error):
    """A subspace expected to be closed under the 2-map is not."""


class BudgetExceeded(Lie2Error):
    """An enumeration or search exceeded its node/element budget."""


class SplitFailed(Lie2Error):
    """Centralizer did not split as torus plus nilpotent part."""


class NotSimultaneouslyDiagonalizable(Lie2Error):
    """Joint eigenspaces of the toral basis do not fill the algebra."""


class InternalInconsistency(Lie2Error):
    """A self-check that can only fail on a bug in this package failed."""


class XiNotInSystem(Lie2Error):
    """Root passed to an admissibility computation is not in the root system."""


class NotCanonical(Lie2Error):
    """Dimension pattern is not in canonical form for its GL3(F2) orbit."""


class DimensionTooLarge(Lie2Error):
    """Census dimension outside the supported exhaustive/sampling range."""
