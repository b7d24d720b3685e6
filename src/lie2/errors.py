"""Exception types shared across the toolkit, and the exit-code contract.

`cli.main` prints `"<label>: <message>"` to stderr for any `Lie2Error` and
returns its `exit_code`: 3 `budget exceeded` for `BudgetExceeded`, 2
`invalid input` for `InvalidInput` and its subclasses, 1 `check failed` for
`CheckFailed` and its subclasses, and 2 `error` for a bare `Lie2Error`.
"""


class Lie2Error(Exception):
    """Base class for all toolkit errors."""
    exit_code = 2
    label = "error"


class InvalidInput(Lie2Error):
    """Malformed or out-of-contract input (bad JSON, bad dimensions, bad field)."""
    exit_code = 2
    label = "invalid input"


class BudgetExceeded(Lie2Error):
    """An enumeration or search exceeded its node/element budget."""
    exit_code = 3
    label = "budget exceeded"


class CheckFailed(Lie2Error):
    """A structural check on a valid input failed."""
    exit_code = 1
    label = "check failed"


class NotTwoMapClosed(InvalidInput):
    """A subspace expected to be closed under the 2-map is not."""


class XiNotInSystem(InvalidInput):
    """Root passed to an admissibility computation is not in the root system."""


class NotCanonical(InvalidInput):
    """Dimension pattern is not in canonical form for its GL3(F2) orbit."""


class DimensionTooLarge(InvalidInput):
    """Census dimension outside the supported exhaustive/sampling range."""


class SplitFailed(CheckFailed):
    """Centralizer did not split as torus plus nilpotent part."""


class NotSimultaneouslyDiagonalizable(CheckFailed):
    """Joint eigenspaces of the toral basis do not fill the algebra."""


class InternalInconsistency(CheckFailed):
    """A self-check that can only fail on a bug in this package failed."""
