"""Exception types shared across the library.

Each class carries the command line's exit code for it as exit_code; a
subclass inherits its parent's code unless it sets its own.
"""


class CirculantError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class InvalidJump(CirculantError):
    """A jump value reduces to 0 mod n (a loop) or violates canonical form."""


class EmptyConnectionSet(CirculantError):
    """A connection set must contain at least one jump."""


class OrderMismatch(CirculantError):
    """Two graphs were combined that live on different vertex counts."""


class NotAUnit(CirculantError):
    """Multiplier is not coprime to the graph order."""


class InvalidThetaParams(CirculantError):
    """Rotation parameters fail validity; carries structured reasons."""

    exit_code = 3

    def __init__(self, message, reasons=()):
        super().__init__(message)
        self.reasons = tuple(reasons)


class InvalidFamilyParams(CirculantError):
    """Family generator parameters are out of range or inconsistent."""

    exit_code = 4


class DegenerateFamily(InvalidFamilyParams):
    """Parameters would make the family's member sets coincide."""


class VerificationFailure(CirculantError):
    """A claimed relation failed an exact re-check."""

    exit_code = 5


class BudgetExceeded(CirculantError):
    """An enumeration or search exceeds its configured budget."""

    exit_code = 6


# the budget census and type1_group take when none is given, as the CLI does
DEFAULT_BUDGET = 10_000_000
