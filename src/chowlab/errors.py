"""Exception types shared across the package."""


class ChowlabError(Exception):
    """Base class for all package errors."""


class PresentationError(ChowlabError, ValueError):
    """A ring presentation is malformed (unknown generator, bad replacement...)."""


class ConfigurationError(ChowlabError, ValueError):
    """Inconsistent configuration of a computation (involution vs. ring, bounds...)."""


class UsageError(ChowlabError, ValueError):
    """An operation was called outside its contract (mixed degrees, bad range...)."""


class BudgetError(ChowlabError, RuntimeError):
    """An enumeration exceeded its hard resource cap."""


class ExactDivisionError(ChowlabError, ArithmeticError):
    """A division that must be exact left a remainder."""
