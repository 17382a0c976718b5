"""Exception types shared across the package."""


class AddextError(Exception):
    """Base class for all package-specific errors."""


class InputError(AddextError):
    """Malformed or contract-violating input (bad spec, modulus mismatch, ...)."""


class BudgetError(AddextError):
    """An enumeration or search budget was exceeded."""


class SearchBudgetError(BudgetError):
    """A prime search ran past its cap without finding a result."""


class CapacityError(BudgetError):
    """A derived modulus would exceed the documented 2^63 cap."""
