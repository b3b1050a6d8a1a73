"""Exception types shared across the package.

The split matters for the command line tool: configuration mistakes and
exceeded budgets map to the usage exit code, while internal consistency
violations indicate a bug in this package and should never be swallowed.
"""


class MorsespecError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MorsespecError):
    """Invalid configuration: bad primes, modes, levels or parameters."""


class BudgetError(MorsespecError):
    """An exact enumeration was requested that exceeds its stated budget."""


class InternalConsistencyError(MorsespecError):
    """Two independent computation routes disagreed; indicates a bug."""
