"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2,
DomainError -> 3, I/O failures -> 4.
"""


class PrimeRaceError(Exception):
    """Base class for all package errors."""


class ValidationError(PrimeRaceError):
    """Invalid argument, range, or configuration value."""


class DomainError(PrimeRaceError):
    """Input lies outside the mathematical domain of an operation."""
