"""Exception types shared across the package, and the library's input checks.

The CLI maps these onto exit codes: ValidationError -> 2,
DomainError -> 3, I/O failures -> 4.
"""

import sys
from numbers import Integral, Real


class PrimeRaceError(Exception):
    """Base class for all package errors."""


class ValidationError(PrimeRaceError):
    """Invalid argument, range, or configuration value."""


class DomainError(PrimeRaceError):
    """Input lies outside the mathematical domain of an operation."""


def check_reals(values, name: str, domain: str, inside, error=DomainError) -> list[float]:
    """The values as floats. A non-real or non-finite one is a ValidationError, and
    one that is not `inside` its domain raises `error`("<domain>, got <value>")."""
    out = []
    for v in values:
        if not (isinstance(v, Real) and abs(v) <= sys.float_info.max):  # nan fails the test too
            raise ValidationError(f"{name}: expected a finite number, got {v!r}")
        out.append(float(v))
        if not inside(out[-1]):
            raise error(f"{domain}, got {out[-1]}")
    return out


def check_count(value, name: str, least: int) -> int:
    """A Python or NumPy integer >= least, as an int; a float is refused, never truncated."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)
