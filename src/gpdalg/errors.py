"""Shared exception types.

Parsing problems and input-level validation failures are ordinary bad
input (CLI exit code 1).  InternalCheckError marks a verification that
can only fail if the library itself is wrong (CLI exit code 2).
"""
from __future__ import annotations


class ParseError(ValueError):
    """Bad input text.  line is 1-based when known, column likewise."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        elif column is not None:
            message = f"position {column}: {message}"
        super().__init__(message)


class RingMismatchError(ValueError):
    """Arithmetic attempted between elements of different rings."""


class LaurentOverflowError(ArithmeticError):
    """Laurent exponent left the supported range.  Desk-scale inputs
    never get here; overflow is an error, not a wraparound."""


class OracleBudgetError(RuntimeError):
    """Input exceeds the budget of a bounded check: the arrow count the
    radical oracle takes, or the size limit of a pairwise verification."""


class InternalCheckError(AssertionError):
    """A structural claim that should hold by theorem failed.  Always a
    bug in this package, never a property of the input."""
