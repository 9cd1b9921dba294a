"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: bad input or a violated
domain precondition exits 2, exhausted searches and blown resource
budgets exit 3, and failed verifications exit 1 (no exception; the
verifier returns a report).
"""

from __future__ import annotations


class InputFormatError(ValueError):
    """A file or CLI argument could not be parsed.

    Carries the 1-based line number when the source is a digit file.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleError(ValueError):
    """A constraint system admits no solution (e.g. an empty residue set)."""


class SearchExhausted(RuntimeError):
    """A bounded search ran out of candidates before finding a hit.

    ``candidates_tested`` records how far the scan went.
    """

    def __init__(self, message: str, *, candidates_tested: int = 0):
        super().__init__(message)
        self.candidates_tested = candidates_tested


class ResourceBudgetExceeded(RuntimeError):
    """An operation would exceed a configured memory or effort budget."""
