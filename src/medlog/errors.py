"""Exception types shared across the package."""

from __future__ import annotations


class MedlogError(Exception):
    """Base class for all library errors."""


class ParseError(MedlogError):
    """Formula text rejected; carries the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


class LimitError(MedlogError):
    """A configured resource limit would be exceeded: an atom count, or a sweep
    budget counted in valuations x worlds."""


class SearchBudgetError(MedlogError):
    """Proof search ran out of budget; the answer is unknown, not negative."""


class RankOverflowError(MedlogError):
    """Finite rank arithmetic exceeded the configured cap."""

    def __init__(self, message: str, subformula=None):
        self.subformula = subformula
        super().__init__(message)


class InfiniteRankError(MedlogError):
    """Normalization was requested for a formula without finite rank."""


class UnknownAtomError(MedlogError):
    """A formula mentions an atom the valuation does not interpret."""


class SelfCheckError(MedlogError):
    """An internally produced certificate failed its own verification."""
