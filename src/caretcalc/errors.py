"""Exception types shared across the package."""


class CaretCalcError(Exception):
    """Base class for all errors raised by this package."""


class MalformedPairError(CaretCalcError):
    """Tree pair with unequal caret counts."""


class ParseError(CaretCalcError):
    """Text that does not match one of the wire grammars.

    Carries a ParseDiagnostic (byte offset, expected, found) when the
    failure position is known.
    """

    def __init__(self, message: str, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class InvalidPenaltyTreeError(CaretCalcError):
    """A penalty tree violating one of its construction rules."""


class SearchCapExceededError(CaretCalcError):
    """A search hit its state cap before completing.

    Results are never returned from a capped search; callers either raise
    this or finish exactly.
    """

    def __init__(self, message: str, states: int):
        super().__init__(message)
        self.states = states
