"""Exception types shared across the library.

Builtin OverflowError is reused for checked 128-bit integer overflow; everything
else derives from HoampError so callers can catch the library in one clause.
"""


class HoampError(Exception):
    """Base class for all library errors."""


class EmptyRange(HoampError):
    """A trial range (factor candidates, search domain, ...) is empty."""


class ConditionedMassVanished(HoampError):
    """Conditioning left less than 1e-300 of probability mass; there is no
    weight anywhere near the target and renormalization would be meaningless."""


class NoFactorInRange(HoampError):
    """No pair in the trial ranges multiplies to the target (e.g. N prime)."""


class NoSolutionFound(HoampError):
    """The search's black box marks no item, so nothing can be amplified."""


class InfeasibleSystem(HoampError):
    """A constraint admits no achievable value, so no tuple can satisfy it."""


class DomainError(HoampError):
    """An argument is outside the mathematical domain of the operation."""


class DomainTooLarge(HoampError):
    """Brute-force enumeration was requested over too many tuples."""


class WorkerFailed(HoampError):
    """A worker process of a streamed pass raised, or ended without sending
    its result."""


class ParseError(HoampError):
    """Constraint expression could not be parsed.

    Carries the offending source text and 0-based position.
    """

    def __init__(self, message, source, pos):
        super().__init__(f"{message} (at position {pos}: {source[pos:pos+16]!r})")
        self.source = source
        self.pos = pos
