"""Domain errors raised across the package.

Every error carries structured fields so the command line tool can print a
machine readable JSON report: the ``kind`` is the class name, extra keyword
arguments become payload entries.
"""

from __future__ import annotations

from fractions import Fraction


def _decimal_digits(k: int) -> int:
    """The number of decimal digits of |k|, without converting it to a string."""
    k = abs(k)
    digits = max(1, int(k.bit_length() * 0.30102999566398120))  # log10(2)
    while 10 ** digits <= k:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > k:
        digits -= 1
    return digits


def rational_digits(value: Fraction) -> int:
    """The decimal digits of the longer of a rational's numerator and denominator."""
    return max(_decimal_digits(value.numerator), _decimal_digits(value.denominator))


def rational_text(value: Fraction) -> str:
    """``str(value)``, or past the interpreter's int-string digit limit a
    note of the digit count instead of the value.  It never raises, so every
    rational in an error message or payload is written through it."""
    try:
        return str(value)
    except ValueError:
        return f"<a rational with {rational_digits(value)} digits>"


class GameError(Exception):
    """Base class for every domain error in this package."""

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.payload = payload

    @property
    def kind(self) -> str:
        return type(self).__name__

    def to_json_dict(self) -> dict:
        out = {"error": self.kind, "message": str(self)}
        for key, value in self.payload.items():
            if isinstance(value, Fraction):
                value = rational_text(value)
            out[key] = value
        return out


class ParseError(GameError):
    """Structurally malformed input: bad JSON shape, bad rational string,
    or a path that cannot be read or written."""


class RationalTooLong(GameError):
    """A rational to be written out whose numerator or denominator has more
    decimal digits than the interpreter converts to a string."""


class SinkState(GameError):
    """A state with no outgoing action."""


class ProbabilitySumMismatch(GameError):
    """Probabilities leaving a (state, action) pair do not sum to one."""


class ProbabilityOutOfRange(GameError):
    """A transition probability outside (0, 1]."""


class UnknownReference(GameError):
    """A transition refers to a state or action that was never declared."""


class UnknownState(GameError):
    """A state id that does not exist in the game at hand, or a state that
    a value vector holds no value for."""


class StrategyDomainMismatch(GameError):
    """A strategy whose domain or choices do not fit the game."""


class CombinatorialLimitExceeded(GameError):
    """Strategy enumeration would exceed the configured cap."""


class InvalidBeta(GameError):
    """Discount factor outside [0, 1)."""


class NotUnichain(GameError):
    """The chain does not have exactly one recurrent class, or is otherwise
    inconsistent with having come from the reset transform."""


class MissingKindAnnotation(GameError):
    """A transform map that cannot drive the mirror construction: a mirror
    map given where a reset map is needed, a start state missing from the
    game, or a split record that does not describe the reset game."""


class SingularSystem(GameError):
    """An exact linear solve hit a singular matrix."""


class InexactDivision(GameError):
    """An integer division that exact elimination guarantees to be exact
    left a remainder.  On integer rows, a broken solver invariant, never a
    property of the input; raised instead of asserted so that it also holds
    under -O.  A non-integer entry handed to ``linalg`` ends here or in the
    exact answer."""


class DeterminacyViolation(GameError):
    """Lower and upper values disagree somewhere, or an optimality
    certificate failed.  Always a hard error: it falsifies positional
    determinacy on the instance and must never be masked."""


class InconsistentValues(GameError):
    """Claimed values that no greedy strategy pair re-evaluates to."""


class NoConsistentStrategy(GameError):
    """No strategy pair both attains the claimed values and forms a
    saddle point."""
