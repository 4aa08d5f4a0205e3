"""Exception types shared across the toolkit.

Exit-code mapping used by the CLI: InputError -> 2, CapacityError -> 3.
"""


class ReconError(Exception):
    """Base class for all toolkit errors."""


class InputError(ReconError):
    """Malformed or out-of-contract input (bad ranges, kind mismatches, ...)."""


class CapacityError(ReconError):
    """Input exceeds a documented size cap for an exact computation."""


def _count_text(count: int) -> str:
    """A count for a message: its digits, or its bit length once its
    magnitude passes 2^64, since Python refuses to print ints past 4,300
    digits."""
    if -(1 << 64) < count < 1 << 64:
        return str(count)
    return f"{'-' if count < 0 else ''}({count.bit_length()}-bit number)"


def _check_at_least(value: int, least: int, what: str) -> None:
    """Refuse a count below its least value, e.g. a deletion count below 1."""
    if value < least:
        raise InputError(f"{what} must be >= {least}, got {_count_text(value)}")


class Graph6ParseError(InputError):
    """Malformed graph6 text; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
