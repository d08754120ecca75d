"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError and its subclasses are
usage/input problems (exit 2); NumericalError, a failed computation that no
checked input reaches, is an internal failure (exit 1).
"""


class PhondistError(Exception):
    """Base class for all package errors."""


class InputError(PhondistError):
    """Malformed or unresolvable user input (files, graphemes, options)."""


class UnknownSegmentError(InputError):
    """A grapheme could not be resolved against an inventory or matrix."""

    def __init__(self, grapheme: str, where: str = "inventory"):
        self.grapheme = grapheme
        super().__init__(f"unknown segment {grapheme!r} (not in {where})")


class TokenizeError(InputError):
    """An IPA string has an untokenizable remainder."""

    def __init__(self, word: str, offset: int):
        self.word = word
        self.offset = offset
        rest = word[offset : offset + 8]
        super().__init__(
            f"cannot tokenize {word!r}: no segment matches {rest!r} at offset {offset}"
        )


class NumericalError(PhondistError):
    """A numerical routine produced a non-finite or unusable result."""
