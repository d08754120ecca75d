"""Binary distinctive-feature inventories and IPA tokenization.

README's "Data formats" describes the feature table. The reserved null
segment "∅" stands for the absence of sound and is in every Inventory, so
scoring can price sound creation and deletion.
"""

import re
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TextIO

import numpy as np

from . import textio
from .errors import InputError, TokenizeError, UnknownSegmentError

# CPython's built-in SHA-256, as random.py takes its SHA-512: hashlib loads OpenSSL.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

NULL_GRAPHEME = "∅"

# Suprasegmental columns are not phoneme-level properties and are dropped
# from the table at load time.
DROPPED_FEATURES = ("stress", "tone")

FeatureVector = tuple[bool, ...]

# A feature-table cell's value: "0" marks a feature that does not apply; "−" is U+2212 MINUS SIGN.
_CELL_VALUES = {"+": True, "-": False, "0": False, "−": False}


@dataclass(frozen=True)
class Segment:
    """One speech sound: an IPA grapheme plus its binary feature values."""

    grapheme: str
    features: FeatureVector
    system_fingerprint: str

    def __repr__(self) -> str:
        return f"Segment({self.grapheme!r})"


class Inventory:
    """Immutable grapheme → Segment map over a fixed feature list; every name is printable."""

    def __init__(self, feature_names: Sequence[str], rows: Iterable[tuple[str, FeatureVector]],
                 source: str = "inventory"):
        self.source = source  # what unknown-segment errors say the segment is missing from
        names = tuple(feature_names)
        if len(set(names)) != len(names):
            raise InputError("duplicate feature names in table header")
        self.feature_names: tuple[str, ...] = names
        self.fingerprint = fingerprint_features(names)

        segments: dict[str, Segment] = {}
        for grapheme, values in rows:
            if not grapheme:
                raise InputError("empty segment name")
            if grapheme in segments:
                raise InputError(f"duplicate segment row for {grapheme!r}")
            features = tuple(values)
            if len(features) != len(names):
                raise InputError(f"segment {grapheme!r}: expected {len(names)} feature values, got {len(features)}")
            segments[grapheme] = Segment(
                grapheme=grapheme,
                features=features,
                system_fingerprint=self.fingerprint,
            )
        if not segments:
            raise InputError("feature table contains no segment rows")
        if unprintable := [name for name in (*names, *segments) if not name.isprintable()]:
            raise InputError(f"feature or segment name {unprintable[0]!r} is not printable")
        if NULL_GRAPHEME not in segments:
            segments[NULL_GRAPHEME] = Segment(
                grapheme=NULL_GRAPHEME,
                features=(False,) * len(names),
                system_fingerprint=self.fingerprint,
            )
        self._segments = segments
        self._row_of = {g: i for i, g in enumerate(segments)}
        self._features = np.array([s.features for s in segments.values()], dtype=bool)

    @property
    def null_segment(self) -> Segment:
        return self._segments[NULL_GRAPHEME]

    @property
    def graphemes(self) -> tuple[str, ...]:
        return tuple(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def get_segment(self, grapheme: str) -> Segment:
        """Look up one segment; unknown graphemes raise UnknownSegmentError."""
        try:
            return self._segments[grapheme]
        except KeyError:
            raise UnknownSegmentError(grapheme, self.source) from None

    def feature_rows(self, graphemes: Iterable[str]) -> np.ndarray:
        """Boolean (k, F) array of the segments' feature values, one row per grapheme."""
        try:
            return self._features[[self._row_of[g] for g in graphemes]]
        except KeyError as exc:
            raise UnknownSegmentError(exc.args[0], self.source) from None


def fingerprint_features(names: Sequence[str]) -> str:
    """SHA-256 of the tab-joined feature names, UTF-8 encoded, in hex."""
    return _sha256("\t".join(names).encode("utf-8")).hexdigest()


class GraphemeIndex(dict):
    """A grapheme → index map that compiles its tokenizing pattern once, on first
    use, so that tokenizing a list against it builds the pattern once, not per word."""

    @cached_property
    def pattern(self) -> re.Pattern:
        return _pattern(frozenset(self))


@lru_cache(maxsize=16)
def _pattern(graphemes: frozenset[str]) -> re.Pattern:
    # Longest first, so the first alternative that matches is the longest match; an
    # empty grapheme would match everywhere and never advance; "(?!)" never matches.
    return re.compile("|".join(map(re.escape, sorted(graphemes - {""}, key=len, reverse=True))) or "(?!)")


def tokenize(word: str, graphemes: Collection[str]) -> list[str]:
    """Greedy leftmost-longest segmentation of `word` over `graphemes`, after
    `textio.nfc`; no other normalization or diacritic composition is attempted.

    `graphemes` is a set or mapping, matched as one compiled alternation, longest
    first (a GraphemeIndex keeps its own; other collections share a small cache).
    Raises TokenizeError (with the offending offset) when no grapheme matches
    at some position. Deterministic for a fixed grapheme set.
    """
    word = textio.nfc(word)
    if not word:
        raise InputError("empty word")
    pattern = graphemes.pattern if isinstance(graphemes, GraphemeIndex) else _pattern(frozenset(graphemes))
    tokens = pattern.findall(word)
    if sum(map(len, tokens)) < len(word):  # findall skipped what no grapheme matches
        pos = 0
        while match := pattern.match(word, pos):
            pos = match.end()
        raise TokenizeError(word, pos)
    return tokens


def load_feature_table(source: str | Path | TextIO) -> Inventory:
    """Load a TSV feature table into an Inventory.

    The header must start with the literal column "segment"; remaining columns
    are feature names. Cells hold "+", "-" (or "−", U+2212) or "0". Blank
    lines and "#" comment lines are skipped, and errors name the file's line
    (see textio). Columns named "stress" or "tone" are discarded.
    """
    raw_names, rows = textio.read_table(source)
    keep = [i for i, name in enumerate(raw_names) if name not in DROPPED_FEATURES]
    names = [raw_names[i] for i in keep]
    if not names:
        raise InputError("feature table defines no usable features")

    parsed: list[tuple[str, FeatureVector]] = []
    for lineno, grapheme, cells in rows:
        if not grapheme:
            raise InputError(f"row {lineno}: empty segment name")
        for i in keep:
            if cells[i] not in _CELL_VALUES:
                raise InputError(
                    f"row {lineno}, feature {raw_names[i]!r}: bad value {cells[i]!r} "
                    '(expected "+", "-" or "0")'
                )
        parsed.append((grapheme, tuple(_CELL_VALUES[cells[i]] for i in keep)))

    return Inventory(names, parsed, str(source) if isinstance(source, (str, Path)) else "inventory")
