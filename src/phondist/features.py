"""Binary distinctive-feature inventories and IPA tokenization.

README's "Data formats" describes the feature table. The reserved null
segment "∅" stands for the absence of sound and is in every Inventory, so
scoring can price sound creation and deletion.
"""

import re
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TextIO

import numpy as np

from . import textio
from .errors import InputError, TokenizeError, UnknownSegmentError

NULL_GRAPHEME = "∅"

# Suprasegmental columns are not phoneme-level properties and are dropped
# from the table at load time.
DROPPED_FEATURES = ("stress", "tone")

FeatureVector = tuple[bool, ...]

# A feature-table cell's value: "0" marks a feature that does not apply; "−" is U+2212 MINUS SIGN.
_CELL_VALUES = {"+": True, "-": False, "0": False, "−": False}


@dataclass(frozen=True)
class Segment:
    """One speech sound: an IPA grapheme plus its binary feature values, under the
    feature names of the Inventory that made it (one tuple, shared by its segments)."""

    grapheme: str
    features: FeatureVector
    feature_names: tuple[str, ...]

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

        table: dict[str, FeatureVector] = {}
        for grapheme, values in rows:
            if not grapheme:
                raise InputError("empty segment name")
            if grapheme in table:
                raise InputError(f"duplicate segment row for {grapheme!r}")
            if len(features := tuple(values)) != len(names):
                raise InputError(f"segment {grapheme!r}: expected {len(names)} feature values, got {len(features)}")
            table[grapheme] = features
        if not table:
            raise InputError("feature table contains no segment rows")
        textio.refuse_unprintable((*names, *table), "feature or segment name {!r}")
        table.setdefault(NULL_GRAPHEME, (False,) * len(names))
        self._segments = {g: Segment(g, features, names) for g, features in table.items()}
        self._row_of = {g: i for i, g in enumerate(table)}
        self._features = np.array(list(table.values()), dtype=bool)

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


@lru_cache(maxsize=16)
def _pattern(graphemes: frozenset[str]) -> re.Pattern:
    # Longest first, so the first alternative that matches is the longest match; an
    # empty grapheme would match everywhere and never advance; "(?!)" never matches.
    return re.compile("|".join(map(re.escape, sorted(graphemes - {""}, key=len, reverse=True))) or "(?!)")


def tokenize(word: str, graphemes: Collection[str]) -> list[str]:
    """Greedy leftmost-longest segmentation of `word` over `graphemes`, after
    `textio.nfc`; no other normalization or diacritic composition is attempted.

    `graphemes` is a set or mapping, matched as one alternation, longest first,
    compiled once per grapheme set and cached. A frozenset is the cache key as it
    is; any other collection is copied into one on every call.
    Raises TokenizeError (with the offending offset) when no grapheme matches
    at some position. Deterministic for a fixed grapheme set.
    """
    word = textio.nfc(word)
    if not word:
        raise InputError("empty word")
    pattern = _pattern(frozenset(graphemes))
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
