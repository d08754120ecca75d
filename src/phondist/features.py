"""Binary distinctive-feature inventories and IPA tokenization.

A feature table (TSV, one row per segment, one column per feature) is loaded
into an immutable Inventory. Feature values are strictly binary: "+" is true,
"-" and "0" ("non applicable") are both false. The reserved null segment "∅"
stands for the absence of sound and is always present, so downstream scoring
can price sound creation and deletion.

Words are tokenized by greedy leftmost-longest match against the inventory
graphemes, which lets multi-codepoint entries (t͡s, aː, i̘) win over their
prefixes. Strings are NFC-normalized at load and parse time; no other
normalization or diacritic composition is attempted, so every grapheme a word
may contain must be listed in the table.

The table is read through textio as UTF-8.
"""

import hashlib
import unicodedata
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from . import textio
from .errors import InputError, TokenizeError, UnknownSegmentError

NULL_GRAPHEME = "∅"

# Suprasegmental columns are not phoneme-level properties and are dropped
# from the table at load time.
DROPPED_FEATURES = ("stress", "tone")

FeatureVector = tuple[bool, ...]


@dataclass(frozen=True)
class Segment:
    """One speech sound: an IPA grapheme plus its binary feature values."""

    grapheme: str
    features: FeatureVector
    is_null: bool = False
    system_fingerprint: str = ""

    def __repr__(self) -> str:
        return f"Segment({self.grapheme!r})"


class Inventory:
    """Immutable grapheme → Segment map over a fixed feature list."""

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
            if grapheme in segments:
                raise InputError(f"duplicate segment row for {grapheme!r}")
            if len(values) != len(names):
                raise InputError(
                    f"segment {grapheme!r} has {len(values)} feature values, expected {len(names)}"
                )
            segments[grapheme] = Segment(
                grapheme=grapheme,
                features=tuple(values),
                is_null=(grapheme == NULL_GRAPHEME),
                system_fingerprint=self.fingerprint,
            )
        if not segments:
            raise InputError("feature table contains no segment rows")
        if NULL_GRAPHEME not in segments:
            segments[NULL_GRAPHEME] = Segment(
                grapheme=NULL_GRAPHEME,
                features=(False,) * len(names),
                is_null=True,
                system_fingerprint=self.fingerprint,
            )
        self._segments = segments
        # Longest grapheme first makes the greedy tokenizer's probe order cheap.
        self._lengths = sorted({len(g) for g in segments}, reverse=True)

    @property
    def segments(self) -> dict[str, Segment]:
        return dict(self._segments)

    @property
    def null_segment(self) -> Segment:
        return self._segments[NULL_GRAPHEME]

    @property
    def graphemes(self) -> tuple[str, ...]:
        return tuple(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, grapheme: str) -> bool:
        return grapheme in self._segments

    def get_segment(self, grapheme: str) -> Segment:
        """Look up one segment; unknown graphemes raise UnknownSegmentError."""
        try:
            return self._segments[grapheme]
        except KeyError:
            raise UnknownSegmentError(grapheme, self.source) from None

    def parse(self, word: str) -> tuple[Segment, ...]:
        """Tokenize an IPA string into segments, greedy leftmost-longest."""
        tokens = tokenize(word, self._segments, self._lengths)
        return tuple(self._segments[t] for t in tokens)


def fingerprint_features(names: Sequence[str]) -> str:
    """Stable hash of an ordered feature-name list."""
    joined = "\t".join(names).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()


def tokenize(
    word: str,
    graphemes: Iterable[str],
    lengths: Sequence[int] | None = None,
) -> list[str]:
    """Greedy leftmost-longest segmentation of `word` over `graphemes`.

    A set or mapping of graphemes is probed as it is; another iterable is
    copied into a set first. Raises TokenizeError (with the offending offset)
    when no grapheme matches at some position. Deterministic for a fixed
    grapheme set.
    """
    word = unicodedata.normalize("NFC", word.strip())
    if not word:
        raise InputError("empty word")
    table = graphemes if isinstance(graphemes, (Set, Mapping)) else set(graphemes)
    if lengths is None:
        lengths = sorted({len(g) for g in table}, reverse=True)
    tokens: list[str] = []
    pos = 0
    n = len(word)
    while pos < n:
        for length in lengths:
            candidate = word[pos : pos + length]
            if len(candidate) == length and candidate in table:
                tokens.append(candidate)
                pos += length
                break
        else:
            raise TokenizeError(word, pos)
    return tokens


def render(segments: Iterable[Segment]) -> str:
    """Concatenate segment graphemes back into a word string."""
    return "".join(s.grapheme for s in segments)


def load_feature_table(source: str | Path | TextIO) -> Inventory:
    """Load a TSV feature table into an Inventory.

    The header must start with the literal column "segment"; remaining columns
    are feature names. Cells hold "+", "-" or "0". Blank lines and "#" comment
    lines are skipped (see textio). Columns named "stress" or "tone" are
    discarded.
    """
    rows = textio.read_lines(source)
    if not rows:
        raise InputError("feature table is empty")

    header = rows[0].split("\t")
    if not header or header[0].strip() != "segment":
        raise InputError('feature table header must start with a "segment" column')
    raw_names = [h.strip() for h in header[1:]]
    keep = [i for i, name in enumerate(raw_names) if name not in DROPPED_FEATURES]
    names = [raw_names[i] for i in keep]
    if not names:
        raise InputError("feature table defines no usable features")

    parsed: list[tuple[str, FeatureVector]] = []
    for lineno, line in enumerate(rows[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(raw_names) + 1:
            raise InputError(
                f"row {lineno}: expected {len(raw_names) + 1} columns, found {len(cells)}"
            )
        grapheme = unicodedata.normalize("NFC", cells[0].strip())
        if not grapheme:
            raise InputError(f"row {lineno}: empty segment name")
        values = []
        for i in keep:
            cell = cells[i + 1].strip()
            if cell == "+":
                values.append(True)
            elif cell in ("-", "0", "−"):
                values.append(False)
            else:
                raise InputError(
                    f"row {lineno}, feature {raw_names[i]!r}: bad value {cell!r} "
                    '(expected "+", "-" or "0")'
                )
        parsed.append((grapheme, tuple(values)))

    return Inventory(names, parsed, str(source) if isinstance(source, (str, Path)) else "inventory")
