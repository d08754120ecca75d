"""Seeded inputs for the in-process workloads, and the statistics the harness reports.

Every generated word is a sequence of graphemes drawn from the bundled
feature table (62 segments, the null segment excluded). The inputs depend
only on the seed and the grapheme list, never on the program under test.
"""

import random
import statistics
import unicodedata
from pathlib import Path

NULL_GRAPHEME = "∅"

# cognancy-list: 150 distinct words, lengths 4..8 in equal shares. Fixing the
# length mix keeps the DP cell count identical for every seed, so the seed
# changes which segments meet (and so the traceback moves), not how much work
# a run does.
LIST_WORDS = 150
LIST_LENGTHS = range(4, 9)

# long-pair: one pair of 1,000-segment words.
LONG_LENGTH = 1000


def feature_graphemes(features_tsv: Path) -> list[str]:
    """Segment column of a feature table, in file order, null segment excluded."""
    graphemes = []
    with open(features_tsv, encoding="utf-8") as handle:
        rows = [line for line in handle if line.strip() and not line.lstrip().startswith("#")]
    for line in rows[1:]:
        g = unicodedata.normalize("NFC", line.split("\t", 1)[0].strip())
        if g != NULL_GRAPHEME:
            graphemes.append(g)
    return graphemes


def word_list(seed: int, graphemes: list[str], count: int = LIST_WORDS) -> list[tuple[str, ...]]:
    """`count` distinct words as token tuples, lengths cycling over LIST_LENGTHS."""
    rng = random.Random(f"cognancy-list:{seed}")
    lengths = [LIST_LENGTHS[i % len(LIST_LENGTHS)] for i in range(count)]
    rng.shuffle(lengths)
    words: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for n in lengths:
        while True:
            word = tuple(rng.choice(graphemes) for _ in range(n))
            if word not in seen:
                break
        seen.add(word)
        words.append(word)
    return words


def long_pair(seed: int, graphemes: list[str], length: int = LONG_LENGTH) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Two independent random words of `length` segments each."""
    rng = random.Random(f"long-pair:{seed}")
    return (
        tuple(rng.choice(graphemes) for _ in range(length)),
        tuple(rng.choice(graphemes) for _ in range(length)),
    )


def pair_cells(lengths: list[int]) -> int:
    """DP cells of all unordered pairs: sum over i < j of n_i * n_j."""
    total = sum(lengths)
    return (total * total - sum(n * n for n in lengths)) // 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
