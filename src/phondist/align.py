"""Pairwise alignment and cognancy scoring on top of a distance matrix.

Distances are turned into alignment similarities with the linear transform
sigma * (center - d): pairs closer than `center` score positive, farther
pairs negative. Gaps are priced either against the null segment's column
(sigma * (center - d(x, ∅))) or with a flat constant; gap penalties are
linear, with no affine open/extend distinction.

One dynamic program (`_align`) serves both modes: local alignment floors each
cell at 0, global alignment does not (a floor of -inf), so an empty local
alignment is always admissible. It reads only the integer-indexed tables a
ScoringScheme builds once, takes O(n·m) time, keeps two score rows (O(m)
memory) and n·m bytes of traceback moves. Ties go to the diagonal, then a
left-word segment against a gap, then a right-word segment against a gap; a
local alignment ends at the first best cell in row-major order.

All-pairs cognancy needs scores only, so `cognancy_matrix` runs the same
recurrence without a traceback, batched across word pairs (the
inter-sequence layout of SWIPE, Rognes 2011): each DP cell is one numpy
operation over a chunk of up to _PAIR_CHUNK pairs, taken in row-major order.
Its working memory is set by the chunk and the longest word, not by the
length of the list. It makes the same choices in the same tie order with the
same float additions, so every score equals the per-pair aligner's bit for bit.
"""

import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, islice
from typing import Sequence

import numpy as np

from . import textio
from .errors import InputError, UnknownSegmentError
from .features import NULL_GRAPHEME, tokenize
from .matrix import DistanceMatrix

DEFAULT_SIGMA = 10.0
DEFAULT_CENTER = 0.75
DEFAULT_GAP = -5.0

Column = tuple[str | None, str | None]  # (left token, right token), None = gap

# Traceback moves, one byte per DP cell. _STOP ends a local alignment (the
# cell was floored) and marks the origin of a global one.
_STOP, _DIAG, _UP, _LEFT = 0, 1, 2, 3

# Word pairs scored together by cognancy_matrix, set by peak memory: its working
# arrays hold a few (longest word + 1) x _PAIR_CHUNK floats, about 0.7 MB for
# words of up to 8 segments. Larger chunks save little time and add to the peak.
_PAIR_CHUNK = 1024


@dataclass(frozen=True)
class ScoringScheme:
    matrix: DistanceMatrix
    sigma: float = DEFAULT_SIGMA
    center: float = DEFAULT_CENTER
    gap_mode: str = "constant"  # "constant" | "null_column"
    gap_constant: float = DEFAULT_GAP

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise InputError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 < self.center <= 1:
            raise InputError(f"center must be in (0, 1], got {self.center}")
        if self.gap_mode not in ("constant", "null_column"):
            raise InputError(f"unknown gap mode {self.gap_mode!r}")
        if self.gap_mode == "null_column" and NULL_GRAPHEME not in self.matrix:
            raise InputError("null_column gap mode needs a ∅ row in the matrix")
        if not math.isfinite(self.gap_constant):
            raise InputError(f"gap score must be finite, got {self.gap_constant}")
        # The kernel's tables, by matrix index: similarity rows, gap scores,
        # and the grapheme index (the matrix's own) the tokenizer probes.
        sim = self.sigma * (self.center - self.matrix.values)
        gaps = ([self.gap_constant] * len(self.matrix) if self.gap_mode == "constant"
                else sim[:, self.matrix.index(NULL_GRAPHEME)].tolist())
        object.__setattr__(self, "_sim", sim.tolist())
        object.__setattr__(self, "_gaps", gaps)
        object.__setattr__(self, "_index", self.matrix._index)


@dataclass(frozen=True)
class Alignment:
    columns: tuple[Column, ...]
    score: float

    @property
    def left_row(self) -> tuple[str | None, ...]:
        return tuple(col[0] for col in self.columns)

    @property
    def right_row(self) -> tuple[str | None, ...]:
        return tuple(col[1] for col in self.columns)


@dataclass(frozen=True)
class CognancyMatrix:
    words: tuple[str, ...]
    scores: list[list[float | None]]  # scores[i][j], None on the diagonal


def similarity(s: ScoringScheme, a: str, b: str) -> float:
    """sigma * (center - d(a, b)); positive for close pairs, negative for far."""
    return s.sigma * (s.center - s.matrix.get(a, b))


def gap_score(s: ScoringScheme, x: str) -> float:
    """Cost of aligning segment x against a gap."""
    if s.gap_mode == "constant":
        return s.gap_constant
    return s.sigma * (s.center - s.matrix.get(x, NULL_GRAPHEME))


def global_align(s: ScoringScheme, left: "str | Sequence[str]", right: "str | Sequence[str]") -> Alignment:
    """Optimal global alignment (maximum total column score)."""
    return _align(s, _indices(s, left), _indices(s, right), local=False)


def local_align(s: ScoringScheme, left: "str | Sequence[str]", right: "str | Sequence[str]") -> Alignment:
    """Best contiguous sub-alignment, floored at score 0 (may be empty)."""
    return _align(s, _indices(s, left), _indices(s, right), local=True)


# The aligners whose scores cognancy_matrix reproduces in batches.
_ALIGNERS = {"global": global_align, "local": local_align}


def _indices(s: ScoringScheme, word: "str | Sequence[str]") -> list[int]:
    """Matrix indices of a word's tokens: one lookup per token; unknown tokens raise.

    Empty input maps to no tokens, which the aligners accept (it forces an
    all-gap alignment).
    """
    if isinstance(word, str):
        word = tokenize(word, s._index) if word.strip() else []
    try:
        return [s._index[t] for t in word]
    except KeyError as exc:
        raise UnknownSegmentError(exc.args[0], where="matrix") from None


def _align(s: ScoringScheme, li: list[int], ri: list[int], local: bool) -> Alignment:
    """The dynamic program behind both aligners. A cell takes the first best of
    the diagonal, up (left token vs gap) and left (gap vs right token) moves;
    in local mode a cell not above 0 is floored at 0, where an alignment starts."""
    n, m = len(li), len(ri)
    gl = [s._gaps[k] for k in li]
    gr = [s._gaps[k] for k in ri]
    prev = [0.0] * (m + 1) if local else list(accumulate(gr, initial=0.0))
    moves = [bytes([_STOP] + [_STOP if local else _LEFT] * m)]
    best_score, best_cell = 0.0, (0, 0)
    for i in range(n):
        srow = s._sim[li[i]]
        g = gl[i]
        lft = 0.0 if local else prev[0] + g
        row = [lft]
        move = [_STOP if local else _UP]
        for d0, u0, r, gj in zip(prev, prev[1:], ri, gr):
            diag = d0 + srow[r]
            up = u0 + g
            lft += gj
            best, which = diag, _DIAG
            if up > best:
                best, which = up, _UP
            if lft > best:
                best, which = lft, _LEFT
            if local and not best > 0.0:
                best, which = 0.0, _STOP
            lft = best
            row.append(best)
            move.append(which)
        moves.append(bytes(move))
        prev = row
        if local and (top := max(row)) > best_score:
            best_score, best_cell = top, (i + 1, row.index(top))

    i, j = best_cell if local else (n, m)
    seg = s.matrix.segments
    columns: list[Column] = []
    while (which := moves[i][j]) != _STOP:
        if which == _DIAG:
            i -= 1
            j -= 1
            columns.append((seg[li[i]], seg[ri[j]]))
        elif which == _UP:
            i -= 1
            columns.append((seg[li[i]], None))
        else:
            j -= 1
            columns.append((None, seg[ri[j]]))
    columns.reverse()
    return Alignment(tuple(columns), best_score if local else prev[m])


def cognancy_matrix(
    s: ScoringScheme,
    words: Sequence[str],
    mode: str = "global",
) -> CognancyMatrix:
    """All-pairs alignment scores (diagonal left undefined); each word is tokenized once.

    A replaced module aligner (a profiler's wrapper, a test double) is called
    once per pair instead of the batched kernel, so whatever wraps
    `global_align` or `local_align` sees every pair.
    """
    if len(words) < 2:
        raise InputError(f"need at least 2 words, got {len(words)}")
    if mode not in ("global", "local"):
        raise InputError(f"unknown alignment mode {mode!r}")
    tokens = [_indices(s, w) for w in words]
    n = len(words)
    scores: list[list[float | None]] = [[None] * n for _ in range(n)]
    pairs = combinations(range(n), 2)  # row-major i < j, never all held at once
    aligner = global_align if mode == "global" else local_align
    if aligner is not _ALIGNERS[mode]:
        seg = s.matrix.segments
        segments = [[seg[k] for k in t] for t in tokens]
        for i, j in pairs:
            scores[i][j] = scores[j][i] = aligner(s, segments[i], segments[j]).score
        return CognancyMatrix(tuple(words), scores)
    lengths = np.array([len(t) for t in tokens])
    padded = np.zeros((n, lengths.max()), dtype=np.intp)  # index 0 pads: any finite entry will do
    for k, t in enumerate(tokens):
        padded[k, : len(t)] = t
    sim, gaps = np.array(s._sim), np.array(s._gaps)
    # Python floats overflow to inf without a warning; so must the batch.
    with np.errstate(all="ignore"):
        while len(chunk := np.fromiter(chain.from_iterable(islice(pairs, _PAIR_CHUNK)), np.intp)):
            left, right = chunk.reshape(-1, 2).T
            values = _batch_scores(sim, gaps, padded, lengths, left, right, mode == "local")
            for i, j, value in zip(left.tolist(), right.tolist(), values.tolist()):
                scores[i][j] = scores[j][i] = value
    return CognancyMatrix(tuple(words), scores)


def _batch_scores(sim, gaps, padded, lengths, left, right, local: bool) -> np.ndarray:
    """_align's scores for the pairs (left[k], right[k]), one array element per pair.

    Arrays are laid out (DP column, pair). A pair's words are padded past
    their lengths; no cell it reads lies in the padding, since cell (i, j)
    reads only cells above and to its left. Moves are chosen with strict `>`
    in _align's order, so NaN and signed zeros fall as they do there.
    """
    nl, ml = lengths[left], lengths[right]
    n, m = nl.max(), ml.max()
    ri = padded[right, :m].T
    gr = gaps[ri]
    pairs = np.arange(len(left))
    prev = np.zeros((m + 1, len(left)))
    if local:
        inside = np.arange(m + 1)[:, None] <= ml  # cells j <= m_k
        score = np.zeros(len(left))
    else:
        for j in range(m):  # left-to-right additions, as accumulate() makes them
            prev[j + 1] = prev[j] + gr[j]
        score = prev[ml, pairs]  # read now for pairs with an empty left word
    row = np.empty_like(prev)
    for i in range(n):
        li = padded[left, i]
        g = gaps[li]
        cand = prev[:-1] + sim[li, ri]  # the diagonal move, then up where it is better
        up = prev[1:] + g
        np.copyto(cand, up, where=up > cand)
        row[0] = 0.0 if local else prev[0] + g
        for j in range(m):  # the left-gap chain runs along the row
            lft = row[j] + gr[j]
            best = np.where(lft > cand[j], lft, cand[j])
            row[j + 1] = np.where(best > 0.0, best, 0.0) if local else best
        if local:  # floored cells are never NaN or -0.0, so maximum is exact here
            top = np.where(inside, row, 0.0).max(axis=0)
            score = np.where(i < nl, np.maximum(score, top), score)
        else:
            score = np.where(nl == i + 1, row[ml, pairs], score)
        prev, row = row, prev
    return score


def format_cognancy_tsv(cm: CognancyMatrix, threshold: float | None = None, header: str = "") -> str:
    """Render the score matrix as TSV: "-" diagonal, signed 2-decimal entries.

    With a threshold (not NaN), entries at or above it get a "*" suffix.
    """
    if threshold is not None and math.isnan(threshold):
        raise InputError("threshold must not be NaN")
    def rows():  # one row at a time: an n-word table has n² cells
        yield ["word", *cm.words]
        for word, scores in zip(cm.words, cm.scores):
            cells = [word]
            for value in scores:
                if value is None:
                    cells.append("-")
                else:
                    mark = "*" if threshold is not None and value >= threshold else ""
                    cells.append(f"{value:+.2f}{mark}")
            yield cells

    return textio.format_table(header, rows())


def format_alignment(alignment: Alignment) -> str:
    """Two space-separated rows, gaps rendered as "-"."""
    left = " ".join(t if t is not None else "-" for t in alignment.left_row)
    right = " ".join(t if t is not None else "-" for t in alignment.right_row)
    return f"{left}\n{right}"
