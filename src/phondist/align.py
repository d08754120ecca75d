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
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

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


def tokens_for(s: ScoringScheme, word: "str | Sequence[str]") -> list[str]:
    """Tokenize a word against the matrix graphemes (a token list is checked)."""
    return [s.matrix.segments[k] for k in _indices(s, word)]


def global_align(s: ScoringScheme, left: "str | Sequence[str]", right: "str | Sequence[str]") -> Alignment:
    """Optimal global alignment (maximum total column score)."""
    return _align(s, _indices(s, left), _indices(s, right), local=False)


def local_align(s: ScoringScheme, left: "str | Sequence[str]", right: "str | Sequence[str]") -> Alignment:
    """Best contiguous sub-alignment, floored at score 0 (may be empty)."""
    return _align(s, _indices(s, left), _indices(s, right), local=True)


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
    """All-pairs alignment scores (diagonal left undefined); each word is tokenized once."""
    if len(words) < 2:
        raise InputError(f"need at least 2 words, got {len(words)}")
    if mode not in ("global", "local"):
        raise InputError(f"unknown alignment mode {mode!r}")
    aligner = global_align if mode == "global" else local_align
    tokens = [tokens_for(s, w) for w in words]
    n = len(words)
    scores: list[list[float | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = aligner(s, tokens[i], tokens[j]).score
            scores[i][j] = value
            scores[j][i] = value
    return CognancyMatrix(tuple(words), scores)


def format_cognancy_tsv(cm: CognancyMatrix, threshold: float | None = None, header: str = "") -> str:
    """Render the score matrix as TSV: "-" diagonal, signed 2-decimal entries.

    With a threshold, entries at or above it get a "*" suffix.
    """
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
