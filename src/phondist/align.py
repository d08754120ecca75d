"""Pairwise alignment and cognancy scoring on top of a distance matrix.

Distances are turned into alignment similarities with the linear transform
sigma * (center - d): pairs closer than `center` score positive, farther
pairs negative. Gaps are priced either against the null segment's column
(sigma * (center - d(x, ∅))) or with a flat constant; gap penalties are
linear, with no affine open/extend distinction.

One dynamic program (`_align`) serves both modes: local alignment floors each
cell at 0, global alignment does not (a floor of -inf), so an empty local
alignment is always admissible. It reads only the integer-indexed tables a
ScoringScheme builds once and takes O(n·m) time. Ties go to the diagonal, then
a left-word segment against a gap, then a right-word segment against a gap; a
local alignment ends at the first best cell in row-major order.

The table is filled in one of two layouts, chosen by size. Below the threshold
(_WAVEFRONT_DIAGONAL) `_rows` fills it row by row and keeps two score rows of
m+1 floats. At or above it, `_wavefront` fills it one anti-diagonal at a time
(Wozniak 1997) and keeps three score diagonals of n+1 floats. The threshold is
a mean anti-diagonal of 100 cells, n·m >= 100·(n+m): two 200-segment words and
up. Both write the same n·m bytes of traceback moves, about 1 MB for two
1,000-segment words, into the one table `_align` allocates and traces back.
Both make the same float additions in the same tie order, so the layout
changes the speed and never the alignment.

All-pairs cognancy needs scores only, so `cognancy_matrix` runs the same
recurrence without a traceback, batched across word pairs (the
inter-sequence layout of SWIPE, Rognes 2011): each DP cell is a few numpy
operations, into buffers allocated once per chunk, over a chunk of up to
_PAIR_CHUNK pairs. Pairs are taken in length order, grouped by the lengths of
their left and right words; a chunk's table is sized by the longest words in
it, and a chunk may span groups. The left word is always the earlier one,
since swapping the words changes the float additions. Besides the n×n score
array, the working memory is set by the chunk and the longest word, not by the
length of the list. It makes the aligner's float additions in the aligner's
order, but picks each cell with a vector max (np.maximum) where the aligner
takes the first strictly greater move. That is exact because no cell is ever
NaN or -0.0 (see _batch_scores), so equal candidates have equal bits and every
score equals the per-pair aligner's bit for bit. The TSV writer formats and
writes one row of that array at a time.
"""

import io
import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import textio
from .errors import InputError
from .features import NULL_GRAPHEME, tokenize
from .matrix import DistanceMatrix

DEFAULT_SIGMA = 10.0
DEFAULT_CENTER = 0.75
DEFAULT_GAP = -5.0

Column = tuple[str | None, str | None]  # (left token, right token), None = gap

# Traceback moves, one byte per DP cell. _STOP ends a local alignment (the
# cell was floored) and marks the origin of a global one.
_STOP, _DIAG, _UP, _LEFT = 0, 1, 2, 3

# Word pairs scored together by cognancy_matrix, set by time and peak memory: its
# working arrays hold a few (longest word + 1) x _PAIR_CHUNK numbers, about 1.4 MB
# for words of up to 8 segments. On 150 words of 4-8 segments 1024, 2048 and 4096
# run within 3% of each other, and 4096 adds to the peak.
_PAIR_CHUNK = 2048

# _align fills a table by anti-diagonals when they average at least this many
# cells, n·m / (n + m): each diagonal costs a dozen numpy calls whatever its
# length. 100 is the measured crossover (two 200-segment words). A 2,000 x 20
# pair has as many cells, but stays on rows, where it runs three times faster.
_WAVEFRONT_DIAGONAL = 100


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
        # The kernels' tables, by matrix index: similarity rows and gap scores.
        sim = self.sigma * (self.center - self.matrix.values)
        gaps = ([self.gap_constant] * len(self.matrix) if self.gap_mode == "constant"
                else sim[:, self.matrix.index(NULL_GRAPHEME)].tolist())
        object.__setattr__(self, "_sim", sim.tolist())
        object.__setattr__(self, "_gaps", gaps)
        gap_array = np.array(gaps)
        sim.flags.writeable = gap_array.flags.writeable = False
        object.__setattr__(self, "_sim_array", sim)
        object.__setattr__(self, "_gap_array", gap_array)


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
    """All-pairs scores of a word list: a read-only (n, n) float64 array, NaN on
    the diagonal. A list of lists is converted, None becoming NaN; an array is
    taken without a copy."""

    words: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        scores = np.asarray(self.scores, dtype=np.float64).view()  # only the view turns read-only
        if scores.shape != (n := len(self.words),) * 2:
            raise InputError(f"cognancy scores have shape {scores.shape}, expected ({n}, {n}) for {n} words")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)


def similarity(s: ScoringScheme, a: str, b: str) -> float:
    """sigma * (center - d(a, b)); positive for close pairs, negative for far."""
    return s.sigma * (s.center - s.matrix.get(a, b))


def gap_score(s: ScoringScheme, x: str) -> float:
    """Cost of aligning segment x against a gap; a segment the matrix lacks raises."""
    s.matrix.index(x)
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
        word = tokenize(word, s.matrix._index) if word.strip() else []
    return [s.matrix.index(t) for t in word]


def _align(s: ScoringScheme, li: list[int], ri: list[int], local: bool) -> Alignment:
    """The dynamic program behind both aligners. A cell takes the first best of
    the diagonal, up (left token vs gap) and left (gap vs right token) moves;
    in local mode a cell not above 0 is floored at 0, where an alignment starts.
    It sets up the move table, with its boundary moves, and the boundary scores
    of row 0 (`top`) and column 0 (`side`). Small pairs fill the interior row by
    row, large ones by anti-diagonals; both write the same moves and scores."""
    n, m = len(li), len(ri)
    width = m + 1
    moves = bytearray(width * (n + 1))  # _STOP everywhere
    if local:
        top, side = [0.0] * width, [0.0] * (n + 1)
    else:  # the gaps added up left to right, as the fills add them
        top = list(accumulate((s._gaps[k] for k in ri), initial=0.0))
        side = list(accumulate((s._gaps[k] for k in li), initial=0.0))
        moves[1:width] = [_LEFT] * m
        moves[width::width] = [_UP] * n
    fill = _wavefront if n * m >= _WAVEFRONT_DIAGONAL * (n + m) else _rows
    score, (i, j) = fill(s, li, ri, local, moves, top, side)
    seg = s.matrix.segments
    columns: list[Column] = []
    while (which := moves[i * width + j]) != _STOP:
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
    return Alignment(tuple(columns), score)


def _rows(s: ScoringScheme, li: list[int], ri: list[int], local: bool,
          moves: bytearray, top: list[float], side: list[float]) -> tuple[float, tuple[int, int]]:
    """Fills _align's interior cells one row at a time; returns the score and end cell."""
    width = len(top)
    gr = [s._gaps[k] for k in ri]
    prev = top
    best_score, best_cell = 0.0, (0, 0)
    for i, k in enumerate(li):
        srow, g = s._sim[k], s._gaps[k]
        lft = side[i + 1]
        row = [lft]
        move = []
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
        moves[(i + 1) * width + 1:(i + 2) * width] = move
        prev = row
        if local and (peak := max(row)) > best_score:
            best_score, best_cell = peak, (i + 1, row.index(peak))
    if local:
        return best_score, best_cell
    return prev[-1], (len(li), len(ri))


def _wavefront(s: ScoringScheme, li: list[int], ri: list[int], local: bool,
               moves: bytearray, top: list[float], side: list[float]) -> tuple[float, tuple[int, int]]:
    """_rows' fill, one anti-diagonal d = i + j at a time (Wozniak 1997).

    Diagonal buffers are indexed by i, so cell (i, d-i) reads cell i-1 of the
    two previous diagonals (diagonal and up moves) and cell i of the last one
    (left move). Each diagonal is a few numpy operations on slices of buffers
    allocated once, with _rows' additions and its tie order: diagonal, then
    up on a strictly greater score, then left on a strictly greater score.
    """
    n, m = len(li), len(ri)
    lidx = np.array(li, dtype=np.intp)
    rrev = np.array(ri[::-1], dtype=np.intp)  # cell (i, d-i) reads ri[d-i-1] = rrev[m-d+i]
    gl, grrev = s._gap_array[lidx], s._gap_array[rrev]
    lrow = lidx * len(s._gaps)  # row offsets into the flat similarity table
    sim = s._sim_array.ravel()
    table = np.frombuffer(moves, dtype=np.uint8)
    # Diagonals d-2, d-1 and d. Cells 0 and d of diagonal d are the boundary
    # row and column, copied from top and side.
    older, last, cur = np.zeros((3, n + 1))
    at, cand, pick = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=bool)
    best_score, best_cell = 0.0, (0, 0)
    with np.errstate(all="ignore"):  # Python floats overflow to inf without a warning
        for d in range(n + m + 1):
            if d <= m:
                cur[0] = top[d]
            if d <= n:
                cur[d] = side[d]
            lo, hi = max(1, d - m), min(n, d - 1)
            if lo <= hi:
                k, r = hi - lo + 1, m - d
                h, c, p = cur[lo:hi + 1], cand[:k], pick[:k]
                mv = table[d + lo * m:d + hi * m + 1:m]  # cells (lo, d-lo) .. (hi, d-hi)
                np.add(lrow[lo - 1:hi], rrev[r + lo:r + hi + 1], out=at[:k])
                sim.take(at[:k], out=c, mode="clip")  # indices are in range; "clip" skips a buffered copy
                np.add(older[lo - 1:hi], c, out=h)
                mv.fill(_DIAG)
                np.add(last[lo - 1:hi], gl[lo - 1:hi], out=c)
                np.greater(c, h, out=p)
                np.copyto(h, c, where=p)
                np.copyto(mv, _UP, where=p)
                np.add(last[lo:hi + 1], grrev[r + lo:r + hi + 1], out=c)
                np.greater(c, h, out=p)
                np.copyto(h, c, where=p)
                np.copyto(mv, _LEFT, where=p)
                if local:
                    np.logical_not(np.greater(h, 0.0, out=p), out=p)
                    np.copyto(h, 0.0, where=p)
                    np.copyto(mv, _STOP, where=p)
                    # the first best cell in row-major order: first on this diagonal,
                    # then against earlier diagonals by (i, j)
                    a = int(h.argmax())
                    score, cell = h.item(a), (lo + a, d - lo - a)
                    if score > best_score or (score == best_score and cell < best_cell):
                        best_score, best_cell = score, cell
            older, last, cur = last, cur, older
    if local:
        return best_score, best_cell
    return last.item(n), (n, m)


def cognancy_matrix(
    s: ScoringScheme,
    words: Sequence[str],
    mode: str = "global",
) -> CognancyMatrix:
    """All-pairs alignment scores (NaN on the diagonal); each word is tokenized once.

    A replaced module aligner (a profiler's wrapper, a test double) is called
    once per pair, in row-major order, instead of the batched kernel, so
    whatever wraps `global_align` or `local_align` sees every pair.
    """
    if len(words) < 2:
        raise InputError(f"need at least 2 words, got {len(words)}")
    if mode not in ("global", "local"):
        raise InputError(f"unknown alignment mode {mode!r}")
    tokens = [_indices(s, w) for w in words]
    n = len(words)
    scores = np.empty((n, n))
    np.fill_diagonal(scores, np.nan)
    aligner = global_align if mode == "global" else local_align
    if aligner is not _ALIGNERS[mode]:
        seg = s.matrix.segments
        segments = [[seg[k] for k in t] for t in tokens]
        for i, j in combinations(range(n), 2):
            scores[i, j] = scores[j, i] = aligner(s, segments[i], segments[j]).score
        return CognancyMatrix(words, scores)
    lengths = np.array([len(t) for t in tokens])
    padded = np.zeros((n, lengths.max()), dtype=np.intp)  # index 0 pads: any finite entry will do
    for k, t in enumerate(tokens):
        padded[k, : len(t)] = t
    # Python floats overflow to inf without a warning; so must the batch.
    with np.errstate(all="ignore"):
        for left, right in _pair_chunks(lengths, _PAIR_CHUNK):
            values = _batch_scores(s._sim_array, s._gap_array, padded, lengths, left, right, mode == "local")
            scores[left, right] = scores[right, left] = values
    return CognancyMatrix(words, scores)


def _pair_chunks(lengths: np.ndarray, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair i < j of a word list with these lengths, once, as (left, right)
    index arrays of at most `size` pairs; left holds i, the lower index.

    Pairs come grouped by (lengths[i], lengths[j]) in ascending order, so the
    words of a chunk have nearly equal lengths; a chunk may span groups. A group
    is enumerated a block of left words at a time, never whole, so at most
    2·size + len(lengths) indices are held at once.
    """
    groups = [np.flatnonzero(lengths == k) for k in np.unique(lengths)]  # ascending indices
    left = right = np.empty(0, dtype=np.intp)
    for ia in groups:
        for ib in groups:
            step = max(1, size // len(ib))
            for r in range(0, len(ia), step):
                rows, cols = np.nonzero(ia[r:r + step, None] < ib)
                left, right = np.concatenate((left, ia[r + rows])), np.concatenate((right, ib[cols]))
                while len(left) >= size:
                    yield left[:size], right[:size]
                    left, right = left[size:], right[size:]
    if len(left):
        yield left, right


def _batch_scores(sim, gaps, padded, lengths, left, right, local: bool) -> np.ndarray:
    """_align's scores for the pairs (left[k], right[k]), one array element per pair.

    Arrays are laid out (DP column, pair). A pair's words are padded past
    their lengths; no cell it reads lies in the padding, since cell (i, j)
    reads only cells above and to its left. Each DP cell is computed into
    buffers allocated once per chunk.

    A cell is picked with `np.maximum` (Farrar 2007; Rognes 2011), not with
    _align's strict `>` in its tie order, and in local mode the floor is
    taken before the left-gap chain: max(max(c, 0), l) = max(c, l, 0). The
    float additions are _align's, in its order. The picks agree bit for bit
    because of two invariants of the tables ScoringScheme builds:

    - No NaN. Matrix entries are finite and in [0, 1], center is in (0, 1],
      and sigma and the gap constant are finite, so |sim| <= sigma and every
      table entry is finite. Each addition has a finite addend, so a cell can
      reach +-inf but never NaN, where `>` and `maximum` would part.
    - No -0.0. Every cell is a +0.0 origin or floor plus table entries, and in
      round-to-nearest x + y is -0.0 only when both are -0.0. Equal values
      thus have equal bits, and a tie cannot change a cell.

    A table that could hold NaN or -0.0 needs the masked picks back.
    """
    nl, ml = lengths[left], lengths[right]
    n, m, p = nl.max(), ml.max(), len(left)
    pairs = np.arange(p)
    lw, rw = (np.ascontiguousarray(padded[words, :k].T) for words, k in ((left, n), (right, m)))
    lrow = lw * sim.shape[1]  # row offsets into the flat similarity table
    gl, gr = gaps[lw], gaps[rw]
    flat = sim.ravel()
    prev, row = np.zeros((2, m + 1, p))
    at, up, lft = np.empty((m, p), dtype=np.intp), np.empty((m, p)), np.empty(p)
    if local:
        outside = np.arange(m + 1)[:, None] > ml if (ml < m).any() else None  # cells j > m_k
        score, top = np.zeros(p), np.empty(p)
    else:
        for j in range(m):  # left-to-right additions, as accumulate() makes them
            np.add(prev[j], gr[j], out=prev[j + 1])
        score = prev[ml, pairs]  # read now for pairs with an empty left word
    for i in range(n):
        cand = row[1:]
        np.add(rw, lrow[i], out=at)
        flat.take(at, out=cand, mode="clip")  # indices are in range; "clip" skips a buffered copy
        np.add(prev[:-1], cand, out=cand)  # the diagonal move
        np.add(prev[1:], gl[i], out=up)  # the up move
        np.maximum(cand, up, out=cand)
        if local:  # floored before the left-gap chain; row[0] stays 0.0 in both buffers
            np.maximum(cand, 0.0, out=cand)
        else:
            np.add(prev[0], gl[i], out=row[0])
        for j in range(m):  # the left-gap chain runs along the row
            np.add(row[j], gr[j], out=lft)
            np.maximum(row[j + 1], lft, out=row[j + 1])
        if local:
            if outside is not None:
                np.copyto(row, 0.0, where=outside)  # later rows never read past m_k
            row.max(axis=0, out=top)
            np.maximum(score, top, out=score, where=i < nl)
        else:
            np.copyto(score, row[ml, pairs], where=nl == i + 1)
        prev, row = row, prev
    return score


def write_cognancy_tsv(cm: CognancyMatrix, sink: str | Path | TextIO, threshold: float | None = None,
                       header: str = "") -> None:
    """Write the score matrix as TSV, one row at a time: "-" diagonal, signed
    2-decimal entries.

    With a threshold (not NaN), entries at or above it get a "*" suffix.
    """
    _check_threshold(threshold)

    def rows():  # one % operation per row formats the scores twice as fast as one per cell
        yield ["word", *cm.words]
        for i, (word, scores) in enumerate(zip(cm.words, cm.scores)):
            cells = ["%+.2f"] * len(cm.words)
            if threshold is not None:
                with np.errstate(invalid="ignore"):  # the NaN diagonal is never marked
                    marked = np.flatnonzero(scores >= threshold).tolist()
                for j in marked:
                    cells[j] = "%+.2f*"
            cells[i] = "-"
            values = scores.tolist()
            del values[i]
            yield [word, "\t".join(cells) % tuple(values)]

    textio.write_table(sink, header, rows())


def format_cognancy_tsv(cm: CognancyMatrix, threshold: float | None = None, header: str = "") -> str:
    """The TSV that write_cognancy_tsv writes, as a string."""
    buffer = io.StringIO()
    write_cognancy_tsv(cm, buffer, threshold, header)
    return buffer.getvalue()


def _check_threshold(threshold: float | None) -> None:
    if threshold is not None and math.isnan(threshold):
        raise InputError("threshold must not be NaN")


def format_alignment(alignment: Alignment) -> str:
    """Two space-separated rows, gaps rendered as "-"."""
    left = " ".join(t if t is not None else "-" for t in alignment.left_row)
    right = " ".join(t if t is not None else "-" for t in alignment.right_row)
    return f"{left}\n{right}"
