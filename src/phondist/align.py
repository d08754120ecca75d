"""Pairwise alignment and cognancy scoring on top of a distance matrix.

Pricing: a column of segments a and b scores sigma * (center - d(a, b)); a
segment x against a gap scores the gap constant, or sigma * (center - d(x, ∅))
in null_column mode. Gap penalties are linear.

Tie order: a cell takes the diagonal move, then up (a left-word segment
against a gap) on a strictly greater score, then left (a gap against a
right-word segment) on a strictly greater score. A local cell not above 0 is
floored at 0.0; a local alignment ends at the first best cell in row-major
order and starts after the last floored cell on its traceback path.

Kernels: `_align` fills a pair's table one anti-diagonal at a time and traces
back; `cognancy_matrix` scores chunks of one right-word length and at most
_CHUNK_CELLS cells with `_batch_scores`. Both add the gaps up left to
right along a global table's row and column 0, and compute each move's
candidate as one addition of an earlier cell and a table entry, so a pair
scores the same bits in either kernel.

Exactness premise: the kernels pick a cell's score with np.maximum and floor
local cells with a max against 0.0, and `_align` tells a diagonal move by
`best > diagonal candidate`, where the tie order asks for the first strictly
greater move and a floor when `not best > 0.0`. They agree bit for bit because
of two invariants of the tables ScoringScheme builds:

- No NaN. Matrix entries are finite and in [0, 1], center is in (0, 1], and
  sigma and the gap constant are finite, so |sim| <= sigma and every table
  entry is finite. Each addition has a finite addend, so a cell can reach
  +-inf but never NaN, where `>` and `maximum` (or `not x > 0` and
  `x <= 0`) would part.
- No -0.0. Every cell is a +0.0 origin or floor plus table entries, and in
  round-to-nearest x + y is -0.0 only when both are -0.0. Equal values thus
  have equal bits, and a tie cannot change a cell.

A table that could hold NaN or -0.0 needs the masked picks
(`greater` + `copyto(where=)`) back.
"""

import io
import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, repeat
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

# Traceback moves, one byte per DP cell. `_align` writes a diagonal's moves as two
# strict masks: best > diagonal move, as a boolean straight into the table, plus
# left > max(diagonal, up), as a uint8 add. A left win implies the first, so the sum
# is one of these only while _DIAG, _UP and _LEFT are 0, 1 and 2.
# _STOP marks where every traceback ends: cell (0, 0), and in local mode all of
# row 0 and column 0. `_align` writes it at setup, with the other boundary moves;
# its fill writes the rest and no _STOP, not even into a floored local cell.
_DIAG, _UP, _LEFT, _STOP = 0, 1, 2, 3

# The local floor, as a 0-d array: numpy converts a Python float operand on every call.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False

# DP cells per cognancy chunk, pairs x (longest left + right length + 1); its working arrays hold about
# 6 numbers per cell. The kernel's pairs/s peaks at 65,536-98,304 cells and falls beyond, as buffers outgrow cache.
_CHUNK_CELLS = 65536


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
        gaps = (np.full(len(self.matrix), self.gap_constant, dtype=float) if self.gap_mode == "constant"
                else sim[:, self.matrix.index(NULL_GRAPHEME)].copy())
        sim.flags.writeable = gaps.flags.writeable = False
        object.__setattr__(self, "_sim_array", sim)
        object.__setattr__(self, "_gap_array", gaps)


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
    taken without a copy. Words are written unescaped, so each must be printable."""

    words: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if unprintable := [w for w in self.words if not w.isprintable()]:
            raise InputError(f"word {unprintable[0]!r} is not printable")
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
    if isinstance(word, str):  # every token is in the index
        return list(map(s.matrix._index.__getitem__, tokenize(word, s.matrix._alphabet))) if word.strip() else []
    return [s.matrix.index(t) for t in word]


def _align(s: ScoringScheme, li: list[int], ri: list[int], local: bool) -> Alignment:
    """The dynamic program behind both aligners. It fills the move table one
    anti-diagonal d = i + j at a time (Wozniak 1997) and traces back from the end cell.

    A floored local cell keeps the move it picked before the floor, so a local
    traceback walks on to the boundary. It then adds the columns' table entries
    up again forward from 0.0, the fill's own additions in the fill's order, and
    the alignment starts after the last cell whose sum is not above 0.0. This
    costs a pass over the path and saves a mask and an override per diagonal.

    Diagonal buffers are indexed by i, so cell (i, d-i) reads cell i-1 of the
    two previous diagonals (diagonal and up moves) and cell i of the last one
    (left move). The move table stores the cells diagonal after diagonal, each
    ordered by i, so a diagonal's moves are one contiguous slice; its boundary
    moves are written before the fill. Each diagonal is a few numpy calls on
    slices of buffers allocated once: besides the move table and its n+m+1
    diagonal offsets, O(n+m) scores and one K×m table of the right word's
    similarities, K the number of matrix segments (about 0.5 MB for a
    1,000-segment word and 63 segments). Scores come from `np.maximum` under the
    exactness premise (module docstring). A move byte is the sum of two strict
    masks in the tie order: best > diagonal, written into the table's bool view,
    and left > max(diagonal, up), added as uint8 through the pick's uint8 view (a
    bool operand would be cast through a buffer). An `np.putmask` of the left
    moves in place of the add branches per cell on a random mask: it cost more
    than any other call of a diagonal. The ufuncs are looked up at call time,
    from the module's `np`.
    """
    n, m = len(li), len(ri)
    # Cell (i, j) at at[i + j] + i: diagonal after diagonal, each ordered by i. Diagonal d
    # holds cells max(0, d-m) .. min(n, d), so at[d] - at[d-1] = min(d, n+1) - max(0, d-m).
    d = np.arange(n + m + 1)
    at = (np.minimum(d, n + 1) + np.minimum(d, m) - d).cumsum()
    table = np.empty((n + 1) * (m + 1), dtype=np.uint8)  # the fill writes every interior cell
    table[at[:m + 1]], table[at[:n + 1] + d[:n + 1]] = (_STOP, _STOP) if local else (_LEFT, _UP)  # row 0, column 0
    table[0] = _STOP
    up = table.view(np.bool_)  # sliced per diagonal: cheaper than a view of each slice
    lidx, ridx = np.array(li, dtype=np.intp), np.array(ri, dtype=np.intp)
    gl, grrev = s._gap_array[lidx], s._gap_array[ridx[::-1]]  # cell (i, d-i) reads ri[d-i-1], at m-d+i in grrev
    if not local:  # the gaps added up left to right, as _batch_scores adds them
        top = list(accumulate(grrev[::-1].tolist(), initial=0.0))
        side = list(accumulate(gl.tolist(), initial=0.0))
    # sims[n+1 + k·m + j] = sim(k, ri[j]), so cell (i, d-i) reads sims[d + base[i-1]];
    # the n+1 leading pads keep base non-negative. "clip" on both takes skips a
    # buffered copy of `out`; every index is in range.
    sims = np.zeros(n + 1 + len(s._gap_array) * m)
    s._sim_array.take(ridx, axis=1, out=sims[n + 1:].reshape(len(s._gap_array), m), mode="clip")
    base = lidx * m + np.arange(n - 1, -1, -1)
    # Diagonals d-2, d-1 and d. Cells 0 and d of diagonal d are row 0 and
    # column 0: top and side in global mode. In local mode they stay 0.0, as no
    # diagonal before d writes them.
    older, last, cur = np.zeros((3, n + 1))
    g = np.array(s.gap_constant, dtype=float) if s.gap_mode == "constant" else None  # one add makes both gap moves
    cand, diag, lft, pick = np.empty(n + 1), np.empty(n), np.empty(n if g is None else 0), np.empty(n, dtype=bool)
    pick_u8 = pick.view(np.uint8)
    add, greater, maximum = np.add, np.greater, np.maximum
    score, i, j = 0.0, 0, 0
    with np.errstate(all="ignore"):  # Python floats overflow to inf without a warning
        # diagonal d holds cells lo .. hi, lo = max(1, d-m) and hi = min(n, d-1)
        for d, lo, hi in zip(range(1, n + m + 1), chain(repeat(1, m), range(1, n + 1)),
                             chain(range(n + 1), repeat(n, m - 1))):
            if not local and d <= m:
                cur[0] = top[d]
            if not local and d <= n:
                cur[d] = side[d]
            if lo <= hi:
                k, r = hi - lo + 1, m - d
                h, c, dg, p = cur[lo:hi + 1], cand[:k], diag[:k], pick[:k]
                o = at.item(d)
                sims[d:].take(base[lo - 1:hi], out=c, mode="clip")
                add(older[lo - 1:hi], c, out=dg)
                if g is None:  # the up candidates into c, the left ones into e
                    e = lft[:k]
                    add(last[lo - 1:hi], gl[lo - 1:hi], out=c)
                    add(last[lo:hi + 1], grrev[r + lo:r + hi + 1], out=e)
                else:  # cell lo+t moves up from last[lo-1+t] and left from last[lo+t]
                    add(last[lo - 1:hi + 1], g, out=cand[:k + 1])
                    e = cand[1:k + 1]
                maximum(dg, c, out=h)
                greater(e, h, out=p)  # left beat diagonal and up
                maximum(h, e, out=h)
                # cells (lo, d-lo) .. (hi, d-hi), contiguous: 1 where the best beat diagonal, + 1 where left won
                greater(h, dg, out=up[o + lo:o + hi + 1])
                add(t := table[o + lo:o + hi + 1], pick_u8[:k], out=t)  # _DIAG, _UP or _LEFT
                if local:  # a floored cell keeps its pick; the traceback finds it
                    maximum(h, _ZERO, out=h)
                    # the first best cell in row-major order: first on this diagonal; a
                    # later diagonal's tie comes first only from a smaller row
                    a = int(h.argmax())
                    if (best := h.item(a)) > score or (best == score and lo + a < i):
                        score, i, j = best, lo + a, d - lo - a
            older, last, cur = last, cur, older
    score, i, j = (score, i, j) if local else (last.item(n), n, m)
    del sims, base, older, last, cur  # free before the traceback builds its columns
    moves, at, seg, sim, gap = table.data, at.tolist(), s.matrix.segments, s._sim_array, s._gap_array
    columns: list[Column] = []
    while (which := moves[at[i + j] + i]) != _STOP:  # in local mode, on to the boundary
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
    if local:  # the fill's additions again, forward from the boundary's 0.0; the alignment starts after the last floor
        total, start = 0.0, len(columns)
        for k in range(len(columns) - 1, -1, -1):
            x, y = columns[k]
            total += gap.item(ri[j]) if x is None else gap.item(li[i]) if y is None else sim.item(li[i], ri[j])
            i, j = i + (x is not None), j + (y is not None)
            if not total > 0.0:
                total, start = 0.0, k
        del columns[start:]
    columns.reverse()
    return Alignment(tuple(columns), score)


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
    padded = np.zeros((lengths.max(), n), dtype=np.intp)  # (position, word); index 0 pads: any finite entry will do
    padded.T[np.arange(len(padded)) < lengths[:, None]] = list(chain.from_iterable(tokens))  # word by word
    # Python floats overflow to inf without a warning; so must the batch.
    with np.errstate(all="ignore"):
        for left, right in _pair_chunks(lengths, _CHUNK_CELLS):
            values = _batch_scores(s._sim_array, s._gap_array, padded, lengths, left, right, mode == "local")
            scores[left, right] = scores[right, left] = values
    return CognancyMatrix(words, scores)


def _pair_chunks(lengths: np.ndarray, budget: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair i < j of a word list with these lengths, once, as (left, right)
    index arrays; left holds i, the lower index.

    Pairs come grouped by lengths[j], ascending, one right length m per chunk,
    and left lengths never decrease within a chunk, as `_batch_scores` requires.
    A chunk of p pairs, its longest left word n segments, keeps p·(n + m + 1)
    within `budget` cells or is a single pair. Left words meet a right length's
    words a block at a time, so a few times budget / (m + 1) + len(lengths)
    indices are held at once.
    """
    order = np.argsort(lengths, kind="stable")  # by length, then index; not np.unique, which imports numpy.ma
    for m in sorted(set(lengths.tolist())):
        words = np.flatnonzero(lengths == m)
        left = right = np.empty(0, dtype=np.intp)
        step = max(1, budget // ((m + 1) * len(words)))  # at most budget / (m + 1) pairs, or one left word's
        for c in range(0, len(order), step):
            first = words.searchsorted(block := order[c:c + step], side="right")  # word k meets words[first[k]:]
            count = len(words) - first
            left = np.concatenate((left, block.repeat(count)))
            right = np.concatenate((right, words[np.arange(count.sum()) + (len(words) - count.cumsum()).repeat(count)]))
            # pairs [s, e) fit the budget when e - s <= budget // (longest left + m + 1), that is fit[e - 1] <= s
            fit = np.arange(1, len(left) + 1) - (budget // (np.arange(lengths.max() + 1) + m + 1))[lengths[left]]
            s, end = 0, len(left) + (c + step >= len(order))  # a chunk ends at a later pair, or the group's end
            while s < len(left) and (e := max(s + 1, int(fit.searchsorted(s, side="right")))) < end:
                yield left[s:e], right[s:e]
                s = e
            left, right = left[s:], right[s:]


def _batch_scores(sim, gaps, padded, lengths, left, right, local: bool) -> np.ndarray:
    """_align's scores for the pairs (left[k], right[k]), one array element per pair.

    Every right word has the same length m, and left lengths must not decrease
    along the pairs (`_pair_chunks` order). So row i of the table works on the
    pairs whose left word is longer than i, a suffix, and the global scores of
    the pairs whose left word ends there are one slice of row m. Arrays are laid
    out (DP column, pair); no cell a pair reads lies past its words. Each DP
    cell is computed into buffers allocated once per chunk. Cells are picked
    with `np.maximum` under the exactness premise (module docstring); in local
    mode the floor is taken before the left-gap chain: max(max(c, 0), l) = max(c, l, 0).
    """
    nl = lengths[left]
    n, m, p = nl.max(), lengths[right[0]], len(left)
    done = np.searchsorted(nl, np.arange(n + 1), side="right").tolist()  # pairs [0, done[i]) end by row i
    lw, rw = padded[:n].take(left, axis=1), padded[:m].take(right, axis=1)
    gl, gr = gaps[lw], gaps[rw]
    lw *= sim.shape[1]  # row offsets into the flat similarity table
    flat = sim.ravel()
    prev, row = np.zeros((2, m + 1, p))
    at, cand, lft = np.empty(m * p, dtype=np.intp), np.empty(m * p), np.empty(p)
    if local:
        score = np.zeros(p)
    else:
        for j in range(m):  # left-to-right additions, as accumulate() makes them
            np.add(prev[j], gr[j], out=prev[j + 1])
        score = prev[m].copy()  # the scores of pairs with an empty left word
    for i in range(n):
        d, k = done[i], p - done[i]  # row i works on the pairs whose left word is longer than i: [d, p)
        cur, last, g, ext = row[:, d:], prev[:, d:], gr[:, d:], lft[:k]
        idx, move = at[:m * k].reshape(m, k), cand[:m * k].reshape(m, k)  # contiguous, so `take` writes in place
        np.add(rw[:, d:], lw[i, d:], out=idx)
        flat.take(idx, out=move, mode="clip")  # indices are in range
        np.add(last[:-1], move, out=cur[1:])  # the diagonal move
        np.add(last[1:], gl[i, d:], out=move)  # the up move
        np.maximum(cur[1:], move, out=cur[1:])
        if local:  # floored before the left-gap chain; row[0] stays 0.0 in both buffers
            np.maximum(cur[1:], _ZERO, out=cur[1:])
        else:
            np.add(last[0], gl[i, d:], out=cur[0])
        for a, b, gj in zip(cur[:-1], cur[1:], g):  # the left-gap chain runs along the row
            np.add(a, gj, out=ext)
            np.maximum(b, ext, out=b)
        if local:
            cur.max(axis=0, out=ext)
            np.maximum(score[d:], ext, out=score[d:])
        else:  # the pairs whose left word ends at row i + 1
            score[d:done[i + 1]] = cur[m, :done[i + 1] - d]
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
