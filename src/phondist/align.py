"""Pairwise alignment and cognancy scoring on top of a distance matrix.

Distances are turned into alignment similarities with the linear transform
sigma * (center - d): pairs closer than `center` score positive, farther
pairs negative. Gaps are priced either against the null segment's column
(sigma * (center - d(x, ∅))) or with a flat constant.

Global alignment is the classic maximum-sum dynamic program over pair and gap
columns; local alignment is its floored-at-zero variant, so an empty
alignment is always admissible. Traceback ties are broken deterministically:
diagonal first, then consuming a left-word segment against a gap, then a
right-word segment against a gap. Gap penalties are linear; there is no
affine open/extend distinction.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .features import NULL_GRAPHEME, tokenize
from .matrix import DistanceMatrix

DEFAULT_SIGMA = 10.0
DEFAULT_CENTER = 0.75
DEFAULT_GAP = -5.0

Column = tuple[str | None, str | None]  # (left token, right token), None = gap


@dataclass(frozen=True)
class ScoringScheme:
    matrix: DistanceMatrix
    sigma: float = DEFAULT_SIGMA
    center: float = DEFAULT_CENTER
    gap_mode: str = "constant"  # "constant" | "null_column"
    gap_constant: float = DEFAULT_GAP

    def __post_init__(self):
        if self.sigma <= 0:
            raise InputError(f"sigma must be > 0, got {self.sigma}")
        if not 0 < self.center <= 1:
            raise InputError(f"center must be in (0, 1], got {self.center}")
        if self.gap_mode not in ("constant", "null_column"):
            raise InputError(f"unknown gap mode {self.gap_mode!r}")
        if self.gap_mode == "null_column" and NULL_GRAPHEME not in self.matrix:
            raise InputError("null_column gap mode needs a ∅ row in the matrix")


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
    """Tokenize a word against the matrix graphemes (lists pass through).

    Empty input maps to the empty token list, which the aligners accept (it
    forces an all-gap alignment).
    """
    if isinstance(word, str):
        stripped = word.strip()
        if not stripped:
            return []
        return tokenize(stripped, set(s.matrix.segments))
    toks = list(word)
    for t in toks:
        s.matrix.index(t)  # raises for unknown tokens
    return toks


def global_align(s: ScoringScheme, left: "str | Sequence[str]", right: "str | Sequence[str]") -> Alignment:
    """Optimal global alignment (maximum total column score)."""
    lt = tokens_for(s, left)
    rt = tokens_for(s, right)
    n, m = len(lt), len(rt)
    gaps_l = [gap_score(s, t) for t in lt]
    gaps_r = [gap_score(s, t) for t in rt]

    score = [[0.0] * (m + 1) for _ in range(n + 1)]
    # 0 = diagonal, 1 = up (left token vs gap), 2 = left (gap vs right token)
    move = [[-1] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = score[i - 1][0] + gaps_l[i - 1]
        move[i][0] = 1
    for j in range(1, m + 1):
        score[0][j] = score[0][j - 1] + gaps_r[j - 1]
        move[0][j] = 2
    for i in range(1, n + 1):
        row = score[i]
        prev = score[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + similarity(s, lt[i - 1], rt[j - 1])
            up = prev[j] + gaps_l[i - 1]
            lft = row[j - 1] + gaps_r[j - 1]
            best, which = diag, 0
            if up > best:
                best, which = up, 1
            if lft > best:
                best, which = lft, 2
            row[j] = best
            move[i][j] = which

    columns: list[Column] = []
    i, j = n, m
    while i > 0 or j > 0:
        which = move[i][j]
        if which == 0:
            columns.append((lt[i - 1], rt[j - 1]))
            i -= 1
            j -= 1
        elif which == 1:
            columns.append((lt[i - 1], None))
            i -= 1
        else:
            columns.append((None, rt[j - 1]))
            j -= 1
    columns.reverse()
    return Alignment(tuple(columns), score[n][m])


def local_align(s: ScoringScheme, left: "str | Sequence[str]", right: "str | Sequence[str]") -> Alignment:
    """Best contiguous sub-alignment, floored at score 0 (may be empty)."""
    lt = tokens_for(s, left)
    rt = tokens_for(s, right)
    n, m = len(lt), len(rt)
    gaps_l = [gap_score(s, t) for t in lt]
    gaps_r = [gap_score(s, t) for t in rt]

    score = [[0.0] * (m + 1) for _ in range(n + 1)]
    # -1 = restart (score floored at 0), otherwise as in global_align
    move = [[-1] * (m + 1) for _ in range(n + 1)]
    best_score, best_cell = 0.0, (0, 0)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = score[i - 1][j - 1] + similarity(s, lt[i - 1], rt[j - 1])
            up = score[i - 1][j] + gaps_l[i - 1]
            lft = score[i][j - 1] + gaps_r[j - 1]
            best, which = 0.0, -1
            if diag > best:
                best, which = diag, 0
            if up > best:
                best, which = up, 1
            if lft > best:
                best, which = lft, 2
            score[i][j] = best
            move[i][j] = which
            if best > best_score:
                best_score, best_cell = best, (i, j)

    columns: list[Column] = []
    i, j = best_cell
    while move[i][j] != -1:
        which = move[i][j]
        if which == 0:
            columns.append((lt[i - 1], rt[j - 1]))
            i -= 1
            j -= 1
        elif which == 1:
            columns.append((lt[i - 1], None))
            i -= 1
        else:
            columns.append((None, rt[j - 1]))
            j -= 1
    columns.reverse()
    return Alignment(tuple(columns), best_score)


def cognancy_matrix(
    s: ScoringScheme,
    words: Sequence[str],
    mode: str = "global",
) -> CognancyMatrix:
    """All-pairs alignment scores for a word list (diagonal left undefined)."""
    if len(words) < 2:
        raise InputError(f"need at least 2 words, got {len(words)}")
    if mode not in ("global", "local"):
        raise InputError(f"unknown alignment mode {mode!r}")
    aligner = global_align if mode == "global" else local_align
    n = len(words)
    scores: list[list[float | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = aligner(s, words[i], words[j]).score
            scores[i][j] = value
            scores[j][i] = value
    return CognancyMatrix(tuple(words), scores)


def format_cognancy_tsv(cm: CognancyMatrix, threshold: float | None = None, header: str = "") -> str:
    """Render the score matrix as TSV: "-" diagonal, signed 2-decimal entries.

    With a threshold, entries at or above it get a "*" suffix.
    """
    out = []
    if header:
        out.append(f"# {header}")
    out.append("word\t" + "\t".join(cm.words))
    for i, word in enumerate(cm.words):
        cells = [word]
        for j in range(len(cm.words)):
            value = cm.scores[i][j]
            if value is None:
                cells.append("-")
            else:
                mark = "*" if threshold is not None and value >= threshold else ""
                cells.append(f"{value:+.2f}{mark}")
        out.append("\t".join(cells))
    return "\n".join(out) + "\n"


def format_alignment(alignment: Alignment, gap_symbol: str = "-") -> str:
    """Two space-separated rows, gaps rendered with `gap_symbol`."""
    left = " ".join(t if t is not None else gap_symbol for t in alignment.left_row)
    right = " ".join(t if t is not None else gap_symbol for t in alignment.right_row)
    return f"{left}\n{right}"
