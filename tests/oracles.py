"""Independent reference implementations used to check the package.

Everything here is deliberately brute-force or textbook-closed-form and
shares no code with the implementation under test, except where noted:

- alignment scores by recursive enumeration of all alignments (global) and
  of all substring pairs (local),
- least squares / ridge through the explicit normal equations,
- symmetric eigendecomposition by cyclic Jacobi rotations,
- tokenization by exhaustive segmentation search, and by the greedy
  length-by-length loop the package used before its compiled pattern,
- global and local alignment by the full-table loops the package used before
  its single rolling-row kernel. They share with the package only the
  scoring helpers `similarity` and `gap_score` and, through `tokens_for`,
  the tokenizer, and serve as the reference for columns and tie-breaks,
  which the enumerations above do not check.
"""

import math
import unicodedata
from typing import Sequence

import numpy as np

from phondist.align import Alignment, Column, ScoringScheme, gap_score, similarity
from phondist.errors import InputError, TokenizeError, UnknownSegmentError
from phondist.features import tokenize


def enumerate_global_score(left, right, sim, gap):
    """Max total score over every global alignment, by full recursion.

    Scores accumulate forward along each alignment, mirroring the order the
    dynamic program adds them in, so equality can be asserted exactly.
    """
    n, m = len(left), len(right)
    best = -math.inf

    def rec(i, j, acc):
        nonlocal best
        if i == n and j == m:
            if acc > best:
                best = acc
            return
        if i < n and j < m:
            rec(i + 1, j + 1, acc + sim(left[i], right[j]))
        if i < n:
            rec(i + 1, j, acc + gap(left[i]))
        if j < m:
            rec(i, j + 1, acc + gap(right[j]))

    rec(0, 0, 0.0)
    return best


def enumerate_local_score(left, right, sim, gap, _cache=None):
    """Best substring-pair global score, floored at zero.

    Every local alignment is a global alignment of one substring of each
    word, so enumerating substring pairs is exhaustive.
    """
    if _cache is None:
        _cache = {}
    best = 0.0
    subs_left = _substrings(left)
    subs_right = _substrings(right)
    for sub_l in subs_left:
        for sub_r in subs_right:
            key = (sub_l, sub_r)
            if key not in _cache:
                _cache[key] = enumerate_global_score(sub_l, sub_r, sim, gap)
            if _cache[key] > best:
                best = _cache[key]
    return best


def _substrings(tokens):
    tokens = tuple(tokens)
    out = {()}
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            out.add(tokens[i:j])
    return out


def normal_equations(X, y, lam=0.0):
    """Closed-form (X'X + lam*I)^-1 X'y with an unpenalized intercept column.

    Returns (intercept, coefficients). The design X must NOT contain the
    intercept column; it is prepended here.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Xa = np.column_stack([np.ones(len(X)), X])
    penalty = lam * np.eye(Xa.shape[1])
    penalty[0, 0] = 0.0
    beta = np.linalg.solve(Xa.T @ Xa + penalty, Xa.T @ y)
    return float(beta[0]), beta[1:]


def jacobi_eigh(A, sweeps=100, tol=1e-14):
    """Textbook cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors-as-columns), sorted descending.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = math.sqrt(sum(A[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < tol:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    eigenvalues = np.diag(A).copy()
    order = np.argsort(eigenvalues)[::-1]
    return eigenvalues[order], V[:, order]


def all_segmentations(word, graphemes):
    """Every way to split `word` into a sequence of inventory graphemes."""
    results = []

    def rec(pos, acc):
        if pos == len(word):
            results.append(tuple(acc))
            return
        for g in graphemes:
            if word.startswith(g, pos):
                acc.append(g)
                rec(pos + len(g), acc)
                acc.pop()

    rec(0, [])
    return results


def leftmost_longest(segmentations):
    """Pick the segmentation whose token-length sequence is lexicographically
    greatest, i.e. the one a greedy longest-match scan produces when it never
    dead-ends."""
    return max(segmentations, key=lambda seg: [len(t) for t in seg])


def greedy_tokenize(word, graphemes):
    """The tokenizer as the package wrote it before it compiled one pattern per
    grapheme set: after NFC, at each offset the longest grapheme that matches,
    tried length by length, and TokenizeError at the first offset where none
    does. An empty grapheme is never tried."""
    word = unicodedata.normalize("NFC", word.strip())
    if not word:
        raise InputError("empty word")
    lengths = sorted({len(g) for g in graphemes} - {0}, reverse=True)
    tokens, pos = [], 0
    while pos < len(word):
        token = next((word[pos:pos + k] for k in lengths
                      if len(word[pos:pos + k]) == k and word[pos:pos + k] in graphemes), None)
        if token is None:
            raise TokenizeError(word, pos)
        tokens.append(token)
        pos += len(token)
    return tokens


def tokens_for(s: ScoringScheme, word: "str | Sequence[str]") -> list[str]:
    """Tokenize a word against the matrix graphemes (a token list is checked)."""
    if isinstance(word, str):
        return tokenize(word, set(s.matrix.segments)) if word.strip() else []
    for t in word:
        if t not in s.matrix:
            raise UnknownSegmentError(t, where="matrix")
    return list(word)


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
