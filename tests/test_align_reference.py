"""The alignment kernel against the full-table loop aligners in oracles.py.

The enumeration oracles in test_align.py and test_acceptance.py check scores
only. These tests require the whole Alignment to be equal, columns and exact
score, so they also pin the tie-breaks: diagonal before up before left, the
floor winning ties in local mode, and the first best cell in row-major order.
"""

import random

import numpy as np
import pytest

import phondist as pd
from phondist.matrix import DistanceMatrix

import oracles

MODES = [(pd.global_align, oracles.global_align), (pd.local_align, oracles.local_align)]
GAP_MODES = ["constant", "null_column"]


def tie_matrix(segments, seed):
    """Random symmetric distances drawn from {0, 0.5, 1} only, so many cells tie."""
    rng = random.Random(seed)
    n = len(segments)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = rng.choice((0.0, 0.5, 1.0))
    return DistanceMatrix(segments, values)


def schemes(matrix):
    # center=0.5 puts similarities and null-column gaps at exactly 0 for
    # d = 0.5, so local cells tie with the floor.
    return [
        pd.ScoringScheme(matrix=matrix, gap_mode=gap_mode, center=center)
        for gap_mode in GAP_MODES
        for center in (0.75, 0.5)
    ]


def random_word(rng, alphabet, max_len):
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


def assert_same(scheme, left, right):
    for kernel, reference in MODES:
        got = kernel(scheme, left, right)
        want = reference(scheme, left, right)
        assert got == want, (kernel.__name__, left, right)
        assert repr(got.score) == repr(want.score)


@pytest.mark.parametrize("matrix_kind", ["demo", "ties"])
def test_short_pairs_match_reference(matrix_kind, demo_matrix):
    matrix = demo_matrix if matrix_kind == "demo" else tie_matrix(demo_matrix.segments, 17)
    rng = random.Random(f"reference:{matrix_kind}")
    segments = list(matrix.segments)
    # 4 schemes x 300 pairs per matrix kind: 2,400 pairs in all, each in both modes.
    for scheme in schemes(matrix):
        for _ in range(300):
            # A small alphabet per pair makes repeated segments, and so ties, common.
            alphabet = rng.sample(segments, rng.randint(1, 5))
            assert_same(scheme, random_word(rng, alphabet, 7), random_word(rng, alphabet, 7))


def test_empty_words_match_reference(demo_matrix):
    scheme = pd.ScoringScheme(matrix=demo_matrix, gap_mode="null_column")
    for left, right in [("", ""), ("", "pakis"), ("pakis", ""), ([], ["a"]), (" ", "a")]:
        assert_same(scheme, left, right)


def test_string_words_match_reference(demo_matrix):
    scheme = pd.ScoringScheme(matrix=demo_matrix)
    for left, right in [("woldemort", "waldemar"), ("wladimir", "vladymir"), (" woldemort", "m")]:
        assert_same(scheme, left, right)


@pytest.mark.parametrize("gap_mode", GAP_MODES)
def test_long_pair_matches_reference(gap_mode, demo_matrix):
    rng = random.Random(f"reference-long:{gap_mode}")
    segments = [g for g in demo_matrix.segments if g != "∅"]
    left = [rng.choice(segments) for _ in range(200)]
    right = [rng.choice(segments) for _ in range(200)]
    assert_same(pd.ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode), left, right)


SKEWED = [(300, 2), (2, 300), (1, 200), (200, 0), (2000, 20)]


@pytest.mark.parametrize("n,m", SKEWED, ids=[f"{n}x{m}" for n, m in SKEWED])
@pytest.mark.parametrize("gap_mode", GAP_MODES)
@pytest.mark.parametrize("matrix_kind", ["demo", "ties"])
def test_skewed_pair_matches_reference(matrix_kind, gap_mode, n, m, demo_matrix):
    """A long word against a short or empty one: anti-diagonals no longer than the
    short word, and on the tie matrix, with center 0.5, cells that tie the floor."""
    matrix = demo_matrix if matrix_kind == "demo" else tie_matrix(demo_matrix.segments, 17)
    rng = random.Random(f"reference-skewed:{matrix_kind}:{gap_mode}:{n}x{m}")
    segments = [g for g in matrix.segments if g != "∅"]
    left = [rng.choice(segments) for _ in range(n)]
    right = [rng.choice(segments) for _ in range(m)]
    for scheme in schemes(matrix):
        if scheme.gap_mode == gap_mode:
            assert_same(scheme, left, right)


def test_overflowing_scores_match_reference(demo_matrix):
    # Gap sums overflow to -inf; a global alignment must still spell both words.
    scheme = pd.ScoringScheme(matrix=demo_matrix, gap_constant=-1e308)
    for left, right in [("aaa", "a"), ("a", "pakis"), ("pakis", "ak")]:
        assert_same(scheme, left, right)

