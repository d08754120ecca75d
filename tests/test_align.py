import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phondist as pd
from phondist import align, features, textio
from phondist.align import (
    CognancyMatrix,
    ScoringScheme,
    format_alignment,
    format_cognancy_tsv,
    gap_score,
    similarity,
)
from phondist.cli import main
from phondist.errors import InputError, UnknownSegmentError
from phondist.matrix import DistanceMatrix, export_matrix_tsv

import oracles
from conftest import child_env
from oracles import enumerate_global_score, enumerate_local_score, tokens_for

TEST1_WORDS = ["woldemort", "waldemar", "wladimir", "vladymir"]


@pytest.fixture(scope="module")
def scheme(fixture_matrix):
    return ScoringScheme(matrix=fixture_matrix)  # sigma=10, center=0.75, gap=-5


def null_matrix():
    """3-segment matrix with a ∅ column for null-gap tests."""
    segs = ["a", "b", "∅"]
    values = np.array([
        [0.0, 0.4, 1.0],
        [0.4, 0.0, 0.6],
        [1.0, 0.6, 0.0],
    ])
    return DistanceMatrix(segs, values)


class TestScoringScheme:
    def test_bad_sigma(self, fixture_matrix):
        with pytest.raises(InputError):
            ScoringScheme(matrix=fixture_matrix, sigma=0.0)

    def test_bad_center(self, fixture_matrix):
        with pytest.raises(InputError):
            ScoringScheme(matrix=fixture_matrix, center=0.0)
        with pytest.raises(InputError):
            ScoringScheme(matrix=fixture_matrix, center=1.5)

    def test_bad_gap_mode(self, fixture_matrix):
        with pytest.raises(InputError):
            ScoringScheme(matrix=fixture_matrix, gap_mode="affine")

    def test_null_mode_requires_null_row(self, fixture_matrix):
        with pytest.raises(InputError, match="∅"):
            ScoringScheme(matrix=fixture_matrix, gap_mode="null_column")

    def test_non_finite_sigma_or_gap(self, fixture_matrix):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(InputError, match="finite"):
                ScoringScheme(matrix=fixture_matrix, gap_constant=value)
        for value in (float("inf"), float("nan")):
            with pytest.raises(InputError, match="finite"):
                ScoringScheme(matrix=fixture_matrix, sigma=value)


class TestSimilarity:
    def test_identity_pair(self, scheme):
        assert similarity(scheme, "a", "a") == 7.5  # 10 * (0.75 - 0)

    def test_fixture_pair(self, scheme):
        # d(a, s) = 0.89 -> 10 * (0.75 - 0.89) = -1.4
        assert similarity(scheme, "a", "s") == pytest.approx(-1.4, abs=1e-12)

    def test_symmetry(self, scheme):
        for a, b in itertools.combinations(scheme.matrix.segments, 2):
            assert similarity(scheme, a, b) == similarity(scheme, b, a)

    def test_missing_segment_errors(self, scheme):
        with pytest.raises(InputError):
            similarity(scheme, "a", "q")


class TestGapScore:
    def test_constant_mode(self, scheme):
        for seg in scheme.matrix.segments:
            assert gap_score(scheme, seg) == -5.0

    def test_null_column_arithmetic(self):
        s = ScoringScheme(matrix=null_matrix(), gap_mode="null_column")
        assert gap_score(s, "a") == pytest.approx(-2.5, abs=1e-12)  # d=1.0
        assert gap_score(s, "b") == pytest.approx(1.5, abs=1e-12)  # d=0.6

    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    def test_missing_segment_errors_in_both_modes(self, gap_mode):
        s = ScoringScheme(matrix=null_matrix(), gap_mode=gap_mode)
        with pytest.raises(UnknownSegmentError, match="'zz'"):
            gap_score(s, "zz")


class TestGlobalAlign:
    def test_identical_words_gap_free(self, scheme):
        word = "pakis"
        alignment = pd.global_align(scheme, word, word)
        assert all(left == right for left, right in alignment.columns)
        assert not any(left is None or right is None for left, right in alignment.columns)
        assert alignment.score == sum(7.5 for _ in range(5))

    def test_empty_left_word_all_gaps(self, scheme):
        alignment = pd.global_align(scheme, "", "aki")
        assert [col[0] for col in alignment.columns] == [None, None, None]
        assert alignment.score == -15.0

    def test_both_empty(self, scheme):
        alignment = pd.global_align(scheme, "", "")
        assert alignment.columns == ()
        assert alignment.score == 0.0

    def test_score_symmetry(self, scheme):
        rng = random.Random(5)
        alphabet = list(scheme.matrix.segments)
        for _ in range(200):
            left = "".join(rng.choices(alphabet, k=rng.randint(1, 5)))
            right = "".join(rng.choices(alphabet, k=rng.randint(1, 5)))
            assert pd.global_align(scheme, left, right).score == pd.global_align(
                scheme, right, left
            ).score

    def test_columns_recover_inputs(self, scheme):
        alignment = pd.global_align(scheme, "paki", "ak")
        lefts = [c[0] for c in alignment.columns if c[0] is not None]
        rights = [c[1] for c in alignment.columns if c[1] is not None]
        assert lefts == ["p", "a", "k", "i"]
        assert rights == ["a", "k"]
        assert all(col != (None, None) for col in alignment.columns)

    def test_matches_enumeration_oracle_small(self, scheme):
        # Full cross of words of length <= 2 over a 5-segment alphabet.
        words = [()]  # include the empty word
        for n in (1, 2):
            words.extend(itertools.product("aikps", repeat=n))
        sim = lambda a, b: similarity(scheme, a, b)
        gap = lambda x: gap_score(scheme, x)
        for left in words:
            for right in words:
                expected = enumerate_global_score(left, right, sim, gap)
                got = pd.global_align(scheme, list(left), list(right)).score
                assert got == expected, (left, right)

    def test_score_equals_terminal_cell_on_longer_words(self, scheme):
        rng = random.Random(11)
        alphabet = list(scheme.matrix.segments)
        sim = lambda a, b: similarity(scheme, a, b)
        gap = lambda x: gap_score(scheme, x)
        for _ in range(300):
            left = tuple(rng.choices(alphabet, k=rng.randint(3, 4)))
            right = tuple(rng.choices(alphabet, k=rng.randint(3, 4)))
            expected = enumerate_global_score(left, right, sim, gap)
            assert pd.global_align(scheme, list(left), list(right)).score == expected

    def test_gap_coherence_huge_penalty(self, fixture_matrix):
        s = ScoringScheme(matrix=fixture_matrix, gap_constant=-1e9)
        rng = random.Random(3)
        alphabet = list(fixture_matrix.segments)
        for _ in range(50):
            n = rng.randint(1, 5)
            left = "".join(rng.choices(alphabet, k=n))
            right = "".join(rng.choices(alphabet, k=n))
            alignment = pd.global_align(s, left, right)
            assert all(None not in col for col in alignment.columns)

    def test_null_gap_mode_runs(self):
        s = ScoringScheme(matrix=null_matrix(), gap_mode="null_column")
        alignment = pd.global_align(s, "ab", "a")
        assert alignment.score == pd.global_align(s, "a", "ab").score

    def test_unknown_token_errors(self, scheme):
        with pytest.raises(InputError):
            pd.global_align(scheme, "aq", "a")

    @pytest.mark.parametrize("aligner", [pd.global_align, pd.local_align])
    def test_unknown_token_in_list_errors(self, scheme, aligner):
        with pytest.raises(UnknownSegmentError, match="'q'"):
            aligner(scheme, ["a", "q"], ["a"])
        with pytest.raises(UnknownSegmentError, match="'q'"):
            aligner(scheme, ["a"], ["q"])


class TestLocalAlign:
    def test_no_positive_pair_empty_alignment(self, scheme):
        # d(s, m) = 0.99 and d(s, n) = 0.99 -> similarities are negative.
        alignment = pd.local_align(scheme, "s", "m")
        assert alignment.columns == ()
        assert alignment.score == 0.0

    def test_floor_non_negative(self, scheme):
        rng = random.Random(23)
        alphabet = list(scheme.matrix.segments)
        for _ in range(300):
            left = "".join(rng.choices(alphabet, k=rng.randint(1, 4)))
            right = "".join(rng.choices(alphabet, k=rng.randint(1, 4)))
            assert pd.local_align(scheme, left, right).score >= 0.0

    def test_matches_enumeration_oracle_small(self, scheme):
        words = [()]
        for n in (1, 2):
            words.extend(itertools.product("aikps", repeat=n))
        sim = lambda a, b: similarity(scheme, a, b)
        gap = lambda x: gap_score(scheme, x)
        cache = {}
        for left in words:
            for right in words:
                expected = enumerate_local_score(left, right, sim, gap, cache)
                got = pd.local_align(scheme, list(left), list(right)).score
                assert got == expected, (left, right)

    def test_matches_oracle_on_longer_words(self, scheme):
        rng = random.Random(29)
        alphabet = list(scheme.matrix.segments)
        sim = lambda a, b: similarity(scheme, a, b)
        gap = lambda x: gap_score(scheme, x)
        cache = {}
        for _ in range(150):
            left = tuple(rng.choices(alphabet, k=rng.randint(3, 4)))
            right = tuple(rng.choices(alphabet, k=rng.randint(3, 4)))
            expected = enumerate_local_score(left, right, sim, gap, cache)
            assert pd.local_align(scheme, list(left), list(right)).score == expected

    def test_score_symmetry(self, scheme):
        rng = random.Random(31)
        alphabet = list(scheme.matrix.segments)
        for _ in range(200):
            left = "".join(rng.choices(alphabet, k=rng.randint(1, 5)))
            right = "".join(rng.choices(alphabet, k=rng.randint(1, 5)))
            assert pd.local_align(scheme, left, right).score == pd.local_align(
                scheme, right, left
            ).score

    def test_columns_are_contiguous_subwords(self, scheme):
        alignment = pd.local_align(scheme, "pakis", "akim")
        lefts = "".join(c[0] for c in alignment.columns if c[0] is not None)
        rights = "".join(c[1] for c in alignment.columns if c[1] is not None)
        assert lefts in "pakis"
        assert rights in "akim"


def tie_prone_pair(matrix, n, m, seed):
    """Words of n and m segments over three segments, so that many DP cells tie."""
    rng = random.Random(seed)
    alphabet = rng.sample([g for g in matrix.segments if g != "∅"], 3)
    return rng.choices(alphabet, k=n), rng.choices(alphabet, k=m)


# The kernels take np.maximum where the tie order, and the oracles, take the
# first strictly greater move; that is exact only while no cell is NaN or -0.0
# (see the align module). Signed-zero and subnormal tables make ties
# everywhere, and a gap of +-1.7e308 overflows cells to +-inf.
HARD_SCHEMES = [
    {"gap_constant": -0.0},
    {"gap_constant": 0.0},
    {"sigma": 5e-324, "center": 1.0},
    {"sigma": 5e-324, "center": 1.0, "gap_constant": -0.0},
    {"sigma": 5e-324},  # far pairs underflow to a -0.0 similarity
    {"sigma": 1.7e308, "gap_constant": 1.7e308},
    {"sigma": 1.7e308, "gap_constant": -1.7e308},
]


class SignCheckedNumpy:
    """numpy as the align module calls it, except that every float array written
    by np.add or np.maximum must hold no NaN and no -0.0. Those arrays are the
    vectorised kernels' candidates and cells, and no output shows a cell's sign
    of zero, so only this can catch a kernel that breaks the premise.

    A uint8 array written by np.add is a diagonal of `_align`'s move table, all
    its cells on or off the traceback path, and must hold only _DIAG, _UP and
    _LEFT; `move_writes` counts those writes."""

    def __init__(self):
        self.move_writes = 0

    def __getattr__(self, name):
        ufunc = getattr(np, name)
        if name not in ("add", "maximum"):
            return ufunc

        def checked(*args, out, **kwargs):
            ufunc(*args, out=out, **kwargs)
            if out.dtype == np.float64:
                assert not np.isnan(out).any(), f"np.{name} wrote NaN"
                assert not (np.signbit(out) & (out == 0.0)).any(), f"np.{name} wrote -0.0"
            elif out.dtype == np.uint8 and name == "add":
                moves = (align._DIAG, align._UP, align._LEFT)
                assert np.isin(out, moves).all(), f"np.add wrote moves {sorted(set(out.tolist()) - set(moves))}"
                self.move_writes += 1
            return out

        return checked


def assert_aligners_match_the_oracles(s, left, right):
    """Both aligners, under SignCheckedNumpy, give the oracles' columns and exact
    score, and write their interior moves, one diagonal per np.add, as _DIAG, _UP or _LEFT."""
    for aligner, reference in ((pd.global_align, oracles.global_align), (pd.local_align, oracles.local_align)):
        want = reference(s, left, right)
        with mock.patch.object(align, "np", checked := SignCheckedNumpy()):
            got = aligner(s, left, right)
        assert checked.move_writes == (len(left) + len(right) - 1 if left and right else 0)
        assert got == want
        assert repr(got.score) == repr(want.score)  # repr tells -0.0 from 0.0
        assert repr(want.score) not in ("-0.0", "nan")


class TestHardTables:
    """The aligners against the full-table oracles on tables made of ties, signed zeros and overflows."""

    @pytest.mark.parametrize("params", HARD_SCHEMES, ids=repr)
    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    def test_aligners_match_the_oracles_on_hard_tables(self, demo_matrix, params, gap_mode):
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode, **params)
        sizes = [(0, 4), (1, 1), (2, 9), (7, 3), (12, 12), (25, 40), (60, 9), (33, 31)]
        for seed, (n, m) in enumerate(sizes):
            assert_aligners_match_the_oracles(s, *tie_prone_pair(demo_matrix, n, m, seed))

    @pytest.mark.parametrize("params", HARD_SCHEMES, ids=repr)
    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    def test_skewed_pairs_match_the_oracles_on_hard_tables(self, demo_matrix, params, gap_mode):
        """Anti-diagonals capped by the short word, so most of them start or end on a boundary."""
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode, **params)
        for seed, (n, m) in enumerate([(1, 30), (30, 1), (80, 3), (4, 70)]):
            assert_aligners_match_the_oracles(s, *tie_prone_pair(demo_matrix, n, m, seed + 8))

    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    def test_a_local_run_after_far_segments_matches_the_oracles(self, demo_matrix, gap_mode):
        """The best local run starts after a block of far segments: s and aː are at
        distance 1 from each other and from ∅, so any column in the blocks scores
        below 0 in both gap modes. The traceback walks on through floored cells to
        the boundary before it finds where the run starts."""
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode)
        for block, n, m, seed in [(1, 6, 5, 7), (3, 12, 12, 1), (8, 9, 30, 4), (12, 30, 30, 6), (20, 25, 12, 24)]:
            left, right = tie_prone_pair(demo_matrix, n, m, seed)
            left, right = ["s"] * block + left, ["aː"] * block + right
            assert "s" not in left[block:] and "aː" not in right[block:]
            run = oracles.local_align(s, left, right)
            firsts = [next(t for t in row if t is not None) for row in (run.left_row, run.right_row)]
            assert firsts[0] != "s" and firsts[1] != "aː"  # so the run starts past both blocks
            assert_aligners_match_the_oracles(s, left, right)

    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    def test_a_prefix_summing_to_exactly_zero_is_floored(self, gap_mode):
        """Every column scores +5 or -5, so a walked path crosses a cell whose pre-floor
        value is exactly 0.0: floored, and the alignment starts after it."""
        values = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        s = ScoringScheme(matrix=DistanceMatrix(["a", "b", "∅"], values), center=0.5, gap_mode=gap_mode)
        for left, right in [("aaab", "abaab"), ("abab", "abbab"), ("abbab", "abab"), ("baaba", "baba")]:
            run = oracles.local_align(s, left, right)
            assert (len(run.columns), run.score) == (3, 15.0)  # not the 5-column run through the 0.0 cell
            assert_aligners_match_the_oracles(s, left, right)

    @settings(max_examples=300, deadline=None)
    @given(
        left=st.lists(st.integers(0, 2), max_size=40),
        right=st.lists(st.integers(0, 2), max_size=40),
        size=st.sampled_from([2, 3]),  # a 2- or 3-segment alphabet: ties in most cells
        alphabet_seed=st.integers(0, 2**32 - 1),
        gap_mode=st.sampled_from(["constant", "null_column"]),
    )
    def test_tie_prone_words_match_the_oracles(self, demo_matrix, left, right, size, alphabet_seed, gap_mode):
        alphabet = random.Random(alphabet_seed).sample([g for g in demo_matrix.segments if g != "∅"], size)
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode)
        assert_aligners_match_the_oracles(s, [alphabet[k % size] for k in left], [alphabet[k % size] for k in right])


def poisoned(empty):
    """np.empty whose buffers hold 0x7F bytes, NaN where they hold floats; the dtypes asked for go to `.dtypes`."""

    def poisoned_empty(shape, dtype=float, *args, **kwargs):
        buffer = empty(shape, dtype, *args, **kwargs)
        buffer.reshape(-1).view(np.uint8)[:] = 0x7F
        if buffer.dtype.kind == "f":
            buffer[...] = np.nan
        poisoned_empty.dtypes.append(buffer.dtype)
        return buffer

    poisoned_empty.dtypes = []
    return poisoned_empty


@pytest.mark.parametrize("params", HARD_SCHEMES, ids=repr)
@pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
def test_no_move_is_read_before_it_is_written(demo_matrix, params, gap_mode, monkeypatch):
    """The move table comes from np.empty, and the fill writes its boundary at
    setup and every interior cell once: poisoned buffers change no alignment."""
    s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode, **params)
    shapes = [(0, 4), (1, 1), (2, 9), (7, 3), (12, 12), (25, 40), (60, 9), (33, 31),
              (1, 30), (30, 1), (300, 2), (2, 300), (6, 0)]
    pairs = [tie_prone_pair(demo_matrix, n, m, seed) for seed, (n, m) in enumerate(shapes)]
    aligners = ((pd.global_align, oracles.global_align), (pd.local_align, oracles.local_align))
    want = [reference(s, left, right) for left, right in pairs for _, reference in aligners]
    empty = poisoned(np.empty)
    monkeypatch.setattr(np, "empty", empty)
    got = [aligner(s, left, right) for left, right in pairs for aligner, _ in aligners]
    monkeypatch.undo()
    assert np.dtype(np.uint8) in empty.dtypes  # the move table was poisoned
    assert [(a.columns, repr(a.score)) for a in got] == [(a.columns, repr(a.score)) for a in want]


@pytest.mark.parametrize("aligner", [pd.global_align, pd.local_align])
def test_anti_diagonal_fill_memory_is_the_move_table_and_linear_buffers(fixture_matrix, aligner):
    """Besides the (n+1)(m+1)-byte move table, stored diagonal after diagonal, and
    its n+m+1 integer diagonal offsets, the anti-diagonal fill holds O(n+m) scores
    and one K×m table of the right word's similarities, K the number of matrix
    segments; a per-cell float table (8·n·m bytes) would not fit the bound."""
    n = m = 300
    s = ScoringScheme(matrix=fixture_matrix)
    rng = random.Random(n)
    left, right = (rng.choices(fixture_matrix.segments, k=k) for k in (n, m))
    tracemalloc.start()
    try:
        aligner(s, left, right)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (n + 1) * (m + 1) + 8 * (len(fixture_matrix) * m + 4 * (n + 1)) + 64 * 2**10


class TestMonotonicity:
    def test_lowering_a_distance_never_lowers_scores(self, fixture_matrix):
        rng = random.Random(37)
        segs = fixture_matrix.segments
        alphabet = list(segs)
        for trial in range(60):
            i, j = rng.sample(range(len(segs)), 2)
            old = fixture_matrix.values[i, j]
            new_values = fixture_matrix.values.copy()
            decrease = rng.uniform(0.0, old)
            new_values[i, j] = new_values[j, i] = old - decrease
            lowered = DistanceMatrix(segs, new_values)

            s_old = ScoringScheme(matrix=fixture_matrix)
            s_new = ScoringScheme(matrix=lowered)
            left = "".join(rng.choices(alphabet, k=rng.randint(1, 4)))
            right = "".join(rng.choices(alphabet, k=rng.randint(1, 4)))
            assert pd.global_align(s_new, left, right).score >= pd.global_align(
                s_old, left, right
            ).score
            assert pd.local_align(s_new, left, right).score >= pd.local_align(
                s_old, left, right
            ).score


class TestCognancyMatrix:
    def test_shape_and_symmetry(self, scheme):
        cm = pd.cognancy_matrix(scheme, ["aki", "ak", "ki", "ika"], "global")
        n = len(cm.words)
        assert n == 4
        computed = [
            cm.scores[i][j] for i in range(n) for j in range(n) if i < j
        ]
        assert len(computed) == 6
        for i in range(n):
            assert math.isnan(cm.scores[i, i])
            for j in range(n):
                if i != j:
                    assert cm.scores[i][j] == cm.scores[j][i]

    def test_duplicate_word_scores_identity_value(self, scheme):
        cm = pd.cognancy_matrix(scheme, ["aki", "aki"], "global")
        assert cm.scores[0][1] == 3 * 7.5

    def test_needs_two_words(self, scheme):
        with pytest.raises(InputError):
            pd.cognancy_matrix(scheme, ["aki"], "global")

    def test_unknown_mode(self, scheme):
        with pytest.raises(InputError):
            pd.cognancy_matrix(scheme, ["aki", "ak"], "semiglobal")

    def test_local_mode(self, scheme):
        cm = pd.cognancy_matrix(scheme, ["aki", "ak", "sm"], "local")
        assert all(
            cm.scores[i][j] >= 0.0
            for i in range(3)
            for j in range(3)
            if i != j
        )

    def test_scores_are_a_read_only_square_array(self, scheme):
        cm = pd.cognancy_matrix(scheme, ["aki", "ak", "ki"], "global")
        assert cm.scores.shape == (3, 3) and cm.scores.dtype == np.float64
        with pytest.raises(ValueError):
            cm.scores[0, 1] = 0.0

    def test_a_score_table_of_the_wrong_shape_is_refused(self):
        with pytest.raises(InputError, match=r"shape \(2, 2\), expected \(3, 3\) for 3 words"):
            CognancyMatrix(("a", "b", "c"), [[None, 1.0], [1.0, None]])
        with pytest.raises(InputError, match=r"shape \(2, 3\)"):
            CognancyMatrix(("a", "b"), np.zeros((2, 3)))

    def test_an_unprintable_word_is_refused(self, scheme):
        # "a\t" tokenizes, as words are stripped first, but its tab would split the TSV header
        with pytest.raises(InputError, match=r"^word 'a\\t' is not printable$"):
            pd.cognancy_matrix(scheme, ["a\t", "i"])
        with pytest.raises(InputError, match=r"^word 'b\\x1b\[31m' is not printable$"):
            CognancyMatrix(("a", "b\x1b[31m"), np.zeros((2, 2)))

    def test_a_word_list_compiles_one_pattern(self, demo_matrix):
        words = [text.strip() for _, text in textio.read_lines(pd.bundled_path("wordlists/test1.txt"))]
        s = ScoringScheme(matrix=demo_matrix)
        features._pattern.cache_clear()
        pd.cognancy_matrix(s, words)
        pd.cognancy_matrix(s, words)
        assert features._pattern.cache_info().misses == 1

    def test_memory_is_the_score_array_and_a_row_of_output(self, demo_matrix, tmp_path, monkeypatch):
        """`phondist cognates` on 600 words holds the (n, n) float64 scores, the
        kernel's chunk buffers and one row of text: under 8·n² bytes + 4 MiB."""
        n = 600
        rng = random.Random(0)
        segments = [g for g in demo_matrix.segments if g != "∅"]
        words = tmp_path / "words.txt"
        words.write_text("\n".join("".join(rng.choices(segments, k=rng.randint(4, 8))) for _ in range(n)) + "\n",
                         encoding="utf-8")
        matrix = tmp_path / "matrix.tsv"
        export_matrix_tsv(demo_matrix, matrix)
        with open(os.devnull, "w", encoding="utf-8") as sink, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["cognates", "--matrix", str(matrix), "--words", str(words), "--threshold", "0"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 8 * n * n + 4 * 2**20

    def test_test1_words_on_demo_matrix(self, demo_matrix):
        s = ScoringScheme(matrix=demo_matrix)
        cm = pd.cognancy_matrix(s, TEST1_WORDS, "global")
        text = format_cognancy_tsv(cm)
        lines = text.strip().splitlines()
        assert lines[0].split("\t") == ["word"] + TEST1_WORDS
        assert len(lines) == 5
        cells = lines[1].split("\t")
        assert cells[1] == "-"
        # entries carry an explicit sign and two decimals
        for row in lines[1:]:
            for cell in row.split("\t")[1:]:
                if cell != "-":
                    assert cell[0] in "+-"
                    assert len(cell.split(".")[1]) == 2


def pairwise_score_reprs(s, words, mode):
    """repr of every score as the per-pair aligner gives it for i < j, mirrored below."""
    aligner = pd.global_align if mode == "global" else pd.local_align
    n = len(words)
    reprs = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        reprs[i][j] = reprs[j][i] = repr(aligner(s, words[i], words[j]).score)
    return reprs


def cognancy_score_reprs(s, words, mode):
    """repr of every score of cognancy_matrix, None on its NaN diagonal."""
    cm = pd.cognancy_matrix(s, words, mode)
    n = len(words)
    for i in range(n):
        assert math.isnan(cm.scores[i, i])
        for j in range(n):
            assert cm.scores[i, j].tobytes() == cm.scores[j, i].tobytes()  # one float per pair, mirrored
    return [[None if i == j else repr(v) for j, v in enumerate(row)] for i, row in enumerate(cm.scores.tolist())]


def list_words(graphemes, seed):
    """Words of 0-12 segments, two of each length, plus duplicates of an empty,
    a one-segment and a long word."""
    rng = random.Random(seed)
    words = ["".join(rng.choices(graphemes, k=n)) for n in range(13) for _ in range(2)]
    return words + ["", graphemes[0], words[-1]]


class TestBatchedCognancyIsExact:
    """cognancy_matrix scores pairs in batches; each score must be the per-pair aligner's, bit for bit."""

    @pytest.mark.parametrize("budget", [None, 1, 7, 64, 1024])
    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_every_score_repr_matches(self, demo_matrix, mode, gap_mode, budget, monkeypatch):
        if budget is not None:  # from single pairs to tens of pairs per chunk: crosses row and chunk edges
            monkeypatch.setattr(align, "_CHUNK_CELLS", budget)
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode)
        words = list_words([g for g in demo_matrix.segments if g != "∅"], seed=0)
        assert cognancy_score_reprs(s, words, mode) == pairwise_score_reprs(s, words, mode)

    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_every_score_repr_matches_the_oracles(self, demo_matrix, mode, gap_mode):
        """The batched kernel adds in the per-pair fill's order, so check it against
        the full-table oracles too, which share no kernel code with either."""
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode)
        words = list_words([g for g in demo_matrix.segments if g != "∅"], seed=1)
        reference = oracles.global_align if mode == "global" else oracles.local_align
        want = [[None if i == j else repr(reference(s, a, b).score) for j, b in enumerate(words)]
                for i, a in enumerate(words)]
        assert cognancy_score_reprs(s, words, mode) == want

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_overflow_to_infinity_matches_without_warnings(self, demo_matrix, mode):
        s = ScoringScheme(matrix=demo_matrix, sigma=1e308, gap_mode="null_column")
        words = list_words([g for g in demo_matrix.segments if g != "∅"], seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Python floats overflow silently
            got = cognancy_score_reprs(s, words, mode)
        assert got == pairwise_score_reprs(s, words, mode)
        assert any(r in ("inf", "-inf") for row in got for r in row)

    @pytest.mark.parametrize("params", HARD_SCHEMES, ids=repr)
    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_signed_zeros_and_extremes_match_with_their_sign(self, demo_matrix, params, gap_mode, mode):
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode, **params)
        words = list_words([g for g in demo_matrix.segments if g != "∅"], seed=4)
        with mock.patch.object(align, "np", SignCheckedNumpy()):
            got = cognancy_score_reprs(s, words, mode)
        assert got == pairwise_score_reprs(s, words, mode)  # repr tells -0.0 from 0.0
        assert not any(r == "-0.0" or r == "nan" for row in got for r in row)

    @settings(max_examples=300, deadline=None)
    @given(
        distances=st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
        sigma=st.floats(0.0, math.inf, exclude_min=True, exclude_max=True),
        center=st.floats(0.0, 1.0, exclude_min=True),
        gap_constant=st.floats(allow_nan=False, allow_infinity=False),
        gap_mode=st.sampled_from(["constant", "null_column"]),
    )
    @example(distances=[1.0, 1.0, 1.0], sigma=1.7976931348623157e308, center=1e-300,
             gap_constant=-1.7976931348623157e308, gap_mode="null_column")
    @example(distances=[-0.0, 1.0, 0.9], sigma=5e-324, center=0.75, gap_constant=-0.0, gap_mode="constant")
    def test_every_accepted_scheme_has_finite_tables(self, distances, sigma, center, gap_constant, gap_mode):
        """The no-NaN half of the kernel's exactness premise: every table entry is finite."""
        ab, an, bn = distances
        dm = DistanceMatrix(["a", "b", "∅"], [[0.0, ab, an], [ab, 0.0, bn], [an, bn, 0.0]])
        s = ScoringScheme(matrix=dm, sigma=sigma, center=center, gap_mode=gap_mode, gap_constant=gap_constant)
        assert np.isfinite(s._sim_array).all() and np.isfinite(s._gap_array).all()
        assert (np.abs(s._sim_array) <= sigma).all()

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_own_aligners_are_batched_and_a_replaced_one_gets_every_pair(self, demo_matrix, mode, monkeypatch):
        scheme = ScoringScheme(matrix=demo_matrix)
        batched = pd.cognancy_matrix(scheme, TEST1_WORDS, mode).scores
        calls = []
        aligner = align._ALIGNERS[mode]
        monkeypatch.setattr(align, f"{mode}_align", lambda *a: calls.append(a) or aligner(*a))
        assert pd.cognancy_matrix(scheme, TEST1_WORDS, mode).scores.tobytes() == batched.tobytes()
        assert len(calls) == 6  # the replacement, once per pair
        monkeypatch.undo()
        monkeypatch.setattr(align, "_align", None)  # the batched path runs no per-pair DP
        assert pd.cognancy_matrix(scheme, TEST1_WORDS, mode).scores.tobytes() == batched.tobytes()

    @pytest.mark.parametrize("bad", ["a#k", "a\nk", ["a", "q"]])
    def test_unknown_segment_raises_as_the_aligner_does(self, scheme, bad):
        with pytest.raises(InputError) as want:
            pd.global_align(scheme, bad, "a")
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            pd.cognancy_matrix(scheme, ["ak", bad, "ki"], "local")

    @settings(max_examples=60, deadline=None)
    @given(
        words=st.lists(
            st.lists(st.sampled_from(["a", "i", "u", "p", "t", "k", "m", "s"]), max_size=12),
            min_size=2,
            max_size=9,
        ),
        gap_mode=st.sampled_from(["constant", "null_column"]),
        mode=st.sampled_from(["global", "local"]),
        budget=st.integers(1, 400),
    )
    def test_hypothesis_lists(self, demo_matrix, words, gap_mode, mode, budget):
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode)
        words = ["".join(w) for w in words]
        with mock.patch.object(align, "_CHUNK_CELLS", budget):  # per example, not per test call
            assert cognancy_score_reprs(s, words, mode) == pairwise_score_reprs(s, words, mode)

    @pytest.mark.parametrize("gap_mode", ["constant", "null_column"])
    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_short_words_beside_long_ones_match_in_bounded_memory(self, demo_matrix, mode, gap_mode):
        """60 words of 0-6 segments and 2 of 150. Besides the 8·n² bytes of scores,
        cognancy_matrix holds one chunk's buffers (about 6 numbers per budget cell)
        and the enumeration's indices, not short pairs padded to the long words."""
        rng = random.Random(5)
        graphemes = [g for g in demo_matrix.segments if g != "∅"]
        words = ["".join(rng.choices(graphemes, k=k)) for k in [rng.randint(0, 6) for _ in range(60)] + [150, 150]]
        rng.shuffle(words)
        s = ScoringScheme(matrix=demo_matrix, gap_mode=gap_mode)
        tracemalloc.start()
        try:
            pd.cognancy_matrix(s, words, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(words)
        assert peak <= 8 * n * n + 8 * 8 * align._CHUNK_CELLS
        assert cognancy_score_reprs(s, words, mode) == pairwise_score_reprs(s, words, mode)


# Run in a fresh interpreter, where a lazy import shows: on numpy 2.x np.unique
# imports numpy.ma, about 15 ms of every `phondist cognates` run on a 2-CPU host.
# The package root's exports load on first use, so the probe resolves them first.
@pytest.mark.parametrize("budget", [None, 7])  # a length group in one chunk, or in blocks
@pytest.mark.parametrize("mode", ["global", "local"])
def test_constant_gaps_read_no_gap_table(demo_matrix, mode, budget, monkeypatch):
    """A constant-gap batch adds the scheme's 0-d gap, so a table of NaN gap scores changes no score."""
    if budget is not None:
        monkeypatch.setattr(align, "_CHUNK_CELLS", budget)
    s = ScoringScheme(matrix=demo_matrix)
    words = list_words([g for g in demo_matrix.segments if g != "∅"], seed=4)
    want = pd.cognancy_matrix(s, words, mode).scores.tobytes()
    object.__setattr__(s, "_gap_array", np.full_like(s._gap_array, np.nan))
    assert pd.cognancy_matrix(s, words, mode).scores.tobytes() == want


class TestListTokenizing:
    """cognancy_matrix tokenizes a list of str with one findall over the joined words. It
    must give the counts and indices that `_indices` gives word by word, and raise
    what the first word that `_indices` refuses raises."""

    @pytest.fixture(scope="class")
    def small(self):  # a precomposed grapheme and a two-letter one beside its first letter
        segments = ["a", "é", "k", "t", "ts", "∅"]
        rng = np.random.default_rng(0)
        values = np.triu(rng.random((6, 6)), 1)
        return ScoringScheme(matrix=DistanceMatrix(segments, values + values.T))

    @staticmethod
    def outcome(tokenized):
        """(counts, indices) of a tokenizing, or its error as (type, message)."""
        try:
            lengths, indices = tokenized()
        except InputError as exc:
            return type(exc), str(exc)
        return list(lengths), list(indices)

    def assert_same(self, s, words):
        def per_word():
            tokens = [align._indices(s, w) for w in words]
            return [len(t) for t in tokens], [k for t in tokens for k in t]

        want = self.outcome(per_word)
        assert self.outcome(lambda: align._list_indices(s, words)) == want
        return want

    @pytest.mark.parametrize("words", [
        ["ak", "tsak", "tak", "ék", "e\u0301k"],  # NFD é composes under NFC
        ["", "  ", "\t\n", "ak", " ka \n"],  # blank words have no tokens; the rest is stripped
        ["", ""],
        ["ak", ["ts", "a"], "k"],  # a token-list word: every word goes through _indices
    ])
    def test_counts_and_indices(self, small, words):
        assert isinstance(self.assert_same(small, words)[0], list)

    @pytest.mark.parametrize("words,raised", [
        (["ak", "a\nk", "k"], "cannot tokenize 'a\\nk'"),  # a line break inside a word
        (["ak", "aq", "a#k"], "cannot tokenize 'aq'"),  # two bad words: the first is raised
        (["k#", ["a", "q"]], "cannot tokenize 'k#'"),
        (["ka", ["a", "q"], "k#"], "unknown segment 'q'"),
    ])
    def test_the_first_bad_word_raises(self, small, words, raised):
        assert raised in self.assert_same(small, words)[1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.sampled_from(["a", "é", "e", "\u0301", "k", "t", "s", " ", "\n", "#"]), max_size=6),
                    min_size=2, max_size=8))
    def test_hypothesis_lists(self, small, words):
        self.assert_same(small, words)


IMPORT_PROBE = """
import sys
import phondist as pd

names = (pd.ScoringScheme, pd.load_reference_matrix, pd.cognancy_matrix, pd.global_align, pd.local_align)
before = set(sys.modules)
s = pd.ScoringScheme(matrix=pd.load_reference_matrix(pd.bundled_path("paper_table.tsv")))
for mode in ("global", "local"):
    pd.cognancy_matrix(s, ["pakis", "akim", "sun", "a", "wijam", ""], mode)
for aligner in (pd.global_align, pd.local_align):
    aligner(s, "pakis", "akim")
    aligner(s, "pa" * 120, "ka" * 110)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_aligning_imports_no_module():
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), capture_output=True, text=True,
                          encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_readme_quotes_the_kernel_constants():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())  # undo the line wrapping
    budget = re.search(r"(\d[\d,]*) DP cells", text)
    assert budget, "README no longer quotes the chunk's cell budget"
    assert int(budget[1].replace(",", "")) == align._CHUNK_CELLS


class TestPairChunks:
    """The batched kernel's enumeration: every pair once, one right length per chunk,
    left lengths in order, chunks within the cell budget."""

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.one_of(
            st.lists(st.integers(0, 12), min_size=2, max_size=40),
            st.tuples(st.integers(2, 40), st.integers(0, 12)).map(lambda nk: [nk[1]] * nk[0]),  # all equal
        ),
        budget=st.integers(1, 400),
    )
    @example(lengths=[5, 5], budget=1)
    @example(lengths=[3, 0], budget=64)
    @example(lengths=list(range(13)), budget=40)
    @example(lengths=[12] * 3 + [1] * 30, budget=40)  # blocks of one left word; chunks span blocks
    def test_every_pair_once_in_length_order(self, lengths, budget):
        chunks = [(left.tolist(), right.tolist()) for left, right in align._pair_chunks(np.array(lengths), budget)]
        pairs = [(i, j) for left, right in chunks for i, j in zip(left, right)]
        assert sorted(pairs) == list(itertools.combinations(range(len(lengths)), 2))  # left is the lower index
        for left, right in chunks:
            assert 0 < len(left) == len(right)
            assert len({lengths[j] for j in right}) == 1, "a chunk spans right lengths"
            nl, m = [lengths[i] for i in left], lengths[right[0]]
            assert nl == sorted(nl)
            assert len(left) * (nl[-1] + m + 1) <= budget or len(left) == 1
        ms = [lengths[right[0]] for _, right in chunks]
        assert ms == sorted(ms)
        for (left, _), (after, _), m, m_after in zip(chunks, chunks[1:], ms, ms[1:]):  # closed only when full
            assert m != m_after or (len(left) + 1) * (lengths[after[0]] + m + 1) > budget

    def test_no_chunk_exceeds_the_cell_budget(self, demo_matrix, monkeypatch):
        seen = []
        batch = align._batch_scores
        monkeypatch.setattr(align, "_CHUNK_CELLS", 100)
        monkeypatch.setattr(align, "_batch_scores", lambda *a: seen.append(
            (len(a[4]), a[3][a[4]].max() + a[3][a[5]].max() + 1)) or batch(*a))
        words = list_words([g for g in demo_matrix.segments if g != "∅"], seed=2)
        pd.cognancy_matrix(ScoringScheme(matrix=demo_matrix), words, "global")
        n = len(words)
        assert all(p * width <= 100 or p == 1 for p, width in seen)
        assert max(p for p, _ in seen) > 1 and sum(p for p, _ in seen) == n * (n - 1) // 2


def is_marked_cognate(score: float, threshold: float) -> bool:
    """The cognancy call format_cognancy_tsv makes for one pair score."""
    cm = pd.CognancyMatrix(("x", "y"), [[None, score], [score, None]])
    row = format_cognancy_tsv(cm, threshold=threshold).splitlines()[1].split("\t")
    return row[2].endswith("*")


class TestDecideCognate:
    def test_positive_signal(self):
        assert is_marked_cognate(27.93, 0.0)

    def test_negative_signal(self):
        assert not is_marked_cognate(-76.25, 0.0)

    def test_boundary_inclusive(self):
        assert is_marked_cognate(5.0, 5.0)

    def test_infinite_thresholds_mark_all_or_nothing(self):
        assert is_marked_cognate(-1e308, -math.inf)
        assert not is_marked_cognate(1e308, math.inf)

    def test_nan_threshold_errors(self):
        with pytest.raises(InputError, match="threshold must not be NaN"):
            is_marked_cognate(1.0, math.nan)


class TestFormatting:
    def test_alignment_rendering(self, scheme):
        alignment = pd.global_align(scheme, "pa", "a")
        rendered = format_alignment(alignment)
        assert rendered == "p a\n- a"

    def test_cognancy_threshold_marks(self, scheme):
        cm = pd.cognancy_matrix(scheme, ["aki", "aki", "sm"], "global")
        text = format_cognancy_tsv(cm, threshold=0.0)
        row = text.strip().splitlines()[1].split("\t")
        assert row[2].endswith("*")  # identical words score positive

    def test_tokens_validate_membership(self, scheme):
        with pytest.raises(InputError):
            tokens_for(scheme, ["a", "zz"])
