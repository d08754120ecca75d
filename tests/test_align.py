import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phondist as pd
from phondist.align import (
    ScoringScheme,
    format_alignment,
    format_cognancy_tsv,
    gap_score,
    similarity,
    tokens_for,
)
from phondist.errors import InputError
from phondist.matrix import DistanceMatrix

from oracles import enumerate_global_score, enumerate_local_score

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
            assert cm.scores[i][i] is None
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
