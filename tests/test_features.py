import hashlib
import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phondist as pd
from phondist.errors import InputError, TokenizeError, UnknownSegmentError
from phondist.features import GraphemeIndex, fingerprint_features, tokenize

from oracles import all_segmentations, greedy_tokenize, leftmost_longest

SMALL_TABLE = """\
segment\tconsonantal\tcontinuant\tstrident
p\t+\t-\t-
s\t+\t+\t+
"""


def small_inventory():
    return pd.load_feature_table(io.StringIO(SMALL_TABLE))


class TestLoadFeatureTable:
    def test_two_rows_plus_null(self):
        inv = small_inventory()
        assert len(inv) == 3  # p, s, ∅
        assert inv.feature_names == ("consonantal", "continuant", "strident")
        assert inv.get_segment("p").features == (True, False, False)
        assert inv.get_segment("s").features == (True, True, True)

    @pytest.mark.parametrize("cell", ["0", "-", "−"])  # the last is U+2212 MINUS SIGN
    def test_zero_cell_is_false(self, cell):
        table = f"segment\tclick\np\t{cell}\n"
        inv = pd.load_feature_table(io.StringIO(table))
        assert inv.get_segment("p").features == (False,)

    def test_tone_and_stress_columns_dropped(self):
        table = "segment\ttone\tconsonantal\tstress\np\t0\t+\t-\n"
        inv = pd.load_feature_table(io.StringIO(table))
        assert inv.feature_names == ("consonantal",)
        assert inv.get_segment("p").features == (True,)

    def test_null_segment_appended_all_false(self):
        inv = small_inventory()
        null = inv.null_segment
        assert null.grapheme == pd.features.NULL_GRAPHEME
        assert null.grapheme == "∅"
        assert null.features == (False, False, False)

    def test_duplicate_segment_errors(self):
        table = SMALL_TABLE + "p\t+\t-\t-\n"
        with pytest.raises(InputError, match="p"):
            pd.load_feature_table(io.StringIO(table))

    def test_unknown_cell_value_errors(self):
        table = "segment\tclick\np\t?\n"
        with pytest.raises(InputError, match="click"):
            pd.load_feature_table(io.StringIO(table))

    @pytest.mark.parametrize("table,match", [
        ("segment\tlong\tlong\np\t+\t-\n", "duplicate feature names"),
        ("segment\tstress\ttone\np\t+\t-\n", "no usable features"),
        ("segment\tlong\n \t+\n", "row 2: empty segment name"),
        ("# note\nsegment\tlong\np\t+\nb\t?\n", "row 4, feature 'long': bad value '\\?'"),
    ])
    def test_malformed_table_errors(self, table, match):
        with pytest.raises(InputError, match=match):
            pd.load_feature_table(io.StringIO(table))

    def test_empty_table_errors(self):
        with pytest.raises(InputError):
            pd.load_feature_table(io.StringIO(""))
        with pytest.raises(InputError):
            pd.load_feature_table(io.StringIO("segment\tclick\n"))

    def test_comments_ignored(self):
        table = "# comment\n" + SMALL_TABLE
        assert len(pd.load_feature_table(io.StringIO(table))) == 3

    def test_constant_feature_width(self, demo_inventory):
        widths = {len(demo_inventory.get_segment(g).features) for g in demo_inventory.graphemes}
        assert widths == {len(demo_inventory.feature_names)}

    @pytest.mark.parametrize("rows", [
        [("p", (True,)), ("q", (True, False))],
        [("q", (True, False)), ("p", (True, False, True))],
    ])
    def test_row_of_wrong_width_errors(self, rows):
        with pytest.raises(InputError, match="segment 'p': expected 2 feature values, got [13]"):
            pd.Inventory(("a", "b"), rows)

    def test_empty_segment_name_errors(self):
        with pytest.raises(InputError, match="empty segment name"):
            pd.Inventory(("f",), [("", (True,)), ("a", (False,))])

    @pytest.mark.parametrize("features,grapheme,name", [
        (("constricted\x1b[31mGlottis",), "p", "'constricted\\\\x1b\\[31mGlottis'"),
        (("a\tb",), "p", "'a\\\\tb'"),
        (("f",), "p\x01", "'p\\\\x01'"),
        (("f",), "x\ny", "'x\\\\ny'"),
        (("f",), "t\u200ds", "'t\\\\u200ds'"),  # a format character (ZERO WIDTH JOINER)
        (("f",), "\ud800", "'\\\\ud800'"),
    ], ids=["escape-in-feature", "tab-in-feature", "control", "line-break", "format", "surrogate"])
    def test_unprintable_name_errors(self, features, grapheme, name):
        with pytest.raises(InputError, match=f"^feature or segment name {name} is not printable$"):
            pd.Inventory(features, [("a", (False,)), (grapheme, (True,))])

    def test_combining_marks_tie_bars_and_null_are_printable(self):
        inv = pd.Inventory(("f",), [("t\u0361s", (True,)), ("i\u0318", (False,)), ("∅", (False,))])
        assert inv.graphemes == ("t\u0361s", "i\u0318", "∅")


class TestGetSegment:
    def test_lookup(self):
        inv = small_inventory()
        assert inv.get_segment("p").grapheme == "p"

    def test_null_lookup(self):
        inv = small_inventory()
        assert inv.get_segment("∅") is inv.null_segment

    def test_missing_carries_grapheme(self):
        inv = small_inventory()
        with pytest.raises(UnknownSegmentError) as exc:
            inv.get_segment("ʘ")
        assert exc.value.grapheme == "ʘ"


class TestParseIpa:
    def test_tochter(self, demo_inventory):
        assert tokenize("tɔxtər", set(demo_inventory.graphemes)) == ["t", "ɔ", "x", "t", "ə", "r"]

    def test_longest_match_wins(self):
        table = "segment\tconsonantal\nt\t+\nʃ\t+\ntʃ\t+\na\t-\n"
        inv = pd.load_feature_table(io.StringIO(table))
        assert tokenize("tʃa", set(inv.graphemes)) == ["tʃ", "a"]

    def test_tie_bar_affricate(self, demo_inventory):
        assert tokenize("t͡sa", set(demo_inventory.graphemes)) == ["t͡s", "a"]

    def test_unmatched_offset(self):
        inv = small_inventory()
        with pytest.raises(TokenizeError) as exc:
            tokenize("pq", set(inv.graphemes))
        assert exc.value.offset == 1

    def test_an_empty_grapheme_is_never_tried(self):
        # it would match at every offset without advancing, so tokenize would never return
        for graphemes in ({"", "a"}, GraphemeIndex({"": 0, "a": 1})):
            assert tokenize("aa", graphemes) == ["a", "a"]
            with pytest.raises(TokenizeError) as exc:
                tokenize("ab", graphemes)
            assert exc.value.offset == 1

    def test_empty_word_errors(self):
        with pytest.raises(InputError):
            tokenize("   ", set(small_inventory().graphemes))

    def test_longest_match_invariant(self, demo_inventory):
        # No produced token is a proper prefix of a longer grapheme that
        # also matches at the same position.
        word = "at͡ʃaːkʼi̘mp͈a"
        graphemes = set(demo_inventory.graphemes)
        pos = 0
        for token in tokenize(word, graphemes):
            for g in graphemes:
                if len(g) > len(token) and word.startswith(g, pos):
                    pytest.fail(f"{token!r} at {pos} is shadowed by longer {g!r}")
            pos += len(token)


class TestGreedyMatchesOracle:
    # 10-grapheme inventory with overlapping prefixes; greedy never
    # dead-ends on concatenations of these.
    GRAPHEMES = ["t", "tʃ", "ʃ", "a", "aː", "k", "kx", "x", "m", "i"]

    def _inventory(self):
        rows = "\n".join(f"{g}\t+" for g in self.GRAPHEMES)
        return pd.load_feature_table(io.StringIO(f"segment\tconsonantal\n{rows}\n"))

    def test_all_short_words_and_sampled_long_ones(self):
        graphemes = set(self._inventory().graphemes)
        words = set()
        for n in (1, 2, 3, 4):
            for combo in itertools.product(self.GRAPHEMES, repeat=n):
                words.add("".join(combo))
        rng = random.Random(20240901)
        for _ in range(2000):
            n = rng.choice((5, 5, 6))
            words.add("".join(rng.choice(self.GRAPHEMES) for _ in range(n)))

        for word in sorted(words):
            segmentations = all_segmentations(word, self.GRAPHEMES)
            assert segmentations, word  # every concatenation stays parseable
            expected = leftmost_longest(segmentations)
            got = tuple(tokenize(word, graphemes))
            assert got == expected, word


def _outcome(tokenize_fn, word, graphemes):
    """The tokens, or the kind of error and, for TokenizeError, its offset."""
    try:
        return tokenize_fn(word, graphemes)
    except TokenizeError as exc:
        return ("TokenizeError", exc.offset)
    except InputError as exc:
        return (type(exc).__name__,)


class TestCompiledPatternMatchesGreedyLoop:
    # regex metacharacters, graphemes that are prefixes of others, multi-code-point
    # graphemes (a tie bar, a length mark, a decomposed accent) and the empty grapheme
    POOL = [".", "*", "+", "?", "(", "[", "\\", "|", "^", "$", ")", "{", ".*", "a|b", "\\d", "(?",
            "a", "ab", "abc", "b", "t", "t\u0361", "t\u0361s", "a\u02d0", "\u02d0", "\u00e9", "e\u0301", " ", ""]
    CHARS = "ab.*+?([\\|^$)tse\u0301\u00e9\u0361\u02d0 #x"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_tokens_and_offsets(self, data):
        graphemes = data.draw(st.sets(st.one_of(st.sampled_from(self.POOL), st.text(self.CHARS, max_size=3)),
                                      max_size=12))
        pieces = st.text(self.CHARS, max_size=2)
        if graphemes:
            pieces |= st.sampled_from(sorted(graphemes))
        word = "".join(data.draw(st.lists(pieces, min_size=1, max_size=8)))
        expected = _outcome(greedy_tokenize, word, graphemes)
        index = GraphemeIndex({g: k for k, g in enumerate(sorted(graphemes))})
        assert _outcome(tokenize, word, graphemes) == expected
        assert _outcome(tokenize, word, index) == expected


class TestRender:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip(self, demo_inventory, data):
        graphemes = data.draw(
            st.lists(st.sampled_from(sorted(demo_inventory.graphemes)), min_size=1, max_size=8)
        )
        word = "".join(graphemes)
        parsed = tokenize(word, set(demo_inventory.graphemes))
        assert "".join(parsed) == word
        # determinism
        assert tokenize(word, set(demo_inventory.graphemes)) == parsed


class TestFingerprint:
    """The built-in SHA-256 the fingerprint uses gives hashlib's digest, so model files keep it."""

    @staticmethod
    def reference(names):
        return hashlib.sha256("\t".join(names).encode("utf-8")).hexdigest()

    def test_bundled_names(self):
        inv = pd.load_feature_table(pd.bundled_path("features.tsv"))
        assert inv.fingerprint == fingerprint_features(inv.feature_names) == self.reference(inv.feature_names)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12), max_size=8))
    def test_any_names(self, names):
        assert fingerprint_features(names) == self.reference(names)
