import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phondist as pd
from phondist.errors import InputError, TokenizeError, UnknownSegmentError

from oracles import all_segmentations, leftmost_longest

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

    def test_zero_cell_is_false(self):
        table = "segment\tclick\np\t0\n"
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

    def test_empty_table_errors(self):
        with pytest.raises(InputError):
            pd.load_feature_table(io.StringIO(""))
        with pytest.raises(InputError):
            pd.load_feature_table(io.StringIO("segment\tclick\n"))

    def test_comments_ignored(self):
        table = "# comment\n" + SMALL_TABLE
        assert len(pd.load_feature_table(io.StringIO(table))) == 3

    def test_constant_feature_width(self, demo_inventory):
        widths = {len(s.features) for s in demo_inventory.segments.values()}
        assert widths == {len(demo_inventory.feature_names)}


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
        segs = demo_inventory.parse("tɔxtər")
        assert [s.grapheme for s in segs] == ["t", "ɔ", "x", "t", "ə", "r"]

    def test_longest_match_wins(self):
        table = "segment\tconsonantal\nt\t+\nʃ\t+\ntʃ\t+\na\t-\n"
        inv = pd.load_feature_table(io.StringIO(table))
        assert [s.grapheme for s in inv.parse("tʃa")] == ["tʃ", "a"]

    def test_tie_bar_affricate(self, demo_inventory):
        segs = demo_inventory.parse("t͡sa")
        assert [s.grapheme for s in segs] == ["t͡s", "a"]

    def test_unmatched_offset(self):
        inv = small_inventory()
        with pytest.raises(TokenizeError) as exc:
            inv.parse("pq")
        assert exc.value.offset == 1

    def test_empty_word_errors(self):
        with pytest.raises(InputError):
            small_inventory().parse("   ")

    def test_longest_match_invariant(self, demo_inventory):
        # No produced token is a proper prefix of a longer grapheme that
        # also matches at the same position.
        word = "at͡ʃaːkʼi̘mp͈a"
        graphemes = set(demo_inventory.graphemes)
        pos = 0
        for seg in demo_inventory.parse(word):
            token = seg.grapheme
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
        inv = self._inventory()
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
            got = tuple(s.grapheme for s in inv.parse(word))
            assert got == expected, word


class TestRender:
    def test_empty(self):
        assert pd.render([]) == ""

    def test_null_renders_as_reserved_token(self):
        inv = small_inventory()
        segs = [inv.get_segment("p"), inv.null_segment, inv.get_segment("s")]
        assert pd.render(segs) == "p∅s"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip(self, demo_inventory, data):
        graphemes = data.draw(
            st.lists(st.sampled_from(sorted(demo_inventory.graphemes)), min_size=1, max_size=8)
        )
        word = "".join(graphemes)
        parsed = demo_inventory.parse(word)
        assert pd.render(parsed) == word
        # determinism
        assert demo_inventory.parse(word) == parsed
