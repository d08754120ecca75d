"""Tests of the benchmark's own logic: seeded inputs, span arithmetic, the DP oracle, the host-speed kernel."""

import random
from pathlib import Path

import pytest

import inputs
import tracing

FEATURES = Path(__file__).resolve().parent.parent / "src" / "phondist" / "data" / "features.tsv"


@pytest.fixture(scope="module")
def graphemes():
    return inputs.feature_graphemes(FEATURES)


def test_bundled_graphemes(graphemes):
    assert len(graphemes) == 62
    assert inputs.NULL_GRAPHEME not in graphemes
    assert len(set(graphemes)) == 62


def test_word_list_is_deterministic_per_seed(graphemes):
    first = inputs.word_list(7, graphemes)
    assert inputs.word_list(7, graphemes) == first
    assert inputs.word_list(8, graphemes) != first


def test_word_list_shape(graphemes):
    words = inputs.word_list(3, graphemes)
    assert len(words) == inputs.LIST_WORDS
    assert len(set(words)) == len(words)
    lengths = [len(w) for w in words]
    # Equal shares of each length, so every seed aligns the same number of cells.
    assert sorted(set(lengths)) == list(inputs.LIST_LENGTHS)
    assert all(lengths.count(n) == inputs.LIST_WORDS // len(inputs.LIST_LENGTHS)
               for n in inputs.LIST_LENGTHS)
    assert all(t in graphemes for w in words for t in w)
    other = inputs.word_list(4, graphemes)
    assert inputs.pair_cells([len(w) for w in other]) == inputs.pair_cells(lengths)


def test_long_pair_is_deterministic_per_seed(graphemes):
    left, right = inputs.long_pair(5, graphemes)
    assert (left, right) == inputs.long_pair(5, graphemes)
    assert (left, right) != inputs.long_pair(6, graphemes)
    assert len(left) == len(right) == inputs.LONG_LENGTH
    assert left != right


def test_pair_cells_matches_brute_force():
    rng = random.Random(0)
    lengths = [rng.randint(1, 9) for _ in range(30)]
    brute = sum(lengths[i] * lengths[j] for i in range(30) for j in range(i + 1, 30))
    assert inputs.pair_cells(lengths) == brute


def test_quartiles_single_value():
    assert inputs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_self_times_on_hand_built_tree():
    # root 0..10 with children a 1..4 and b 5..9; a has child c 2..3;
    # d 8..12 is a child of b that sticks out past its parent's end.
    spans = [
        ("unit:x", 0.0, 10.0, -1),
        ("align.a", 1.0, 4.0, 0),
        ("features.c", 2.0, 3.0, 1),
        ("align.b", 5.0, 9.0, 0),
        ("model.d", 8.0, 12.0, 3),
    ]
    assert tracing.self_times(spans) == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 1.0, 4.0]
    assert [tracing.root_of(spans, i) for i in range(5)] == [0, 0, 0, 0, 0]
    assert [tracing.layer(s[0]) for s in spans] == ["bench", "align", "features", "align", "model"]


def test_self_times_count_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("x.a", 1.0, 6.0, 0), ("x.b", 4.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0)


def test_tracer_nests_and_merges():
    tr = tracing.Tracer("run", enabled=True)
    with tr.span("outer"):
        with tr.span("inner"):
            tr.count("things", 3)
    idle = tracing.Tracer("run", enabled=False)
    with idle.span("ignored"):
        idle.count("things")
    other = tracing.Tracer("run")
    with other.span("second"):
        pass
    exports = [tr.export(), idle.export(), other.export()]
    spans = tracing.merge(exports)
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0), ("second", -1)]
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]
    assert tracing.merge_counts(exports) == {"things": 3}


def test_patched_restores_and_traces():
    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    original = Mod.f
    tr = tracing.Tracer("run")
    with tr.patched([(Mod, "f", "mod.f")]):
        assert Mod.f(1) == 2
    assert Mod.f is original
    assert tr.names == ["mod.f"]


def test_oracle_agrees_with_aligners(graphemes):
    pd = pytest.importorskip("phondist")
    np = pytest.importorskip("numpy")
    import worker

    st = worker.Setup(pd, tracing.Tracer("run", enabled=False))
    rng = random.Random(1)
    for _ in range(40):
        left = tuple(rng.choice(graphemes) for _ in range(rng.randint(0, 7)))
        right = tuple(rng.choice(graphemes) for _ in range(rng.randint(1, 7)))
        for local, fn in ((False, pd.global_align), (True, pd.local_align)):
            scheme = st.null_column if local else st.constant
            got = fn(scheme, list(left), list(right)).score
            assert worker.oracle_score(np, st, left, right, local, local) == pytest.approx(got, abs=1e-9)


def test_hostspeed_kernel_is_fixed():
    import hostspeed

    a, b = hostspeed.Kernel(), hostspeed.Kernel()
    assert a.left == b.left and a.right == b.right
    assert a.values == b.values
    assert a.run() == b.run()
    assert a.seconds() > 0
