import io
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

import phondist as pd
from phondist.errors import InputError
from phondist.seed import SeedDataset, SimilarityRecord, pair_key

from conftest import (
    MINI_SEED,
    mini_bundles,
    mini_inventory,
    mini_normalized,
    mini_templates,
)

# Hand-computed expectations for the mini fixture (raw scale divides by 10).
CENTRAL = (3.0 / 10 + 2.6 / 10) / 2  # stop/affricate mean, 0.28
IMPLOSIVE = 2.4 / 10  # stop/fricative mean, 0.24
EJECTIVE_HALF = (2.0 / 10) / 2  # 0.10
LONG = 1.5 / 10  # flap/trill, 0.15
ATR = 1.2 / 10  # 0.12


class TestLoadSeedMatrix:
    def test_symmetric_duplicates_averaged(self):
        inv = mini_inventory()
        ds = pd.load_seed_matrix(io.StringIO("p,b,2.0\nb,p,4.0\n"), inv)
        assert len(ds) == 1
        assert ds.score("p", "b") == 3.0
        assert ds.score("b", "p") == 3.0

    def test_repeated_same_orientation_averaged(self):
        inv = mini_inventory()
        ds = pd.load_seed_matrix(io.StringIO("p,b,1.0\np,b,2.0\np,b,6.0\n"), inv)
        assert ds.score("p", "b") == 3.0

    def test_unresolvable_grapheme_errors(self):
        inv = mini_inventory()
        with pytest.raises(InputError, match="ʘ"):
            pd.load_seed_matrix(io.StringIO("p,ʘ,1.0\n"), inv)

    def test_non_numeric_score_errors(self):
        with pytest.raises(InputError, match="abc"):
            pd.load_seed_matrix(io.StringIO("p,b,abc\n"), mini_inventory())

    def test_empty_file_errors(self):
        with pytest.raises(InputError):
            pd.load_seed_matrix(io.StringIO("# nothing\n"), mini_inventory())

    def test_self_pair_errors(self):
        with pytest.raises(InputError):
            pd.load_seed_matrix(io.StringIO("p,p,1.0\n"), mini_inventory())

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
    def test_non_finite_score_names_the_pair(self, score):
        with pytest.raises(InputError, match=r"seed record \(b, p\): non-finite"):
            pd.load_seed_matrix(io.StringIO(f"t,d,1.0\nb,p,{score}\n"), mini_inventory())

    def test_dedup_never_grows(self):
        inv = mini_inventory()
        ds = pd.load_seed_matrix(io.StringIO(MINI_SEED), inv)
        assert len(ds) <= MINI_SEED.count("\n")


class TestNormalizeScores:
    def test_min_max_arithmetic(self):
        inv = mini_inventory()
        ds = pd.load_seed_matrix(io.StringIO("p,b,2\nt,d,5\nk,g,8\n"), inv)
        ds = pd.normalize_scores(ds)
        assert ds.score("p", "b") == 0.0
        assert ds.score("t", "d") == 0.5
        assert ds.score("k", "g") == 1.0

    def test_overflowing_range_errors(self):
        inv = mini_inventory()
        ds = pd.load_seed_matrix(io.StringIO("p,b,1e308\nt,d,-1e308\n"), inv)
        with pytest.raises(InputError, match="overflows"):
            pd.normalize_scores(ds)

    def test_degenerate_range_errors(self):
        inv = mini_inventory()
        ds = pd.load_seed_matrix(io.StringIO("p,b,1\nt,d,1\nk,g,1\n"), inv)
        with pytest.raises(InputError, match="equal"):
            pd.normalize_scores(ds)

    @given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=30, unique=True))
    def test_bounds_and_order_preserved(self, raws):
        inv = mini_inventory()
        graphemes = [g for g in inv.graphemes if g != "∅"]
        pairs = [(a, b) for i, a in enumerate(graphemes) for b in graphemes[i + 1:]]
        rows = "".join(f"{a},{b},{raw}\n" for (a, b), raw in zip(pairs, raws))
        ds = pd.normalize_scores(pd.load_seed_matrix(io.StringIO(rows), inv))
        normalized = {rec.key: rec.score for rec in ds.records}
        assert all(0.0 <= v <= 1.0 for v in normalized.values())
        for (pa, raw_a) in zip(pairs, raws):
            for (pb, raw_b) in zip(pairs, raws):
                if raw_a < raw_b:
                    assert normalized[pair_key(*pa)] < normalized[pair_key(*pb)]


class TestClassMeanDistance:
    def test_mean_of_two(self):
        ds = mini_normalized()
        value = pd.class_mean_distance(ds, [("t", "t͡s"), ("k", "k͡x")])
        assert value == CENTRAL

    def test_single_pair(self):
        ds = mini_normalized()
        assert pd.class_mean_distance(ds, [("t", "s")]) == IMPLOSIVE

    def test_missing_pair_named(self):
        ds = mini_normalized()
        with pytest.raises(InputError, match="t͡s"):
            pd.class_mean_distance(ds, [("e", "t͡s")])

    def test_empty_list_errors(self):
        with pytest.raises(InputError):
            pd.class_mean_distance(mini_normalized(), [])

    def test_scores_added_left_to_right(self):
        # A compensated sum (builtin sum() from Python 3.12 on) gives 1/3 here;
        # on 3.10 and 3.11 sum() also adds left to right, so there this passes either way.
        pairs = [("p", "b"), ("t", "d"), ("k", "g")]
        scores = [1e16, 1.0, -1e16]
        ds = SeedDataset([SimilarityRecord(a, b, x) for (a, b), x in zip(pairs, scores)], mini_inventory())
        assert pd.class_mean_distance(ds, pairs) == 0.0


class TestDeriveDeltas:
    def test_all_values(self):
        deltas = pd.derive_deltas(mini_normalized(), mini_bundles())
        assert deltas.nonpulmonic_central == CENTRAL
        assert deltas.nonpulmonic_implosive == IMPLOSIVE
        assert deltas.nonpulmonic_ejective_half == EJECTIVE_HALF
        assert deltas.long_delta == LONG
        assert deltas.atr_delta == ATR
        assert deltas.rtr_delta == deltas.atr_delta


class TestAugmentWithDeltas:
    def _augmented(self):
        inv = mini_inventory()
        ds = mini_normalized(inv)
        deltas = pd.derive_deltas(ds, mini_bundles())
        return ds, pd.augment_with_deltas(ds, deltas, inv, mini_templates())

    def test_click_delta_from_base_pair(self):
        _, out = self._augmented()
        assert out.score("k", "ǃ") == 1.0 / 10 + CENTRAL  # 0.38

    def test_implosive_from_base_segment(self):
        _, out = self._augmented()
        assert out.score("b", "ɓ") == IMPLOSIVE  # self-distance base is 0

    def test_ejective_half(self):
        _, out = self._augmented()
        assert out.score("kʼ", "g") == 1.0 / 10 + EJECTIVE_HALF  # 0.20

    def test_long_addition(self):
        _, out = self._augmented()
        assert out.score("rː", "a") == 3.0 / 10 + LONG  # 0.45

    def test_upper_clamp(self):
        _, out = self._augmented()
        assert out.score("sː", "m") == 1.0  # 1.0 + 0.15 clamped

    def test_minus_sign_and_lower_clamp(self):
        _, out = self._augmented()
        assert out.score("rː", "ɾ") == max(0.0, 1.5 / 10 - LONG)  # exactly 0

    def test_fortis_mean(self):
        _, out = self._augmented()
        assert out.score("p͈", "a") == (4.0 / 10 + 6.0 / 10) / 2  # 0.5

    def test_atr_cross_pair(self):
        _, out = self._augmented()
        assert out.score("i̘", "e") == 1.2 / 10 + ATR

    def test_rtr_from_base_segment(self):
        _, out = self._augmented()
        assert out.score("a", "a̙") == ATR

    def test_provenance_marked(self):
        _, out = self._augmented()
        assert out.get("k", "ǃ").provenance == "delta"
        assert out.get("k", "g").provenance == "seed"

    def test_seed_records_never_mutated(self):
        before, out = self._augmented()
        seed_before = {rec.key: rec for rec in before.records}
        seed_after = {rec.key: rec for rec in out.records if rec.provenance == "seed"}
        assert seed_before == seed_after

    def test_existing_pair_not_overwritten(self):
        inv = mini_inventory()
        ds = mini_normalized(inv)
        deltas = pd.derive_deltas(ds, mini_bundles())
        clash = [pd.seed.TemplateRule("long", "r", "a", "k", "g", "+")]
        out = pd.augment_with_deltas(ds, deltas, inv, clash)
        assert out.score("k", "g") == 1.0 / 10  # seed value survives

    def test_replay_is_idempotent(self):
        inv = mini_inventory()
        ds = mini_normalized(inv)
        deltas = pd.derive_deltas(ds, mini_bundles())
        once = pd.augment_with_deltas(ds, deltas, inv, mini_templates())
        twice = pd.augment_with_deltas(once, deltas, inv, mini_templates())
        assert {r.key: (r.score, r.provenance) for r in once.records} == {
            r.key: (r.score, r.provenance) for r in twice.records
        }

    def test_missing_base_errors(self):
        inv = mini_inventory()
        ds = mini_normalized(inv)
        deltas = pd.derive_deltas(ds, mini_bundles())
        bad = [pd.seed.TemplateRule("long", "e", "j", "iː", "j", "+")]
        with pytest.raises(InputError, match="missing base"):
            pd.augment_with_deltas(ds, deltas, inv, bad)

    def test_unresolvable_target_errors(self):
        inv = mini_inventory()
        ds = mini_normalized(inv)
        deltas = pd.derive_deltas(ds, mini_bundles())
        bad = [pd.seed.TemplateRule("long", "r", "a", "ʘ", "a", "+")]
        with pytest.raises(InputError, match="ʘ"):
            pd.augment_with_deltas(ds, deltas, inv, bad)


class TestApplyAdjustments:
    def test_empty_file_is_identity(self):
        ds = mini_normalized()
        out = pd.apply_adjustments(ds, io.StringIO(""))
        assert {r.key: r.score for r in out.records} == {
            r.key: r.score for r in ds.records
        }

    def test_override_existing(self):
        ds = mini_normalized()
        out = pd.apply_adjustments(ds, io.StringIO("s,m,0.99\n"))
        assert out.score("s", "m") == 0.99
        assert out.get("s", "m").provenance == "adjustment"

    def test_append_new_pair(self):
        ds = mini_normalized()
        out = pd.apply_adjustments(ds, io.StringIO("i,a,0.2\n"))
        assert out.score("i", "a") == 0.2
        assert len(out) == len(ds) + 1

    def test_out_of_range_errors(self):
        with pytest.raises(InputError, match="outside"):
            pd.apply_adjustments(mini_normalized(), io.StringIO("s,m,1.2\n"))

    def test_self_pair_errors(self):
        with pytest.raises(InputError, match="itself"):
            pd.apply_adjustments(mini_normalized(), io.StringIO("s,s,0.3\n"))

    def test_conflicting_duplicates_error(self):
        with pytest.raises(InputError, match="conflicting"):
            pd.apply_adjustments(mini_normalized(), io.StringIO("s,m,0.9\ns,m,0.8\n"))

    def test_replay_is_idempotent(self):
        ds = mini_normalized()
        once = pd.apply_adjustments(ds, io.StringIO("s,m,0.99\ni,a,0.2\n"))
        twice = pd.apply_adjustments(once, io.StringIO("s,m,0.99\ni,a,0.2\n"))
        assert {r.key: (r.score, r.provenance) for r in once.records} == {
            r.key: (r.score, r.provenance) for r in twice.records
        }


class TestRecordValidation:
    @pytest.mark.parametrize("provenance", ["seed", "delta", "adjustment"])
    def test_self_pair_names_provenance(self, provenance):
        with pytest.raises(InputError, match=f"^{provenance} record compares 'p' with itself$"):
            SimilarityRecord("p", "p", 0.5, provenance)

    def test_dataset_resolves_every_segment(self):
        with pytest.raises(InputError, match="ʘ"):
            pd.SeedDataset([SimilarityRecord("p", "b", 0.1), SimilarityRecord("ʘ", "p", 0.2)],
                           mini_inventory())


class TestLoadTemplates:
    @pytest.mark.parametrize("row,match", [
        ("bogus,r,a,rː,a,+", "template row 2: unknown delta name 'bogus'"),
        ("long,r,a,rː,a,*", r"template row 2: bad sign '\*'"),
        ("fortis,p,b,p͈,a,", "template row 2: bad sign ''"),
        pytest.param("long,r,a,rː,a," + "+" * 200_000, "malformed CSV .*field limit", id="field-too-large"),
    ])
    def test_bad_row_named(self, row, match):
        with pytest.raises(InputError, match=match):
            pd.load_templates(io.StringIO(f"long,r,ɾ,rː,ɾ,-\n{row}\n"))

    def test_rule_checks_itself(self):
        with pytest.raises(InputError, match="unknown delta name"):
            pd.seed.TemplateRule("length", "r", "a", "rː", "a", "+")
        with pytest.raises(InputError, match="bad sign"):
            pd.seed.TemplateRule("long", "r", "a", "rː", "a", "±")

    def test_every_delta_field_has_a_name(self):
        assert pd.seed.DELTA_FIELDS == {
            "nonpulmonic_central": "nonpulmonic_central",
            "nonpulmonic_implosive": "nonpulmonic_implosive",
            "nonpulmonic_ejective_half": "nonpulmonic_ejective_half",
            "long": "long_delta",
            "atr": "atr_delta",
            "rtr": "rtr_delta",
        }


class TestDeltaSetValidation:
    def test_rejects_out_of_range_delta(self):
        with pytest.raises(InputError, match="outside"):
            pd.DeltaSet(
                nonpulmonic_central=1.2,
                nonpulmonic_implosive=0.2,
                nonpulmonic_ejective_half=0.1,
                long_delta=0.1,
                atr_delta=0.1,
                rtr_delta=0.1,
            )

    def test_template_self_target_rejected(self):
        inv = mini_inventory()
        ds = mini_normalized(inv)
        deltas = pd.derive_deltas(ds, mini_bundles())
        bad = [pd.seed.TemplateRule("long", "r", "a", "rː", "rː", "+")]
        with pytest.raises(InputError, match="itself"):
            pd.augment_with_deltas(ds, deltas, inv, bad)


class TestBundledPipeline:
    def test_scores_in_range_and_pairs_unique(self, demo_dataset):
        keys = [rec.key for rec in demo_dataset.records]
        assert len(keys) == len(set(keys))
        assert all(0.0 <= rec.score <= 1.0 for rec in demo_dataset.records)

    def test_provenance_levels_present(self, demo_dataset):
        kinds = {rec.provenance for rec in demo_dataset.records}
        assert kinds == {"seed", "delta", "adjustment"}

    def test_adjustment_overrides_seed(self, demo_dataset):
        rec = demo_dataset.get("s", "m")
        assert rec.provenance == "adjustment"
        assert rec.score == 0.99

    def test_class_means_inside_reference_windows(self, demo_inventory):
        ds = pd.load_seed_matrix(pd.bundled_path("seed_scores.csv"), demo_inventory)
        ds = pd.normalize_scores(ds)
        bundles = pd.load_delta_bundles(pd.bundled_path("delta_bundles.json"))
        assert pd.class_mean_distance(ds, bundles.stop_affricate) == pytest.approx(0.28, abs=0.03)
        assert pd.class_mean_distance(ds, bundles.stop_fricative) == pytest.approx(0.24, abs=0.03)

    def test_bundled_deltas_pinned(self, demo_inventory):
        # Every bit: the deltas feed the delta records and so model.json, which
        # must not change with the Python version.
        ds = pd.normalize_scores(pd.load_seed_matrix(pd.bundled_path("seed_scores.csv"), demo_inventory))
        deltas = pd.derive_deltas(ds, pd.load_delta_bundles(pd.bundled_path("delta_bundles.json")))
        assert {f.name: repr(getattr(deltas, f.name)) for f in fields(deltas)} == {
            "nonpulmonic_central": "0.2755102040816326",
            "nonpulmonic_implosive": "0.23469387755102036",
            "nonpulmonic_ejective_half": "0.09693877551020408",
            "long_delta": "0.1530612244897959",
            "atr_delta": "0.12755102040816324",
            "rtr_delta": "0.12755102040816324",
        }
