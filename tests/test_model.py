import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phondist as pd
from phondist.errors import InputError, NumericalError, UnknownSegmentError
from phondist.model import FingerprintError, LinearModel, encode_pairs
from phondist.seed import SeedDataset, SimilarityRecord

from conftest import design_of, mini_inventory, random_inventory, synthetic_dataset
from oracles import normal_equations


def encode(inv, a, b):
    """The design row of one segment pair."""
    return encode_pairs(inv.feature_rows([a]), inv.feature_rows([b]))[0]


class TestEncodePair:
    def test_both_minus_strident(self, demo_inventory):
        x = encode(demo_inventory, "m", "n")
        idx = demo_inventory.feature_names.index("strident")
        F = len(demo_inventory.feature_names)
        assert x[F + idx] == 1.0  # bothMinus:strident
        assert x[idx] == 0.0

    def test_mismatch_leaves_both_indicators_off(self, demo_inventory):
        x = encode(demo_inventory, "p", "b")  # -periodicGlottalSource, +periodicGlottalSource
        idx = demo_inventory.feature_names.index("periodicGlottalSource")
        F = len(demo_inventory.feature_names)
        assert x[idx] == 0.0 and x[F + idx] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_symmetry(self, demo_inventory, data):
        graphemes = sorted(demo_inventory.graphemes)
        a = data.draw(st.sampled_from(graphemes))
        b = data.draw(st.sampled_from(graphemes))
        assert np.array_equal(encode(demo_inventory, a, b), encode(demo_inventory, b, a))

    def test_at_most_one_indicator_per_feature(self, demo_inventory):
        F = len(demo_inventory.feature_names)
        x = encode(demo_inventory, "t͡s", "u̘")
        assert not np.any((x[:F] == 1.0) & (x[F:] == 1.0))


class TestFit:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow on the way
    def test_overflowing_scores_raise_numerical_error(self):
        # Un-normalized scores near the float limit: centering them overflows to inf.
        inv = mini_inventory()
        ds = SeedDataset([SimilarityRecord("p", "a", 1.7e308), SimilarityRecord("p", "m", -1.7e308),
                          SimilarityRecord("t", "s", 1.7e308)], inv)
        with pytest.raises(NumericalError, match="non-finite fit result"):
            pd.fit(ds, inv)

    def test_recovers_noiseless_coefficients(self):
        # 5 features -> 10 predictors; enough random segments for a
        # full-rank design, so OLS coefficients are unique and must match
        # both the oracle and the generating weights.
        inv = random_inventory(n_features=5, n_segments=40, seed=3)
        rng = random.Random(7)
        weights = np.random.default_rng(7).normal(0.0, 0.3, size=10)
        ds = synthetic_dataset(500, weights, 0.5, inv, rng)
        model = pd.fit(ds, inv, lam=0.0)

        X, y = design_of(ds, inv)
        assert np.linalg.matrix_rank(np.column_stack([np.ones(len(X)), X])) == 11
        b_oracle, w_oracle = normal_equations(X, y, lam=0.0)
        assert abs(model.intercept - b_oracle) < 1e-8
        assert np.max(np.abs(np.asarray(model.coefficients) - w_oracle)) < 1e-8
        assert np.max(np.abs(np.asarray(model.coefficients) - weights)) < 1e-8
        assert abs(model.intercept - 0.5) < 1e-8

    def test_collinear_design_still_reproduces_targets(self, demo_inventory):
        # The demo feature table yields heavily collinear predictors, where
        # coefficients are not unique; fitted values still are.
        rng = random.Random(17)
        F = len(demo_inventory.feature_names)
        weights = np.random.default_rng(17).normal(0.0, 0.2, size=2 * F)
        ds = synthetic_dataset(400, weights, 0.5, demo_inventory, rng)
        model = pd.fit(ds, demo_inventory, lam=0.0)
        X, y = design_of(ds, demo_inventory)
        fitted = model.intercept + X @ np.asarray(model.coefficients)
        assert np.max(np.abs(fitted - y)) < 1e-8

    def test_duplicated_column_ridge_ties(self):
        inv = random_inventory(n_features=6, n_segments=40, seed=9, duplicate_feature=True)
        rng = random.Random(21)
        weights = np.random.default_rng(21).normal(0.0, 0.3, size=12)
        ds = synthetic_dataset(300, weights, 0.4, inv, rng)
        model = pd.fit(ds, inv, lam=1e-6)
        w = np.asarray(model.coefficients)
        F = 6
        # feature f5 copies f0, so both its predictor columns are duplicates
        assert np.all(np.isfinite(w))
        assert abs(w[0] - w[5]) < 1e-6  # bothPlus pair
        assert abs(w[F + 0] - w[F + 5]) < 1e-6  # bothMinus pair

    def test_a_segment_the_inventory_lacks_raises(self):
        inv, smaller = (random_inventory(n_features=4, n_segments=k, seed=2) for k in (30, 20))
        ds = SeedDataset([SimilarityRecord("g1", "g2", 1.0, "seed"), SimilarityRecord("g1", "g25", 2.0, "seed")], inv)
        with pytest.raises(UnknownSegmentError, match="g25"):
            pd.fit(ds, smaller)

    def test_ridge_matches_normal_equations(self):
        inv = random_inventory(n_features=4, n_segments=30, seed=2)
        rng = random.Random(4)
        weights = np.random.default_rng(4).normal(0.0, 0.3, size=8)
        ds = synthetic_dataset(250, weights, 0.6, inv, rng)
        X, y = design_of(ds, inv)
        for lam in (1e-6, 1e-3, 0.5):
            model = pd.fit(ds, inv, lam=lam)
            b_orc, w_orc = normal_equations(X, y, lam=lam)
            assert abs(model.intercept - b_orc) < 1e-9
            assert np.max(np.abs(np.asarray(model.coefficients) - w_orc)) < 1e-9

    def test_empty_and_tiny_datasets_error(self, demo_inventory):
        with pytest.raises(InputError):
            pd.fit(SeedDataset([], demo_inventory), demo_inventory)
        one = SeedDataset([SimilarityRecord("p", "b", 0.1, "seed")], demo_inventory)
        with pytest.raises(InputError):
            pd.fit(one, demo_inventory)

    def test_negative_lambda_errors(self, demo_dataset, demo_inventory):
        with pytest.raises(InputError):
            pd.fit(demo_dataset, demo_inventory, lam=-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_errors(self, lam, demo_dataset, demo_inventory):
        with pytest.raises(InputError, match="lambda"):
            pd.fit(demo_dataset, demo_inventory, lam=lam)

    def test_ridge_norm_monotone_in_lambda(self, demo_dataset, demo_inventory):
        norms = []
        for lam in (1e-6, 1e-4, 1e-2, 1.0, 100.0):
            m = pd.fit(demo_dataset, demo_inventory, lam=lam)
            norms.append(float(np.linalg.norm(m.coefficients)))
        for bigger, smaller in zip(norms, norms[1:]):
            assert smaller <= bigger + 1e-9

    def test_fitted_solution_is_local_optimum(self, demo_dataset, demo_inventory):
        m = pd.fit(demo_dataset, demo_inventory, lam=1e-4)
        X, y = design_of(demo_dataset, demo_inventory)
        w = np.asarray(m.coefficients)

        def objective(intercept, coefs):
            resid = y - intercept - X @ coefs
            return float(resid @ resid + 1e-4 * (coefs @ coefs))

        base = objective(m.intercept, w)
        for idx in range(len(w)):
            for eps in (1e-3, -1e-3):
                bumped = w.copy()
                bumped[idx] += eps
                assert objective(m.intercept, bumped) >= base - 1e-12
        for eps in (1e-3, -1e-3):
            assert objective(m.intercept + eps, w) >= base - 1e-12

    def test_intercept_soft_report(self, demo_model):
        # Shape echo only: reference fits sat near 1.0. Report, never fail.
        inside = 0.8 <= demo_model.intercept <= 1.2
        print(
            f"\n[model report] demo intercept = {demo_model.intercept:.4f} "
            f"({'inside' if inside else 'outside'} the reference band [0.8, 1.2])"
        )
        coef = dict(zip(demo_model.predictor_names, demo_model.coefficients))
        for name in ("bothPlus:back", "bothPlus:coronal", "bothPlus:labiodental",
                     "bothMinus:strident"):
            print(f"[model report] {name} = {coef[name]:+.4f}")


class TestPredictDistance:
    def test_self_distance_zero(self, demo_model, demo_inventory):
        p = demo_inventory.get_segment("p")
        assert pd.predict_distance(demo_model, p, p) == 0.0

    def test_handcrafted_arithmetic(self):
        inv = mini_inventory()
        F = len(inv.feature_names)
        coefs = [0.0] * (2 * F)
        coefs[F + inv.feature_names.index("strident")] = -1.0  # bothMinus:strident
        model = LinearModel(
            intercept=1.0,
            coefficients=tuple(coefs),
            lam=0.0,
            feature_names=inv.feature_names,
        )
        # p and m are both -strident: 1.0 - 1.0 = 0.0
        assert pd.predict_distance(model, inv.get_segment("p"), inv.get_segment("m")) == 0.0

    def test_upper_clamp(self):
        inv = mini_inventory()
        model = LinearModel(
            intercept=1.3,
            coefficients=(0.0,) * (2 * len(inv.feature_names)),
            lam=0.0,
            feature_names=inv.feature_names,
        )
        assert pd.predict_distance(model, inv.get_segment("p"), inv.get_segment("a")) == 1.0

    def test_lower_clamp(self):
        inv = mini_inventory()
        model = LinearModel(
            intercept=-0.7,
            coefficients=(0.0,) * (2 * len(inv.feature_names)),
            lam=0.0,
            feature_names=inv.feature_names,
        )
        assert pd.predict_distance(model, inv.get_segment("p"), inv.get_segment("a")) == 0.0

    def test_fingerprint_mismatch_errors(self, demo_model):
        other = mini_inventory()
        with pytest.raises(FingerprintError):
            pd.predict_distance(demo_model, other.get_segment("p"), other.get_segment("a"))

    def test_reordered_feature_names_errors(self):
        """The same names in another order are another feature system."""
        inv = mini_inventory()
        model = model_of(inv, feature_names=inv.feature_names[::-1])
        with pytest.raises(FingerprintError, match="different feature systems"):
            pd.build_matrix(model, inv)
        with pytest.raises(FingerprintError, match="different feature systems"):
            pd.predict_distance(model, inv.get_segment("p"), inv.get_segment("a"))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_symmetry_and_range(self, demo_model, demo_inventory, data):
        graphemes = sorted(demo_inventory.graphemes)
        a = demo_inventory.get_segment(data.draw(st.sampled_from(graphemes)))
        b = demo_inventory.get_segment(data.draw(st.sampled_from(graphemes)))
        d_ab = pd.predict_distance(demo_model, a, b)
        d_ba = pd.predict_distance(demo_model, b, a)
        assert d_ab == d_ba
        assert 0.0 <= d_ab <= 1.0
        if a.grapheme == b.grapheme:
            assert d_ab == 0.0


def model_of(inv, **changes):
    """A zero model over `inv`'s features with the given fields changed."""
    fields = dict(intercept=0.5, coefficients=(0.0,) * (2 * len(inv.feature_names)), lam=0.0,
                  feature_names=inv.feature_names)
    return LinearModel(**{**fields, **changes})


class TestModelInvariants:
    @pytest.mark.parametrize("changes,match", [
        (dict(lam=-1.0), "lambda must be finite and >= 0, got -1.0"),
        (dict(lam=math.nan), "model lambda is not finite"),
        (dict(lam=math.inf), "model lambda is not finite"),
        (dict(lam=-math.inf), "model lambda is not finite"),
        (dict(coefficients=(0.0,) * 39), "model has 39 coefficients, expected 40"),
        (dict(coefficients=(0.0,) * 41), "model has 41 coefficients, expected 40"),
        (dict(coefficients=()), "model has 0 coefficients, expected 40"),
        (dict(intercept=math.nan), "model intercept is not finite"),
        (dict(intercept=-math.inf), "model intercept is not finite"),
        (dict(coefficients=(0.0,) * 39 + (math.inf,)), "coefficient 'bothMinus:tense' is not finite"),
        (dict(coefficients=(math.nan,) + (0.0,) * 39), "coefficient 'bothPlus:consonantal' is not finite"),
        (dict(feature_names=("long", "long"), coefficients=(0.0,) * 4), "must be distinct"),
        (dict(feature_names=("a\tb",), coefficients=(0.0,) * 2), "distinct and printable"),
        (dict(feature_names=("a\x1bb",), coefficients=(0.0,) * 2), "distinct and printable"),
    ], ids=["negative-lambda", "nan-lambda", "inf-lambda", "minus-inf-lambda",
            "short", "long", "empty", "nan-intercept", "inf-intercept", "inf-coefficient",
            "nan-coefficient", "duplicate-names", "tab-in-name", "escape-in-name"])
    def test_invalid_model_errors(self, changes, match):
        with pytest.raises(InputError, match=match):
            model_of(mini_inventory(), **changes)

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.text(max_size=6), max_size=4), intercept=st.floats(),
           lam=st.floats(), data=st.data())
    def test_every_constructed_model_round_trips(self, names, intercept, lam, data):
        coefficients = tuple(data.draw(st.lists(st.floats(), min_size=2 * len(names),
                                                max_size=2 * len(names))))
        try:
            m = LinearModel(intercept, coefficients, lam, tuple(names))
        except InputError:
            assert (len(set(names)) < len(names) or not all(map(str.isprintable, names)) or lam < 0
                    or not all(map(math.isfinite, (lam, intercept, *coefficients))))
            return
        sink = io.StringIO()
        pd.save_model(m, sink)
        loaded = pd.load_model(io.StringIO(sink.getvalue()))
        assert loaded == m
        assert repr(loaded) == repr(m)  # bit for bit, -0.0 included


class TestSaveLoad:
    def test_round_trip_bits_and_predictions(self, demo_model, demo_inventory, tmp_path):
        path = tmp_path / "model.json"
        pd.save_model(demo_model, path)
        loaded = pd.load_model(path)
        assert repr(loaded) == repr(demo_model)  # a fitted intercept is a float, as a loaded one is
        assert loaded.coefficients == demo_model.coefficients
        assert loaded.intercept == demo_model.intercept
        assert loaded.lam == demo_model.lam
        assert loaded.feature_names == demo_model.feature_names

        rng = random.Random(99)
        graphemes = list(demo_inventory.graphemes)
        for _ in range(100):
            a, b = rng.choice(graphemes), rng.choice(graphemes)
            sa, sb = demo_inventory.get_segment(a), demo_inventory.get_segment(b)
            assert pd.predict_distance(loaded, sa, sb) == pd.predict_distance(
                demo_model, sa, sb
            )

    def test_truncated_file_errors(self, demo_model, tmp_path):
        path = tmp_path / "model.json"
        pd.save_model(demo_model, path)
        path.write_text(path.read_text(encoding="utf-8")[:80], encoding="utf-8")
        with pytest.raises(InputError):
            pd.load_model(path)

    @pytest.mark.parametrize("fingerprint", [None, "0" * 64], ids=["none", "stale"])
    def test_fingerprint_is_ignored(self, fingerprint, demo_model, tmp_path):
        """Files written before models dropped their feature-name digest still load."""
        path = tmp_path / "model.json"
        pd.save_model(demo_model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "fingerprint" not in payload
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert pd.load_model(path) == demo_model

    @pytest.mark.parametrize("mutate,match", [
        (lambda p: [p], "must hold a JSON object"),
        (lambda p: {**p, "feature_names": "long"}, "feature_names must be a list of strings"),
        (lambda p: {**p, "coefficients": [1.0]}, "coefficients must be an object"),
        (lambda p: {**p, "lambda": math.nan}, "lambda is not finite"),
        (lambda p: {**p, "lambda": -3.0}, "lambda must be finite and >= 0, got -3.0"),
        (lambda p: {**p, "version": 7}, "unsupported model version 7"),
        (lambda p: {**p, "coefficients": {**p["coefficients"], "bothPlus:long": "x"}},
         "coefficient 'bothPlus:long' is not a number"),
        (lambda p: {**p, "coefficients": {k: v for k, v in p["coefficients"].items()
                                          if k != "bothMinus:nasal"}},
         "missing coefficient 'bothMinus:nasal'"),
        (lambda p: {**p, "intercept": "0.5"}, "intercept is not a number"),
        (lambda p: {**p, "coefficients": {**p["coefficients"], "bothMinus:long": True}},
         "coefficient 'bothMinus:long' is not a number"),
        (lambda p: {**p, "version": True}, "unsupported model version True"),
        (lambda p: {**p, "lambda": "1e-4"}, "lambda is not a number"),
        (lambda p: {**p, "intercept": 10**400}, "intercept is not finite"),
    ])
    def test_malformed_payload_errors(self, mutate, match, demo_model, tmp_path):
        path = tmp_path / "model.json"
        pd.save_model(demo_model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(mutate(payload)), encoding="utf-8")
        with pytest.raises(InputError, match=match):
            pd.load_model(path)

    def test_loaded_model_rejects_other_system(self, demo_model, tmp_path):
        path = tmp_path / "model.json"
        pd.save_model(demo_model, path)
        loaded = pd.load_model(path)
        other = mini_inventory()
        with pytest.raises(FingerprintError):
            pd.predict_distance(loaded, other.get_segment("p"), other.get_segment("a"))
