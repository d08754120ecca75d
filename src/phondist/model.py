"""Symmetric pair encoding and the ridge-stabilized least-squares distance model.

A segment pair is encoded as 2F boolean predictors for F features: per feature
f, bothPlus_f fires when both segments are +f and bothMinus_f when both are
−f. A feature mismatch leaves both indicators off, so disagreement everywhere
is the regression baseline and lands on the intercept. The encoding is
symmetric in its arguments by construction, which makes predictions symmetric
too.

Fitting minimizes

    sum((score - intercept - w·x)^2) + lambda * ||w||^2

with the intercept left unpenalized. The solver centers the design and the
targets (equivalent to the unpenalized intercept) and shrinks along the
singular spectrum of the centered design,

    w = V diag(s / (s^2 + lambda)) U^T y_c,

which stays finite under the heavy predictor collinearity this kind of
feature data produces; no normal-equation matrix is ever inverted. With
lambda = 0 the same route degenerates to the pseudoinverse, i.e. plain OLS on
well-conditioned data.

Predicted distances are clamped to the dimensionless [0, 1] scale and a
segment's distance to itself is 0 by definition, not by training. The encoding
(`encode_pairs`) and the prediction (`predict_rows`) each live in one function;
build_matrix checks the feature-system fingerprint once per inventory,
encode_pair and predict_distance once per segment.

Models are saved and loaded as UTF-8 JSON through textio.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from . import textio
from .errors import InputError, NumericalError
from .features import Inventory, Segment, fingerprint_features
from .seed import SeedDataset

DEFAULT_LAMBDA = 1e-4

# Singular values below this relative cutoff are treated as zero when
# lambda == 0 (pseudoinverse behaviour).
_RCOND = 1e-12


class FingerprintError(InputError):
    """Model and segments belong to different feature systems (an input mismatch, exit 2)."""


def _same_system(what: str, *fingerprints: str) -> None:
    """The one feature-system check: `what` must share a single fingerprint."""
    if len(set(fingerprints)) > 1:
        raise FingerprintError(f"{what} come from different feature systems")


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: tuple[float, ...]  # bothPlus block, then bothMinus block
    lam: float
    feature_names: tuple[str, ...]
    feature_fingerprint: str

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return tuple(
            [f"bothPlus:{n}" for n in self.feature_names]
            + [f"bothMinus:{n}" for n in self.feature_names]
        )


def encode_pairs(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Design rows (k, 2F) for k segment pairs given as boolean (k, F) feature rows."""
    return np.concatenate([fa & fb, ~fa & ~fb], axis=1).astype(float)


def encode_pair(a: Segment, b: Segment) -> np.ndarray:
    """Symmetric 2F predictor vector for one segment pair."""
    if len(a.features) != len(b.features):
        raise InputError(
            f"feature width mismatch: {a.grapheme!r} has {len(a.features)}, "
            f"{b.grapheme!r} has {len(b.features)}"
        )
    _same_system(f"segments {a.grapheme!r} and {b.grapheme!r}", a.system_fingerprint, b.system_fingerprint)
    return encode_pairs(np.array([a.features], dtype=bool), np.array([b.features], dtype=bool))[0]


def predict_rows(m: LinearModel, X: np.ndarray) -> np.ndarray:
    """Clamped distances for design rows X. Each row is one BLAS dot: a matrix
    product sums in another order, moving entries by up to ~2e-15 and the
    alignment scores computed from them in their last bits."""
    w = np.asarray(m.coefficients)
    return np.array([min(1.0, max(0.0, m.intercept + float(x @ w))) for x in X])


def _checked_lambda(lam: float) -> float:
    """The ridge strength, once checked to lie in [0, inf); fit and load_model both use it."""
    if not 0 <= lam < math.inf:
        raise InputError(f"lambda must be finite and >= 0, got {lam}")
    return lam


def fit(ds: SeedDataset, inv: Inventory, lam: float = DEFAULT_LAMBDA) -> LinearModel:
    """Fit the distance model on a (normalized, augmented) dataset."""
    _checked_lambda(lam)
    records = ds.records
    if len(records) < 2:
        raise InputError(f"need at least 2 records to fit, got {len(records)}")

    X = encode_pairs(inv.feature_rows([r.seg_a for r in records]),
                     inv.feature_rows([r.seg_b for r in records]))
    y = np.array([r.score for r in records], dtype=float)

    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean

    try:
        u, s, vt = np.linalg.svd(Xc, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the design matrix failed: {exc}") from exc

    if lam > 0:
        shrink = s / (s * s + lam)
    else:
        cutoff = _RCOND * (s[0] if s.size else 0.0)
        shrink = np.zeros_like(s)
        keep = s > cutoff
        shrink[keep] = 1.0 / s[keep]
    w = vt.T @ (shrink * (u.T @ yc))
    intercept = y_mean - float(x_mean @ w)

    if not (np.all(np.isfinite(w)) and math.isfinite(intercept)):
        smin = float(s.min()) if s.size else 0.0
        smax = float(s.max()) if s.size else 0.0
        raise NumericalError(
            "non-finite fit result "
            f"(design condition: smax={smax:.3e}, smin={smin:.3e}, lambda={lam})"
        )

    return LinearModel(
        intercept=intercept,
        coefficients=tuple(float(c) for c in w),
        lam=lam,
        feature_names=inv.feature_names,
        feature_fingerprint=inv.fingerprint,
    )


def predict_distance(m: LinearModel, a: Segment, b: Segment) -> float:
    """Clamped dimensionless distance between two segments (0 for a == a)."""
    _same_system(f"the model and segments {a.grapheme!r}, {b.grapheme!r}",
                 m.feature_fingerprint, a.system_fingerprint, b.system_fingerprint)
    if a.grapheme == b.grapheme:
        return 0.0
    return float(predict_rows(m, encode_pair(a, b)[None])[0])


def save_model(m: LinearModel, sink: str | Path | TextIO) -> None:
    """Write the model as JSON; floats survive the round trip bit-for-bit."""
    payload = {
        "version": 1,
        "lambda": m.lam,
        "intercept": m.intercept,
        "fingerprint": m.feature_fingerprint,
        "feature_names": list(m.feature_names),
        "coefficients": dict(zip(m.predictor_names, m.coefficients)),
    }
    textio.write_text(sink, json.dumps(payload, ensure_ascii=False, indent=1) + "\n")


def load_model(source: str | Path | TextIO) -> LinearModel:
    """Read a model JSON file back, validating shape and fingerprint."""
    payload = textio.read_json(source)
    if not isinstance(payload, dict):
        raise InputError("model file must hold a JSON object")
    for field in ("version", "lambda", "intercept", "fingerprint", "feature_names", "coefficients"):
        if field not in payload:
            raise InputError(f"model file missing field {field!r}")
    if payload["version"] != 1:
        raise InputError(f"unsupported model version {payload['version']!r}")
    if not isinstance(payload["feature_names"], list) or not all(
        isinstance(n, str) for n in payload["feature_names"]
    ):
        raise InputError("model feature_names must be a list of strings")
    if not isinstance(payload["coefficients"], dict):
        raise InputError("model coefficients must be an object")
    names = tuple(payload["feature_names"])
    fingerprint = payload["fingerprint"]
    if fingerprint != fingerprint_features(names):
        raise InputError("model fingerprint does not match its feature_names")
    def _num(value, what):
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise InputError(f"model {what} is not a number") from None
        if not math.isfinite(value):
            raise InputError(f"model {what} is not finite")
        return value

    coeff_map = payload["coefficients"]
    ordered = []
    for predictor in [f"bothPlus:{n}" for n in names] + [f"bothMinus:{n}" for n in names]:
        if predictor not in coeff_map:
            raise InputError(f"model file missing coefficient {predictor!r}")
        ordered.append(_num(coeff_map[predictor], f"coefficient {predictor!r}"))
    return LinearModel(
        intercept=_num(payload["intercept"], "intercept"),
        coefficients=tuple(ordered),
        lam=_checked_lambda(_num(payload["lambda"], "lambda")),
        feature_names=names,
        feature_fingerprint=fingerprint,
    )
