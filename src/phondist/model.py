"""Symmetric pair encoding and the ridge-stabilized least-squares distance model.

README's "The model" explains the encoding and the solver. A LinearModel
checks its own invariants, however it was made, so load_model only parses.
Models are saved and loaded as UTF-8 JSON through textio.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

import numpy as np

from . import textio
from .errors import InputError, NumericalError
from .features import Inventory, Segment, fingerprint_features

if TYPE_CHECKING:  # annotations only: loading a model does not load the seed pipeline
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

    def __post_init__(self) -> None:
        # Predictors are saved by name and the fingerprint joins the names with tabs.
        if len(set(self.feature_names)) != len(self.feature_names) or "\t" in "".join(self.feature_names):
            raise InputError("model feature names must be distinct and contain no tab")
        if self.feature_fingerprint != fingerprint_features(self.feature_names):
            raise InputError("model fingerprint does not match its feature_names")
        if len(self.coefficients) != (expected := 2 * len(self.feature_names)):
            raise InputError(f"model has {len(self.coefficients)} coefficients, expected {expected}")
        values = (self.lam, self.intercept, *self.coefficients)
        if not all(map(math.isfinite, values)):  # name the first non-finite value only when there is one
            names = ("lambda", "intercept", *(f"coefficient {p!r}" for p in self.predictor_names))
            raise InputError(next(f"model {n} is not finite" for n, v in zip(names, values) if not math.isfinite(v)))
        _checked_lambda(self.lam)

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return tuple(
            [f"bothPlus:{n}" for n in self.feature_names]
            + [f"bothMinus:{n}" for n in self.feature_names]
        )


def encode_pairs(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Design rows (k, 2F) for k segment pairs given as boolean (k, F) feature rows."""
    return np.concatenate([fa & fb, ~fa & ~fb], axis=1).astype(float)


def predict_rows(m: LinearModel, X: np.ndarray) -> np.ndarray:
    """Clamped distances for design rows X. Each row is one BLAS dot: a matrix
    product sums in another order, moving entries by up to ~2e-15 and the
    alignment scores computed from them in their last bits."""
    w = np.asarray(m.coefficients)
    return np.array([min(1.0, max(0.0, m.intercept + float(x @ w))) for x in X])


def _checked_lambda(lam: float) -> None:
    """The ridge strength must lie in [0, inf); fit checks it before solving, LinearModel on construction."""
    if not 0 <= lam < math.inf:
        raise InputError(f"lambda must be finite and >= 0, got {lam}")


def fit(ds: "SeedDataset", inv: Inventory, lam: float = DEFAULT_LAMBDA) -> LinearModel:
    """Fit the distance model on a (normalized, augmented) dataset: minimize
    sum((score - intercept - w·x)^2) + lam * ||w||^2, the intercept unpenalized."""
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
        intercept=float(intercept),
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
    return float(predict_rows(m, encode_pairs(*np.array([[a.features], [b.features]], dtype=bool)))[0])


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
    """Read a model JSON file back, checking its shape and JSON types; LinearModel checks the values."""
    payload = textio.read_json(source)
    if not isinstance(payload, dict):
        raise InputError("model file must hold a JSON object")
    for field in ("version", "lambda", "intercept", "fingerprint", "feature_names", "coefficients"):
        if field not in payload:
            raise InputError(f"model file missing field {field!r}")
    if isinstance(payload["version"], bool) or payload["version"] != 1:
        raise InputError(f"unsupported model version {payload['version']!r}")
    if not isinstance(payload["feature_names"], list) or not all(
        isinstance(n, str) for n in payload["feature_names"]
    ):
        raise InputError("model feature_names must be a list of strings")
    if not isinstance(payload["coefficients"], dict):
        raise InputError("model coefficients must be an object")
    names = tuple(payload["feature_names"])
    def _num(value, what):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"model {what} is not a number")
        # Through str, an int past the float range reads as ±inf instead of raising OverflowError.
        return float(str(value) if isinstance(value, int) else value)

    coeff_map = payload["coefficients"]
    ordered = []
    for predictor in [f"bothPlus:{n}" for n in names] + [f"bothMinus:{n}" for n in names]:
        if predictor not in coeff_map:
            raise InputError(f"model file missing coefficient {predictor!r}")
        ordered.append(_num(coeff_map[predictor], f"coefficient {predictor!r}"))
    return LinearModel(
        intercept=_num(payload["intercept"], "intercept"),
        coefficients=tuple(ordered),
        lam=_num(payload["lambda"], "lambda"),
        feature_names=names,
        feature_fingerprint=payload["fingerprint"],
    )
