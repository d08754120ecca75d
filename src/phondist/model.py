"""Symmetric pair encoding and the ridge-stabilized least-squares distance model.

README's "The model" explains the encoding and the solver. A model belongs
to the feature system its feature_names name, in their order. A LinearModel
checks its own invariants, however it was made, so load_model only parses.
Models are saved and loaded as UTF-8 JSON through textio.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, TextIO

import numpy as np

from . import textio
from .errors import InputError, NumericalError
from .features import Inventory, Segment

if TYPE_CHECKING:  # annotations only: loading a model does not load the seed pipeline
    from .seed import SeedDataset

DEFAULT_LAMBDA = 1e-4

# Singular values below this relative cutoff are treated as zero when
# lambda == 0 (pseudoinverse behaviour).
_RCOND = 1e-12


class FingerprintError(InputError):
    """Model and segments belong to different feature systems (an input mismatch, exit 2)."""


def _same_system(what: str, *feature_names: tuple[str, ...]) -> None:
    """The one feature-system check: `what` must share one feature-name tuple, in order."""
    if len(set(feature_names)) > 1:
        raise FingerprintError(f"{what} come from different feature systems")


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: tuple[float, ...]  # bothPlus block, then bothMinus block
    lam: float
    feature_names: tuple[str, ...]  # the feature system: predictors are saved and printed by these names

    def __post_init__(self) -> None:
        if len(set(self.feature_names)) != len(self.feature_names) or not all(map(str.isprintable, self.feature_names)):
            raise InputError("model feature names must be distinct and printable")
        if len(self.coefficients) != (expected := 2 * len(self.feature_names)):
            raise InputError(f"model has {len(self.coefficients)} coefficients, expected {expected}")
        values = (self.lam, self.intercept, *self.coefficients)
        if not all(map(math.isfinite, values)):  # name the first non-finite value only when there is one
            names = ("lambda", "intercept", *(f"coefficient {p!r}" for p in self.predictor_names))
            raise InputError(next(f"model {n} is not finite" for n, v in zip(names, values) if not math.isfinite(v)))
        _checked_lambda(self.lam)

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return _predictor_names(self.feature_names)


def _predictor_names(feature_names: Sequence[str]) -> tuple[str, ...]:
    """The names coefficients are saved under, in their order: the bothPlus block, then bothMinus."""
    return tuple(f"{block}:{n}" for block in ("bothPlus", "bothMinus") for n in feature_names)


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

    keep = s > (0.0 if lam > 0 else _RCOND * s.max(initial=0.0))
    shrink = np.divide(s, s * s + lam, out=np.zeros_like(s), where=keep)
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
    )


def predict_distance(m: LinearModel, a: Segment, b: Segment) -> float:
    """Clamped dimensionless distance between two segments (0 for a == a)."""
    _same_system(f"the model and segments {a.grapheme!r}, {b.grapheme!r}",
                 m.feature_names, a.feature_names, b.feature_names)
    if a.grapheme == b.grapheme:
        return 0.0
    return float(predict_rows(m, encode_pairs(*np.array([[a.features], [b.features]], dtype=bool)))[0])


def save_model(m: LinearModel, sink: str | Path | TextIO) -> None:
    """Write the model as JSON; floats survive the round trip bit-for-bit."""
    import json  # here, as only `fit` writes a model

    payload = {
        "version": 1,
        "lambda": m.lam,
        "intercept": m.intercept,
        "feature_names": list(m.feature_names),
        "coefficients": dict(zip(m.predictor_names, m.coefficients)),
    }
    textio.write_text(sink, json.dumps(payload, ensure_ascii=False, indent=1) + "\n")


def load_model(source: str | Path | TextIO) -> LinearModel:
    """Read a model JSON file back, checking its shape and JSON types; LinearModel checks the values.
    Unknown keys are ignored, among them the "fingerprint" that older files carry."""
    payload = textio.read_json(source)
    if not isinstance(payload, dict):
        raise InputError("model file must hold a JSON object")
    for field in ("version", "lambda", "intercept", "feature_names", "coefficients"):
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
    for predictor in _predictor_names(names):
        if predictor not in coeff_map:
            raise InputError(f"model file missing coefficient {predictor!r}")
        ordered.append(_num(coeff_map[predictor], f"coefficient {predictor!r}"))
    return LinearModel(
        intercept=_num(payload["intercept"], "intercept"),
        coefficients=tuple(ordered),
        lam=_num(payload["lambda"], "lambda"),
        feature_names=names,
    )
