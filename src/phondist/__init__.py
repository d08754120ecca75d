"""Dimensionless phoneme distances from binary distinctive features.

The pipeline: load a distinctive-feature inventory, normalize and augment a
seed similarity matrix, fit a ridge-stabilized linear model over symmetric
feature-pair predictors, materialize the full distance matrix, and use it as
a scoring function for global/local alignment and cognancy scoring of
IPA-transcribed words.

The exports load on first use (PEP 562), so `import phondist` imports no
submodule, and a process loads only the modules it uses.
"""

from importlib import import_module
from pathlib import Path

# Each submodule and the names the package root exports from it.
_EXPORTS = {
    "align": ("Alignment", "CognancyMatrix", "ScoringScheme", "cognancy_matrix", "gap_score",
              "global_align", "local_align", "similarity"),
    "errors": ("InputError", "NumericalError", "PhondistError", "TokenizeError", "UnknownSegmentError"),
    "features": ("Inventory", "Segment", "load_feature_table"),
    "matrix": ("DistanceMatrix", "PcaResult", "build_matrix", "load_reference_matrix", "pca"),
    "model": ("LinearModel", "fit", "load_model", "predict_distance", "save_model"),
    "seed": ("DeltaBundles", "DeltaSet", "SeedDataset", "SimilarityRecord", "apply_adjustments",
             "augment_with_deltas", "class_mean_distance", "derive_deltas", "load_delta_bundles",
             "load_seed_matrix", "load_templates", "normalize_scores"),
    "textio": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["bundled_path", *_HOME]
__version__ = "0.1.0"

_DATA_DIR = Path(__file__).parent / "data"


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    path = _DATA_DIR / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file {name!r}")
    return path


def __getattr__(name: str):
    """Import the submodule that defines `name`, or is named `name`, and bind all
    of its exports at once: they stay the objects it defined even if its own
    attributes are patched later, as perfbench's tracing does."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f".{module}", __name__)
    for export in _EXPORTS[module]:
        globals().setdefault(export, getattr(loaded, export))
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
