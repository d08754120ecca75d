"""Dimensionless phoneme distances from binary distinctive features.

The pipeline: load a distinctive-feature inventory, normalize and augment a
seed similarity matrix, fit a ridge-stabilized linear model over symmetric
feature-pair predictors, materialize the full distance matrix, and use it as
a scoring function for global/local alignment and cognancy scoring of
IPA-transcribed words.
"""

from pathlib import Path

from .align import (
    Alignment,
    CognancyMatrix,
    ScoringScheme,
    cognancy_matrix,
    gap_score,
    global_align,
    local_align,
    similarity,
)
from .errors import InputError, NumericalError, PhondistError, TokenizeError, UnknownSegmentError
from .features import (
    Inventory,
    Segment,
    load_feature_table,
)
from .matrix import (
    DistanceMatrix,
    PcaResult,
    build_matrix,
    load_reference_matrix,
    pca,
)
from .model import (
    LinearModel,
    encode_pair,
    fit,
    load_model,
    predict_distance,
    save_model,
)
from .seed import (
    DeltaBundles,
    DeltaSet,
    SeedDataset,
    SimilarityRecord,
    apply_adjustments,
    augment_with_deltas,
    class_mean_distance,
    derive_deltas,
    load_delta_bundles,
    load_seed_matrix,
    load_templates,
    normalize_scores,
)

__version__ = "0.1.0"

_DATA_DIR = Path(__file__).parent / "data"


def bundled_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    path = _DATA_DIR / name
    if not path.exists():
        raise FileNotFoundError(f"no bundled data file {name!r}")
    return path
