import io
import os
import random
from pathlib import Path

import numpy as np
import pytest

import phondist as pd
from phondist import bundled_path
from phondist.model import encode_pairs
from phondist.seed import SeedDataset, SimilarityRecord

# ---------------------------------------------------------------------------
# Hand-built miniature fixtures. The seed uses a raw 0-10 scale engineered so
# min-max normalization divides by exactly 10; all expected values downstream
# are hand-computed from these numbers.

MINI_FEATURES = """\
segment	consonantal	sonorant	continuant	delayedRelease	nasal	labial	coronal	dorsal	strident	periodicGlottalSource	long	fortis	click	raisedLarynxEjective	loweredLarynxImplosive	advancedTongueRoot	retractedTongueRoot	syllabic	front	tense
i	-	+	+	-	-	-	-	-	-	+	-	-	-	-	-	-	-	+	+	+
e	-	+	+	-	-	-	-	-	-	+	-	-	-	-	-	-	-	+	+	+
a	-	+	+	-	-	-	-	-	-	+	-	-	-	-	-	-	-	+	-	-
j	-	+	+	-	-	-	-	+	-	+	-	-	-	-	-	-	-	-	+	-
m	+	+	-	-	+	+	-	-	-	+	-	-	-	-	-	-	-	-	-	-
p	+	-	-	-	-	+	-	-	-	-	-	-	-	-	-	-	-	-	-	-
b	+	-	-	-	-	+	-	-	-	+	-	-	-	-	-	-	-	-	-	-
t	+	-	-	-	-	-	+	-	-	-	-	-	-	-	-	-	-	-	-	-
d	+	-	-	-	-	-	+	-	-	+	-	-	-	-	-	-	-	-	-	-
k	+	-	-	-	-	-	-	+	-	-	-	-	-	-	-	-	-	-	-	-
g	+	-	-	-	-	-	-	+	-	+	-	-	-	-	-	-	-	-	-	-
s	+	-	+	-	-	-	+	-	+	-	-	-	-	-	-	-	-	-	-	-
t͡s	+	-	-	+	-	-	+	-	+	-	-	-	-	-	-	-	-	-	-	-
k͡x	+	-	-	+	-	-	-	+	-	-	-	-	-	-	-	-	-	-	-	-
pʼ	+	-	-	-	-	+	-	-	-	-	-	-	-	+	-	-	-	-	-	-
kʼ	+	-	-	-	-	-	-	+	-	-	-	-	-	+	-	-	-	-	-	-
r	+	+	+	-	-	-	+	-	-	+	-	-	-	-	-	-	-	-	-	-
ɾ	+	+	-	-	-	-	+	-	-	+	-	-	-	-	-	-	-	-	-	-
ǃ	+	-	-	-	-	-	+	+	-	-	-	-	+	-	-	-	-	-	-	-
ɓ	+	-	-	-	-	+	-	-	-	+	-	-	-	-	+	-	-	-	-	-
rː	+	+	+	-	-	-	+	-	-	+	+	-	-	-	-	-	-	-	-	-
sː	+	-	+	-	-	-	+	-	+	-	+	-	-	-	-	-	-	-	-	-
iː	-	+	+	-	-	-	-	-	-	+	+	-	-	-	-	-	-	+	+	+
p͈	+	-	-	-	-	+	-	-	-	-	-	+	-	-	-	-	-	-	-	-
i̘	-	+	+	-	-	-	-	-	-	+	-	-	-	-	-	+	-	+	+	+
a̙	-	+	+	-	-	-	-	-	-	+	-	-	-	-	-	-	+	+	-	-
"""

MINI_SEED = """\
i,j,0.0
s,m,10.0
k,g,1.0
t,t͡s,3.0
k,k͡x,2.6
t,s,2.4
p,pʼ,2.0
r,ɾ,1.5
r,a,3.0
i,e,1.2
p,a,4.0
b,a,6.0
"""

MINI_BUNDLES = """\
{
  "stop_affricate": [["t", "t͡s"], ["k", "k͡x"]],
  "stop_fricative": [["t", "s"]],
  "stop_ejective": [["p", "pʼ"]],
  "flap_trill": [["r", "ɾ"]],
  "atr_proximity": [["i", "e"]]
}
"""

MINI_TEMPLATES = """\
nonpulmonic_central,k,g,k,ǃ,+
nonpulmonic_implosive,b,b,b,ɓ,+
nonpulmonic_ejective_half,k,g,kʼ,g,+
long,r,a,rː,a,+
long,s,m,sː,m,+
long,r,ɾ,rː,ɾ,-
fortis,p,b,p͈,a,+
atr,i,e,i̘,e,+
rtr,a,a,a,a̙,+
"""


def mini_inventory():
    return pd.load_feature_table(io.StringIO(MINI_FEATURES))


def mini_normalized(inv=None):
    inv = inv or mini_inventory()
    return pd.normalize_scores(pd.load_seed_matrix(io.StringIO(MINI_SEED), inv))


def mini_bundles():
    return pd.load_delta_bundles(io.StringIO(MINI_BUNDLES))


def mini_templates():
    return pd.load_templates(io.StringIO(MINI_TEMPLATES))


# ---------------------------------------------------------------------------
# Synthetic regression designs (used by the fit tests and the acceptance
# suite). Random boolean feature tables give full-rank pair encodings.


def random_inventory(n_features, n_segments, seed, duplicate_feature=False):
    """Inventory with random boolean feature vectors.

    With duplicate_feature, the last feature copies the first exactly, which
    duplicates both of its predictor columns in every pair encoding.
    """
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(n_features)]
    lines = ["segment\t" + "\t".join(names)]
    for i in range(n_segments):
        vec = tuple(rng.random() < 0.5 for _ in range(n_features))
        if duplicate_feature:
            vec = vec[:-1] + (vec[0],)
        lines.append(f"g{i}\t" + "\t".join("+" if v else "-" for v in vec))
    return pd.load_feature_table(io.StringIO("\n".join(lines) + "\n"))


def synthetic_dataset(n_rows, weights, intercept, inv, rng):
    """Noiseless y = intercept + w.x over distinct random segment pairs."""
    graphemes = list(inv.graphemes)
    records = []
    seen = set()
    while len(records) < n_rows:
        a, b = rng.sample(graphemes, 2)
        key = tuple(sorted((a, b)))
        if key in seen:
            continue
        seen.add(key)
        x = encode_pairs(inv.feature_rows([a]), inv.feature_rows([b]))[0]
        records.append(SimilarityRecord(a, b, intercept + float(x @ weights), "seed"))
    return SeedDataset(records, inv)


def design_of(ds, inv):
    X = encode_pairs(inv.feature_rows([r.seg_a for r in ds.records]),
                     inv.feature_rows([r.seg_b for r in ds.records]))
    y = np.array([r.score for r in ds.records])
    return X, y


# ---------------------------------------------------------------------------
# Bundled demo pipeline, built once per session.


@pytest.fixture(scope="session")
def demo_inventory():
    return pd.load_feature_table(bundled_path("features.tsv"))


@pytest.fixture(scope="session")
def demo_dataset(demo_inventory):
    ds = pd.load_seed_matrix(bundled_path("seed_scores.csv"), demo_inventory)
    ds = pd.normalize_scores(ds)
    bundles = pd.load_delta_bundles(bundled_path("delta_bundles.json"))
    deltas = pd.derive_deltas(ds, bundles)
    templates = pd.load_templates(bundled_path("delta_templates.csv"))
    ds = pd.augment_with_deltas(ds, deltas, demo_inventory, templates)
    return pd.apply_adjustments(ds, bundled_path("adjustments.csv"))


@pytest.fixture(scope="session")
def demo_model(demo_dataset, demo_inventory):
    return pd.fit(demo_dataset, demo_inventory)


@pytest.fixture(scope="session")
def demo_matrix(demo_model, demo_inventory):
    return pd.build_matrix(demo_model, demo_inventory, include_null=True)


@pytest.fixture(scope="session")
def fixture_matrix():
    return pd.load_reference_matrix(bundled_path("paper_table.tsv"))


# ---------------------------------------------------------------------------
# Child interpreters that import this checkout's package.


def child_env(**extra) -> dict[str, str]:
    """This environment, with this checkout's package first on PYTHONPATH, for a child process."""
    src = str(Path(pd.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
