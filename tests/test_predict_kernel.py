"""predict_rows makes one BLAS dot per row under every kernel and thread count.

OpenBLAS picks its kernels by CPU model, and OPENBLAS_CORETYPE forces one for
a single process. In fresh interpreters with the variable unset, "Haswell" and
"Prescott", each with 1 and 2 BLAS threads, predict_rows' stacked product must
give the bytes of a loop that makes one `x @ w` per row. The kernels may sum a
dot in different orders, so only the two routes within one configuration are
compared. A BLAS that ignores the variable passes trivially.
"""

import json
import subprocess
import sys
from pathlib import Path

import phondist as pd

from conftest import child_env

PROBE = """
import json, sys
import numpy as np
import phondist as pd
from phondist.model import LinearModel, encode_pairs, predict_rows

def per_row(m, X):
    w = np.asarray(m.coefficients)
    return np.array([min(1.0, max(0.0, m.intercept + float(x @ w))) for x in X])

model = pd.load_model(sys.argv[1])
inv = pd.load_feature_table(pd.bundled_path("features.tsv"))
rows = inv.feature_rows(list(inv.graphemes))
i, j = np.triu_indices(len(rows), k=1)
rng = np.random.default_rng(0)
wide = LinearModel(intercept=0.5, coefficients=tuple(rng.normal(0.0, 0.01, 2000).tolist()), lam=0.0,
                   feature_names=tuple(f"f{n}" for n in range(1000)))
out = {}
for name, m, X in (("bundled", model, encode_pairs(rows[i], rows[j])),
                   ("wide", wide, rng.normal(0.0, 1.0, (500, 2000)))):
    got = predict_rows(m, X)
    out[name] = [got.tobytes().hex(), per_row(m, X).tobytes().hex(), int(np.sum((got > 0.0) & (got < 1.0)))]
print(json.dumps(out))
"""


def _probe(model_path: Path, coretype: "str | None", threads: int) -> dict:
    env = child_env(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", PROBE, str(model_path)], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_stacked_product_is_one_dot_per_row_under_any_kernel(demo_model, tmp_path):
    model_path = tmp_path / "model.json"
    pd.save_model(demo_model, model_path)
    for coretype in (None, "Haswell", "Prescott"):
        for threads in (1, 2):
            out = _probe(model_path, coretype, threads)
            for name, (stacked, per_row, unclamped) in out.items():
                assert stacked == per_row, (coretype, threads, name)
                assert unclamped > {"bundled": 1500, "wide": 250}[name], (name, unclamped)  # not all clamped
