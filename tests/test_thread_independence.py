"""Everything after `fit` gives the same bits under any BLAS thread count.

One saved model.json is read in fresh interpreters with 1, 2 and 4 BLAS
threads; the matrix bytes, every cognancy score and a long alignment score
must agree exactly. (`fit` itself is not covered: its SVD route still
depends on the thread count.)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import phondist as pd

SRC = Path(pd.__file__).resolve().parent.parent

PROBE = """
import hashlib, json, random, sys
import phondist as pd

model = pd.load_model(sys.argv[1])
inv = pd.load_feature_table(pd.bundled_path("features.tsv"))
dm = pd.build_matrix(model, inv, include_null=True)
rng = random.Random(0)
segments = [g for g in dm.segments if g != "∅"]
words = ["".join(rng.choices(segments, k=rng.randint(1, 8))) for _ in range(60)]
long_left, long_right = (rng.choices(segments, k=300) for _ in range(2))
out = {"matrix": hashlib.sha256(dm.values.tobytes()).hexdigest()}
for gap_mode in ("constant", "null_column"):
    s = pd.ScoringScheme(matrix=dm, gap_mode=gap_mode)
    for mode in ("global", "local"):
        out[f"{gap_mode}/{mode}/cognancy"] = repr(pd.cognancy_matrix(s, words, mode).scores.tolist())
    out[f"{gap_mode}/global/300"] = repr(pd.global_align(s, long_left, long_right).score)
    out[f"{gap_mode}/local/300"] = repr(pd.local_align(s, long_left, long_right).score)
print(json.dumps(out))
"""


def _probe(model_path: Path, threads: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PROBE, str(model_path)], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_outputs_after_fit_ignore_blas_threads(demo_model, tmp_path):
    model_path = tmp_path / "model.json"
    pd.save_model(demo_model, model_path)
    one, two, four = (_probe(model_path, n) for n in (1, 2, 4))
    assert len(one) == 9
    assert one == two == four
