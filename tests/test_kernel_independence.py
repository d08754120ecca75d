"""From a fixed matrix file, alignment and cognancy give the same bits under any BLAS kernel.

OpenBLAS picks its kernels by CPU model, and OPENBLAS_CORETYPE forces one for
a single process. One matrix.tsv is read in fresh interpreters with the
variable unset, "Haswell" and "Prescott"; the cognancy scores of a short word
list and two long alignments, in both modes and both gap modes, must have the
same bytes. The alignment kernels call no BLAS, so this holds wherever the
matrix comes from. (`fit` and `pca` are not covered: their SVD and eigenpairs
still depend on the kernel.) A BLAS that ignores the variable passes trivially.
"""

import json
import subprocess
import sys
from pathlib import Path

from phondist.matrix import export_matrix_tsv

from conftest import child_env

PROBE = """
import json, random, sys
import phondist as pd
from phondist.align import format_alignment

dm = pd.load_reference_matrix(sys.argv[1])
rng = random.Random(0)
segments = [g for g in dm.segments if g != "∅"]
words = ["".join(rng.choices(segments, k=rng.randint(1, 8))) for _ in range(40)]
long_left, long_right = ("".join(rng.choices(segments, k=500)) for _ in range(2))
out = {}
for gap_mode in ("constant", "null_column"):
    s = pd.ScoringScheme(matrix=dm, gap_mode=gap_mode)
    for mode, aligner in (("global", pd.global_align), ("local", pd.local_align)):
        out[f"{gap_mode}/{mode}/cognancy"] = pd.cognancy_matrix(s, words, mode).scores.tobytes().hex()
        a = aligner(s, long_left, long_right)
        out[f"{gap_mode}/{mode}/500"] = f"{format_alignment(a)} {a.score!r}"
print(json.dumps(out))
"""


def _probe(matrix_path: Path, coretype: "str | None") -> dict:
    env = child_env()
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", PROBE, str(matrix_path)], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_alignment_and_cognancy_ignore_the_blas_kernel(demo_matrix, tmp_path):
    matrix_path = tmp_path / "matrix.tsv"
    export_matrix_tsv(demo_matrix, matrix_path)
    auto, haswell, prescott = (_probe(matrix_path, core) for core in (None, "Haswell", "Prescott"))
    assert len(auto) == 8
    assert auto == haswell == prescott
