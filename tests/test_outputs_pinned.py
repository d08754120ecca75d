"""The bundled pipeline's outputs hash to the digests the benchmark records.

`perfbench/digests.json` pins the matrix TSV, the cognates tables, the
README alignment, the PCA scatter, the 150-word cognancy-list tables and the
1,000 x 1,000 long-pair alignments byte for byte; these tests read it (never write it) and
rebuild the same outputs in-process, so a change to any of them shows in
tier-1 as well as in a benchmark run.
"""

import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

import phondist as pd
from phondist import bundled_path
from phondist.align import format_cognancy_tsv
from phondist.cli import main
from phondist.matrix import export_matrix_tsv

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text(encoding="utf-8")
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def matrix_file(demo_matrix, tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "matrix.tsv"
    export_matrix_tsv(demo_matrix, path)
    return str(path)


def test_matrix_tsv(matrix_file):
    text = Path(matrix_file).read_text(encoding="utf-8")
    assert sha256(text) == DIGESTS["setup"]["matrix.tsv"]


@pytest.mark.parametrize("name", ["test1", "test2", "test3"])
def test_cognates_stdout(name, matrix_file, capsys):
    words = str(bundled_path(f"wordlists/{name}.txt"))
    assert main(["cognates", "--matrix", matrix_file, "--words", words, "--threshold", "0"]) == 0
    assert sha256(capsys.readouterr().out) == DIGESTS["cli-pipeline"][f"cognates-{name}.tsv"]


def test_align_stdout(matrix_file, capsys):
    assert main(["align", "--matrix", matrix_file, "woldemort", "waldemar"]) == 0
    assert sha256(capsys.readouterr().out) == DIGESTS["cli-pipeline"]["align.txt"]


def test_pca_scatter_svg(tmp_path, monkeypatch):
    (tmp_path / "data").mkdir()
    shutil.copyfile(bundled_path("paper_table.tsv"), tmp_path / "data" / "paper_table.tsv")
    monkeypatch.chdir(tmp_path)  # the header echoes the relative path, as perfbench/run.py's PCA step runs it
    assert main(["pca", "--matrix", "data/paper_table.tsv", "-k", "2", "--format", "svg", "-o", "scatter.svg"]) == 0
    assert hashlib.sha256((tmp_path / "scatter.svg").read_bytes()).hexdigest() == DIGESTS["cli-pipeline"]["scatter.svg"]


def perfbench_inputs():
    """The benchmark's own input generator, loaded from its file (perfbench is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_cognancy_list_digests(demo_matrix):
    inputs = perfbench_inputs()
    tokens = inputs.word_list(DIGESTS["reference_seed"], inputs.feature_graphemes(bundled_path("features.tsv")))
    words = ["".join(t) for t in tokens]
    runs = {
        "global.tsv": pd.cognancy_matrix(pd.ScoringScheme(matrix=demo_matrix), words, "global"),
        "local.tsv": pd.cognancy_matrix(pd.ScoringScheme(matrix=demo_matrix, gap_mode="null_column"), words, "local"),
    }
    for name, cm in runs.items():  # hashed as perfbench/worker.py CognancyList.digests hashes them
        assert sha256(format_cognancy_tsv(cm)) == DIGESTS["cognancy-list"][name], name


def test_long_pair_digests(demo_matrix):
    inputs = perfbench_inputs()
    left, right = inputs.long_pair(DIGESTS["reference_seed"], inputs.feature_graphemes(bundled_path("features.tsv")))
    runs = {
        "global": pd.global_align(pd.ScoringScheme(matrix=demo_matrix), left, right),
        "local": pd.local_align(pd.ScoringScheme(matrix=demo_matrix, gap_mode="null_column"), left, right),
    }
    for mode, alignment in runs.items():  # hashed as perfbench/worker.py LongPair.digests hashes them
        text = json.dumps({"score": repr(alignment.score), "columns": alignment.columns}, ensure_ascii=False)
        assert sha256(text) == DIGESTS["long-pair"][mode], mode
