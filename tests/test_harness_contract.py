"""What the benchmark in perfbench/ relies on in the package.

A traced benchmark run wraps module attributes of phondist (see
`traced_targets` in perfbench/worker.py) and reads the per-pair alignment
spans of `cognancy_matrix` from those wrappers. Breaking either makes the
benchmark fail, which tier-1 would not otherwise notice.
"""

import sys
from pathlib import Path

import pytest

import phondist as pd
from phondist import align

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import worker

WORDS = ["woldemort", "waldemar", "wladimir", "vladymir", "wolde", "mar"]


def test_traced_targets_resolve():
    targets = worker.traced_targets(pd)
    assert {
        ("phondist.align", "global_align"),
        ("phondist.align", "local_align"),
        ("phondist.align", "tokenize"),
        ("phondist.matrix", "predict_distance"),
    } <= {(mod.__name__, attr) for mod, attr, _ in targets}
    for mod, attr, _ in targets:
        assert callable(getattr(mod, attr))


@pytest.mark.parametrize("mode,attr", [("global", "global_align"), ("local", "local_align")])
def test_cognancy_calls_module_aligner_once_per_pair(mode, attr, demo_matrix, monkeypatch):
    calls = {"pairs": 0, "tokenize": 0}
    aligner, tokenize = getattr(align, attr), align.tokenize

    def counted_aligner(*args):
        calls["pairs"] += 1
        return aligner(*args)

    def counted_tokenize(*args):
        calls["tokenize"] += 1
        return tokenize(*args)

    monkeypatch.setattr(align, attr, counted_aligner)
    monkeypatch.setattr(align, "tokenize", counted_tokenize)
    pd.cognancy_matrix(pd.ScoringScheme(matrix=demo_matrix), WORDS, mode)
    n = len(WORDS)
    assert calls["pairs"] == n * (n - 1) // 2
    assert calls["tokenize"] == n  # each word once, not once per pair
