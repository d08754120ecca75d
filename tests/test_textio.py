"""Text input: byte-order marks and the file's own line numbers.

A file that starts with a UTF-8 byte-order mark, as some editors write it,
must load exactly as the same file without one.
"""

import codecs
import io

import pytest

import phondist as pd
from phondist import textio


def _inventory():
    return pd.load_feature_table(pd.bundled_path("features.tsv"))


def _seed():
    return pd.normalize_scores(pd.load_seed_matrix(pd.bundled_path("seed_scores.csv"), _inventory()))


def _features(path):
    inv = pd.load_feature_table(path)
    return inv.graphemes, inv.feature_names, inv.feature_rows(inv.graphemes).tolist()


def _matrix(path):
    dm = pd.load_reference_matrix(path)
    return dm.segments, dm.values.tolist()


# (bundled file, what its loader makes of it, in a comparable form)
LOADERS = {
    "features": ("features.tsv", _features),
    "seed": ("seed_scores.csv", lambda path: pd.load_seed_matrix(path, _inventory()).records),
    "templates": ("delta_templates.csv", pd.load_templates),
    "bundles": ("delta_bundles.json", pd.load_delta_bundles),
    "adjustments": ("adjustments.csv", lambda path: pd.apply_adjustments(_seed(), path).records),
    "matrix": ("paper_table.tsv", _matrix),
    "words": ("wordlists/test1.txt", textio.read_lines),
}


@pytest.mark.parametrize("role", [*LOADERS, "model"])
def test_byte_order_mark_is_skipped(role, demo_model, tmp_path):
    if role == "model":
        original, load = tmp_path / "model.json", pd.load_model
        pd.save_model(demo_model, original)
    else:
        name, load = LOADERS[role]
        original = pd.bundled_path(name)
    marked = tmp_path / f"marked-{original.name}"
    marked.write_bytes(codecs.BOM_UTF8 + original.read_bytes())
    assert load(marked) == load(original)


def test_csv_rows_carry_file_line_numbers():
    text = '# comment\n\na,"b\nc",1\n d , e ,2\n'
    assert textio.read_csv(io.StringIO(text), 3) == [(4, ["a", "b\nc", "1"]), (5, ["d", "e", "2"])]
