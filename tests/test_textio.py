"""Text input: byte-order marks, header names and the file's own line numbers;
text output: the one-line rule.

A file that starts with a UTF-8 byte-order mark, as some editors write it,
must load exactly as the same file without one, whether the loader is given
its path or a handle opened on it.
"""

import codecs
import io

import pytest

import phondist as pd
from phondist import textio
from phondist.errors import InputError


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


def _marked_copy(role, demo_model, tmp_path):
    """(original path, a copy of it behind a byte-order mark, the role's loader)."""
    if role == "model":
        original, load = tmp_path / "model.json", pd.load_model
        pd.save_model(demo_model, original)
    else:
        name, load = LOADERS[role]
        original = pd.bundled_path(name)
    marked = tmp_path / f"marked-{original.name}"
    marked.write_bytes(codecs.BOM_UTF8 + original.read_bytes())
    return original, marked, load


@pytest.mark.parametrize("role", [*LOADERS, "model"])
def test_byte_order_mark_is_skipped(role, demo_model, tmp_path):
    original, marked, load = _marked_copy(role, demo_model, tmp_path)
    assert load(marked) == load(original)


@pytest.mark.parametrize("role", [*LOADERS, "model"])
def test_byte_order_mark_is_skipped_on_open_handles(role, demo_model, tmp_path):
    original, marked, load = _marked_copy(role, demo_model, tmp_path)
    with open(marked, encoding="utf-8") as handle:
        assert load(handle) == load(original)


@pytest.mark.parametrize("load,text", [
    (pd.load_feature_table, "segment\tlong\t\tshort\np\t+\t-\t-\n"),
    (pd.load_reference_matrix, "segment\ta\t\na\t0\n"),
], ids=["features", "matrix"])
def test_empty_column_name_rejected(load, text):
    with pytest.raises(InputError, match="^table header column 3 has no name$"):
        load(io.StringIO(text))


def test_csv_rows_carry_file_line_numbers():
    text = '# comment\n\na,"b\nc",1\n d , e ,2\n'
    assert textio.read_csv(io.StringIO(text), 3) == [(4, ["a", "b\nc", "1"]), (5, ["d", "e", "2"])]


def test_one_line_keeps_printable_text_and_escapes_the_rest():
    kept = "t\u0361s i\u0318 \u2205 \u2212"  # t͡s i̘ ∅ −: a tie bar, a combining mark, the null sign, a minus
    assert textio.one_line(kept) == kept
    escaped = "a\nb\rc\td\x85e\u2028f\x1bg\ud800"
    assert textio.one_line(escaped) == "a\\nb\\rc\\td\\x85e\\u2028f\\x1bg\\ud800"
