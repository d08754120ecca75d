"""Every bundled data file is shipped by a non-editable install."""

import ast
import re
from pathlib import Path

import phondist

PACKAGE = Path(phondist.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def _package_data_globs() -> list[str]:
    # tomllib is Python 3.11+; the one array this test reads is also a Python literal.
    text = PYPROJECT.read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section, "pyproject.toml has no [tool.setuptools.package-data] table"
    array = re.search(r"^phondist\s*=\s*(\[.*?\])", section.group(1), re.M | re.S)
    assert array, "package-data lists no globs for phondist"
    return ast.literal_eval(array.group(1))


def test_every_data_file_matches_a_package_data_glob():
    shipped = {path for pattern in _package_data_globs() for path in PACKAGE.glob(pattern)}
    present = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert present, "no bundled data files found"
    missing = sorted(str(path.relative_to(PACKAGE)) for path in present - shipped)
    assert not missing, f"not matched by [tool.setuptools.package-data]: {missing}"
