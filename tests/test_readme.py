"""The README's code examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library use'"
    namespace = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    assert namespace["alignment"].score == pytest.approx(31.70, abs=0.005)
    assert capsys.readouterr().out.startswith("31.70")
