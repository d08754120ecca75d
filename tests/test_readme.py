"""The README's code examples run as written, and it documents every package export."""

import re
from pathlib import Path

import pytest

import phondist

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library use'"
    namespace = {}
    exec(compile(match.group(1), str(README), "exec"), namespace)
    assert namespace["alignment"].score == pytest.approx(31.70, abs=0.005)
    assert capsys.readouterr().out.startswith("31.70")


def test_library_use_lists_every_export():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    entries = {name for line in section.splitlines() if line.startswith("- ")
               for name in re.findall(r"`(\w+)", line.split(":", 1)[0])}
    exported = set(phondist.__all__)  # the exports load on first use, so vars(phondist) lacks them
    for name in exported:
        assert getattr(getattr(phondist, name), "__module__", "").startswith("phondist"), name
    assert exported - entries == set(), "exported but not documented in README"
    assert entries - exported == set(), "documented in README but not exported"
