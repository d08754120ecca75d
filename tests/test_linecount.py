"""scripts/linecount.py counts code, docstring, comment and blank lines as ROADMAP's line gate does."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "linecount.py"

FIXTURE = '''"""A module docstring.

Its blank line above counts as blank.
"""

# a comment line
import os  # a trailing comment: code


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """
# not a comment: a string
"""
        return text
'''


def test_counts_a_fixture_module(tmp_path):
    module = tmp_path / "fixture.py"
    module.write_text(FIXTURE, encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(module)],
                         capture_output=True, text=True, check=True).stdout
    assert len(out.splitlines()) == 1
    report = json.loads(out)
    counts = {"code": 7, "docstring": 6, "comment": 1, "blank": 5, "total": 19}
    assert report == {"modules": {"fixture.py": counts}, "total": counts}
