"""Code, docstring, comment and blank lines of the package's modules.

    python scripts/linecount.py [FILE ...]

Counts src/phondist/*.py, or the given files, and prints one JSON line: the
four counts and their sum per module, and in total. A blank line counts as
blank wherever it is, a docstring's too; a line inside a module, class or
function docstring counts as docstring; a line holding only a comment counts
as comment; every other line counts as code.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phondist"


def count(source: str) -> dict[str, int]:
    """The four line counts of one module's source, plus their sum as "total"."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment = {token.start[0] for token in tokenize.generate_tokens(io.StringIO(source).readline)
               if token.type == tokenize.COMMENT and not lines[token.start[0] - 1][:token.start[1]].strip()}
    counts = dict.fromkeys(KINDS, 0)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            counts["blank"] += 1
        elif lineno in docstring:
            counts["docstring"] += 1
        elif lineno in comment:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["total"] = len(lines)
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    modules = {path.name: count(path.read_text(encoding="utf-8")) for path in paths}
    total = {kind: sum(m[kind] for m in modules.values()) for kind in (*KINDS, "total")}
    print(json.dumps({"modules": modules, "total": total}, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
