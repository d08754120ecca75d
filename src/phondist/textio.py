"""Reading and writing the package's text files.

Every file the package reads or writes is UTF-8 text, given either as a path
or as an already-open handle. Line-oriented formats (feature tables, matrices,
word lists) skip blank lines and lines whose first non-blank character is "#";
CSV formats skip empty rows and rows whose first cell starts with "#". A file
that is not valid UTF-8, CSV or JSON raises InputError with a one-line
message, so callers report it like any other input error; the CLI puts the
file's name in front of it, as it does for every input error a file causes.
"""

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import InputError

T = TypeVar("T")


@contextmanager
def _opened(target: str | Path | TextIO, mode: str = "r", newline: str | None = None) -> Iterator[TextIO]:
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline=newline) as handle:
            yield handle
    else:
        yield target


def _parse(source: str | Path | TextIO, parse: Callable[[TextIO], T], newline: str | None = None) -> T:
    try:
        with _opened(source, newline=newline) as handle:
            return parse(handle)
    except UnicodeDecodeError as exc:
        problem = f"not valid UTF-8 ({exc.reason})"
    except json.JSONDecodeError as exc:
        problem = f"malformed JSON ({exc})"
    except RecursionError:  # only json.load recurses, once per nesting level
        problem = "malformed JSON (nested too deeply)"
    except csv.Error as exc:
        problem = f"malformed CSV ({exc})"
    raise InputError(problem)


def read_lines(source: str | Path | TextIO) -> list[str]:
    """Data lines without their newline; blank and "#" comment lines skipped."""
    return [
        line.rstrip("\n")
        for line in _parse(source, lambda handle: handle.readlines())
        if line.strip() and not line.lstrip().startswith("#")
    ]


def format_table(comment: str, rows: Iterable[Iterable[str]]) -> str:
    """Tab-separated rows, one per line, under a "# comment" line if comment is not empty."""
    lines = [f"# {comment}"] if comment else []
    lines.extend("\t".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def read_csv(source: str | Path | TextIO) -> list[tuple[int, list[str]]]:
    """(row number, cells) for each CSV row; empty and "#" comment rows skipped."""
    raw = _parse(source, lambda handle: list(csv.reader(handle)), newline="")
    return [
        (lineno, row)
        for lineno, row in enumerate(raw, start=1)
        if row and not row[0].lstrip().startswith("#")
    ]


def read_json(source: str | Path | TextIO) -> Any:
    """The parsed JSON document; its shape is the caller's to check."""
    return _parse(source, json.load)


def write_text(sink: str | Path | TextIO, text: str) -> None:
    with _opened(sink, "w") as handle:
        handle.write(text)
