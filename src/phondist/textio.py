"""Reading and writing the package's text files.

Every file the package reads or writes is UTF-8 text, given either as a path
or as an already-open handle; a path may start with a byte-order mark. Readers
skip blank lines and "#" comments, hand out stripped, NFC-normalized cells
with the file's own line numbers, and raise InputError with a one-line message
for a file that is not valid UTF-8, CSV or JSON or whose rows have the wrong
width; the CLI puts the file's name in front of it, as it does for every input
error a file causes.
"""

import csv
import json
import unicodedata
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import InputError

T = TypeVar("T")


@contextmanager
def _opened(target: str | Path | TextIO, mode: str = "r", newline: str | None = None) -> Iterator[TextIO]:
    if isinstance(target, (str, Path)):
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        with open(target, mode, encoding=encoding, newline=newline) as handle:
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


def nfc(text: str) -> str:
    """A cell, grapheme or word as every reader compares it: stripped, then NFC-normalized."""
    return unicodedata.normalize("NFC", text.strip())


def read_lines(source: str | Path | TextIO) -> list[tuple[int, str]]:
    """(line number, text without its newline) per data line; blank and "#" comment lines skipped."""
    return [
        (lineno, line.rstrip("\n"))
        for lineno, line in enumerate(_parse(source, lambda handle: handle.readlines()), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def read_table(source: str | Path | TextIO, ragged: bool = False) -> tuple[list[str], list[tuple[int, str, list[str]]]]:
    """Column names and (line number, label, cells) per row of a TSV table whose header
    starts with "segment"; unless `ragged`, every row is as wide as the header."""
    lines = read_lines(source)
    if not lines:
        raise InputError("table is empty")
    (_, header), *rows = [(lineno, [nfc(cell) for cell in text.split("\t")]) for lineno, text in lines]
    if header[0] != "segment":
        raise InputError('table header must start with a "segment" column')
    if not ragged:
        for lineno, cells in rows:
            _check_width(lineno, cells, len(header))
    return header[1:], [(lineno, cells[0], cells[1:]) for lineno, cells in rows]


def format_table(comment: str, rows: Iterable[Iterable[str]]) -> str:
    """Tab-separated rows, one per line, under a "# comment" line if comment is not empty."""
    lines = [f"# {comment}"] if comment else []
    lines.extend("\t".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def read_csv(source: str | Path | TextIO, width: int) -> list[tuple[int, list[str]]]:
    """(line number, cells) per CSV row of exactly `width` cells; empty and "#" comment rows skipped."""
    rows = _parse(source, _csv_rows, newline="")
    for lineno, row in rows:
        _check_width(lineno, row, width)
    return [(lineno, [nfc(cell) for cell in row]) for lineno, row in rows]


def _csv_rows(handle: TextIO) -> list[tuple[int, list[str]]]:
    """(number of the line the row ends on, cells) per CSV row, empty and "#" comment rows skipped."""
    reader = csv.reader(handle)
    return [(reader.line_num, row) for row in reader if row and not row[0].lstrip().startswith("#")]


def _check_width(lineno: int, cells: list[str], width: int) -> None:
    if len(cells) != width:
        raise InputError(f"row {lineno}: expected {width} columns, got {len(cells)}")


def read_json(source: str | Path | TextIO) -> Any:
    """The parsed JSON document; its shape is the caller's to check."""
    return _parse(source, json.load)


def write_text(sink: str | Path | TextIO, text: str) -> None:
    with _opened(sink, "w") as handle:
        handle.write(text)
