"""Reading and writing the package's text files.

Every file the package reads or writes is UTF-8 text, given as a path or an
open handle, and may start with a byte-order mark. Readers skip blank lines
and "#" comments, hand out stripped, NFC-normalized cells with the file's own
line numbers, and raise a one-line InputError for a file that is not valid
UTF-8, CSV or JSON or whose rows have the wrong width; the CLI puts the file's
name in front of it. `one_line` escapes paths, arguments and headers wherever
they leave the package as one line (table and SVG comments, CLI lines); data
needs no escaping, as every name is checked printable where it is built.
"""

import io
import unicodedata
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
    """`parse` applied to the text of `source`, from a path or a handle alike, without
    a leading byte-order mark. Each format's reader imports its parser and words its
    errors itself, so that a process that reads no CSV or JSON loads neither."""
    try:
        with _opened(source, newline=newline) as handle:
            text = handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"not valid UTF-8 ({exc.reason})") from None
    return parse(io.StringIO(text, newline=newline))


def nfc(text: str) -> str:
    """A cell, grapheme or word as every reader compares it: stripped, then NFC-normalized."""
    return unicodedata.normalize("NFC", text.strip())


def one_line(value) -> str:
    """str(value) with each unprintable character (line breaks, controls, surrogates) backslash-escaped."""
    return "".join(c if c.isprintable() else ascii(c)[1:-1] for c in str(value))


def refuse_unprintable(names: Iterable[str], what: str) -> None:
    """The one printable-name check: the first unprintable name, put into `what`'s "{!r}", is refused."""
    if bad := [name for name in names if not name.isprintable()]:
        raise InputError(f"{what.format(bad[0])} is not printable")


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
    if "" in header:
        raise InputError(f"table header column {header.index('') + 1} has no name")
    if not ragged:
        for lineno, cells in rows:
            _check_width(lineno, cells, len(header))
    return header[1:], [(lineno, cells[0], cells[1:]) for lineno, cells in rows]


def write_table(sink: str | Path | TextIO, comment: str, rows: Iterable[Iterable[str]]) -> None:
    """Tab-separated rows, one per line, each written as it comes, under a "# comment"
    line, escaped by `one_line`, if comment is not empty."""
    with _opened(sink, "w") as handle:
        if comment:
            handle.write(f"# {one_line(comment)}\n")
        for row in rows:
            handle.write("\t".join(row) + "\n")


def read_csv(source: str | Path | TextIO, width: int) -> list[tuple[int, list[str]]]:
    """(line number, cells) per CSV row of exactly `width` cells; empty and "#" comment rows skipped."""
    import csv

    def rows_of(handle: TextIO) -> list[tuple[int, list[str]]]:  # a row's number is the line it ends on
        reader = csv.reader(handle)
        return [(reader.line_num, row) for row in reader if row and not row[0].lstrip().startswith("#")]

    try:
        rows = _parse(source, rows_of, newline="")
    except csv.Error as exc:
        raise InputError(f"malformed CSV ({exc})") from None
    for lineno, row in rows:
        _check_width(lineno, row, width)
    return [(lineno, [nfc(cell) for cell in row]) for lineno, row in rows]


def _check_width(lineno: int, cells: list[str], width: int) -> None:
    if len(cells) != width:
        raise InputError(f"row {lineno}: expected {width} columns, got {len(cells)}")


def read_json(source: str | Path | TextIO) -> Any:
    """The parsed JSON document; its shape is the caller's to check."""
    import json

    try:
        return _parse(source, lambda handle: json.load(handle, parse_int=_json_int))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON ({exc})") from None
    except RecursionError:  # json.load recurses once per nesting level
        raise InputError("malformed JSON (nested too deeply)") from None


def _json_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than Python converts (sys.get_int_max_str_digits)
        raise InputError(f"malformed JSON (an integer of {len(digits)} digits is too long)") from None


def write_text(sink: str | Path | TextIO, text: str) -> None:
    with _opened(sink, "w") as handle:
        handle.write(text)
