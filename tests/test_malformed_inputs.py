"""No input file, however malformed, may end the CLI in a traceback.

Each case runs one subcommand in-process with exactly one of its file
arguments swapped for a corrupted copy of a good file: random bytes, a
non-UTF-8 byte, a truncation, one mangled line, or (for JSON files) a value
of the wrong shape somewhere in the document. The other files stay intact.
`main` must return 0 or 2, raise nothing, and write at most one stderr line;
on exit 2 that line names the corrupted file. The numeric options get the same
treatment with any float or int, given as "--opt=value" and as "--opt value"
with the same result, and a model they let `fit` write must be standard JSON
(no NaN or Infinity). A usage error is one stderr line naming the subcommand,
and an error that echoes a grapheme or an argument is one line of printable
characters, whatever that text holds.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phondist import bundled_path
from phondist.cli import main

BUNDLED = {
    "features": bundled_path("features.tsv"),
    "seed": bundled_path("seed_scores.csv"),
    "templates": bundled_path("delta_templates.csv"),
    "bundles": bundled_path("delta_bundles.json"),
    "adjustments": bundled_path("adjustments.csv"),
    "fixture": bundled_path("paper_table.tsv"),
    "words": bundled_path("wordlists/test1.txt"),
}

# Bytes that never occur in UTF-8.
NON_UTF8 = b"\x80\xc0\xc1\xf5\xfe\xff"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Good input files by role, including a fitted model and its matrix."""
    work = tmp_path_factory.mktemp("malformed")
    good = dict(BUNDLED)
    good["model"] = work / "model.json"
    good["matrix"] = work / "matrix.tsv"
    assert _run(["fit", *_fit_args(good), "-o", str(good["model"])])[0] == 0
    assert _run([
        "matrix", "--model", str(good["model"]), "--features", str(good["features"]),
        "--include-null", "-o", str(good["matrix"]),
    ])[0] == 0
    return good, work


def _fit_args(f):
    return [
        "--features", str(f["features"]), "--seed", str(f["seed"]),
        "--templates", str(f["templates"]), "--bundles", str(f["bundles"]),
        "--adjustments", str(f["adjustments"]),
    ]


def _argv(command, f, out):
    """Arguments that succeed on the good files."""
    return {
        "fit": ["fit", *_fit_args(f), "-o", out],
        "matrix": ["matrix", "--model", str(f["model"]),
                   "--features", str(f["features"]), "--include-null", "-o", out],
        "distance": ["distance", "--matrix", str(f["fixture"]), "a", "i"],
        "align": ["align", "--matrix", str(f["matrix"]), "woldemort", "waldemar"],
        "cognates": ["cognates", "--matrix", str(f["matrix"]),
                     "--words", str(f["words"]), "--threshold", "0"],
        "pca": ["pca", "--matrix", str(f["fixture"]), "-k", "2", "--format", "svg", "-o", out],
    }[command]


# (subcommand, role of the file argument that gets corrupted)
CASES = [
    ("fit", "features"),
    ("fit", "seed"),
    ("fit", "templates"),
    ("fit", "bundles"),
    ("fit", "adjustments"),
    ("matrix", "model"),
    ("matrix", "features"),
    ("distance", "fixture"),
    ("align", "matrix"),
    ("cognates", "matrix"),
    ("cognates", "words"),
    ("pca", "fixture"),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def corruptions(draw, good: bytes, is_json: bool):
    """A corrupted copy of `good` and the name of the corruption."""
    kinds = ["random_bytes", "non_utf8", "truncated", "mangled_line"]
    if is_json:
        kinds.append("json_shape")
    kind = draw(st.sampled_from(kinds))
    if kind == "random_bytes":
        return kind, draw(st.binary(max_size=300))
    if kind == "non_utf8":
        pos = draw(st.integers(0, len(good)))
        return kind, good[:pos] + bytes([draw(st.sampled_from(NON_UTF8))]) + good[pos:]
    if kind == "truncated":
        return kind, good[: draw(st.integers(0, len(good) - 1))]
    if kind == "mangled_line":
        lines = good.split(b"\n")
        k = draw(st.integers(0, len(lines) - 1))
        own = sorted(set(lines[k].decode("utf-8")) | set("\t,#\"[]{}:.-+0123456789e"))
        lines[k] = draw(st.text(st.sampled_from(own) | st.characters(codec="utf-8"), max_size=60)).encode("utf-8")
        return kind, b"\n".join(lines)
    # json_shape: replace one node, anywhere from the root down, with any JSON value.
    doc = json.loads(good)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    value = draw(json_values)
    if parent is None:
        doc = value
    else:
        parent[key] = value
    return kind, json.dumps(doc, ensure_ascii=False).encode("utf-8")


def _check(command, role, data: bytes, files, kind=None):
    good, work = files
    bad = work / f"bad-{role}{Path(good[role]).suffix}"
    bad.write_bytes(data)
    code, err = _run(_argv(command, {**good, role: bad}, str(work / "out")))
    assert code in (0, 2), err
    assert len(err.splitlines()) <= 1, err
    if kind == "non_utf8":
        assert code == 2, err
    if code == 2:
        assert str(bad) in err, err
    return code, err


@pytest.mark.parametrize("command,role", CASES)
def test_malformed_file_exits_cleanly(command, role, files):
    good = Path(files[0][role]).read_bytes()

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(corruptions(good, role in ("bundles", "model")))
    def check(corruption):
        kind, data = corruption
        _check(command, role, data, files, kind)

    check()


@pytest.mark.parametrize("content", [
    "null",
    '{"stop_affricate": 5}',
    '{"stop_affricate": [[1, 2]]}',
    '{"stop_affricate": []}',
])
def test_bundle_shape_errors_exit_2(content, files):
    good = json.loads(Path(BUNDLED["bundles"]).read_text(encoding="utf-8"))
    doc = json.loads(content)
    if isinstance(doc, dict):
        doc = {**good, **doc}
    data = json.dumps(doc).encode("utf-8")
    code, err = _check("fit", "bundles", data, files)
    assert code == 2 and "bundle" in err, err


def test_missing_bundle_exits_2(files):
    good = json.loads(Path(BUNDLED["bundles"]).read_text(encoding="utf-8"))
    del good["flap_trill"]
    code, err = _check("fit", "bundles", json.dumps(good).encode("utf-8"), files)
    assert code == 2 and "delta bundle config missing flap_trill" in err, err


@pytest.mark.parametrize("command,role", [("fit", "bundles"), ("matrix", "model")])
def test_deeply_nested_json_exits_2(command, role, files):
    code, err = _check(command, role, b"[" * 100_000, files)
    assert code == 2 and "JSON" in err, err


@pytest.mark.parametrize("command,role", [("fit", "bundles"), ("matrix", "model")])
def test_overlong_json_integer_exits_2(command, role, files):
    # json.load cannot convert an integer past Python's int-string limit (4,300 digits)
    doc = json.loads(Path(files[0][role]).read_text(encoding="utf-8"))
    doc["intercept" if role == "model" else "stop_affricate"] = "@"
    data = json.dumps(doc, ensure_ascii=False).replace('"@"', "9" * 5000).encode("utf-8")
    code, err = _check(command, role, data, files)
    assert code == 2 and "JSON" in err and "5000 digits" in err, err


# A quoted CSV cell or a JSON string may hold a line break or an escape character.
@pytest.mark.parametrize("role,row", [
    ("seed", '"x\ny",p,nan'),
    ("bundles", ["x\ny", "p"]),
    ("templates", 'long,"x\ny",a,rː,a,+'),
    ("adjustments", '"x\ny",p,2'),
    ("adjustments", '"b\x1b",p,2'),
], ids=["seed", "bundles", "templates", "adjustments", "adjustments-escape"])
def test_unprintable_grapheme_error_is_one_printable_line(role, row, files):
    text = Path(BUNDLED[role]).read_text(encoding="utf-8")
    if role == "bundles":
        doc = json.loads(text)
        doc["flap_trill"].append(row)
        text = json.dumps(doc, ensure_ascii=False)
    else:
        text += row + "\n"
    code, err = _check("fit", role, text.encode("utf-8"), files)
    assert code == 2 and len(err.splitlines()) == 1 and err[:-1].isprintable(), repr(err)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324]
any_float = st.sampled_from(EDGE_FLOATS) | st.floats()
any_int = st.sampled_from([0, -1, 10**308, -(10**308)]) | st.integers()

# (subcommand, numeric option, values to try); the option is appended to
# arguments that succeed, so it overrides any value they already give.
NUMERIC_OPTIONS = [
    ("fit", "--lambda", any_float),
    ("align", "--sigma", any_float),
    ("align", "--center", any_float),
    ("align", "--gap", any_float),
    ("cognates", "--threshold", any_float),
    ("pca", "--components", any_int),
]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command,option,values", NUMERIC_OPTIONS, ids=[o for _, o, _ in NUMERIC_OPTIONS])
def test_numeric_option_exits_cleanly(command, option, values, files):
    good, work = files
    out = work / f"numeric-{command}.out"

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values)
    def check(value):
        results = []
        # "--opt=value", then "--opt value", which argparse must not read as two options for -1e3 or -inf.
        for form in ([f"{option}={value!r}"], [option, repr(value)]):
            out.unlink(missing_ok=True)
            code, err = _run([*_argv(command, good, str(out)), *form])
            assert code in (0, 2), err
            assert len(err.splitlines()) <= 1, err
            if code == 0 and command == "fit":
                json.loads(out.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
            results.append((code, err))
        assert results[0] == results[1]

    check()


@pytest.mark.parametrize("command,argv", [
    ("align", ["--matrix", "m.tsv", "woldemort"]),
    ("align", ["--matrix", "m.tsv", "woldemort", "waldemar", "--gap"]),
    ("fit", ["--features", "f.tsv", "--seed", "s.csv", "-o", "m.json", "--lambda", "x"]),
    ("pca", ["--matrix", "m.tsv", "--format", "png", "-o", "out"]),
    ("distance", ["--matrix", "m.tsv", "a", "i", "u"]),
    ("distance", ["--matrix", "m.tsv", "a", "i", "--x\ny"]),
    ("align", ["--matrix", "m.tsv", "--m=x\ny", "woldemort", "waldemar"]),
], ids=["missing-word", "missing-value", "bad-float", "bad-choice", "extra-argument",
        "unknown-option-with-line-break", "ambiguous-option-with-line-break"])
def test_usage_error_is_one_line(command, argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main([command, *argv])
        except SystemExit as exc:
            code = exc.code
    assert code == 2
    assert err.getvalue().startswith(f"phondist {command}: error: ")
    assert len(err.getvalue().splitlines()) == 1 and err.getvalue()[:-1].isprintable(), repr(err.getvalue())
