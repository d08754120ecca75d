import json
import os
import random
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import phondist
from phondist import align, bundled_path, cli
from phondist.cli import main
from phondist.errors import NumericalError

DATA = {
    "features": str(bundled_path("features.tsv")),
    "seed": str(bundled_path("seed_scores.csv")),
    "bundles": str(bundled_path("delta_bundles.json")),
    "templates": str(bundled_path("delta_templates.csv")),
    "adjustments": str(bundled_path("adjustments.csv")),
    "fixture": str(bundled_path("paper_table.tsv")),
    "test1": str(bundled_path("wordlists/test1.txt")),
}

# Frozen from the first run over the bundled inputs and sanity-checked against
# the model invariants; guards against silent pipeline drift.
GOLDEN_INTERCEPT = 2.465961044818897


def run(*argv):
    return main(list(argv))


def _env(**extra) -> dict[str, str]:
    """This environment, with this checkout's package first on PYTHONPATH, for a child process."""
    src = str(Path(phondist.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _copy_or_skip(source, target: Path) -> Path:
    try:
        target.write_bytes(Path(source).read_bytes())
    except (OSError, UnicodeEncodeError):
        pytest.skip(f"the filesystem refuses the name {target.name!r}")
    return target


def _escaped(path: Path) -> str:
    """The path as an output header echoes it."""
    return str(path).replace("\n", "\\n").replace("\udcff", "\\udcff")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "model.json"
    code = run(
        "fit",
        "--features", DATA["features"],
        "--seed", DATA["seed"],
        "--templates", DATA["templates"],
        "--bundles", DATA["bundles"],
        "--adjustments", DATA["adjustments"],
        "-o", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def demo_matrix_file(fitted, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "matrix.tsv"
    code = run(
        "matrix",
        "--model", str(fitted),
        "--features", DATA["features"],
        "--include-null",
        "-o", str(out),
    )
    assert code == 0
    return out


class TestFit:
    def test_model_file_and_golden_intercept(self, fitted, capsys):
        payload = json.loads(fitted.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["lambda"] == 1e-4
        assert len(payload["coefficients"]) == 70
        assert payload["intercept"] == pytest.approx(GOLDEN_INTERCEPT, abs=1e-9)

    def test_reports_intercept_and_top_coefficients(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run("fit", "--features", DATA["features"], "--seed", DATA["seed"],
                   "-o", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "intercept:" in printed
        assert printed.count("bothPlus:") + printed.count("bothMinus:") >= 5

    def test_missing_seed_file_exit_2(self, tmp_path, capsys):
        code = run("fit", "--features", DATA["features"],
                   "--seed", "/nonexistent/seed.csv", "-o", str(tmp_path / "m.json"))
        assert code == 2
        assert "/nonexistent/seed.csv" in capsys.readouterr().err

    def test_negative_lambda_exit_2(self, tmp_path, capsys):
        code = run("fit", "--features", DATA["features"], "--seed", DATA["seed"],
                   "--lambda", "-1", "-o", str(tmp_path / "m.json"))
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_exit_2(self, value, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run("fit", "--features", DATA["features"], "--seed", DATA["seed"],
                   f"--lambda={value}", "-o", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and "lambda" in err
        assert not out.exists()

    def test_score_range_overflow_exit_2(self, tmp_path, capsys):
        # Each score is finite, but max - min overflows to inf.
        seed = tmp_path / "seed.csv"
        seed.write_text("p,b,1e308\nt,d,-1e308\n", encoding="utf-8")
        code = run("fit", "--features", DATA["features"], "--seed", str(seed),
                   "-o", str(tmp_path / "m.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and str(seed) in err

    def test_self_pair_adjustment_exit_2(self, tmp_path, capsys):
        adjustments = tmp_path / "adjustments.csv"
        adjustments.write_text("p,p,0.3\n", encoding="utf-8")
        code = run("fit", "--features", DATA["features"], "--seed", DATA["seed"],
                   "--adjustments", str(adjustments), "-o", str(tmp_path / "m.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert "itself" in err and str(adjustments) in err

    def test_templates_without_bundles_exit_2(self, tmp_path):
        code = run("fit", "--features", DATA["features"], "--seed", DATA["seed"],
                   "--templates", DATA["templates"], "-o", str(tmp_path / "m.json"))
        assert code == 2

    def test_bundles_without_templates_exit_2(self, tmp_path, capsys):
        # Before, the bundle file was never read and fit exited 0.
        code = run("fit", "--features", DATA["features"], "--seed", DATA["seed"],
                   "--bundles", "/nonexistent.json", "-o", str(tmp_path / "m.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and "--templates" in err

    def test_numerical_failure_exit_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise NumericalError("non-finite fit result")
        monkeypatch.setattr(cli, "fit", fail)
        out = tmp_path / "m.json"
        assert run("fit", "--features", DATA["features"], "--seed", DATA["seed"], "-o", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "phondist fit: numerical failure: non-finite fit result\n"

    def test_escape_character_in_a_feature_name_exit_2(self, tmp_path, capsys):
        # Predictor names carry feature names to stdout, so an ANSI escape must not get there.
        features = tmp_path / "features.tsv"
        features.write_text(Path(DATA["features"]).read_text(encoding="utf-8").replace(
            "constrictedGlottis", "constricted\x1b[31mGlottis"), encoding="utf-8")
        out = tmp_path / "m.json"
        assert run("fit", "--features", str(features), "--seed", DATA["seed"], "-o", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"phondist fit: error: {features}: feature or segment name "
                                "'constricted\\x1b[31mGlottis' is not printable\n")


class TestMatrix:
    def test_dimensions_with_null(self, demo_matrix_file):
        lines = [
            line for line in demo_matrix_file.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        n = len(lines[0].split("\t")) - 1
        assert len(lines) == n + 1
        assert "∅" in lines[0]

    def test_dimensions_without_null(self, fitted, tmp_path):
        out = tmp_path / "nonull.tsv"
        code = run("matrix", "--model", str(fitted), "--features", DATA["features"],
                   "-o", str(out))
        assert code == 0
        header = next(
            line for line in out.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")
        )
        assert "∅" not in header

    def test_unwritable_output_exit_2(self, fitted):
        code = run("matrix", "--model", str(fitted), "--features", DATA["features"],
                   "-o", "/nonexistent-dir/out.tsv")
        assert code == 2

    def test_other_feature_system_exit_2(self, fitted, tmp_path, capsys):
        # Renaming one feature column gives a valid table from another feature
        # system: a mismatch between two input files, so exit 2 naming both.
        lines = Path(DATA["features"]).read_text(encoding="utf-8").splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if line.startswith("segment\t"))
        assert "\tlong\t" in lines[k]
        lines[k] = lines[k].replace("\tlong\t", "\tlength\t")
        features = tmp_path / "renamed.tsv"
        features.write_text("".join(lines), encoding="utf-8")
        code = run("matrix", "--model", str(fitted), "--features", str(features),
                   "-o", str(tmp_path / "out.tsv"))
        err = capsys.readouterr().err
        assert code == 2
        assert "feature system" in err and str(features) in err and str(fitted) in err

    @pytest.mark.parametrize("name", ["m\nx.json", "m\udcff.json"], ids=["line-break", "non-utf8-byte"])
    def test_odd_model_path_writes_a_matrix_that_loads(self, name, fitted, tmp_path):
        # The header echoes the model path: a line break must not split it, and a
        # path's undecodable byte (a surrogate in argv) must not crash the write.
        model = _copy_or_skip(fitted, tmp_path / name)
        out = tmp_path / "matrix.tsv"
        assert run("matrix", "--model", str(model), "--features", DATA["features"], "-o", str(out)) == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == f"# phondist {phondist.__version__} model={_escaped(model)} include_null=False"
        assert len(phondist.load_reference_matrix(out)) == 62

    @pytest.mark.parametrize("field,value,match", [
        ("version", 7, "unsupported model version 7"),
        ("lambda", -3.0, "lambda must be finite and >= 0"),
    ])
    def test_invalid_model_field_exit_2(self, field, value, match, fitted, tmp_path, capsys):
        payload = json.loads(fitted.read_text(encoding="utf-8"))
        payload[field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        code = run("matrix", "--model", str(model), "--features", DATA["features"],
                   "-o", str(tmp_path / "out.tsv"))
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and match in err and str(model) in err


class TestDistance:
    def test_fixture_a_i(self, capsys):
        assert run("distance", "--matrix", DATA["fixture"], "a", "i") == 0
        assert capsys.readouterr().out.strip() == "0.29"

    def test_fixture_m_n(self, capsys):
        assert run("distance", "--matrix", DATA["fixture"], "m", "n") == 0
        assert capsys.readouterr().out.strip() == "0.12"

    def test_decomposed_arguments_find_the_nfc_header(self, tmp_path, capsys):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("segment\t\u00e9\ta\n\u00e9\t0\na\t0.5\t0\n", encoding="utf-8")  # NFC é
        assert run("distance", "--matrix", str(matrix), "e\u0301", "a") == 0
        assert capsys.readouterr().out == "0.50\n"

    def test_unknown_segment_exit_2(self, capsys):
        assert run("distance", "--matrix", DATA["fixture"], "q", "x") == 2
        assert "q" in capsys.readouterr().err

    def test_header_only_matrix_exit_2_one_line(self, tmp_path, capsys):
        matrix = tmp_path / "m.tsv"
        matrix.write_text("segment\n", encoding="utf-8")
        assert run("distance", "--matrix", str(matrix), "a", "b") == 2
        assert capsys.readouterr().err == f"phondist distance: error: {matrix}: matrix header row is malformed\n"

    def test_malformed_matrix_at_a_path_with_a_line_break_one_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("segment\ta\tb\nb\t0\t1\na\t1\t0\n", encoding="utf-8")  # rows out of order
        matrix = _copy_or_skip(bad, tmp_path / "bad\nm.tsv")
        assert run("distance", "--matrix", str(matrix), "a", "b") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"phondist distance: error: {_escaped(matrix)}: row ")


@pytest.mark.parametrize("argv", [
    ["pca", "-o", "pca.tsv"],
    ["align", "a", "a"],
    ["distance", "a", "a"],
], ids=["pca", "align", "distance"])
def test_unprintable_matrix_grapheme_exit_2_one_line(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("m.tsv").write_text("segment\ta\t\x01\na\t0\n\x01\t0.5\t0\n", encoding="utf-8")
    assert run(argv[0], "--matrix", "m.tsv", *argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not Path("pca.tsv").exists()
    assert captured.err == f"phondist {argv[0]}: error: m.tsv: segment name '\\x01' in matrix header is not printable\n"


class TestAlign:
    def test_identical_words(self, capsys):
        assert run("align", "--matrix", DATA["fixture"], "paki", "paki") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "p a k i"
        assert out[1] == "p a k i"
        assert out[2].startswith("score: +")

    def test_gap_rendering_against_shorter_word(self, capsys):
        # Brute force at this size: aligning "pa" to "a" keeps the (a, a)
        # match (+7.5) and pays one gap (-5) for p, beating two gaps plus
        # anything else; the single gap column sits under "p".
        assert run("align", "--matrix", DATA["fixture"], "pa", "a") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "p a"
        assert out[1] == "- a"
        assert out[2] == "score: +2.50"

    def test_local_mode_flag(self, capsys):
        assert run("align", "--matrix", DATA["fixture"], "--mode", "local",
                   "sm", "sn") == 0
        assert "score:" in capsys.readouterr().out

    def test_unparseable_word_exit_2(self, capsys):
        assert run("align", "--matrix", DATA["fixture"], "pq", "a") == 2
        assert "offset 1" in capsys.readouterr().err


class TestCognates:
    def test_test1_table_shape(self, demo_matrix_file, capsys):
        code = run("cognates", "--matrix", str(demo_matrix_file),
                   "--words", DATA["test1"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 5
        header = lines[0].split("\t")
        assert header == ["word", "woldemort", "waldemar", "wladimir", "vladymir"]
        for i, line in enumerate(lines[1:]):
            cells = line.split("\t")
            assert cells[i + 1] == "-"

    def test_symmetry_of_emitted_scores(self, demo_matrix_file, capsys):
        run("cognates", "--matrix", str(demo_matrix_file), "--words", DATA["test1"])
        lines = [
            l.split("\t")[1:]
            for l in capsys.readouterr().out.splitlines()
            if l and not l.startswith("#")
        ][1:]
        n = len(lines)
        for i in range(n):
            for j in range(n):
                assert lines[i][j] == lines[j][i]

    def test_threshold_marks(self, demo_matrix_file, capsys):
        code = run("cognates", "--matrix", str(demo_matrix_file),
                   "--words", DATA["test1"], "--threshold", "45")
        assert code == 0
        out = capsys.readouterr().out
        assert "*" in out

    def test_nan_threshold_exit_2(self, demo_matrix_file, capsys):
        code = run("cognates", "--matrix", str(demo_matrix_file),
                   "--words", DATA["test1"], "--threshold", "nan")
        assert code == 2
        err = capsys.readouterr().err
        assert err == "phondist cognates: error: threshold must not be NaN\n"

    def test_nan_threshold_refused_before_aligning(self, demo_matrix_file, capsys, monkeypatch):
        def no_alignment(*args):
            raise AssertionError("cognancy_matrix ran before the threshold was checked")
        monkeypatch.setattr(align, "cognancy_matrix", no_alignment)
        monkeypatch.setattr(cli, "cognancy_matrix", no_alignment)  # the name cmd_cognates calls
        code = run("cognates", "--matrix", str(demo_matrix_file),
                   "--words", DATA["test1"], "--threshold", "nan")
        assert code == 2
        assert capsys.readouterr().err == "phondist cognates: error: threshold must not be NaN\n"

    def test_untokenizable_word_names_its_line(self, demo_matrix_file, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("# list\nwoldemort\n\n  k#a\nwaldemar\n", encoding="utf-8")
        assert run("cognates", "--matrix", str(demo_matrix_file), "--words", str(words)) == 2
        assert capsys.readouterr().err == (
            f"phondist cognates: error: {words}: row 4: cannot tokenize 'k#a': no segment matches '#a' at offset 1\n"
        )

    def test_single_word_list_exit_2(self, demo_matrix_file, tmp_path, capsys):
        words = tmp_path / "one.txt"
        words.write_text("woldemort\n", encoding="utf-8")
        assert run("cognates", "--matrix", str(demo_matrix_file),
                   "--words", str(words)) == 2


# The console script pip writes is `sys.exit(main())`, as is `python -m phondist`.
ENTRY_POINTS = {
    "module": ["-m", "phondist"],
    "console-script": ["-c", "import sys; from phondist.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_cognates_into_a_closed_pipe_exits_0_quietly(demo_matrix_file, tmp_path, entry):
    rng = random.Random(0)
    segments = [g for g in cli.load_reference_matrix(demo_matrix_file).segments if g != "∅"]
    words = tmp_path / "words.txt"
    words.write_text("".join("".join(rng.choices(segments, k=6)) + "\n" for _ in range(300)), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, *ENTRY_POINTS[entry], "cognates", "--matrix", str(demo_matrix_file), "--words", str(words)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    head = proc.stdout.read(100)  # `| head -c 100`: the table is far over the 64 KiB a pipe buffers
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=300) == 0, err
    assert err == b""
    assert head.startswith(b"# phondist ")


# 1.5 GB of address space for the child alone: enough to import numpy with one
# BLAS thread, less than the 2.0 GB move table of two 45,000-segment words and
# the 7.2 GB score array of 30,000 words.
ADDRESS_SPACE = 1_500_000_000


@pytest.mark.parametrize("command", ["align", "cognates"])
def test_out_of_memory_exits_1_with_one_line(command, tmp_path):
    resource = pytest.importorskip("resource")
    rng = random.Random(0)
    segments = cli.load_reference_matrix(DATA["fixture"]).segments
    if command == "align":  # two 45,000-segment words
        argv = ["".join(rng.choices(segments, k=45_000)) for _ in range(2)]
    else:  # 30,000 five-segment words
        words = tmp_path / "words.txt"
        words.write_text("".join("".join(rng.choices(segments, k=5)) + "\n" for _ in range(30_000)), encoding="utf-8")
        argv = ["--words", str(words)]
    done = subprocess.run(
        [sys.executable, "-m", "phondist", command, "--matrix", DATA["fixture"], *argv],
        capture_output=True, text=True, env=_env(OPENBLAS_NUM_THREADS="1"), timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE)),
    )
    assert (done.returncode, done.stderr.splitlines()) == (1, [f"phondist {command}: error: out of memory"])
    assert done.stdout == ""


class TestPca:
    def test_svg_ten_labels(self, tmp_path):
        out = tmp_path / "scatter.svg"
        code = run("pca", "--matrix", DATA["fixture"], "-k", "2",
                   "--format", "svg", "-o", str(out))
        assert code == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.count('class="seg-label"') == 10

    def test_svg_from_path_with_double_hyphen_is_xml(self, tmp_path):
        # The header comment echoes the matrix path; "--" may not occur in an XML comment.
        matrix = tmp_path / "a--b-.tsv"
        matrix.write_bytes(Path(DATA["fixture"]).read_bytes())
        out = tmp_path / "scatter.svg"
        assert run("pca", "--matrix", str(matrix), "-k", "2", "--format", "svg", "-o", str(out)) == 0
        doc = xml.dom.minidom.parse(str(out))
        comment = next(n for n in doc.documentElement.childNodes if n.nodeType == n.COMMENT_NODE)
        assert "--" not in comment.data and "a- -b-.tsv" in comment.data
        assert len(doc.getElementsByTagName("circle")) == 10

    def test_svg_from_path_with_control_character_is_xml(self, tmp_path):
        matrix = _copy_or_skip(DATA["fixture"], tmp_path / "m\x01x.tsv")
        out = tmp_path / "scatter.svg"
        assert run("pca", "--matrix", str(matrix), "-k", "2", "--format", "svg", "-o", str(out)) == 0
        doc = xml.dom.minidom.parse(str(out))
        comment = next(n for n in doc.documentElement.childNodes if n.nodeType == n.COMMENT_NODE)
        assert f"matrix={tmp_path / 'm'}\\x01x.tsv k=2" in comment.data
        assert len(doc.getElementsByTagName("circle")) == 10

    def test_svg_for_control_character_grapheme_is_refused(self, tmp_path, capsys):
        # A matrix's names are printable, so no label needs escaping beyond XML's entities.
        matrix = tmp_path / "m.tsv"
        matrix.write_text("segment\ta\t\x01\na\t0\n\x01\t0.5\t0\n", encoding="utf-8")
        out = tmp_path / "scatter.svg"
        assert run("pca", "--matrix", str(matrix), "-k", "2", "--format", "svg", "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"phondist pca: error: {matrix}: segment name '\\x01' in matrix header is not printable\n")
        assert not out.exists()

    def test_input_error_at_a_path_with_escape_character_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("segment\n", encoding="utf-8")
        matrix = _copy_or_skip(bad, tmp_path / "m\x1b.tsv")
        assert run("pca", "--matrix", str(matrix), "-o", str(tmp_path / "pca.tsv")) == 2
        err = capsys.readouterr().err
        assert err == f"phondist pca: error: {tmp_path / 'm'}\\x1b.tsv: matrix header row is malformed\n"

    @pytest.mark.parametrize("fmt", ["tsv", "svg"])
    def test_matrix_path_with_non_utf8_byte(self, fmt, tmp_path):
        matrix = _copy_or_skip(DATA["fixture"], tmp_path / "p\udcff.tsv")
        out = tmp_path / f"pca.{fmt}"
        assert run("pca", "--matrix", str(matrix), "--format", fmt, "-o", str(out)) == 0
        text = out.read_text(encoding="utf-8")
        assert f"phondist {phondist.__version__} matrix={_escaped(matrix)} k=2" in text
        if fmt == "svg":
            assert len(xml.dom.minidom.parse(str(out)).getElementsByTagName("circle")) == 10
        else:
            assert [len(line.split("\t")) for line in text.splitlines()[1:]] == [3] * 11

    def test_tsv_columns(self, tmp_path):
        out = tmp_path / "coords.tsv"
        code = run("pca", "--matrix", DATA["fixture"], "-k", "3", "-o", str(out))
        assert code == 0
        lines = [
            l for l in out.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")
        ]
        assert all(len(l.split("\t")) == 4 for l in lines)

    def test_k_zero_exit_2(self, tmp_path):
        assert run("pca", "--matrix", DATA["fixture"], "-k", "0",
                   "-o", str(tmp_path / "x.tsv")) == 2

    def test_k_too_large_exit_2(self, tmp_path):
        assert run("pca", "--matrix", DATA["fixture"], "-k", "99",
                   "-o", str(tmp_path / "x.tsv")) == 2


@pytest.mark.parametrize("command", ["matrix", "pca"])
def test_wrote_line_escapes_an_odd_out_path(command, fitted, tmp_path):
    # Under a strict UTF-8 stdout, the raw surrogate of the name's undecodable
    # byte would fail the print after the file is written.
    out = _copy_or_skip(DATA["fixture"], tmp_path / "o2\udcff.tsv")
    inputs = {"matrix": ["--model", str(fitted), "--features", DATA["features"]],
              "pca": ["--matrix", DATA["fixture"]]}[command]
    done = subprocess.run([sys.executable, "-m", "phondist", command, *inputs, "-o", str(out)],
                          env=_env(PYTHONIOENCODING="utf-8"), capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode("utf-8").rstrip("\n").endswith(f" to {_escaped(out)}")


@pytest.mark.parametrize("command", ["align", "cognates"])
def test_stdout_is_utf8_whatever_the_locale(command, demo_matrix_file, tmp_path):
    """IPA on stdout is UTF-8 bytes under any PYTHONIOENCODING, not an encoding error."""
    words = tmp_path / "words.txt"
    words.write_text("tɔxtər\ndɔtər\nwaldemar\n", encoding="utf-8")
    argv = {"align": ["tɔxtər", "dɔtər"], "cognates": ["--words", str(words)]}[command]
    stdout = {}
    for encoding in ("utf-8", "ascii", "latin-1"):
        done = subprocess.run([sys.executable, "-m", "phondist", command, "--matrix", str(demo_matrix_file), *argv],
                              env=_env(PYTHONIOENCODING=encoding), capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b""), encoding
        stdout[encoding] = done.stdout
    assert not stdout["utf-8"].isascii()
    assert stdout["ascii"] == stdout["latin-1"] == stdout["utf-8"]


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stderr_is_utf8_whatever_the_locale(encoding, demo_matrix_file):
    """An error line names the word in UTF-8 bytes, not in a locale's escapes."""
    done = subprocess.run([sys.executable, "-m", "phondist", "align", "--matrix", str(demo_matrix_file), "ɔQ", "ɔ"],
                          env=_env(PYTHONIOENCODING=encoding), capture_output=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, b"")
    assert len(done.stderr.splitlines()) == 1
    assert "cannot tokenize 'ɔQ'" in done.stderr.decode("utf-8")


class TestParserBasics:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "phondist" in capsys.readouterr().out

    def test_defaults_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["align", "--help"])
        text = capsys.readouterr().out
        assert "10.0" in text and "0.75" in text and "-5.0" in text
