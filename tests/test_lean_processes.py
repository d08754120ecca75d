"""Each CLI process loads only what its command runs; `import phondist` loads no submodule."""

import io
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import phondist
from phondist import bundled_path, cli

from conftest import child_env

DATA = {name: str(bundled_path(name)) for name in (
    "features.tsv", "seed_scores.csv", "delta_templates.csv", "delta_bundles.json", "adjustments.csv",
    "wordlists/test1.txt",
)}

# `python -m phondist ARGS`, then the loaded module names as the last stdout line.
RUN_AND_LIST_MODULES = """
import runpy, sys
sys.argv[0] = "phondist"
try:
    runpy.run_module("phondist", run_name="__main__")
finally:
    print("\\n" + " ".join(sorted(sys.modules)))
"""

MATRIX = ["--matrix", "matrix.tsv"]
COMMANDS = {
    "fit": ["--features", DATA["features.tsv"], "--seed", DATA["seed_scores.csv"],
            "--templates", DATA["delta_templates.csv"], "--bundles", DATA["delta_bundles.json"],
            "--adjustments", DATA["adjustments.csv"], "-o", "model.json"],
    "matrix": ["--model", "model.json", "--features", DATA["features.tsv"], "--include-null", "-o", "matrix.tsv"],
    "cognates": [*MATRIX, "--words", DATA["wordlists/test1.txt"], "--threshold", "0"],
    "align": [*MATRIX, "tɔxtər", "dɔtər"],
    "pca": [*MATRIX, "--format", "svg", "-o", "scatter.svg"],
    "distance": [*MATRIX, "m", "n"],
}


def _python(code: str, *args: str, cwd=None, returncode=0) -> set[str]:
    done = subprocess.run([sys.executable, "-c", code, *args], env=child_env(), cwd=cwd, capture_output=True,
                          text=True, encoding="utf-8", timeout=120)
    assert done.returncode == returncode, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[str, set[str]]:
    """The modules each command has loaded at its exit, run in order as README's walkthrough does."""
    workdir = tmp_path_factory.mktemp("lean")
    return {command: _python(RUN_AND_LIST_MODULES, command, *args, cwd=workdir)
            for command, args in COMMANDS.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_openssl(command, loaded):
    assert "_hashlib" not in loaded[command]


# What each command loads of the modules some command can do without: the package's
# own, and the standard library's CSV and JSON parsers.
LOADS = {
    "fit": {"phondist.features", "phondist.seed", "phondist.model", "json", "csv"},
    "matrix": {"phondist.features", "phondist.model", "phondist.matrix", "json"},
    "cognates": {"phondist.features", "phondist.model", "phondist.matrix", "phondist.align"},
    "align": {"phondist.features", "phondist.model", "phondist.matrix", "phondist.align"},
    "pca": {"phondist.features", "phondist.model", "phondist.matrix"},
    "distance": {"phondist.features", "phondist.model", "phondist.matrix"},
}
OPTIONAL = set().union(*LOADS.values())


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command, loaded):
    assert loaded[command] & OPTIONAL == LOADS[command]


@pytest.mark.parametrize(("argv", "code"), [(["--version"], 0), (["--help"], 0), ([], 2), (["bogus"], 2)],
                         ids=["version", "help", "bare", "bogus"])
def test_running_no_command_loads_no_library_module(argv, code):
    modules = _python(RUN_AND_LIST_MODULES, *argv, returncode=code)
    assert "numpy" not in modules
    assert sorted(m for m in modules if m.startswith("phondist")) == [
        "phondist", "phondist.cli", "phondist.errors", "phondist.textio"]


def _main(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `cli.main(argv)`, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _bare_parser(argv: list[str]) -> tuple[int, str, str]:
    """The same for `build_parser()`, which names every command and builds no command's arguments."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(argv)
    return exited.value.code, out.getvalue(), err.getvalue()


def test_help_is_the_bare_parsers():
    code, out, err = _main(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: phondist") and (code, out, err) == _bare_parser(["--help"])


SCORING = ["--mode", "--sigma", "--center", "--gap", "--null-gaps"]
OPTIONS = {
    "fit": ["--features", "--seed", "--adjustments", "--templates", "--bundles", "--lambda", "-o", "--out"],
    "matrix": ["--model", "--features", "--include-null", "-o", "--out"],
    "distance": ["--matrix"],
    "align": ["--matrix", *SCORING],
    "cognates": ["--matrix", "--words", "--threshold", *SCORING],
    "pca": ["--matrix", "-k", "--components", "--format", "-o", "--out"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_commands_help_lists_its_options(command):
    code, out, err = _main([command, "--help"])
    assert (code, err) == (0, "") and out.startswith(f"usage: phondist {command} ")
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == {"-h", "--help", *OPTIONS[command]}


def test_an_unknown_command_is_refused_naming_all_six():
    code, out, err = _main(["bogus"])
    assert (code, out, err) == _bare_parser(["bogus"])
    last = err.splitlines()[-1]
    assert code == 2 and "invalid choice" in last and "bogus" in last
    assert all(command in last for command in COMMANDS)


@pytest.mark.parametrize("command", ["matrix", "cognates", "align", "pca", "distance"])
def test_only_fit_loads_the_seed_pipeline(command, loaded):
    assert "phondist.seed" in loaded["fit"]
    assert "phondist.seed" not in loaded[command]


def test_import_phondist_loads_no_submodule_and_no_numpy():
    modules = _python("import sys, phondist; print(' '.join(sys.modules))")
    assert "numpy" not in modules and "_hashlib" not in modules
    assert sorted(m for m in modules if m.startswith("phondist")) == ["phondist"]


def test_exports_resolve_on_first_use():
    assert set(phondist.__all__) <= set(dir(phondist))
    assert phondist.SeedDataset.__module__ == "phondist.seed"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        phondist.nope


def test_exports_stay_what_their_submodule_defined():
    # perfbench's tracing touches `phondist.align`, then patches its attributes.
    code = "import phondist as pd; f = pd.align.global_align; pd.align.global_align = None; print(pd.global_align is f)"
    assert _python(code) == {"True"}
