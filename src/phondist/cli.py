"""Command-line interface: fit models, emit matrices, align words, score cognancy.

README's "Pipeline walkthrough" runs each subcommand and states the exit codes.
Each command imports the modules it runs, and `main` builds only the invoked
command's arguments, so a process loads no other module (`fit` no alignment
code, `pca` no JSON parser, `--version` and `--help` no numpy).
"""

import argparse
import os
import re
import sys
from contextlib import contextmanager

from . import __version__, textio
from .errors import InputError, NumericalError, TokenizeError


class _Parser(argparse.ArgumentParser):
    """One-line usage errors; "-1e3", "-inf" or "-nan" after an option is its value, as "-5" is."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {textio.one_line(message)}\n")


def build_parser(command: "str | None" = None) -> argparse.ArgumentParser:
    """Every subcommand with its help, and the arguments of `command` alone (of none
    when it is `None`), so that a process imports only the modules its command runs."""
    parser = _Parser(
        prog="phondist",
        description="Dimensionless phoneme distances, alignment and cognancy scoring.",
    )
    parser.add_argument("--version", action="version", version=f"phondist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str, run):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p if command == name else None

    if p := add("fit", "fit a distance model from seed data", cmd_fit):
        from .model import DEFAULT_LAMBDA

        p.add_argument("--features", required=True, help="feature table TSV")
        p.add_argument("--seed", required=True, help="raw seed scores CSV")
        p.add_argument("--adjustments", help="manual overrides CSV (optional)")
        p.add_argument("--templates", help="delta template CSV (optional)")
        p.add_argument("--bundles", help="correspondence bundle JSON (needed with --templates)")
        p.add_argument(
            "--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
            help=f"ridge strength, >= 0 (default {DEFAULT_LAMBDA})",
        )
        p.add_argument("-o", "--out", required=True, help="output model JSON")

    if p := add("matrix", "materialize the full distance matrix", cmd_matrix):
        p.add_argument("--model", required=True, help="fitted model JSON")
        p.add_argument("--features", required=True, help="feature table TSV")
        p.add_argument("--include-null", action="store_true", help="add the ∅ row/column")
        p.add_argument("-o", "--out", required=True, help="output matrix TSV")

    if p := add("distance", "look up one pairwise distance", cmd_distance):
        p.add_argument("--matrix", required=True, help="matrix TSV")
        p.add_argument("seg_a")
        p.add_argument("seg_b")

    if p := add("align", "align two IPA words", cmd_align):
        p.add_argument("--matrix", required=True, help="matrix TSV")
        p.add_argument("word1")
        p.add_argument("word2")
        _add_scoring_options(p)

    if p := add("cognates", "pairwise cognancy scores for a word list", cmd_cognates):
        p.add_argument("--matrix", required=True, help="matrix TSV")
        p.add_argument("--words", required=True, help="word list, one IPA word per line")
        p.add_argument(
            "--threshold", type=float, default=None,
            help="mark scores >= threshold with '*' (conventionally 0)",
        )
        _add_scoring_options(p)

    if p := add("pca", "principal components of a distance matrix", cmd_pca):
        p.add_argument("--matrix", required=True, help="matrix TSV")
        p.add_argument("-k", "--components", type=int, default=2, help="component count")
        p.add_argument("--format", choices=("tsv", "svg"), default="tsv")
        p.add_argument("-o", "--out", required=True, help="output file")

    return parser


def _add_scoring_options(p: argparse.ArgumentParser) -> None:
    from .align import DEFAULT_CENTER, DEFAULT_GAP, DEFAULT_SIGMA

    p.add_argument("--mode", choices=("global", "local"), default="global")
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA,
                   help=f"similarity scale, > 0 (default {DEFAULT_SIGMA})")
    p.add_argument("--center", type=float, default=DEFAULT_CENTER,
                   help=f"distance where similarity crosses 0, in (0, 1] (default {DEFAULT_CENTER})")
    p.add_argument("--gap", type=float, default=DEFAULT_GAP,
                   help=f"constant gap score (default {DEFAULT_GAP})")
    p.add_argument("--null-gaps", action="store_true",
                   help="price gaps against the ∅ column instead of --gap")


@contextmanager
def _naming(*paths: str):
    """Put the file arguments a step reads in front of any input error it raises."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{', '.join(paths)}: {exc}") from exc


def _load(path: str, loader):
    with _naming(path):
        return loader(path)


def _params_header(**params) -> str:
    rendered = " ".join(f"{k}={v}" for k, v in params.items())
    return f"phondist {__version__} {rendered}"


def cmd_fit(args) -> None:
    from . import seed
    from .features import load_feature_table
    from .model import fit, save_model

    if bool(args.templates) != bool(args.bundles):
        raise InputError("--templates and --bundles (the delta pair lists) go together")
    inv = _load(args.features, load_feature_table)
    with _naming(args.seed):
        ds = seed.normalize_scores(seed.load_seed_matrix(args.seed, inv))
    if args.templates:
        bundles = _load(args.bundles, seed.load_delta_bundles)
        templates = _load(args.templates, seed.load_templates)
        with _naming(args.seed, args.bundles, args.templates):
            ds = seed.augment_with_deltas(ds, seed.derive_deltas(ds, bundles), inv, templates)
    if args.adjustments:
        with _naming(args.adjustments):
            ds = seed.apply_adjustments(ds, args.adjustments)
    model = fit(ds, inv, args.lam)
    save_model(model, args.out)
    print(f"fitted on {len(ds)} records, lambda={args.lam}")
    print(f"intercept: {model.intercept:.6f}")
    ranked = sorted(
        zip(model.predictor_names, model.coefficients), key=lambda kv: -abs(kv[1])
    )
    print("largest coefficients:")
    for name, value in ranked[:5]:
        print(f"  {name:32s} {value:+.6f}")


def cmd_matrix(args) -> None:
    from .features import load_feature_table
    from .matrix import build_matrix, export_matrix_tsv
    from .model import load_model

    inv = _load(args.features, load_feature_table)
    model = _load(args.model, load_model)
    with _naming(args.features, args.model):
        dm = build_matrix(model, inv, include_null=args.include_null)
    header = _params_header(model=args.model, include_null=args.include_null)
    export_matrix_tsv(dm, args.out, header=header)
    print(f"wrote {len(dm)}x{len(dm)} matrix to {textio.one_line(args.out)}")


def _matrix(args):
    from .matrix import load_reference_matrix

    return _load(args.matrix, load_reference_matrix)


def cmd_distance(args) -> None:
    # NFC, as the matrix reader spells its header
    print(f"{_matrix(args).get(textio.nfc(args.seg_a), textio.nfc(args.seg_b)):.2f}")


def _scheme(args):
    from .align import ScoringScheme

    return ScoringScheme(
        matrix=_matrix(args),
        sigma=args.sigma,
        center=args.center,
        gap_mode="null_column" if args.null_gaps else "constant",
        gap_constant=args.gap,
    )


def cmd_align(args) -> None:
    from .align import format_alignment, global_align, local_align

    aligner = global_align if args.mode == "global" else local_align
    alignment = aligner(_scheme(args), args.word1, args.word2)
    print(format_alignment(alignment))
    print(f"score: {alignment.score:+.2f}")


def cmd_cognates(args) -> None:
    from .align import _check_threshold, cognancy_matrix, write_cognancy_tsv

    scheme = _scheme(args)
    _check_threshold(args.threshold)  # before the all-pairs run, not after it
    with _naming(args.words):
        lines = textio.read_lines(args.words)
        try:
            cm = cognancy_matrix(scheme, [text.strip() for _, text in lines], args.mode)
        except TokenizeError as exc:  # the only error a word raises; name its line
            lineno = next(n for n, text in lines if textio.nfc(text) == exc.word)
            raise InputError(f"row {lineno}: {exc}") from None
    header = _params_header(
        mode=args.mode, sigma=args.sigma, center=args.center,
        gap="null_column" if args.null_gaps else args.gap,
    )
    write_cognancy_tsv(cm, sys.stdout, threshold=args.threshold, header=header)


def cmd_pca(args) -> None:
    from .matrix import export_pca_svg, export_pca_tsv, pca

    result = pca(_matrix(args), args.components)
    header = _params_header(matrix=args.matrix, k=args.components)
    if args.format == "svg":
        export_pca_svg(result, args.out, header=header)
    else:
        export_pca_tsv(result, args.out, header=header)
    print(f"wrote {args.format} to {textio.one_line(args.out)}")


def main(argv: "list[str] | None" = None) -> int:
    """Run one subcommand and return its exit code: 0 on success or once stdout's reader
    has gone, 2 for a usage or input error, 1 for a numerical failure or lack of memory."""
    # UTF-8 whatever the locale, as every file is; stderr keeps escaping what UTF-8 cannot hold
    for stream, errors in ((sys.stdout, "strict"), (sys.stderr, "backslashreplace")):
        if hasattr(stream, "reconfigure"):  # not on an in-process stand-in such as a StringIO
            stream.reconfigure(encoding="utf-8", errors=errors)
    argv = sys.argv[1:] if argv is None else argv
    command = next((arg for arg in argv if not arg.startswith("-")), None)  # no top-level option takes a value
    args, unknown = build_parser(command).parse_known_args(argv)
    try:
        if unknown:
            raise InputError(f"unrecognized arguments: {' '.join(unknown)}")
        args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return 0
    except BrokenPipeError:  # the reader of stdout has gone (`phondist cognates ... | head`)
        # Python's `signal` docs: point stdout at devnull, so that the
        # interpreter's flush at exit does not fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (InputError, OSError) as exc:
        print(textio.one_line(f"phondist {args.command}: error: {exc}"), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(textio.one_line(f"phondist {args.command}: numerical failure: {exc}"), file=sys.stderr)
        return 1
    except MemoryError:  # an input too large for this process, e.g. under `ulimit -v`
        print(f"phondist {args.command}: error: out of memory", file=sys.stderr)
        return 1
