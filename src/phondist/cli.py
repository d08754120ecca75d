"""Command-line interface: fit models, emit matrices, align words, score cognancy.

README's "Pipeline walkthrough" runs each subcommand and states the exit codes.
"""

import argparse
import os
import re
import sys
from contextlib import contextmanager

from . import __version__, textio
from .align import (
    DEFAULT_CENTER,
    DEFAULT_GAP,
    DEFAULT_SIGMA,
    ScoringScheme,
    _check_threshold,
    cognancy_matrix,
    format_alignment,
    global_align,
    local_align,
    write_cognancy_tsv,
)
from .errors import InputError, NumericalError, TokenizeError
from .features import load_feature_table
from .matrix import (
    build_matrix,
    export_matrix_tsv,
    export_pca_svg,
    export_pca_tsv,
    load_reference_matrix,
    pca,
)
from .model import DEFAULT_LAMBDA, fit, load_model, save_model


class _Parser(argparse.ArgumentParser):
    """One-line usage errors; "-1e3", "-inf" or "-nan" after an option is its value, as "-5" is."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {textio.one_line(message)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phondist",
        description="Dimensionless phoneme distances, alignment and cognancy scoring.",
    )
    parser.add_argument("--version", action="version", version=f"phondist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a distance model from seed data")
    p_fit.add_argument("--features", required=True, help="feature table TSV")
    p_fit.add_argument("--seed", required=True, help="raw seed scores CSV")
    p_fit.add_argument("--adjustments", help="manual overrides CSV (optional)")
    p_fit.add_argument("--templates", help="delta template CSV (optional)")
    p_fit.add_argument("--bundles", help="correspondence bundle JSON (needed with --templates)")
    p_fit.add_argument(
        "--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
        help=f"ridge strength, >= 0 (default {DEFAULT_LAMBDA})",
    )
    p_fit.add_argument("-o", "--out", required=True, help="output model JSON")
    p_fit.set_defaults(run=cmd_fit)

    p_matrix = sub.add_parser("matrix", help="materialize the full distance matrix")
    p_matrix.add_argument("--model", required=True, help="fitted model JSON")
    p_matrix.add_argument("--features", required=True, help="feature table TSV")
    p_matrix.add_argument("--include-null", action="store_true", help="add the ∅ row/column")
    p_matrix.add_argument("-o", "--out", required=True, help="output matrix TSV")
    p_matrix.set_defaults(run=cmd_matrix)

    p_dist = sub.add_parser("distance", help="look up one pairwise distance")
    p_dist.add_argument("--matrix", required=True, help="matrix TSV")
    p_dist.add_argument("seg_a")
    p_dist.add_argument("seg_b")
    p_dist.set_defaults(run=cmd_distance)

    p_align = sub.add_parser("align", help="align two IPA words")
    p_align.add_argument("--matrix", required=True, help="matrix TSV")
    p_align.add_argument("word1")
    p_align.add_argument("word2")
    _add_scoring_options(p_align)
    p_align.set_defaults(run=cmd_align)

    p_cog = sub.add_parser("cognates", help="pairwise cognancy scores for a word list")
    p_cog.add_argument("--matrix", required=True, help="matrix TSV")
    p_cog.add_argument("--words", required=True, help="word list, one IPA word per line")
    p_cog.add_argument(
        "--threshold", type=float, default=None,
        help="mark scores >= threshold with '*' (conventionally 0)",
    )
    _add_scoring_options(p_cog)
    p_cog.set_defaults(run=cmd_cognates)

    p_pca = sub.add_parser("pca", help="principal components of a distance matrix")
    p_pca.add_argument("--matrix", required=True, help="matrix TSV")
    p_pca.add_argument("-k", "--components", type=int, default=2, help="component count")
    p_pca.add_argument("--format", choices=("tsv", "svg"), default="tsv")
    p_pca.add_argument("-o", "--out", required=True, help="output file")
    p_pca.set_defaults(run=cmd_pca)

    return parser


def _add_scoring_options(p: argparse.ArgumentParser) -> None:
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
    from . import seed  # here, as no other command runs the seed pipeline

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
    inv = _load(args.features, load_feature_table)
    model = _load(args.model, load_model)
    with _naming(args.features, args.model):
        dm = build_matrix(model, inv, include_null=args.include_null)
    header = _params_header(model=args.model, include_null=args.include_null)
    export_matrix_tsv(dm, args.out, header=header)
    print(f"wrote {len(dm)}x{len(dm)} matrix to {textio.one_line(args.out)}")


def _matrix(args):
    return _load(args.matrix, load_reference_matrix)


def cmd_distance(args) -> None:
    # NFC, as the matrix reader spells its header
    print(f"{_matrix(args).get(textio.nfc(args.seg_a), textio.nfc(args.seg_b)):.2f}")


def _scheme(args) -> ScoringScheme:
    return ScoringScheme(
        matrix=_matrix(args),
        sigma=args.sigma,
        center=args.center,
        gap_mode="null_column" if args.null_gaps else "constant",
        gap_constant=args.gap,
    )


def cmd_align(args) -> None:
    aligner = global_align if args.mode == "global" else local_align
    alignment = aligner(_scheme(args), args.word1, args.word2)
    print(format_alignment(alignment))
    print(f"score: {alignment.score:+.2f}")


def cmd_cognates(args) -> None:
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
    if hasattr(sys.stdout, "reconfigure"):  # not on an in-process stand-in such as a StringIO
        sys.stdout.reconfigure(encoding="utf-8")  # as every file is, whatever the locale
    args, unknown = build_parser().parse_known_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
