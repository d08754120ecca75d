"""Dense symmetric distance matrices, their PCA, and TSV/SVG export.

A DistanceMatrix holds entries in [0, 1], an exactly zero diagonal and exact
symmetry; no other metric property, not even the triangle inequality, is guaranteed.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from . import textio
from .errors import InputError, UnknownSegmentError
from .features import Inventory
# predict_distance is unused here: perfbench/worker.py (traced_targets) patches matrix.predict_distance.
from .model import LinearModel, _same_system, encode_pairs, predict_distance, predict_rows

_SYMMETRY_TOL = 1e-9


class DistanceMatrix:
    """Symmetric pairwise distances over an ordered segment list of printable names."""

    def __init__(self, segments: Iterable[str], values: np.ndarray):
        self.segments = tuple(segments)
        values = np.asarray(values, dtype=float)
        n = len(self.segments)
        if values.shape != (n, n):
            raise InputError(f"matrix shape {values.shape} does not match {n} segments")
        if len(set(self.segments)) != n:
            raise InputError("duplicate graphemes in matrix header")
        if "" in self.segments:
            raise InputError("empty segment name in matrix header")
        if unprintable := [g for g in self.segments if not g.isprintable()]:
            raise InputError(f"segment name {unprintable[0]!r} in matrix header is not printable")
        if not np.all(np.isfinite(values)):
            raise InputError("matrix contains non-finite entries")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise InputError("matrix entries must lie in [0, 1]")
        if np.any(np.diagonal(values) != 0.0):
            raise InputError("matrix diagonal must be exactly 0")
        if not np.array_equal(values, values.T):
            raise InputError("matrix is not symmetric")
        self.values = values
        self._index = {g: i for i, g in enumerate(self.segments)}
        self._alphabet = frozenset(self.segments)  # tokenize's cache key, hashed once

    def __len__(self) -> int:
        return len(self.segments)

    def __contains__(self, grapheme: str) -> bool:
        return grapheme in self._index

    def index(self, grapheme: str) -> int:
        try:
            return self._index[grapheme]
        except KeyError:
            raise UnknownSegmentError(grapheme, where="matrix") from None

    def get(self, seg_a: str, seg_b: str) -> float:
        return float(self.values[self.index(seg_a), self.index(seg_b)])


@dataclass(frozen=True)
class PcaResult:
    components: np.ndarray  # (k, n), rows orthonormal
    eigenvalues: np.ndarray  # (k,), nonincreasing, nonnegative
    coordinates: np.ndarray  # (n_segments, k)
    segments: tuple[str, ...]

    def __post_init__(self):  # the exports write the names unescaped, as they do a DistanceMatrix's
        if unprintable := [g for g in self.segments if not g.isprintable()]:
            raise InputError(f"segment name {unprintable[0]!r} in PCA result is not printable")


def build_matrix(m: LinearModel, inv: Inventory, include_null: bool = False) -> DistanceMatrix:
    """Materialize all pairwise model distances over an inventory.

    The feature names are compared once; the upper-triangle pairs are encoded and
    predicted in one call each and mirrored, so symmetry is exact regardless
    of floating-point details.
    """
    _same_system("the model and the inventory", m.feature_names, inv.feature_names)
    segments = [s for s in inv.graphemes if s != inv.null_segment.grapheme]
    if include_null:
        segments.append(inv.null_segment.grapheme)
    n = len(segments)
    values = np.zeros((n, n))
    rows = inv.feature_rows(segments)
    i, j = np.triu_indices(n, k=1)
    values[i, j] = values[j, i] = predict_rows(m, encode_pairs(rows[i], rows[j]))
    return DistanceMatrix(segments, values)


def load_reference_matrix(source: str | Path | TextIO) -> DistanceMatrix:
    """Load a matrix TSV (full square or lower-triangular, "#" comments).

    The header is "segment" and then the graphemes; each row starts with its
    grapheme. Full matrices must be symmetric to within 1e-9; the stored
    matrix is exactly symmetrized from the lower triangle either way.
    """
    names, rows = textio.read_table(source, ragged=True)
    if not names:
        raise InputError("matrix header row is malformed")
    n = len(names)
    if len(rows) != n:
        raise InputError(f"expected {n} matrix rows, found {len(rows)}")

    values = np.zeros((n, n))
    full = False  # some row above the last is given in full, so the upper triangle is data
    for i, (lineno, label, cells) in enumerate(rows):
        if label != names[i]:
            raise InputError(f"row {lineno} is labelled {label!r}, expected {names[i]!r}")
        while cells and not cells[-1]:  # a row may end in tabs, as lower-triangle rows often do
            cells.pop()
        if len(cells) not in (i + 1, n):  # lower triangle incl. diagonal, or full
            raise InputError(
                f"row {label!r} has {len(cells)} entries, expected {i + 1} or {n}"
            )
        if "" in cells:
            raise InputError(f"row {label!r}: the entry for {names[cells.index('')]!r} is empty")
        full = full or len(cells) > i + 1
        try:
            values[i, : len(cells)] = [float(c) for c in cells]
        except ValueError as exc:
            raise InputError(f"row {label!r}: {exc}") from None

    if full and np.max(np.abs(values - values.T)) > _SYMMETRY_TOL:
        raise InputError(f"matrix asymmetric beyond {_SYMMETRY_TOL}")
    lower = np.tril(values)
    return DistanceMatrix(names, lower + np.tril(lower, k=-1).T)


def pca(dm: DistanceMatrix, k: int) -> PcaResult:
    """Principal components of the matrix rows (mean-centered columns), each
    signed so that its largest-magnitude entry is positive."""
    n = len(dm)
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, {n}], got {k}")
    X = dm.values
    centered = X - X.mean(axis=0)
    denom = max(n - 1, 1)
    cov = (centered.T @ centered) / denom
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order][:k], 0.0, None)
    components = eigenvectors[:, order][:, :k].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    coordinates = centered @ components.T
    return PcaResult(
        components=components,
        eigenvalues=eigenvalues,
        coordinates=coordinates,
        segments=dm.segments,
    )


def export_matrix_tsv(dm: DistanceMatrix, sink: str | Path | TextIO, header: str = "") -> None:
    """Write a full square TSV with 6-decimal entries."""
    line = "\t".join(["%s", *["%.6f"] * len(dm.segments)])  # one % operation per row: twice as fast as per cell
    rows = [["segment", *dm.segments]]
    rows += [[line % (g, *row)] for g, row in zip(dm.segments, dm.values.tolist())]
    textio.write_table(sink, header, rows)


def export_pca_tsv(result: PcaResult, sink: str | Path | TextIO, header: str = "") -> None:
    """Write per-segment component coordinates, 6 decimals."""
    k = result.coordinates.shape[1]
    line = "\t".join(["%s", *["%.6f"] * k])  # one % operation per row, as export_matrix_tsv
    rows = [["segment", *(f"pc{i + 1}" for i in range(k))]]
    rows += [[line % (g, *coords)] for g, coords in zip(result.segments, result.coordinates.tolist())]
    textio.write_table(sink, header, rows)


# The scatter's fixed 800x600 frame, axes 60 px in: slots for the header comment and the points.
_SVG = """<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600" viewBox="0 0 800 600">
{comment}<rect width="800" height="600" fill="white"/>
<line x1="60" y1="540" x2="740" y2="540" stroke="#888"/>
<line x1="60" y1="60" x2="60" y2="540" stroke="#888"/>
<text x="400" y="585" font-size="14" text-anchor="middle">PC1</text>
<text x="20" y="300" font-size="14" text-anchor="middle" transform="rotate(-90 20 300)">PC2</text>
{points}</svg>
"""
# A matrix's names are printable, so they are XML character data once "&", "<" and ">" are entities.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def export_pca_svg(result: PcaResult, sink: str | Path | TextIO, header: str = "") -> None:
    """Static 800x600 scatter of (PC1, PC2) with one label per segment."""
    if result.coordinates.shape[1] < 2:
        raise InputError("SVG scatter needs at least 2 components")

    def scale(v: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
        span = v.max() - v.min()
        if span == 0:
            return np.full_like(v, (lo_px + hi_px) / 2.0)
        return lo_px + (v - v.min()) / span * (hi_px - lo_px)

    # SVG y axis grows downward.
    px, py = scale(result.coordinates[:, 0], 60, 740), scale(result.coordinates[:, 1], 540, 60)
    # an XML comment may not hold "--" or end in "-"
    comment = f"<!-- {re.sub('-(?=-|$)', '- ', textio.one_line(header))} -->\n" if header else ""
    points = "".join(
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#1f6fb2"/>\n<text class="seg-label" '
        f'x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="16">{g.translate(_XML_TEXT)}</text>\n'
        for g, x, y in zip(result.segments, px, py)
    )
    textio.write_text(sink, _SVG.format(comment=comment, points=points))
