"""Dense symmetric distance matrices, their PCA, and TSV/SVG export.

A DistanceMatrix holds entries in [0, 1] with an exactly zero diagonal and
exact symmetry (each pair is computed once and mirrored). No metric-space
property beyond that is assumed; in particular the triangle inequality may
fail, since a clamped linear model does not guarantee it.

PCA treats matrix rows as observations: columns are mean-centered and the
sample covariance is eigendecomposed. Component signs are fixed so each
component's largest-magnitude entry is positive, keeping exports reproducible.

Matrix TSVs are read through `textio.read_table` (stripped, NFC-normalized
cells with the file's line numbers); every export is written through textio.
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from . import textio
from .errors import InputError, UnknownSegmentError
from .features import GraphemeIndex, Inventory
# predict_distance is unused here: perfbench/worker.py (traced_targets) patches matrix.predict_distance.
from .model import LinearModel, _same_system, encode_pairs, predict_distance, predict_rows

_SYMMETRY_TOL = 1e-9


class DistanceMatrix:
    """Symmetric pairwise distances over an ordered segment list."""

    def __init__(self, segments: Iterable[str], values: np.ndarray):
        self.segments = tuple(segments)
        values = np.asarray(values, dtype=float)
        n = len(self.segments)
        if values.shape != (n, n):
            raise InputError(f"matrix shape {values.shape} does not match {n} segments")
        if len(set(self.segments)) != n:
            raise InputError("duplicate graphemes in matrix header")
        if not np.all(np.isfinite(values)):
            raise InputError("matrix contains non-finite entries")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise InputError("matrix entries must lie in [0, 1]")
        if np.any(np.diagonal(values) != 0.0):
            raise InputError("matrix diagonal must be exactly 0")
        if not np.array_equal(values, values.T):
            raise InputError("matrix is not symmetric")
        self.values = values
        self._index = GraphemeIndex({g: i for i, g in enumerate(self.segments)})

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


def build_matrix(m: LinearModel, inv: Inventory, include_null: bool = False) -> DistanceMatrix:
    """Materialize all pairwise model distances over an inventory.

    The fingerprint is checked once; the upper-triangle pairs are encoded and
    predicted in one call each and mirrored, so symmetry is exact regardless
    of floating-point details.
    """
    _same_system("the model and the inventory", m.feature_fingerprint, inv.fingerprint)
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
        entries = [c for c in cells if c]
        if len(entries) not in (i + 1, n):  # lower triangle incl. diagonal, or full
            raise InputError(
                f"row {label!r} has {len(entries)} entries, expected {i + 1} or {n}"
            )
        full = full or len(entries) > i + 1
        try:
            values[i, : len(entries)] = [float(c) for c in entries]
        except ValueError as exc:
            raise InputError(f"row {label!r}: {exc}") from None

    if full and np.max(np.abs(values - values.T)) > _SYMMETRY_TOL:
        raise InputError(f"matrix asymmetric beyond {_SYMMETRY_TOL}")
    lower = np.tril(values)
    return DistanceMatrix(names, lower + np.tril(lower, k=-1).T)


def pca(dm: DistanceMatrix, k: int) -> PcaResult:
    """Principal components of the matrix rows (mean-centered columns)."""
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
    # Sign convention: largest-magnitude entry of each component is positive.
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
    rows = [["segment", *dm.segments]]
    rows += [[g, *(f"{v:.6f}" for v in row)] for g, row in zip(dm.segments, dm.values)]
    textio.write_table(sink, header, rows)


def export_pca_tsv(result: PcaResult, sink: str | Path | TextIO, header: str = "") -> None:
    """Write per-segment component coordinates, 6 decimals."""
    k = result.coordinates.shape[1]
    rows = [["segment", *(f"pc{i + 1}" for i in range(k))]]
    rows += [[g, *(f"{c:.6f}" for c in coords)] for g, coords in zip(result.segments, result.coordinates)]
    textio.write_table(sink, header, rows)


def export_pca_svg(result: PcaResult, sink: str | Path | TextIO, header: str = "") -> None:
    """Static 800x600 scatter of (PC1, PC2) with one label per segment."""
    if result.coordinates.shape[1] < 2:
        raise InputError("SVG scatter needs at least 2 components")
    width, height, margin = 800, 600, 60
    xs = result.coordinates[:, 0]
    ys = result.coordinates[:, 1]

    def scale(v: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
        span = v.max() - v.min()
        if span == 0:
            return np.full_like(v, (lo_px + hi_px) / 2.0)
        return lo_px + (v - v.min()) / span * (hi_px - lo_px)

    px = scale(xs, margin, width - margin)
    # SVG y axis grows downward.
    py = scale(ys, height - margin, margin)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    if header:  # an XML comment may not hold "--" or end in "-"
        parts.append(f"<!-- {re.sub('-(?=-|$)', '- ', header)} -->")
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#888"/>'
    )
    parts.append(
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="#888"/>'
    )
    parts.append(
        f'<text x="{width // 2}" y="{height - margin // 4}" font-size="14" '
        'text-anchor="middle">PC1</text>'
    )
    parts.append(
        f'<text x="{margin // 3}" y="{height // 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 {margin // 3} {height // 2})">PC2</text>'
    )
    for grapheme, x, y in zip(result.segments, px, py):
        label = _xml_escape(grapheme)
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#1f6fb2"/>')
        parts.append(
            f'<text class="seg-label" x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="16">{label}</text>'
        )
    parts.append("</svg>")
    textio.write_text(sink, "\n".join(parts) + "\n")


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
