"""Training-data pipeline: seed similarity scores, inferred deltas, overrides.

The seed matrix (CSV rows "seg_a,seg_b,score") covers only part of the segment
inventory, so after min-max normalization it is extended in two steps:

1. Class deltas are measured on the normalized data (stop/affricate mean,
   stop/fricative mean, half the stop/ejective mean, flap/trill mean for
   length, a vowel-proximity mean for tongue-root advancement, replicated to
   retraction) and applied through a template file that enumerates synthetic
   pairs: target = clamp(base ± delta). Fortis templates instead average the
   voiced and voiceless base records. Template rows never overwrite existing
   records.
2. A manual adjustments file (same CSV shape, scores already in [0, 1])
   overrides or appends records for pairs the model still gets wrong.

Every stage returns a new SeedDataset; record provenance is tracked as
"seed", "delta" or "adjustment". The seed, template and adjustment CSVs and
the bundle JSON are read through textio; a bundle file of the wrong shape
raises InputError.
"""

import math
import unicodedata
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import textio
from .errors import InputError
from .features import Inventory

PairKey = tuple[str, str]


@dataclass(frozen=True)
class SimilarityRecord:
    seg_a: str
    seg_b: str
    score: float
    provenance: str = "seed"  # seed | delta | adjustment

    @property
    def key(self) -> PairKey:
        return pair_key(self.seg_a, self.seg_b)


@dataclass(frozen=True)
class DeltaSet:
    """Inferred class deltas, all on the normalized [0, 1] scale."""

    nonpulmonic_central: float
    nonpulmonic_implosive: float
    nonpulmonic_ejective_half: float
    long_delta: float
    atr_delta: float
    rtr_delta: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"delta {f.name} = {value} outside [0, 1]")


@dataclass(frozen=True)
class DeltaBundles:
    """Correspondence pair lists from which the deltas are measured, named as
    in the JSON config file."""

    stop_affricate: tuple[PairKey, ...]
    stop_fricative: tuple[PairKey, ...]
    stop_ejective: tuple[PairKey, ...]
    flap_trill: tuple[PairKey, ...]
    atr_proximity: tuple[PairKey, ...]


BUNDLE_NAMES = tuple(f.name for f in fields(DeltaBundles))


@dataclass(frozen=True)
class TemplateRule:
    """One synthetic-pair rule: derive (target_a, target_b) from a base pair.

    For ordinary deltas the new score is record(base_a, base_b) ± delta, with
    base_a == base_b meaning the zero self-distance. For delta_name "fortis"
    the bases are the voiceless (base_a) and voiced (base_b) counterparts and
    the score is the mean of records (base_a, target_b) and (base_b, target_b).
    """

    delta_name: str
    base_a: str
    base_b: str
    target_a: str
    target_b: str
    sign: str = "+"


class SeedDataset:
    """Immutable collection of pairwise similarity records."""

    def __init__(self, records: Iterable[SimilarityRecord], inventory: Inventory):
        self.inventory = inventory
        by_key: dict[PairKey, SimilarityRecord] = {}
        for rec in records:
            by_key[rec.key] = rec
        self._by_key = by_key

    @property
    def records(self) -> list[SimilarityRecord]:
        return list(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def get(self, seg_a: str, seg_b: str) -> SimilarityRecord:
        key = pair_key(seg_a, seg_b)
        try:
            return self._by_key[key]
        except KeyError:
            raise InputError(f"no record for pair ({seg_a}, {seg_b})") from None

    def score(self, seg_a: str, seg_b: str) -> float:
        return self.get(seg_a, seg_b).score


def pair_key(seg_a: str, seg_b: str) -> PairKey:
    """Canonical unordered-pair key."""
    return (seg_a, seg_b) if seg_a <= seg_b else (seg_b, seg_a)


def load_seed_matrix(source: str | Path | TextIO, inv: Inventory) -> SeedDataset:
    """Read raw "seg_a,seg_b,score" rows, resolving graphemes against inv.

    Repeated unordered pairs (including symmetric duplicates) are averaged.
    """
    rows = _read_score_rows(source, inv, "seed pair")
    if not rows:
        raise InputError("seed matrix is empty")
    sums: dict[PairKey, float] = {}
    counts: dict[PairKey, int] = {}
    first_seen: dict[PairKey, tuple[str, str]] = {}
    for seg_a, seg_b, score in rows:
        key = pair_key(seg_a, seg_b)
        sums[key] = sums.get(key, 0.0) + score
        counts[key] = counts.get(key, 0) + 1
        first_seen.setdefault(key, (seg_a, seg_b))
    records = [
        SimilarityRecord(*first_seen[key], sums[key] / counts[key], "seed")
        for key in sums
    ]
    return SeedDataset(records, inv)


def normalize_scores(ds: SeedDataset) -> SeedDataset:
    """Min-max rescale all scores so the observed range maps onto [0, 1]."""
    scores = [rec.score for rec in ds.records]
    if not scores:
        raise InputError("cannot normalize an empty dataset")
    lo, hi = min(scores), max(scores)
    if hi == lo:
        raise InputError(f"cannot normalize: all {len(scores)} scores equal {lo}")
    span = hi - lo
    records = [replace(rec, score=(rec.score - lo) / span) for rec in ds.records]
    return SeedDataset(records, ds.inventory)


def class_mean_distance(ds: SeedDataset, pairs: Sequence[PairKey]) -> float:
    """Arithmetic mean of the scores recorded for the given pairs."""
    if not pairs:
        raise InputError("empty pair list for class mean")
    return sum(ds.score(a, b) for a, b in pairs) / len(pairs)


def derive_deltas(ds: SeedDataset, bundles: DeltaBundles) -> DeltaSet:
    """Measure the class deltas on a normalized dataset.

    The tongue-root advancement delta is replicated to retraction, for which
    the seed data offers no pharyngeal or epiglottal evidence of its own.
    """
    atr = class_mean_distance(ds, bundles.atr_proximity)
    return DeltaSet(
        nonpulmonic_central=class_mean_distance(ds, bundles.stop_affricate),
        nonpulmonic_implosive=class_mean_distance(ds, bundles.stop_fricative),
        nonpulmonic_ejective_half=class_mean_distance(ds, bundles.stop_ejective) / 2.0,
        long_delta=class_mean_distance(ds, bundles.flap_trill),
        atr_delta=atr,
        rtr_delta=atr,
    )


_DELTA_BY_NAME = {
    "nonpulmonic_central": lambda d: d.nonpulmonic_central,
    "nonpulmonic_implosive": lambda d: d.nonpulmonic_implosive,
    "nonpulmonic_ejective_half": lambda d: d.nonpulmonic_ejective_half,
    "long": lambda d: d.long_delta,
    "atr": lambda d: d.atr_delta,
    "rtr": lambda d: d.rtr_delta,
}


def augment_with_deltas(
    ds: SeedDataset,
    deltas: DeltaSet,
    inv: Inventory,
    templates: Sequence[TemplateRule],
) -> SeedDataset:
    """Append provenance="delta" records produced by the template rules.

    Rules are applied in file order, so later rules may build on pairs created
    by earlier ones. A rule whose target pair already has a record is skipped:
    inferred points never replace observed ones.
    """
    merged = {rec.key: rec for rec in ds.records}

    def lookup(seg_a: str, seg_b: str) -> float:
        key = pair_key(seg_a, seg_b)
        if key not in merged:
            raise InputError(f"template references missing base pair ({seg_a}, {seg_b})")
        return merged[key].score

    for rule in templates:
        for g in (rule.target_a, rule.target_b):
            inv.get_segment(g)
        if rule.target_a == rule.target_b:
            raise InputError(f"template target compares {rule.target_a!r} with itself")
        key = pair_key(rule.target_a, rule.target_b)
        if key in merged:
            continue
        if rule.delta_name == "fortis":
            voiceless = lookup(rule.base_a, rule.target_b)
            voiced = lookup(rule.base_b, rule.target_b)
            score = (voiceless + voiced) / 2.0
        else:
            try:
                delta = _DELTA_BY_NAME[rule.delta_name](deltas)
            except KeyError:
                raise InputError(f"unknown delta name {rule.delta_name!r}") from None
            if rule.base_a == rule.base_b:
                base = 0.0  # self-distance
            else:
                base = lookup(rule.base_a, rule.base_b)
            if rule.sign == "+":
                score = base + delta
            elif rule.sign == "-":
                score = base - delta
            else:
                raise InputError(f"bad template sign {rule.sign!r}")
        score = min(1.0, max(0.0, score))
        merged[key] = SimilarityRecord(rule.target_a, rule.target_b, score, "delta")
    return SeedDataset(merged.values(), inv)


def apply_adjustments(ds: SeedDataset, source: str | Path | TextIO) -> SeedDataset:
    """Apply manual overrides; adjustment records win over any earlier record."""
    rows = _read_score_rows(source, ds.inventory, "adjustment")
    merged = {rec.key: rec for rec in ds.records}
    seen: dict[PairKey, float] = {}
    for seg_a, seg_b, score in rows:
        if not 0.0 <= score <= 1.0:
            raise InputError(
                f"adjustment ({seg_a}, {seg_b}) has score {score}, outside [0, 1]"
            )
        key = pair_key(seg_a, seg_b)
        if key in seen and seen[key] != score:
            raise InputError(
                f"conflicting adjustments for pair ({seg_a}, {seg_b}): "
                f"{seen[key]} vs {score}"
            )
        seen[key] = score
        merged[key] = SimilarityRecord(seg_a, seg_b, score, "adjustment")
    return SeedDataset(merged.values(), ds.inventory)


def load_delta_bundles(source: str | Path | TextIO) -> DeltaBundles:
    """Read the correspondence pair lists (JSON mapping name → [[a, b], ...])."""
    raw = textio.read_json(source)
    if not isinstance(raw, dict):
        raise InputError("delta bundle config must be a JSON object")
    missing = [name for name in BUNDLE_NAMES if name not in raw]
    if missing:
        raise InputError(f"delta bundle config missing {', '.join(missing)}")
    kwargs = {}
    for name in BUNDLE_NAMES:
        if not isinstance(raw[name], list):
            raise InputError(f"bundle {name!r} must be a list of pairs")
        pairs = []
        for entry in raw[name]:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(isinstance(g, str) for g in entry)):
                raise InputError(f"bundle {name!r}: pair {entry!r} is not a 2-list of strings")
            pairs.append((_nfc(entry[0]), _nfc(entry[1])))
        if not pairs:
            raise InputError(f"bundle {name!r} is empty")
        kwargs[name] = tuple(pairs)
    return DeltaBundles(**kwargs)


def load_templates(source: str | Path | TextIO) -> list[TemplateRule]:
    """Read template rules (CSV "delta_name,base_a,base_b,target_a,target_b,sign")."""
    rules = []
    for lineno, row in textio.read_csv(source):
        if len(row) != 6:
            raise InputError(f"template row {lineno}: expected 6 columns, got {len(row)}")
        name, base_a, base_b, target_a, target_b, sign = (cell.strip() for cell in row)
        if name != "fortis" and name not in _DELTA_BY_NAME:
            raise InputError(f"template row {lineno}: unknown delta name {name!r}")
        if sign not in ("+", "-"):
            raise InputError(f"template row {lineno}: bad sign {sign!r}")
        rules.append(
            TemplateRule(name, _nfc(base_a), _nfc(base_b), _nfc(target_a), _nfc(target_b), sign)
        )
    return rules


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text.strip())


def _read_score_rows(source: str | Path | TextIO, inv: Inventory, what: str) -> list[tuple[str, str, float]]:
    """(seg_a, seg_b, score) rows of two different segments of inv; `what` names a row in errors."""
    rows = []
    for lineno, row in textio.read_csv(source):
        if len(row) != 3:
            raise InputError(f"row {lineno}: expected 3 columns, got {len(row)}")
        seg_a, seg_b, raw_score = _nfc(row[0]), _nfc(row[1]), row[2].strip()
        try:
            score = float(raw_score)
        except ValueError:
            raise InputError(f"row {lineno}: non-numeric score {raw_score!r}") from None
        if not math.isfinite(score):
            raise InputError(f"row {lineno}: non-finite score {raw_score!r}")
        inv.get_segment(seg_a)
        inv.get_segment(seg_b)
        if seg_a == seg_b:
            raise InputError(f"{what} compares {seg_a!r} with itself")
        rows.append((seg_a, seg_b, score))
    return rows
