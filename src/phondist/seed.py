"""Training-data pipeline: seed similarity scores, inferred deltas, overrides.

README's "Data formats" describes each input file. Every stage returns a new
SeedDataset whose records carry their provenance; records, datasets and
template rules check their own data.
"""

import math
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

    def __post_init__(self):
        if self.seg_a == self.seg_b:
            raise InputError(f"{self.provenance} record compares {self.seg_a!r} with itself")
        if not math.isfinite(self.score):
            raise InputError(f"{self.provenance} record ({self.seg_a}, {self.seg_b}): non-finite score {self.score}")

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

DELTA_FIELDS = {f.name.removesuffix("_delta"): f.name for f in fields(DeltaSet)}


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

    def __post_init__(self):
        if self.delta_name != "fortis" and self.delta_name not in DELTA_FIELDS:
            raise InputError(f"unknown delta name {self.delta_name!r}")
        if self.sign not in ("+", "-"):
            raise InputError(f"bad sign {self.sign!r}")


class SeedDataset:
    """Immutable collection of pairwise similarity records over segments of one inventory."""

    def __init__(self, records: Iterable[SimilarityRecord], inventory: Inventory):
        self.inventory = inventory
        self._by_key = {rec.key: rec for rec in records}
        for key in self._by_key:
            for grapheme in key:
                inventory.get_segment(grapheme)

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
    rows = _read_score_rows(source)
    if not rows:
        raise InputError("seed matrix is empty")
    groups: dict[PairKey, tuple[PairKey, list[float]]] = {}  # the pair as first written, its scores
    for seg_a, seg_b, score in rows:
        groups.setdefault(pair_key(seg_a, seg_b), ((seg_a, seg_b), []))[1].append(score)
    records = [SimilarityRecord(*pair, _mean(scores), "seed") for pair, scores in groups.values()]
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
    if not math.isfinite(span):
        raise InputError(f"cannot normalize: the score range {lo} to {hi} overflows")
    records = [replace(rec, score=(rec.score - lo) / span) for rec in ds.records]
    return SeedDataset(records, ds.inventory)


def class_mean_distance(ds: SeedDataset, pairs: Sequence[PairKey]) -> float:
    """Arithmetic mean of the scores recorded for the given pairs."""
    if not pairs:
        raise InputError("empty pair list for class mean")
    return _mean([ds.score(a, b) for a, b in pairs])


def _mean(values: Sequence[float]) -> float:
    total = 0.0
    for value in values:  # left to right: float sum() is compensated from Python 3.12 on
        total += value
    return total / len(values)


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
        key = pair_key(rule.target_a, rule.target_b)
        if key in merged:
            continue
        if rule.delta_name == "fortis":
            voiceless = lookup(rule.base_a, rule.target_b)
            voiced = lookup(rule.base_b, rule.target_b)
            score = (voiceless + voiced) / 2.0
        else:
            delta = getattr(deltas, DELTA_FIELDS[rule.delta_name])
            if rule.base_a == rule.base_b:
                base = 0.0  # self-distance
            else:
                base = lookup(rule.base_a, rule.base_b)
            score = base + delta if rule.sign == "+" else base - delta
        score = min(1.0, max(0.0, score))
        merged[key] = SimilarityRecord(rule.target_a, rule.target_b, score, "delta")
    return SeedDataset(merged.values(), inv)


def apply_adjustments(ds: SeedDataset, source: str | Path | TextIO) -> SeedDataset:
    """Apply manual overrides; adjustment records win over any earlier record."""
    adjusted: dict[PairKey, SimilarityRecord] = {}
    for seg_a, seg_b, score in _read_score_rows(source):
        if not 0.0 <= score <= 1.0:
            raise InputError(
                f"adjustment ({seg_a}, {seg_b}) has score {score}, outside [0, 1]"
            )
        key = pair_key(seg_a, seg_b)
        if key in adjusted and adjusted[key].score != score:
            raise InputError(
                f"conflicting adjustments for pair ({seg_a}, {seg_b}): "
                f"{adjusted[key].score} vs {score}"
            )
        adjusted[key] = SimilarityRecord(seg_a, seg_b, score, "adjustment")
    # A pair already recorded keeps its place (its row of the design); new pairs follow in file order.
    return SeedDataset([*ds.records, *adjusted.values()], ds.inventory)


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
            pairs.append((textio.nfc(entry[0]), textio.nfc(entry[1])))
        if not pairs:
            raise InputError(f"bundle {name!r} is empty")
        kwargs[name] = tuple(pairs)
    return DeltaBundles(**kwargs)


def load_templates(source: str | Path | TextIO) -> list[TemplateRule]:
    """Read template rules (CSV "delta_name,base_a,base_b,target_a,target_b,sign")."""
    rules = []
    for lineno, row in textio.read_csv(source, 6):
        try:
            rules.append(TemplateRule(*row))
        except InputError as exc:
            raise InputError(f"template row {lineno}: {exc}") from None
    return rules


def _read_score_rows(source: str | Path | TextIO) -> list[tuple[str, str, float]]:
    """(seg_a, seg_b, score) rows, NFC graphemes and a float score; the records check the rest."""
    rows = []
    for lineno, (seg_a, seg_b, raw_score) in textio.read_csv(source, 3):
        try:
            score = float(raw_score)
        except ValueError:
            raise InputError(f"row {lineno}: non-numeric score {raw_score!r}") from None
        rows.append((seg_a, seg_b, score))
    return rows
