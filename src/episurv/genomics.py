"""Variant classification and genomic-surveillance summaries.

Classification is by Pango lineage only: a catalog entry's clade set is
reporting metadata for cross-tabulations, never a match input. Patterns use
"+" to separate alternative lineages and a trailing ".x"/".X" to include a
lineage's descendants, e.g. "B.1.617.2+AY.x".

Every table (variant_shares, the crosstabs, state_summary) is a projection
of one Counter keyed by the decoded dimensions it reads: the lineage's label,
the requested state a division folds to, the age group.
A table takes records, or a GisaidStream, which it counts by the stream's
batch-columnar fold (GisaidStream.count) without building a SampleRecord.
"""

import functools
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .ingest import (
    LINEAGE_RE,
    GisaidStream,
    SampleRecord,
    _count,
    _Dim,
    _MalformedCSV,
    _Stream,
)
from .schema import AgeGroup, Sex, age_group

__all__ = [
    "EmptyPattern",
    "MalformedSegment",
    "PangoPattern",
    "parse_pattern",
    "matches",
    "VariantCategory",
    "VariantDefinition",
    "VariantCatalog",
    "DEFAULT_CATALOG",
    "load_catalog",
    "classify_sample",
    "StatusBucket",
    "bucket_status",
    "fold_text",
    "VariantShares",
    "variant_shares",
    "clade_crosstab",
    "status_crosstab",
    "full_crosstab",
    "StateBlock",
    "StateSummary",
    "state_summary",
]


class EmptyPattern(ValueError):
    """A pattern string contained no lineage alternatives."""


class MalformedSegment(ValueError):
    """A pattern alternative violates the lineage grammar."""


@dataclass(frozen=True)
class PangoPattern:
    """Parsed lineage pattern: alternatives of (segments, include_descendants)."""

    text: str
    alternatives: tuple[tuple[tuple[str, ...], bool], ...]


def parse_pattern(text: str) -> PangoPattern:
    """Parse "A.1+B.x" style patterns.

    Raises EmptyPattern when no alternative remains after trimming, and
    MalformedSegment when an alternative's root is not alphabetic segments
    followed by dot-separated numbers.
    """
    alternatives = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            continue
        root = part
        descendants = False
        if root.upper().endswith(".X"):
            root = root[:-2]
            descendants = True
        if not LINEAGE_RE.match(root):
            raise MalformedSegment(f"bad pattern alternative {part!r} in {text!r}")
        alternatives.append((tuple(root.upper().split(".")), descendants))
    if not alternatives:
        raise EmptyPattern(f"pattern {text!r} has no alternatives")
    return PangoPattern(text=text, alternatives=tuple(alternatives))


def matches(pattern: PangoPattern, lineage: str) -> bool:
    """Segment-wise match, case-insensitive.

    An alternative without the descendants wildcard matches only the exact
    lineage; with it, the alternative's segments must be a prefix of the
    lineage's segments (so "AY.x" matches AY, AY.2 and AY.20, while "P.1.x"
    never matches P.10).
    """
    segs = tuple(lineage.upper().split("."))
    for root, descendants in pattern.alternatives:
        if segs == root:
            return True
        if descendants and len(segs) > len(root) and segs[: len(root)] == root:
            return True
    return False


class VariantCategory(Enum):
    VOC = "VOC"
    VOI = "VOI"


@dataclass(frozen=True)
class VariantDefinition:
    who_label: str
    category: VariantCategory
    gisaid_clades: frozenset[str]
    pango: PangoPattern


# The formula block in one circulated catalog mislabels Iota as "Jota";
# accept it as an alias on lookup and when loading catalog files.
_LABEL_ALIASES = {"jota": "Iota"}


def _canonical_label(label: str) -> str:
    return _LABEL_ALIASES.get(label.strip().casefold(), label.strip())


@dataclass(frozen=True)
class VariantCatalog:
    """Ordered variant definitions; classification is first-match-wins."""

    variants: tuple[VariantDefinition, ...]

    def get(self, who_label: str) -> VariantDefinition | None:
        wanted = _canonical_label(who_label).casefold()
        for v in self.variants:
            if v.who_label.casefold() == wanted:
                return v
        return None

    def classify(self, lineage: str) -> str | None:
        """who_label of the first definition whose pattern matches, else None."""
        for v in self.variants:
            if matches(v.pango, lineage):
                return v.who_label
        return None


def _variant(label: str, category: VariantCategory, clades: str, pattern: str) -> VariantDefinition:
    return VariantDefinition(label, category, frozenset(clades.split(";")), parse_pattern(pattern))


_VOC, _VOI = VariantCategory.VOC, VariantCategory.VOI
DEFAULT_CATALOG = VariantCatalog(
    variants=(
        _variant("Alpha", _VOC, "GRY", "B.1.1.7+Q.x"),
        _variant("Beta", _VOC, "GH/501Y.V2", "B.1.351+B.1.351.2+B.1.351.3"),
        _variant("Gamma", _VOC, "GR/501Y.V3", "P.1+P.1.x"),
        _variant("Delta", _VOC, "G/478K.V1", "B.1.617.2+AY.x"),
        _variant("Eta", _VOI, "G/484K.V3", "B.1.525"),
        _variant("Iota", _VOI, "GH/253G.V1", "B.1.526"),
        _variant("Kappa", _VOI, "G/452R.V3", "B.1.617.1"),
        _variant("Lambda", _VOI, "GR/452Q.V1", "C.37"),
        _variant("Mu", _VOI, "GH", "B.1.621+B.1.621.1"),
    )
)


class _CatalogFile(_Stream):
    """A catalog file's header, read as the metadata's is; its rows are
    read by the stream batch reader (_Stream._rows)."""

    _columns = ("who_label", "category", "clades", "pango_pattern")


def load_catalog(source) -> VariantCatalog:
    """Load a catalog override from delimited text.

    Expected columns: who_label, category (VOC/VOI), clades (semicolon
    separated), pango_pattern. The file is read as the metadata is: UTF-8,
    a line that is not valid UTF-8 read as latin-1, the delimiter (tab or
    comma) sniffed from the first line, the columns found with a BOM
    stripped and case ignored, and rows split as csv.reader splits them, so
    a quoted cell may hold the delimiter or span lines. Rows that are blank
    or hold only whitespace are skipped. A bad row (too short for those
    columns, malformed CSV, an unknown category, a bad pattern) raises
    ValueError naming the line the row starts on; a bad pattern keeps its
    class (EmptyPattern, MalformedSegment).
    """
    try:
        catalog = _CatalogFile(source)
        try:
            idx = list(catalog._cols.values())
            batches = catalog._rows(catalog._raw, catalog.stats, catalog._line_offset)
            return VariantCatalog(tuple(_definition(line, row, idx) for rows, starts in batches
                                        for line, row in zip(starts, rows) if any(map(str.strip, row))))
        finally:
            if catalog._owns:
                catalog._raw.close()
    except _MalformedCSV as exc:
        raise ValueError(f"catalog {exc}") from None


def _definition(line: int, row: list[str], idx: list[int]) -> VariantDefinition:
    """The catalog row starting on ``line``, its cells at ``idx``."""
    if len(row) <= max(idx):
        raise ValueError(f"catalog line {line}: {len(row)} field(s), its columns need {max(idx) + 1}")
    label, category, clades, pattern = (row[i].strip() for i in idx)
    try:
        return VariantDefinition(
            who_label=_canonical_label(label),
            category=VariantCategory(category.upper()),
            gisaid_clades=frozenset(c.strip() for c in clades.split(";") if c.strip()),
            pango=parse_pattern(pattern),
        )
    except ValueError as exc:
        raise type(exc)(f"catalog line {line}: {exc}") from None


def classify_sample(sample: SampleRecord, catalog: VariantCatalog = DEFAULT_CATALOG) -> str | None:
    """Classify by the sample's lineage alone; the clade column is ignored."""
    return catalog.classify(sample.pango_lineage)


class StatusBucket(Enum):
    MILD = "mild"
    MODERATE = "moderate"
    SEVERE = "severe"
    UNKNOWN = "unknown"


def fold_text(text: str) -> str:
    """Normalization for free-text matching: accent-fold, casefold, collapse
    punctuation and whitespace runs to single spaces."""
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    # [^\W_] matches exactly the characters for which str.isalnum() is true.
    return " ".join(re.findall(r"[^\W_]+", stripped.casefold()))


def _status_table() -> dict[str, StatusBucket]:
    mild = (
        "liberado", "released",
        "vivir", "live",
        "atencion ambulatoria en vivo", "live outpatient care",
    )
    moderate = (
        "ambulatorio", "ambulatory",
        "moderar", "moderate",
        "sintomatico", "symptomatic",
        "asintomatico ambulatorio", "asymptomatic ambulatory",
        "ambulatorio asintomatico", "ambulatory asymptomatic",
        "asintomatico y ambulatorio", "asymptomatic and ambulatory",
        "ambulatorio sintomatico", "ambulatory symptomatic",
        "sintomatico ambulatorio", "symptomatic ambulatory",
        "sintomatico y ambulatorio", "symptomatic and ambulatory",
    )
    severe = (
        "hospitalizado", "hospitalized",
        "fallecido", "deceased",
        "fatal",
    )
    table = {phrase: StatusBucket.MILD for phrase in mild}
    table.update({phrase: StatusBucket.MODERATE for phrase in moderate})
    table.update({phrase: StatusBucket.SEVERE for phrase in severe})
    return table


_STATUS_BUCKETS = _status_table()


def bucket_status(patient_status: str) -> StatusBucket:
    """Exact-phrase lookup after normalization; anything else is Unknown."""
    return _STATUS_BUCKETS.get(fold_text(patient_status), StatusBucket.UNKNOWN)


_LINEAGE: _Dim = ("pango_lineage", None)
_CLADE: _Dim = ("gisaid_clade", None)


@dataclass(frozen=True)
class VariantShares:
    """Per-label counts with shares of the classified total."""

    shares: dict[str, tuple[int, float]]
    classified: int
    unclassified: int


def _label(catalog: VariantCatalog) -> _Dim:
    """The who_label (or None) dimension; the fold classifies each distinct
    lineage once per call, not once per sample."""
    return ("pango_lineage", catalog.classify)


def _resolve_label(catalog: VariantCatalog, who_label: str) -> str:
    """The catalog's spelling of ``who_label`` (matched case-insensitively,
    aliases included), or its canonical text when the catalog lacks it."""
    variant = catalog.get(who_label)
    return variant.who_label if variant is not None else _canonical_label(who_label)


def _count_of_label(
    samples: Iterable[SampleRecord] | GisaidStream,
    catalog: VariantCatalog,
    who_label: str,
    dims: Sequence[_Dim],
) -> Counter[tuple]:
    """Counts by ``dims`` of the samples classified as ``who_label``."""
    wanted = _resolve_label(catalog, who_label)
    return _count(samples, dims, [("pango_lineage", lambda lineage: catalog.classify(lineage) == wanted)])


def variant_shares(
    samples: Iterable[SampleRecord] | GisaidStream,
    catalog: VariantCatalog = DEFAULT_CATALOG,
) -> VariantShares:
    """Count samples per who_label; share denominators exclude unclassified."""
    counts = Counter({label: n for (label,), n in _count(samples, [_label(catalog)]).items()})
    unclassified = counts.pop(None, 0)
    classified = sum(counts.values())
    shares = {
        v.who_label: (counts[v.who_label], counts[v.who_label] / classified * 100.0)
        for v in catalog.variants
        if v.who_label in counts
    }
    return VariantShares(shares=shares, classified=classified, unclassified=unclassified)


def clade_crosstab(
    samples: Iterable[SampleRecord] | GisaidStream,
    catalog: VariantCatalog = DEFAULT_CATALOG,
    who_label: str = "Delta",
) -> Counter[tuple[str, str]]:
    """(lineage, clade) counts within one variant."""
    return _count_of_label(samples, catalog, who_label, [_LINEAGE, _CLADE])


def status_crosstab(
    samples: Iterable[SampleRecord] | GisaidStream,
    catalog: VariantCatalog = DEFAULT_CATALOG,
    who_label: str = "Delta",
) -> Counter[tuple[str, str]]:
    """(verbatim patient status, clade) counts within one variant."""
    return _count_of_label(samples, catalog, who_label, [("patient_status", None), _CLADE])


def full_crosstab(
    samples: Iterable[SampleRecord] | GisaidStream,
    catalog: VariantCatalog = DEFAULT_CATALOG,
) -> dict[str, Counter[tuple[str, str]]]:
    """(lineage, clade) counts for every classified label, in catalog order."""
    tabs: dict[str, Counter[tuple[str, str]]] = {v.who_label: Counter() for v in catalog.variants}
    for (label, lineage, clade), n in _count(samples, [_label(catalog), _LINEAGE, _CLADE]).items():
        if label is not None:
            tabs[label][lineage, clade] = n
    return {label: tab for label, tab in tabs.items() if tab}


@dataclass
class StateBlock:
    """Per-state tallies for one variant's samples."""

    total: int = 0
    clades: Counter[str] = field(default_factory=Counter)
    sexes: Counter[Sex] = field(default_factory=Counter)
    vaccines: Counter[str] = field(default_factory=Counter)
    age_sex: Counter[tuple[AgeGroup, Sex]] = field(default_factory=Counter)

    def _add(self, clade: str, sex: Sex, vaccine: str | None, group: AgeGroup, n: int) -> None:
        self.total += n
        self.clades[clade] += n
        self.sexes[sex] += n
        if vaccine is not None:
            self.vaccines[vaccine] += n
        self.age_sex[group, sex] += n


@dataclass
class StateSummary:
    """state_summary result: requested states in request order, plus totals."""

    who_label: str
    per_state: dict[str, StateBlock]
    totals: StateBlock


def state_summary(
    samples: Iterable[SampleRecord] | GisaidStream,
    catalog: VariantCatalog = DEFAULT_CATALOG,
    who_label: str = "Delta",
    states: Iterable[str] = (),
) -> StateSummary:
    """Per-state clade, sex, vaccination and age blocks for one variant.

    State names match after fold_text normalization; the totals block covers
    exactly the matched states. The blocks are projections of one Counter
    keyed by requested state name, clade, sex, vaccine and age group, so
    each distinct state text is normalized once per call, not once per
    sample.
    """
    wanted = _resolve_label(catalog, who_label)
    order = list(states)
    blocks = {name: StateBlock() for name in order}
    fold = functools.cache(fold_text)
    lookup = {fold(name): name for name in order}
    dims = [
        ("state", lambda state: lookup.get(fold(state))),
        _CLADE, ("sex", None), ("vaccine", None), ("age_years", age_group),
    ]
    totals = StateBlock()
    for (name, *cell), n in _count_of_label(samples, catalog, wanted, dims).items():
        if name is not None:
            blocks[name]._add(*cell, n)
            totals._add(*cell, n)
    return StateSummary(who_label=wanted, per_state=blocks, totals=totals)
