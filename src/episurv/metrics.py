"""Cohort accumulation and the surveillance indicators built on it.

Everything here reduces a stream of PatientRecord to mergeable integer
counters (CaseCounts) and then to rates:

* fatality rate: confirmed-positive deaths / confirmed positives x 100
* positivity index: confirmed positives over a configurable denominator
* severity typology: TGI1 ambulatory, TGI2 hospitalized without severe
  support, TGI3 severe support, each as a share of confirmed positives

CaseCounts merge field-wise, so shards of a file can be accumulated
independently and combined; rates for an empty denominator are Undefined
(returned as None), never 0 and never NaN.

The table functions (the tallies, comorbidity_profile, strata_table and
stratified_report) key the records by the decoded values of just the
dimensions the table reads, and roll each batch up into the table's sums
as the fold goes (see ``ingest._count``). They take records, or a
SveervStream, folded by its batch loop. strata_table keeps one packed
int of CaseCounts sums per stratum (StrataTable), from which the metrics,
rank and chart tables render and stratified_report builds its reports.
"""

import dataclasses
import functools
import operator
import struct
from collections import Counter, namedtuple
from dataclasses import dataclass
from datetime import date
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .ingest import SveervStream, _count, _counted, _Dim
from .schema import (
    COMORBIDITY_FIELDS,
    GROUP_DIMENSIONS,
    AgeGroup,
    CaseClassification,
    CodedFlag,
    PatientRecord,
    PositivityMode,
    RankMetric,
    SeverityCriterion,
    Sex,
    StratumKey,
    Subcohort,
    TreatmentStrategy,
    age_group,
    is_positive,
)

__all__ = [
    "AgeGroup",  # defined in schema, as are age_group, StratumKey, GROUP_DIMENSIONS and the four enums below
    "age_group",
    "CohortFilter",
    "StratumKey",
    "GROUP_DIMENSIONS",
    "CaseCounts",
    "accumulate",
    "merge",
    "PositivityMode",
    "SeverityCriterion",
    "Subcohort",
    "RankMetric",
    "UndefinedForEmptyCohort",
    "fatality_rate",
    "positivity_index",
    "severe_count",
    "severity_rates",
    "MetricsReport",
    "build_report",
    "stratified_report",
    "StrataTable",
    "strata_table",
    "comorbidity_profile",
    "rank_states",
    "classification_sex_tally",
    "treatment_sex_tally",
    "TreatmentSplit",
    "state_treatment_tally",
    "intubation_sex_tally",
    "death_classification_sex_tally",
    "death_icu_sex_tally",
]


@dataclass(frozen=True)
class CohortFilter:
    """Record-level cohort selection applied before any counting.

    ``indigenous_only`` keeps rows whose indigenous-language flag is YES.
    ``onset_range`` is an inclusive (start, end) window on symptom onset;
    records with unknown onset never match a window.
    """

    indigenous_only: bool = False
    states: frozenset[int] | None = None
    municipalities: frozenset[int] | None = None
    sexes: frozenset[Sex] | None = None
    onset_range: tuple[date, date] | None = None

    @functools.cached_property
    def _predicates(self) -> tuple[tuple[str, Callable[[object], bool]], ...]:
        """The filter as (PatientRecord field, test of its value) pairs, all of
        which a record must pass."""
        preds = []
        if self.indigenous_only:
            preds.append(("speaks_indigenous_language", _is_yes))
        if self.states is not None:
            preds.append(("state_code", self.states.__contains__))
        if self.municipalities is not None:
            preds.append(("municipality_code", self.municipalities.__contains__))
        if self.sexes is not None:
            preds.append(("sex", self.sexes.__contains__))
        if self.onset_range is not None:
            preds.append(("symptom_onset_date", functools.partial(_within, *self.onset_range)))
        return tuple(preds)

    def matches(self, r: PatientRecord) -> bool:
        return all(test(getattr(r, field)) for field, test in self._predicates)


_is_yes = functools.partial(operator.is_, CodedFlag.YES)


def _within(start: date, end: date, day: date | None) -> bool:
    return day is not None and start <= day <= end


@dataclass(slots=True)
class CaseCounts:
    """Mergeable counters over one cohort (or stratum) of records.

    The *_pos fields count within confirmed positives only. Flag-derived
    fields (icu, intubated) count the YES code; escape codes do not count.
    """

    total: int = 0
    positive: int = 0
    negative: int = 0
    suspect: int = 0
    invalid: int = 0
    not_performed: int = 0
    ambulatory_pos: int = 0
    hospitalized_pos: int = 0
    icu_pos: int = 0
    intubated_pos: int = 0
    icu_and_intubated_pos: int = 0
    deaths_pos: int = 0
    deaths_icu_intubated_pos: int = 0

    def add(self, r: PatientRecord) -> None:
        """Fold one record in (hot path; mutates self)."""
        self.total += 1
        c = r.classification
        if c <= 3:  # the three confirmation routes
            self.positive += 1
            if r.treatment is TreatmentStrategy.AMBULATORY:
                self.ambulatory_pos += 1
            else:
                self.hospitalized_pos += 1
            icu_yes = r.icu is CodedFlag.YES
            tube_yes = r.intubated is CodedFlag.YES
            if icu_yes:
                self.icu_pos += 1
            if tube_yes:
                self.intubated_pos += 1
            if icu_yes and tube_yes:
                self.icu_and_intubated_pos += 1
            if r.death_date is not None:
                self.deaths_pos += 1
                if icu_yes and tube_yes:
                    self.deaths_icu_intubated_pos += 1
        elif c is CaseClassification.NEGATIVE:
            self.negative += 1
        elif c is CaseClassification.SUSPECT:
            self.suspect += 1
        elif c is CaseClassification.INVALID_RESULT:
            self.invalid += 1
        else:
            self.not_performed += 1

    def copy(self) -> "CaseCounts":
        return dataclasses.replace(self)


_COUNT_FIELDS = tuple(f.name for f in dataclasses.fields(CaseCounts))
_counts_of = operator.attrgetter(*_COUNT_FIELDS)


def accumulate(acc: CaseCounts, r: PatientRecord) -> CaseCounts:
    """Pure form of CaseCounts.add: returns a new accumulator."""
    out = acc.copy()
    out.add(r)
    return out


def merge(a: CaseCounts, b: CaseCounts) -> CaseCounts:
    """Field-wise sum. Associative and commutative; CaseCounts() is identity."""
    return CaseCounts(**{name: getattr(a, name) + getattr(b, name) for name in _COUNT_FIELDS})


class UndefinedForEmptyCohort(ValueError):
    """Severity typology requested over a cohort with zero positives."""


def fatality_rate(counts: CaseCounts) -> float | None:
    """Deaths among confirmed positives per 100 positives; None if no positives.

    Cumulative record-level counts govern: externally circulated summaries
    for some cohorts quote rounded figures that do not reproduce from their
    own tabulated counts (a 13.5% national figure whose tables compute to
    15.60% is the known example); this function always reports the formula
    value.
    """
    if counts.positive == 0:
        return None
    return counts.deaths_pos / counts.positive * 100.0


def positivity_index(counts: CaseCounts, mode: PositivityMode = PositivityMode.AGGREGATE) -> float | None:
    """Confirmed positives per 100 of the chosen denominator; None if empty."""
    if mode is PositivityMode.AGGREGATE:
        denom = counts.total
    else:
        denom = counts.positive + counts.negative
    if denom == 0:
        return None
    return counts.positive / denom * 100.0


def severe_count(counts: CaseCounts, criterion: SeverityCriterion) -> int:
    if criterion is SeverityCriterion.INTUBATION_ONLY:
        return counts.intubated_pos
    if criterion is SeverityCriterion.ICU_ONLY:
        return counts.icu_pos
    if criterion is SeverityCriterion.ICU_AND_INTUBATION:
        return counts.icu_and_intubated_pos
    return counts.icu_pos + counts.intubated_pos - counts.icu_and_intubated_pos


def severity_rates(
    counts: CaseCounts,
    criterion: SeverityCriterion = SeverityCriterion.ICU_AND_INTUBATION,
) -> tuple[float, float, float]:
    """(TGI1, TGI2, TGI3) as percentages of confirmed positives.

    TGI1 is the ambulatory share, TGI3 the severe-support share under the
    given criterion, TGI2 the hospitalized remainder; the three always sum to
    100. Raises UndefinedForEmptyCohort when there are no positives.
    """
    p = counts.positive
    if p == 0:
        raise UndefinedForEmptyCohort("severity typology needs at least one positive")
    severe = severe_count(counts, criterion)
    tgi1 = counts.ambulatory_pos / p * 100.0
    tgi3 = severe / p * 100.0
    tgi2 = (counts.hospitalized_pos - severe) / p * 100.0
    return tgi1, tgi2, tgi3


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """Counts plus the derived rates for one stratum. None means Undefined."""

    counts: CaseCounts
    fatality_pct: float | None
    positivity_pct: float | None
    tgi1_pct: float | None
    tgi2_pct: float | None
    tgi3_pct: float | None


def build_report(
    counts: CaseCounts,
    criterion: SeverityCriterion = SeverityCriterion.ICU_AND_INTUBATION,
    positivity: PositivityMode = PositivityMode.AGGREGATE,
) -> MetricsReport:
    return MetricsReport(counts, *_rates(criterion, positivity, counts))


def _rates(criterion: SeverityCriterion, positivity: PositivityMode, counts) -> tuple:
    """A MetricsReport's rates, in field order, of ``counts``: a CaseCounts,
    or any object with its fields."""
    try:
        tgi = severity_rates(counts, criterion)
    except UndefinedForEmptyCohort:
        tgi = None, None, None
    return fatality_rate(counts), positivity_index(counts, positivity), *tgi


_RATE_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsReport) if f.name != "counts")
_rates_of = operator.attrgetter(*_RATE_FIELDS)


# ---------------------------------------------------------------------------
# Counting. Every case table is a roll-up of one count keyed by just the
# dimensions the table reads. A dimension is a PatientRecord field (or a
# comorbidity name) and an optional function of the field's value; a filter
# is such a dimension whose function returns a bool.

_CLASSIFICATION: _Dim = ("classification", None)
_SEX: _Dim = ("sex", None)
_TREATMENT: _Dim = ("treatment", None)
_STATE: _Dim = ("state_code", None)
_INTUBATED: _Dim = ("intubated", None)
_ICU: _Dim = ("icu", None)
_POSITIVE: _Dim = ("classification", is_positive)
_DIED: _Dim = ("death_date", functools.partial(operator.is_not, None))
_AGE_GROUP: _Dim = ("age_years", age_group)

_GROUP_DIMS: dict[str, _Dim] = {
    "state": _STATE,
    "municipality": ("municipality_code", None),
    "sex": _SEX,
    "age_group": _AGE_GROUP,
}

_CELL_DIMS = (_CLASSIFICATION, _TREATMENT, _ICU, _INTUBATED, _DIED)


def _tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None,
    dims: Sequence[_Dim],
    where: Sequence[_Dim] = (),
    project: Callable = _counted,
):
    """Counts by ``dims`` of the records in the cohort that pass ``where``,
    or their projection by ``project`` (see ``_count``)."""
    where = (cohort._predicates if cohort is not None else ()) + tuple(where)
    return _count(records, dims, where, project)


# What CaseCounts.add reads of a record: one cell of _CELL_DIMS.
_Cell = namedtuple("_Cell", "classification treatment icu intubated death_date")
# A CaseCounts' fields as a tuple, which the rates read as they read a CaseCounts.
_Counts = namedtuple("_Counts", _COUNT_FIELDS)

# A stratum's CaseCounts sums packed into one int: field i of _COUNT_FIELDS
# in bits [64 * i, 64 * (i + 1)), the lane i of its bytes, little end first.
# A field sum counts records, so it never reaches 2**64 and no lane carries
# into the next.
_LANES = struct.Struct(f"<{len(_COUNT_FIELDS)}Q")


def _cell_vector(cell: tuple) -> int:
    """The CaseCounts fields, packed, that one record of a _CELL_DIMS cell
    (its keys) adds."""
    *cell, died = cell
    counts = CaseCounts()
    counts.add(_Cell(*cell, died or None))
    return int.from_bytes(_LANES.pack(*_counts_of(counts)), "little")


def _lanes(packed: int) -> tuple[int, ...]:
    """The CaseCounts fields, in order, of a packed sum (see _LANES)."""
    return _LANES.unpack(packed.to_bytes(_LANES.size, "little"))


def _unpacked(packed: int) -> CaseCounts:
    """The CaseCounts of a packed sum (see _LANES)."""
    return CaseCounts(*_lanes(packed))


# Keys a strata roll-up counts before it sums them by group.
_ROLL_KEYS = 4096


def _strata_sums(used: Sequence[str], criterion: SeverityCriterion,
                 positivity: PositivityMode) -> tuple[Callable, Callable]:
    """The projection (see ``ingest._count``) of rows keyed by the ``used``
    group dimensions and a _CELL_DIMS cell to a StrataTable of each group's
    packed sums (see _LANES), in the order the groups first appear.

    The roll-up counts rows by key, in C, until the count holds _ROLL_KEYS
    keys, which a coarse grouping never reaches; then it sums the counts
    into the table, and from there on adds each row's cell vector to its
    group's sums as it comes. A row's group is a plain tuple in StratumKey
    layout, and a StratumKey is made only for a new group. A cell's vector
    is found once per fold."""
    table, counts, vector = StrataTable({}, criterion, positivity), Counter(), functools.cache(_cell_vector)
    slots = [used.index(name) if name in used else None for name in GROUP_DIMENSIONS]

    def add(items: Iterable[tuple[tuple, int]]) -> None:
        get = table.get
        for group, packed in items:
            old = get(group)
            if old is None:
                table[StratumKey._make(group)] = packed
            else:
                table[group] = old + packed

    def roll(columns: list[Iterator], n: int) -> None:
        if counts is None:
            groups = zip(*[repeat(None) if i is None else columns[i] for i in slots])
            add(zip(groups, map(vector, zip(*columns[len(used):]))))
        else:
            counts.update(zip(*columns))
            if len(counts) >= _ROLL_KEYS:
                result()

    def result() -> StrataTable:
        nonlocal counts
        if counts is not None:
            add((tuple(None if i is None else key[i] for i in slots), n * vector(key[len(used):]))
                for key, n in counts.items())
            counts = None
        return table
    return roll, result


# Distinct packed sums whose rates a StrataTable keeps. Rendering the 12.8k
# strata of a 100k-row registry peaks 0.57 MB above the table at 256 (48%
# hits) and 0.73 MB at 1024 (73% hits), which then sets the command's peak,
# for a render 2% faster; of a 1M-row one, 256 and 1024 hit 0.3% and 1%.
_RATES_MEMO = 256


class StrataTable(dict):
    """Stratified metrics in packed form, as the metrics, rank and per-state
    chart tables render them: a dict of each StratumKey to the packed
    CaseCounts sums of its records (one int, see _LANES), the all-None key
    last; and the criterion and positivity mode of the rates, which are
    computed once per distinct packed value, the last _RATES_MEMO of them
    kept."""

    def __init__(self, sums: dict[StratumKey, int], criterion: SeverityCriterion, positivity: PositivityMode):
        super().__init__(sums)
        self.rates = functools.lru_cache(_RATES_MEMO)(functools.partial(_packed_rates, criterion, positivity))

    def cells(self, key: StratumKey) -> tuple:
        """The stratum's thirteen counts in CaseCounts order, then its five
        rates in MetricsReport order, None when undefined."""
        packed = self[key]
        return *_lanes(packed), *self.rates(packed)

    def report(self, key: StratumKey) -> MetricsReport:
        """The stratum's report, with a CaseCounts of its own."""
        packed = self[key]
        return MetricsReport(_unpacked(packed), *self.rates(packed))


def _packed_rates(criterion: SeverityCriterion, positivity: PositivityMode, packed: int) -> tuple:
    return _rates(criterion, positivity, _Counts._make(_lanes(packed)))


def strata_table(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
    group_by: Sequence[str] = (),
    criterion: SeverityCriterion = SeverityCriterion.ICU_AND_INTUBATION,
    positivity: PositivityMode = PositivityMode.AGGREGATE,
) -> StrataTable:
    """Single-pass stratified metrics, packed (see stratified_report).

    The fold keys each record by the group dimensions and its
    (classification, treatment, icu, intubated, died) cell, and rolls the
    keys up into each group's packed CaseCounts sums as it goes (see
    _strata_sums): it holds at most _ROLL_KEYS counts or one int per group,
    and its sums are the table returned. The all-None key sums the leaves.
    """
    unknown = [dim for dim in group_by if dim not in GROUP_DIMENSIONS]
    if unknown:
        raise ValueError(f"unknown group_by dimension(s): {', '.join(unknown)}")
    used = [name for name in GROUP_DIMENSIONS if name in group_by]
    table = _tally(records, cohort, [_GROUP_DIMS[name] for name in used] + list(_CELL_DIMS),
                   project=functools.partial(_strata_sums, used, criterion, positivity))
    national = sum(table.values())
    table.pop(StratumKey(), None)  # the one leaf of no grouping
    table[StratumKey()] = national
    return table


def stratified_report(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
    group_by: Sequence[str] = (),
    criterion: SeverityCriterion = SeverityCriterion.ICU_AND_INTUBATION,
    positivity: PositivityMode = PositivityMode.AGGREGATE,
) -> dict[StratumKey, MetricsReport]:
    """Single-pass stratified metrics.

    ``group_by`` names dimensions from GROUP_DIMENSIONS. The result always
    contains the all-None key holding the whole-cohort report, computed as
    the merge of the leaf strata, last. It is the reports of strata_table's
    packed table: every stratum has its own CaseCounts, and strata with
    equal counts share their rates, computed once.
    """
    table = strata_table(records, cohort, group_by, criterion, positivity)
    reports = {}
    for key in list(table):
        reports[key] = table.report(key)
        del table[key]  # its sums, freed as its report is built
    return reports


def _stratum_cells(data: StrataTable | dict[StratumKey, MetricsReport]) -> Callable[[StratumKey], tuple]:
    """The cells (see StrataTable.cells) of a packed table's strata, or of
    reports; TypeError for any other mapping."""
    if isinstance(data, StrataTable):
        return data.cells
    if not all(isinstance(key, StratumKey) and isinstance(report, MetricsReport) for key, report in data.items()):
        raise TypeError("expects StratumKey keys and MetricsReport values")
    return lambda key: (*_counts_of(data[key].counts), *_rates_of(data[key]))


_HOSPITALIZED: _Dim = ("treatment", functools.partial(operator.is_, TreatmentStrategy.HOSPITALIZED))
_SUBCOHORTS: dict[Subcohort, tuple[_Dim, ...]] = {
    Subcohort.HOSPITALIZED_POSITIVE: (_POSITIVE, _HOSPITALIZED),
    Subcohort.DEATHS_POSITIVE: (_POSITIVE, _DIED),
    Subcohort.DEATHS_ICU_INTUBATED: (
        _POSITIVE, _DIED,
        ("icu", _is_yes),
        ("intubated", _is_yes),
    ),
}


def comorbidity_profile(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
    subcohort: Subcohort = Subcohort.DEATHS_ICU_INTUBATED,
) -> Counter[tuple[str, AgeGroup]]:
    """Count YES comorbidity flags by (comorbidity, age group) in a subcohort.

    Escape codes (97/98/99) and NO do not count. Empty subcohort gives an
    empty map.
    """
    dims = [_AGE_GROUP] + [(name, None) for name in COMORBIDITY_FIELDS]
    return _tally(records, cohort, dims, _SUBCOHORTS[subcohort], _yes_by_group)


def _yes_by_group() -> tuple[Callable, Callable]:
    """The projection (see ``ingest._count``) of rows keyed by age group and
    the comorbidity flags to YES counts by (comorbidity, age group)."""
    part: Counter[tuple[str, AgeGroup]] = Counter()

    def roll(columns: list[Iterator], n: int) -> None:
        groups = list(columns[0])
        for name, flags in zip(COMORBIDITY_FIELDS, columns[1:]):
            yes = map(operator.is_, flags, repeat(CodedFlag.YES))
            part.update(zip(repeat(name), compress(groups, yes)))
    return roll, lambda: part


def rank_states(
    reports: StrataTable | dict[StratumKey, MetricsReport],
    metric: RankMetric,
) -> list[tuple[int, float]]:
    """Order per-state strata by a metric, descending; ties break by state code.

    Strata where the metric is Undefined are left out of the ranking. The
    metric is the report's ``<metric>_pct`` field.
    """
    column = len(_COUNT_FIELDS) + _RATE_FIELDS.index(f"{metric.value}_pct")
    cells = _stratum_cells(reports)
    rows = [(key.state, value) for key in reports
            if key.is_state() and (value := cells(key)[column]) is not None]
    rows.sort(key=lambda sv: (-sv[1], sv[0]))
    return rows


# ---------------------------------------------------------------------------
# Cross-tabulations feeding the annex tables (see docs/tables.md). Each is a
# Counter from one pass of the record stream (see _tally).

def classification_sex_tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CaseClassification, Sex]]:
    """All records by (final classification, sex). Feeds T1/T2."""
    return _tally(records, cohort, (_CLASSIFICATION, _SEX))


def treatment_sex_tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
) -> Counter[tuple[Sex, TreatmentStrategy]]:
    """Confirmed positives by (sex, treatment strategy). Feeds T3."""
    return _tally(records, cohort, (_SEX, _TREATMENT), (_POSITIVE,))


class TreatmentSplit(NamedTuple):
    ambulatory: int
    hospitalized: int


def state_treatment_tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
) -> dict[int, TreatmentSplit]:
    """Confirmed positives by state, split ambulatory/hospitalized. Feeds T4."""
    tally = _tally(records, cohort, (_STATE, _TREATMENT), (_POSITIVE,))
    return {
        state: TreatmentSplit(tally[state, TreatmentStrategy.AMBULATORY],
                              tally[state, TreatmentStrategy.HOSPITALIZED])
        for state in sorted({state for state, _ in tally})
    }


def intubation_sex_tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CodedFlag, Sex]]:
    """Confirmed positives by (intubation flag, sex). Feeds T5."""
    return _tally(records, cohort, (_INTUBATED, _SEX), (_POSITIVE,))


def death_classification_sex_tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CaseClassification, Sex]]:
    """Confirmed-positive deaths by (classification, sex). Feeds T6."""
    return _tally(records, cohort, (_CLASSIFICATION, _SEX), (_POSITIVE, _DIED))


def death_icu_sex_tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CodedFlag, Sex]]:
    """Confirmed-positive deaths by (ICU flag, sex). Feeds T7."""
    return _tally(records, cohort, (_ICU, _SEX), (_POSITIVE, _DIED))
