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

The table functions (the tallies, comorbidity_profile, stratified_report)
count one Counter keyed by just the dimensions the table reads and project
it. They take records, or a SveervStream, which they count by its
batch-columnar fold without building records.
"""

import dataclasses
import functools
import operator
from collections import Counter
from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .ingest import SveervStream, _count, _Dim
from .schema import (
    COMORBIDITY_FIELDS,
    CaseClassification,
    CodedFlag,
    PatientRecord,
    Sex,
    TreatmentStrategy,
    is_positive,
)

__all__ = [
    "AgeGroup",
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


class AgeGroup(Enum):
    Y0_20 = "0-20"
    Y21_40 = "21-40"
    Y41_59 = "41-59"
    Y60_PLUS = "60+"
    UNKNOWN = "unknown"


def age_group(age_years: int | None) -> AgeGroup:
    """Bin an age into [0,20], [21,40], [41,59], [60,inf); None is Unknown."""
    if age_years is None:
        return AgeGroup.UNKNOWN
    if age_years <= 20:
        return AgeGroup.Y0_20
    if age_years <= 40:
        return AgeGroup.Y21_40
    if age_years <= 59:
        return AgeGroup.Y41_59
    return AgeGroup.Y60_PLUS


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


class StratumKey(NamedTuple):
    """Stratum coordinates; None in a position means "all" on that axis."""

    state: int | None = None
    municipality: int | None = None
    sex: Sex | None = None
    age_group: AgeGroup | None = None

    def is_state(self) -> bool:
        """A state, and None on every other axis: a per-state stratum."""
        return self.state is not None and self == StratumKey(self.state)


#: Dimensions accepted by stratified_report's group_by, in key order.
GROUP_DIMENSIONS = ("state", "municipality", "sex", "age_group")


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


def accumulate(acc: CaseCounts, r: PatientRecord) -> CaseCounts:
    """Pure form of CaseCounts.add: returns a new accumulator."""
    out = acc.copy()
    out.add(r)
    return out


def merge(a: CaseCounts, b: CaseCounts) -> CaseCounts:
    """Field-wise sum. Associative and commutative; CaseCounts() is identity."""
    return CaseCounts(**{name: getattr(a, name) + getattr(b, name) for name in _COUNT_FIELDS})


class PositivityMode(Enum):
    """Denominator choice for the positivity index.

    AGGREGATE divides by every registered case (the reporting convention the
    shipped presets follow); LAB_NEGATIVE divides by positives plus
    lab-negatives only, excluding suspect/invalid/not-performed rows.
    """

    AGGREGATE = "aggregate"
    LAB_NEGATIVE = "lab-negative"


class SeverityCriterion(Enum):
    """What counts as severe support for TGI3."""

    INTUBATION_ONLY = "intubation-only"
    ICU_ONLY = "icu-only"
    ICU_AND_INTUBATION = "icu-and-intubation"
    ICU_OR_INTUBATION = "icu-or-intubation"


class Subcohort(Enum):
    """Comorbidity-profile target populations."""

    HOSPITALIZED_POSITIVE = "hospitalized-positive"
    DEATHS_POSITIVE = "deaths-positive"
    DEATHS_ICU_INTUBATED = "deaths-icu-intubated"


class RankMetric(Enum):
    FATALITY = "fatality"
    POSITIVITY = "positivity"
    TGI3 = "tgi3"


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


@dataclass(frozen=True)
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
    try:
        tgi1, tgi2, tgi3 = severity_rates(counts, criterion)
    except UndefinedForEmptyCohort:
        tgi1 = tgi2 = tgi3 = None
    return MetricsReport(
        counts=counts,
        fatality_pct=fatality_rate(counts),
        positivity_pct=positivity_index(counts, positivity),
        tgi1_pct=tgi1,
        tgi2_pct=tgi2,
        tgi3_pct=tgi3,
    )


# ---------------------------------------------------------------------------
# Counting. Every case table is a projection of one Counter keyed by just the
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


class _Cell(NamedTuple):
    """What CaseCounts.add reads of a record: one cell of _CELL_DIMS."""

    classification: CaseClassification
    treatment: TreatmentStrategy
    icu: CodedFlag
    intubated: CodedFlag
    death_date: object  # None when alive


def _tally(
    records: Iterable[PatientRecord] | SveervStream,
    cohort: CohortFilter | None,
    dims: Sequence[_Dim],
    where: Sequence[_Dim] = (),
) -> Counter[tuple]:
    """Counts by ``dims`` of the records in the cohort that pass ``where``.

    Filters are counted as leading bool dimensions and dropped from the keys
    here, so a cohort costs one lookup per distinct raw value on the batch path.
    """
    where = (cohort._predicates if cohort is not None else ()) + tuple(where)
    cube = _count(records, where + tuple(dims))
    if not where:
        return cube
    m = len(where)
    return Counter({key[m:]: n for key, n in cube.items() if all(key[:m])})


def _cell_counts(cell: tuple) -> tuple[int, ...]:
    """The CaseCounts fields one record of a (classification, treatment, icu,
    intubated, died) cell adds, in _COUNT_FIELDS order."""
    counts = CaseCounts()
    counts.add(_Cell(*cell[:4], cell[4] or None))
    return tuple(getattr(counts, name) for name in _COUNT_FIELDS)


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
    the merge of the leaf strata. Each leaf's CaseCounts is a projection of
    one Counter keyed by the group dimensions and the (classification,
    treatment, icu, intubated, died) cell of each record.
    """
    unknown = [dim for dim in group_by if dim not in GROUP_DIMENSIONS]
    if unknown:
        raise ValueError(f"unknown group_by dimension(s): {', '.join(unknown)}")
    used = [name for name in GROUP_DIMENSIONS if name in group_by]
    g = len(used)
    cell_counts = functools.cache(_cell_counts)
    sums: dict[tuple, list[int]] = {}
    for key, n in _tally(records, cohort, [_GROUP_DIMS[name] for name in used] + list(_CELL_DIMS)).items():
        add = map(operator.mul, cell_counts(key[g:]), repeat(n))
        acc = sums.get(key[:g])
        if acc is None:
            sums[key[:g]] = list(add)
        else:
            acc[:] = map(operator.add, acc, add)

    out: dict[StratumKey, MetricsReport] = {}
    for leaf, acc in sums.items():
        key = StratumKey(**dict(zip(used, leaf)))
        if key != StratumKey():
            out[key] = build_report(CaseCounts(*acc), criterion, positivity)
    national = CaseCounts(*map(sum, zip(*sums.values())))  # the merge of the leaves
    out[StratumKey()] = build_report(national, criterion, positivity)
    return out


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
    profile: Counter[tuple[str, AgeGroup]] = Counter()
    for (group, *flags), n in _tally(records, cohort, dims, _SUBCOHORTS[subcohort]).items():
        for name, flag in zip(COMORBIDITY_FIELDS, flags):
            if flag is CodedFlag.YES:
                profile[name, group] += n
    return profile


def _metric_value(report: MetricsReport, metric: RankMetric) -> float | None:
    if metric is RankMetric.FATALITY:
        return report.fatality_pct
    if metric is RankMetric.POSITIVITY:
        return report.positivity_pct
    return report.tgi3_pct


def rank_states(
    reports: dict[StratumKey, MetricsReport],
    metric: RankMetric,
) -> list[tuple[int, float]]:
    """Order per-state strata by a metric, descending; ties break by state code.

    Strata where the metric is Undefined are left out of the ranking.
    """
    rows = []
    for key, report in reports.items():
        if not key.is_state():
            continue
        value = _metric_value(report, metric)
        if value is not None:
            rows.append((key.state, value))
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
