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
"""

import dataclasses
from collections import Counter
from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    def matches(self, r: PatientRecord) -> bool:
        if self.indigenous_only and r.speaks_indigenous_language is not CodedFlag.YES:
            return False
        if self.states is not None and r.state_code not in self.states:
            return False
        if self.municipalities is not None and r.municipality_code not in self.municipalities:
            return False
        if self.sexes is not None and r.sex not in self.sexes:
            return False
        if self.onset_range is not None:
            onset = r.symptom_onset_date
            if onset is None or not self.onset_range[0] <= onset <= self.onset_range[1]:
                return False
        return True


class StratumKey(NamedTuple):
    """Stratum coordinates; None in a position means "all" on that axis."""

    state: int | None = None
    municipality: int | None = None
    sex: Sex | None = None
    age_group: AgeGroup | None = None


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


def _filtered(records: Iterable[PatientRecord], cohort: CohortFilter | None) -> Iterator[PatientRecord]:
    if cohort is None:
        return iter(records)
    return (r for r in records if cohort.matches(r))


def stratified_report(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
    group_by: Sequence[str] = (),
    criterion: SeverityCriterion = SeverityCriterion.ICU_AND_INTUBATION,
    positivity: PositivityMode = PositivityMode.AGGREGATE,
) -> dict[StratumKey, MetricsReport]:
    """Single-pass stratified metrics.

    ``group_by`` names dimensions from GROUP_DIMENSIONS. The result always
    contains the all-None key holding the whole-cohort report, computed as
    the merge of the leaf strata.
    """
    unknown = [dim for dim in group_by if dim not in GROUP_DIMENSIONS]
    if unknown:
        raise ValueError(f"unknown group_by dimension(s): {', '.join(unknown)}")
    use = tuple(dim in group_by for dim in GROUP_DIMENSIONS)
    leaves: dict[StratumKey, CaseCounts] = {}
    for r in _filtered(records, cohort):
        key = StratumKey(
            state=r.state_code if use[0] else None,
            municipality=r.municipality_code if use[1] else None,
            sex=r.sex if use[2] else None,
            age_group=age_group(r.age_years) if use[3] else None,
        )
        counts = leaves.get(key)
        if counts is None:
            counts = leaves[key] = CaseCounts()
        counts.add(r)

    out: dict[StratumKey, MetricsReport] = {}
    national = CaseCounts()
    for key, counts in leaves.items():
        national = merge(national, counts)
        if key != StratumKey():
            out[key] = build_report(counts, criterion, positivity)
    out[StratumKey()] = build_report(national, criterion, positivity)
    return out


def _in_subcohort(r: PatientRecord, subcohort: Subcohort) -> bool:
    if not is_positive(r.classification):
        return False
    if subcohort is Subcohort.HOSPITALIZED_POSITIVE:
        return r.treatment is TreatmentStrategy.HOSPITALIZED
    if subcohort is Subcohort.DEATHS_POSITIVE:
        return r.death_date is not None
    return (
        r.death_date is not None
        and r.icu is CodedFlag.YES
        and r.intubated is CodedFlag.YES
    )


def comorbidity_profile(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
    subcohort: Subcohort = Subcohort.DEATHS_ICU_INTUBATED,
) -> Counter[tuple[str, AgeGroup]]:
    """Count YES comorbidity flags by (comorbidity, age group) in a subcohort.

    Escape codes (97/98/99) and NO do not count. Empty subcohort gives an
    empty map.
    """
    members = ((r.comorbidities, age_group(r.age_years))
               for r in _filtered(records, cohort) if _in_subcohort(r, subcohort))
    return Counter((name, group) for flags, group in members
                   for name in COMORBIDITY_FIELDS if flags.get(name) is CodedFlag.YES)


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
        if key.state is None or key.municipality is not None or key.sex is not None \
                or key.age_group is not None:
            continue
        value = _metric_value(report, metric)
        if value is not None:
            rows.append((key.state, value))
    rows.sort(key=lambda sv: (-sv[1], sv[0]))
    return rows


# ---------------------------------------------------------------------------
# Cross-tabulations feeding the annex tables (see docs/tables.md). Each is a
# Counter over one pass of the (filtered) record stream.

def _positives(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None,
    deaths: bool = False,
) -> Iterator[PatientRecord]:
    """Confirmed positives in the cohort; with ``deaths``, only those who died."""
    return (
        r for r in _filtered(records, cohort)
        if is_positive(r.classification) and (not deaths or r.death_date is not None)
    )


def classification_sex_tally(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CaseClassification, Sex]]:
    """All records by (final classification, sex). Feeds T1/T2."""
    return Counter((r.classification, r.sex) for r in _filtered(records, cohort))


def treatment_sex_tally(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
) -> Counter[tuple[Sex, TreatmentStrategy]]:
    """Confirmed positives by (sex, treatment strategy). Feeds T3."""
    return Counter((r.sex, r.treatment) for r in _positives(records, cohort))


class TreatmentSplit(NamedTuple):
    ambulatory: int
    hospitalized: int


def state_treatment_tally(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
) -> dict[int, TreatmentSplit]:
    """Confirmed positives by state, split ambulatory/hospitalized. Feeds T4."""
    tally = Counter((r.state_code, r.treatment) for r in _positives(records, cohort))
    return {
        state: TreatmentSplit(tally[state, TreatmentStrategy.AMBULATORY],
                              tally[state, TreatmentStrategy.HOSPITALIZED])
        for state in sorted({state for state, _ in tally})
    }


def intubation_sex_tally(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CodedFlag, Sex]]:
    """Confirmed positives by (intubation flag, sex). Feeds T5."""
    return Counter((r.intubated, r.sex) for r in _positives(records, cohort))


def death_classification_sex_tally(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CaseClassification, Sex]]:
    """Confirmed-positive deaths by (classification, sex). Feeds T6."""
    return Counter((r.classification, r.sex) for r in _positives(records, cohort, deaths=True))


def death_icu_sex_tally(
    records: Iterable[PatientRecord],
    cohort: CohortFilter | None = None,
) -> Counter[tuple[CodedFlag, Sex]]:
    """Confirmed-positive deaths by (ICU flag, sex). Feeds T7."""
    return Counter((r.icu, r.sex) for r in _positives(records, cohort, deaths=True))
