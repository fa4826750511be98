import dataclasses
import itertools
import random
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from episurv import metrics
from episurv.fixtures import random_patient_records, write_sveerv_csv
from episurv.ingest import SVEERV_COLUMNS, ingest_sveerv
from episurv.metrics import (
    GROUP_DIMENSIONS,
    AgeGroup,
    CaseCounts,
    CohortFilter,
    PositivityMode,
    RankMetric,
    SeverityCriterion,
    StrataTable,
    StratumKey,
    Subcohort,
    UndefinedForEmptyCohort,
    accumulate,
    age_group,
    build_report,
    comorbidity_profile,
    death_icu_sex_tally,
    fatality_rate,
    intubation_sex_tally,
    merge,
    positivity_index,
    rank_states,
    severity_rates,
    state_treatment_tally,
    stratified_report,
    treatment_sex_tally,
)
from episurv.ingest import _merge
from episurv.metrics import _strata_sums, _unpacked
from episurv.schema import (
    CaseClassification,
    CodedFlag,
    Sex,
    TreatmentStrategy,
)

from test_schema import make_record
from test_sharding import _shards


def counts_of(*records) -> CaseCounts:
    c = CaseCounts()
    for r in records:
        c.add(r)
    return c


def test_age_group_bin_edges():
    assert age_group(-1) is AgeGroup.Y0_20
    assert age_group(0) is AgeGroup.Y0_20
    assert age_group(20) is AgeGroup.Y0_20
    assert age_group(21) is AgeGroup.Y21_40
    assert age_group(40) is AgeGroup.Y21_40
    assert age_group(41) is AgeGroup.Y41_59
    assert age_group(59) is AgeGroup.Y41_59
    assert age_group(60) is AgeGroup.Y60_PLUS
    assert age_group(117) is AgeGroup.Y60_PLUS
    assert age_group(None) is AgeGroup.UNKNOWN


def test_add_routes_each_classification():
    by_class = {}
    for c in CaseClassification:
        by_class[c] = counts_of(make_record(classification=c))
    assert by_class[CaseClassification.CONFIRMED_BY_LAB].positive == 1
    assert by_class[CaseClassification.CONFIRMED_BY_ASSOCIATION].positive == 1
    assert by_class[CaseClassification.CONFIRMED_BY_COMMITTEE].positive == 1
    assert by_class[CaseClassification.NEGATIVE].negative == 1
    assert by_class[CaseClassification.SUSPECT].suspect == 1
    assert by_class[CaseClassification.INVALID_RESULT].invalid == 1
    assert by_class[CaseClassification.RESULT_NOT_PERFORMED].not_performed == 1
    for c, counts in by_class.items():
        assert counts.total == 1


def test_add_counts_positive_substrata_only_for_positives():
    dead_negative = make_record(
        classification=CaseClassification.NEGATIVE,
        treatment=TreatmentStrategy.HOSPITALIZED,
        icu=CodedFlag.YES,
        intubated=CodedFlag.YES,
        death_date=date(2021, 8, 1),
    )
    c = counts_of(dead_negative)
    assert c.total == 1 and c.negative == 1
    assert c.hospitalized_pos == 0
    assert c.icu_pos == 0
    assert c.deaths_pos == 0


def test_add_severe_fields():
    r = make_record(
        treatment=TreatmentStrategy.HOSPITALIZED,
        icu=CodedFlag.YES,
        intubated=CodedFlag.YES,
        death_date=date(2021, 8, 1),
    )
    c = counts_of(r)
    assert c.hospitalized_pos == 1
    assert c.icu_pos == 1
    assert c.intubated_pos == 1
    assert c.icu_and_intubated_pos == 1
    assert c.deaths_pos == 1
    assert c.deaths_icu_intubated_pos == 1


def test_escape_codes_do_not_count_as_icu():
    for flag in (CodedFlag.NO, CodedFlag.NOT_APPLICABLE, CodedFlag.IGNORED,
                 CodedFlag.UNSPECIFIED):
        c = counts_of(make_record(
            treatment=TreatmentStrategy.HOSPITALIZED, icu=flag, intubated=flag,
        ))
        assert c.icu_pos == 0 and c.intubated_pos == 0


def test_accumulate_is_pure():
    base = CaseCounts()
    out = accumulate(base, make_record())
    assert base.total == 0
    assert out.total == 1


def test_merge_identity_and_commutativity():
    records = random_patient_records(7, 40)
    a = counts_of(*records[:25])
    b = counts_of(*records[25:])
    assert merge(a, CaseCounts()) == a
    assert merge(a, b) == merge(b, a)
    assert merge(a, b) == counts_of(*records)


def test_fatality_rate_and_undefined():
    assert fatality_rate(CaseCounts()) is None
    only_negatives = counts_of(make_record(classification=CaseClassification.NEGATIVE))
    assert fatality_rate(only_negatives) is None
    c = counts_of(
        make_record(death_date=date(2021, 8, 1)),
        make_record(),
        make_record(),
        make_record(),
    )
    assert fatality_rate(c) == pytest.approx(25.0)


def test_positivity_modes_differ():
    c = counts_of(
        make_record(),  # positive
        make_record(classification=CaseClassification.NEGATIVE),
        make_record(classification=CaseClassification.SUSPECT),
        make_record(classification=CaseClassification.RESULT_NOT_PERFORMED),
    )
    assert positivity_index(c, PositivityMode.AGGREGATE) == pytest.approx(25.0)
    assert positivity_index(c, PositivityMode.LAB_NEGATIVE) == pytest.approx(50.0)
    assert positivity_index(CaseCounts()) is None
    only_suspect = counts_of(make_record(classification=CaseClassification.SUSPECT))
    assert positivity_index(only_suspect, PositivityMode.LAB_NEGATIVE) is None


def test_severity_criteria_disagree_when_flags_disagree():
    icu_only = make_record(treatment=TreatmentStrategy.HOSPITALIZED,
                           icu=CodedFlag.YES, intubated=CodedFlag.NO)
    tube_only = make_record(treatment=TreatmentStrategy.HOSPITALIZED,
                            icu=CodedFlag.NO, intubated=CodedFlag.YES)
    both = make_record(treatment=TreatmentStrategy.HOSPITALIZED,
                       icu=CodedFlag.YES, intubated=CodedFlag.YES)
    amb = make_record()
    c = counts_of(icu_only, tube_only, both, amb)
    t1, t2, t3 = severity_rates(c, SeverityCriterion.ICU_AND_INTUBATION)
    assert t3 == pytest.approx(25.0)
    _, _, t3_or = severity_rates(c, SeverityCriterion.ICU_OR_INTUBATION)
    assert t3_or == pytest.approx(75.0)
    _, _, t3_icu = severity_rates(c, SeverityCriterion.ICU_ONLY)
    assert t3_icu == pytest.approx(50.0)
    _, _, t3_tube = severity_rates(c, SeverityCriterion.INTUBATION_ONLY)
    assert t3_tube == pytest.approx(50.0)


def test_severity_rates_raise_on_empty_cohort():
    with pytest.raises(UndefinedForEmptyCohort):
        severity_rates(CaseCounts(), SeverityCriterion.ICU_AND_INTUBATION)
    only_negative = counts_of(make_record(classification=CaseClassification.NEGATIVE))
    with pytest.raises(UndefinedForEmptyCohort):
        severity_rates(only_negative)


@given(st.integers(0, 2**32 - 1))
def test_tgi_identity_property(seed):
    records = random_patient_records(seed, 80)
    c = counts_of(*records)
    if c.positive == 0:
        return
    for criterion in SeverityCriterion:
        t1, t2, t3 = severity_rates(c, criterion)
        assert t1 + t2 + t3 == pytest.approx(100.0, abs=1e-9)


def test_build_report_none_rates_for_empty():
    report = build_report(CaseCounts())
    assert report.fatality_pct is None
    assert report.positivity_pct is None
    assert report.tgi1_pct is None and report.tgi3_pct is None


def test_stratified_report_national_equals_leaf_merge():
    records = random_patient_records(11, 300)
    reports = stratified_report(records, group_by=("state", "sex"))
    national = reports[StratumKey()]
    folded = CaseCounts()
    for key, rep in reports.items():
        if key != StratumKey():
            folded = merge(folded, rep.counts)
    assert folded == national.counts
    assert national.counts.total == 300


# Each stratum axis as a function of a record, for the per-record oracle.
_AXES = {
    "state": lambda r: r.state_code,
    "municipality": lambda r: r.municipality_code,
    "sex": lambda r: r.sex,
    "age_group": lambda r: age_group(r.age_years),
}
_GROUP_BYS = [dims for k in range(1, len(GROUP_DIMENSIONS) + 1)
              for dims in itertools.combinations(GROUP_DIMENSIONS, k)]
# Cells that make a registry row rejected.
_REJECTS = [(SVEERV_COLUMNS.index("SEXO"), "abc"), (SVEERV_COLUMNS.index("FECHA_DEF"), "2020-13-01"),
            (SVEERV_COLUMNS.index("ENTIDAD_RES"), "x")]


@pytest.mark.parametrize("jobs", (1, 2, 3))
@pytest.mark.parametrize("criterion", SeverityCriterion)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       rejects=st.dictionaries(st.integers(0, 59), st.sampled_from(_REJECTS), max_size=8))
def test_each_stratum_equals_a_per_record_fold(tmp_path_factory, jobs, criterion, seed, n, rejects):
    """Every stratum of a sharded file's report, under every grouping and
    positivity mode, holds the CaseCounts.add fold of its own records, its
    own CaseCounts object, and build_report of those counts."""
    records = random_patient_records(seed, n)
    lines = write_sveerv_csv(records).decode("utf-8").splitlines()
    for i, (col, value) in rejects.items():
        if i < n:
            cells = lines[1 + i].split(",")
            cells[col] = value
            lines[1 + i] = ",".join(cells)
    path = tmp_path_factory.mktemp("strata") / "cases.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    accepted = [r for i, r in enumerate(records) if i not in rejects]
    for group_by, positivity in itertools.product(_GROUP_BYS, PositivityMode):
        expected = {}
        for r in accepted:
            expected.setdefault(StratumKey(**{dim: _AXES[dim](r) for dim in group_by}), CaseCounts()).add(r)
        expected[StratumKey()] = counts_of(*accepted)
        with _shards(jobs):
            reports = stratified_report(ingest_sveerv(path), group_by=group_by,
                                        criterion=criterion, positivity=positivity)
        assert list(reports)[-1] == StratumKey()
        assert {key: report.counts for key, report in reports.items()} == expected
        assert all(report == build_report(expected[key], criterion, positivity)
                   for key, report in reports.items())
        assert len({id(report.counts) for report in reports.values()}) == len(reports)


def test_packed_sums_are_exact_with_no_carry_between_lanes():
    """The strata roll-up holds each stratum's CaseCounts sums in one int,
    one 64-bit lane per field: rows sum into it by their group (counted
    by key first, or summed row by row once the count holds _ROLL_KEYS
    keys), parts (as shards send them) merge into it, sums just under
    2**64 unpack exactly, and a full lane carries nothing into its
    neighbour."""
    died = make_record(treatment=TreatmentStrategy.HOSPITALIZED, icu=CodedFlag.YES,
                       intubated=CodedFlag.YES, death_date=date(2021, 8, 1))
    negative = make_record(classification=CaseClassification.NEGATIVE)
    # Each cell dimension's key, per record.
    cells = [(r.classification, r.treatment, r.icu, r.intubated, r.death_date is not None)
             for r in (died, negative)]
    # Three rows, in two batches: died in group a, then negative in group a
    # and died in group b; the group is a StratumKey's state.
    a, b = StratumKey("a"), StratumKey("b")
    parts = []
    for roll_keys in (4096, 1):  # counted by key to the end, and summed by group from the second batch
        with mock.patch.object(metrics, "_ROLL_KEYS", roll_keys):
            roll, result = _strata_sums(["state"], SeverityCriterion.ICU_AND_INTUBATION, PositivityMode.AGGREGATE)
            roll([iter(["a"]), *map(iter, zip(cells[0]))], 1)
            roll([iter(["a", "b"]), *map(iter, zip(cells[1], cells[0]))], 2)
            parts.append(result())
    part, summed = parts
    assert isinstance(part, StrataTable) and isinstance(summed, StrataTable) and part == summed
    assert list(part) == list(summed) == [a, b] and all(type(key) is StratumKey for key in [*part, *summed])
    assert _unpacked(part[a]) == counts_of(died, negative) and _unpacked(part[b]) == counts_of(died)
    died_vector, negative_vector = part[b], part[a] - part[b]
    big, other, full = 2**63 + 5, 2**63 - 7, 2**64 - 1
    sums = _merge({}, [("a", big * died_vector), ("a", other * negative_vector), ("b", full * died_vector)])
    one_died, one_negative = dataclasses.astuple(counts_of(died)), dataclasses.astuple(counts_of(negative))
    assert _unpacked(sums["a"]) == CaseCounts(*[big * x + other * y for x, y in zip(one_died, one_negative)])
    assert _unpacked(sums["b"]) == CaseCounts(*[full * x for x in one_died])
    assert _unpacked(sums["a"]).total == 2**64 - 2 and _unpacked(sums["b"]).negative == 0


def test_stratified_report_age_group_dimension():
    records = [make_record(age_years=5), make_record(age_years=70),
               make_record(age_years=None)]
    reports = stratified_report(records, group_by=("age_group",))
    keys = {k.age_group for k in reports if k != StratumKey()}
    assert keys == {AgeGroup.Y0_20, AgeGroup.Y60_PLUS, AgeGroup.UNKNOWN}


def test_stratified_report_rejects_unknown_dimension():
    with pytest.raises(ValueError, match="group_by"):
        stratified_report([], group_by=("province",))


def test_cohort_filter_indigenous_and_states():
    records = [
        make_record(state_code=20, speaks_indigenous_language=CodedFlag.YES),
        make_record(state_code=20, speaks_indigenous_language=CodedFlag.NO),
        make_record(state_code=21, speaks_indigenous_language=CodedFlag.YES),
    ]
    both = stratified_report(records)[StratumKey()].counts
    assert both.total == 3
    indig = stratified_report(
        records, CohortFilter(indigenous_only=True))[StratumKey()].counts
    assert indig.total == 2
    oaxaca = stratified_report(
        records, CohortFilter(states=frozenset({20})))[StratumKey()].counts
    assert oaxaca.total == 2
    narrow = stratified_report(
        records, CohortFilter(indigenous_only=True, states=frozenset({21})),
    )[StratumKey()].counts
    assert narrow.total == 1


def test_cohort_filter_onset_window_excludes_unknown_onset():
    records = [
        make_record(symptom_onset_date=date(2021, 6, 1)),
        make_record(symptom_onset_date=date(2021, 9, 1)),
        make_record(symptom_onset_date=None),
    ]
    window = CohortFilter(onset_range=(date(2021, 5, 1), date(2021, 7, 1)))
    kept = [r for r in records if window.matches(r)]
    assert len(kept) == 1
    assert kept[0].symptom_onset_date == date(2021, 6, 1)


def test_cohort_filter_sexes_and_municipalities():
    records = [
        make_record(sex=Sex.FEMALE, municipality_code=1),
        make_record(sex=Sex.MALE, municipality_code=1),
        make_record(sex=Sex.FEMALE, municipality_code=2),
    ]
    f = CohortFilter(sexes=frozenset({Sex.FEMALE}))
    assert sum(f.matches(r) for r in records) == 2
    m1 = CohortFilter(municipalities=frozenset({1}))
    assert sum(m1.matches(r) for r in records) == 2


def test_rank_states_orders_and_breaks_ties_by_code():
    def state_records(code, n_pos, n_dead):
        out = []
        for i in range(n_pos):
            out.append(make_record(
                state_code=code,
                death_date=date(2021, 8, 1) if i < n_dead else None,
            ))
        return out

    records = (
        state_records(5, 10, 5)    # 50%
        + state_records(3, 10, 2)  # 20%
        + state_records(9, 10, 2)  # 20% tie, higher code
        + [make_record(state_code=7, classification=CaseClassification.NEGATIVE)]
    )
    reports = stratified_report(records, group_by=("state",))
    ranked = rank_states(reports, RankMetric.FATALITY)
    assert [code for code, _ in ranked] == [5, 3, 9]  # state 7 undefined, excluded
    assert ranked[0][1] == pytest.approx(50.0)


def test_rank_states_by_tgi3():
    records = (
        [make_record(state_code=1, treatment=TreatmentStrategy.HOSPITALIZED,
                     icu=CodedFlag.YES, intubated=CodedFlag.YES)]
        + [make_record(state_code=1) for _ in range(3)]
        + [make_record(state_code=2) for _ in range(4)]
    )
    reports = stratified_report(records, group_by=("state",))
    ranked = rank_states(reports, RankMetric.TGI3)
    assert ranked[0] == (1, pytest.approx(25.0))
    assert ranked[1] == (2, pytest.approx(0.0))


def test_comorbidity_profile_counts_yes_in_subcohort_only():
    severe_death = make_record(
        treatment=TreatmentStrategy.HOSPITALIZED,
        icu=CodedFlag.YES, intubated=CodedFlag.YES,
        death_date=date(2021, 8, 1), age_years=64,
        comorbidities={name: CodedFlag.NO for name in
                       ("copd", "asthma", "immunosuppression", "hypertension",
                        "cardiovascular", "obesity", "chronic_renal")}
        | {"diabetes": CodedFlag.YES, "smoking": CodedFlag.YES,
           "pneumonia": CodedFlag.IGNORED},
    )
    plain_death = make_record(
        death_date=date(2021, 8, 1), age_years=30,
        comorbidities={name: CodedFlag.YES for name in
                       ("diabetes", "copd", "asthma", "immunosuppression",
                        "hypertension", "cardiovascular", "obesity",
                        "chronic_renal", "smoking", "pneumonia")},
    )
    profile = comorbidity_profile([severe_death, plain_death])
    # default subcohort is deaths with ICU and intubation: only the first row
    assert profile == {
        ("diabetes", AgeGroup.Y60_PLUS): 1,
        ("smoking", AgeGroup.Y60_PLUS): 1,
    }
    wider = comorbidity_profile([severe_death, plain_death],
                                subcohort=Subcohort.DEATHS_POSITIVE)
    assert wider[("diabetes", AgeGroup.Y60_PLUS)] == 1
    assert wider[("diabetes", AgeGroup.Y21_40)] == 1
    assert comorbidity_profile([]) == {}


def test_comorbidity_profile_hospitalized_subcohort():
    hospitalized = make_record(
        treatment=TreatmentStrategy.HOSPITALIZED, icu=CodedFlag.NO,
        intubated=CodedFlag.NO, age_years=50,
        comorbidities={"obesity": CodedFlag.YES},
    )
    profile = comorbidity_profile(
        [hospitalized], subcohort=Subcohort.HOSPITALIZED_POSITIVE)
    assert profile == {("obesity", AgeGroup.Y41_59): 1}


def test_tallies_small_cohort():
    records = [
        make_record(sex=Sex.FEMALE),
        make_record(sex=Sex.MALE, treatment=TreatmentStrategy.HOSPITALIZED,
                    icu=CodedFlag.YES, intubated=CodedFlag.YES,
                    death_date=date(2021, 8, 1), state_code=31),
        make_record(sex=Sex.MALE, classification=CaseClassification.NEGATIVE),
    ]
    t3 = treatment_sex_tally(records)
    assert t3 == {(Sex.FEMALE, TreatmentStrategy.AMBULATORY): 1,
                  (Sex.MALE, TreatmentStrategy.HOSPITALIZED): 1}
    t4 = state_treatment_tally(records)
    assert t4[20].ambulatory == 1 and t4[31].hospitalized == 1
    t5 = intubation_sex_tally(records)
    assert t5[(CodedFlag.YES, Sex.MALE)] == 1
    t7 = death_icu_sex_tally(records)
    assert t7 == {(CodedFlag.YES, Sex.MALE): 1}


def test_stratified_single_pass_accepts_generator():
    # the reader yields once; stratified_report must not need a second pass
    records = iter(random_patient_records(3, 50))
    reports = stratified_report(records, group_by=("sex",))
    assert reports[StratumKey()].counts.total == 50
