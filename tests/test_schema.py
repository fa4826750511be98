"""The coded domains, the record type and the suspect-type cascade.

Each coded domain is decoded in one place, the registry reader's column
decoders, so the domain tests read one registry row through ``ingest``.
"""

from datetime import date

import pytest

import episurv.metrics
from episurv.ingest import RowError, ingest_sveerv
from episurv.schema import (
    AgeGroup,
    CaseClassification,
    CodedFlag,
    LabSampleStatus,
    PatientRecord,
    Sex,
    SuspectType,
    TreatmentStrategy,
    age_group,
    is_positive,
    suspect_type,
)
from test_ingest import csv_bytes, row


def _read(**cells: str) -> PatientRecord | RowError:
    """What the reader makes of one registry row with ``cells`` set."""
    [item] = ingest_sveerv(csv_bytes(row(**cells)))
    return item


def make_record(**overrides) -> PatientRecord:
    base = dict(
        state_code=20,
        municipality_code=1,
        sex=Sex.FEMALE,
        age_years=34,
        speaks_indigenous_language=CodedFlag.YES,
        treatment=TreatmentStrategy.AMBULATORY,
        icu=CodedFlag.NOT_APPLICABLE,
        intubated=CodedFlag.NOT_APPLICABLE,
        death_date=None,
        classification=CaseClassification.CONFIRMED_BY_LAB,
        symptom_onset_date=date(2021, 7, 1),
        comorbidities={},
    )
    base.update(overrides)
    return PatientRecord(**base)


def test_decode_classification_valid_codes():
    assert _read(CLASIFICACION_FINAL="1").classification is CaseClassification.CONFIRMED_BY_ASSOCIATION
    assert _read(CLASIFICACION_FINAL="2").classification is CaseClassification.CONFIRMED_BY_COMMITTEE
    assert _read(CLASIFICACION_FINAL="3").classification is CaseClassification.CONFIRMED_BY_LAB
    assert _read(CLASIFICACION_FINAL="7").classification is CaseClassification.NEGATIVE


@pytest.mark.parametrize("code", [0, 8, -1, 99])
def test_decode_classification_rejects_unknown(code):
    assert _read(CLASIFICACION_FINAL=str(code)) == RowError(2, "UnknownCode", f"CLASIFICACION_FINAL='{code}'")


def test_decode_flag_domain():
    assert _read(UCI="1").icu is CodedFlag.YES
    assert _read(UCI="2").icu is CodedFlag.NO
    assert _read(UCI="97").icu is CodedFlag.NOT_APPLICABLE
    assert _read(UCI="98").icu is CodedFlag.IGNORED
    assert _read(UCI="99").icu is CodedFlag.UNSPECIFIED
    assert _read(UCI="3") == RowError(2, "UnknownCode", "UCI='3'")


def test_decode_treatment():
    assert _read(TIPO_PACIENTE="1").treatment is TreatmentStrategy.AMBULATORY
    assert _read(TIPO_PACIENTE="2").treatment is TreatmentStrategy.HOSPITALIZED
    assert _read(TIPO_PACIENTE="3") == RowError(2, "UnknownCode", "TIPO_PACIENTE='3'")


def test_decode_sex_never_raises():
    # 99 is the documented unspecified code but any other integer folds there too
    assert _read(SEXO="1").sex is Sex.FEMALE
    assert _read(SEXO="2").sex is Sex.MALE
    assert _read(SEXO="99").sex is Sex.UNSPECIFIED
    assert _read(SEXO="0").sex is Sex.UNSPECIFIED


def test_is_positive_partition():
    positive = {1, 2, 3}
    for c in CaseClassification:
        assert is_positive(c) == (c.value in positive)


def test_died_property_follows_death_date():
    assert not make_record().died
    assert make_record(death_date=date(2021, 8, 1)).died


class TestSuspectType:
    def test_association_without_usable_sample(self):
        r = make_record(classification=CaseClassification.SUSPECT)
        assert suspect_type(r, LabSampleStatus.NOT_TAKEN, True) is SuspectType.BY_ASSOCIATION
        assert suspect_type(r, LabSampleStatus.INVALID, True) is SuspectType.BY_ASSOCIATION

    def test_association_beats_committee_when_both_apply(self):
        r = make_record(
            classification=CaseClassification.SUSPECT,
            death_date=date(2021, 8, 2),
        )
        assert suspect_type(r, LabSampleStatus.NOT_TAKEN, True) is SuspectType.BY_ASSOCIATION

    def test_committee_for_deceased_without_sample(self):
        r = make_record(
            classification=CaseClassification.SUSPECT,
            death_date=date(2021, 8, 2),
        )
        assert suspect_type(r, LabSampleStatus.NOT_TAKEN, False) is SuspectType.BY_COMMITTEE
        assert suspect_type(r, LabSampleStatus.INVALID, False) is SuspectType.BY_COMMITTEE

    def test_lab_route_needs_usable_sample_and_positive(self):
        r = make_record(classification=CaseClassification.CONFIRMED_BY_LAB)
        assert suspect_type(r, LabSampleStatus.TAKEN, False) is SuspectType.BY_LAB
        # association does not preempt the lab route when the sample is usable
        assert suspect_type(r, LabSampleStatus.TAKEN, True) is SuspectType.BY_LAB

    def test_no_rule_applies(self):
        alive_negative = make_record(classification=CaseClassification.NEGATIVE)
        assert suspect_type(alive_negative, LabSampleStatus.TAKEN, False) is None
        assert suspect_type(alive_negative, LabSampleStatus.NOT_TAKEN, False) is None


def test_metrics_reexports_the_age_domain():
    assert episurv.metrics.AgeGroup is AgeGroup
    assert episurv.metrics.age_group is age_group
