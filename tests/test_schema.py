"""The coded domains and the record type.

Each coded domain is decoded in one place, the registry reader's column
decoders, so the domain tests read one registry row through ``ingest``.
"""

import copy
import pickle
from datetime import date

import pytest

import episurv.metrics
from episurv import schema
from episurv.genomics import StatusBucket
from episurv.ingest import RowError, ingest_sveerv
from episurv.schema import (
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


def test_metrics_reexports_the_age_domain():
    assert episurv.metrics.AgeGroup is AgeGroup
    assert episurv.metrics.age_group is age_group


@pytest.mark.parametrize("enum", [Sex, AgeGroup, StatusBucket])
def test_hashed_members_compare_pickle_and_look_up_as_before(enum):
    """Sex and AgeGroup hash by identity, in C; StatusBucket by its name.
    Either way a member equals only itself, survives a pickle round trip as
    itself, and is found by value, by name, and as a dict or set key by
    itself or by its unpickled copy."""
    members = list(enum)
    assert [member.name for member in members] == list(enum.__members__)
    for i, member in enumerate(members):
        assert member == member and member is enum(member.value) is enum[member.name]
        assert member != member.value and all(member != other for other in members[:i])
        assert hash(member) == hash(member)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member
        assert copy.copy(member) is member and copy.deepcopy(member) is member
    table = {member: i for i, member in enumerate(members)}
    assert [table[pickle.loads(pickle.dumps(member))] for member in members] == list(range(len(members)))
    assert all(member in frozenset(members) and member.value not in frozenset(members) for member in members)
    assert table.get(members[0].value) is None


@pytest.mark.parametrize("name", ["PositivityMode", "SeverityCriterion", "Subcohort", "RankMetric",
                                  "StratumKey", "GROUP_DIMENSIONS"])
def test_a_table_option_domain_is_defined_here_and_re_exported_by_metrics(name):
    assert getattr(episurv.metrics, name) is getattr(schema, name)
    assert name in schema.__all__ and name in episurv.metrics.__all__


# [ICU_ONLY, LAB_NEGATIVE, DEATHS_POSITIVE, TGI3, StratumKey(21, None, MALE,
# Y60_PLUS)], pickled (protocol 5) when these domains were defined in
# episurv.metrics.
_PICKLED_FROM_METRICS = (
    b"\x80\x05\x95\xfc\x00\x00\x00\x00\x00\x00\x00]\x94(\x8c\x0fepisurv.metrics\x94\x8c\x11SeverityCriterion"
    b"\x94\x93\x94\x8c\x08icu-only\x94\x85\x94R\x94h\x01\x8c\x0ePositivityMode\x94\x93\x94\x8c\x0clab-negative"
    b"\x94\x85\x94R\x94h\x01\x8c\tSubcohort\x94\x93\x94\x8c\x0fdeaths-positive\x94\x85\x94R\x94h\x01\x8c\n"
    b"RankMetric\x94\x93\x94\x8c\x04tgi3\x94\x85\x94R\x94h\x01\x8c\nStratumKey\x94\x93\x94(K\x15N\x8c\x0e"
    b"episurv.schema\x94\x8c\x03Sex\x94\x93\x94\x8c\x04male\x94\x85\x94R\x94h\x18\x8c\x08AgeGroup\x94\x93\x94"
    b"\x8c\x0360+\x94\x85\x94R\x94t\x94\x81\x94e."
)


def test_the_table_option_domains_pickle_as_before():
    """Members and strata keys round-trip equal, as themselves or as
    StratumKeys, and a pickle that names the old module path still loads."""
    values = [*PositivityMode, *SeverityCriterion, *Subcohort, *RankMetric,
              StratumKey(), StratumKey(21, 3, Sex.MALE, AgeGroup.Y60_PLUS)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies = pickle.loads(pickle.dumps(values, protocol))
        assert copies == values and list(map(type, copies)) == list(map(type, values))
        assert all(twin is value for twin, value in zip(copies, values) if not isinstance(value, tuple))
    old = pickle.loads(_PICKLED_FROM_METRICS)
    assert old == [SeverityCriterion.ICU_ONLY, PositivityMode.LAB_NEGATIVE, Subcohort.DEATHS_POSITIVE, RankMetric.TGI3,
                   StratumKey(21, None, Sex.MALE, AgeGroup.Y60_PLUS)]
    assert type(old[-1]) is StratumKey
