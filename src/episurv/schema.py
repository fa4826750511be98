"""Coded-value domains for Mexico's viral-respiratory case registry.

The open-data snapshots encode nearly every column as small integers: a 1-7
final classification, 1/2 yes-no flags with 97/98/99 escape codes, sex as
1/2/99, and a "9999-99-99" sentinel standing in for "still alive" in the
death-date column. This module owns those domains, the decoded enums, and the
record type the rest of the package consumes.
"""

from dataclasses import dataclass
from datetime import date
from enum import Enum, IntEnum

__all__ = [
    "MAX_AGE",
    "ALIVE_SENTINEL",
    "COMORBIDITY_FIELDS",
    "STATE_NAMES",
    "CaseClassification",
    "CodedFlag",
    "TreatmentStrategy",
    "Sex",
    "SEX_CODES",
    "SuspectType",
    "LabSampleStatus",
    "PatientRecord",
    "is_positive",
    "suspect_type",
]

# Registry guard: ages above this are treated as entry errors, not outliers.
MAX_AGE = 130

# Death-date column value meaning "no death recorded".
ALIVE_SENTINEL = "9999-99-99"


class CaseClassification(IntEnum):
    """CLASIFICACION_FINAL codes 1-7.

    Codes 1-3 are the three confirmation routes (epidemiological association,
    dictamination committee, laboratory/antigen test); 4-7 cover invalid,
    not-performed, suspect and negative results.
    """

    CONFIRMED_BY_ASSOCIATION = 1
    CONFIRMED_BY_COMMITTEE = 2
    CONFIRMED_BY_LAB = 3
    INVALID_RESULT = 4
    RESULT_NOT_PERFORMED = 5
    SUSPECT = 6
    NEGATIVE = 7


#: Classifications counted as confirmed positives.
POSITIVE_CLASSIFICATIONS = frozenset(
    {
        CaseClassification.CONFIRMED_BY_ASSOCIATION,
        CaseClassification.CONFIRMED_BY_COMMITTEE,
        CaseClassification.CONFIRMED_BY_LAB,
    }
)


class CodedFlag(IntEnum):
    """Yes/no columns with the registry's escape codes."""

    YES = 1
    NO = 2
    NOT_APPLICABLE = 97
    IGNORED = 98
    UNSPECIFIED = 99


class TreatmentStrategy(IntEnum):
    """TIPO_PACIENTE: where the case was managed."""

    AMBULATORY = 1
    HOSPITALIZED = 2


class Sex(Enum):
    FEMALE = "female"
    MALE = "male"
    UNSPECIFIED = "unspecified"


#: SEXO codes; the reader takes any other integer as unspecified.
SEX_CODES = {1: Sex.FEMALE, 2: Sex.MALE, 99: Sex.UNSPECIFIED}


class SuspectType(Enum):
    """Operational suspect-case confirmation routes."""

    BY_ASSOCIATION = 1
    BY_COMMITTEE = 2
    BY_LAB = 3


class LabSampleStatus(Enum):
    """Whether a usable laboratory/antigen sample exists for the case."""

    TAKEN = "taken"
    INVALID = "invalid"
    NOT_TAKEN = "not_taken"


# Comorbidity record fields in canonical order, with their registry columns.
COMORBIDITY_FIELDS = (
    "diabetes",
    "copd",
    "asthma",
    "immunosuppression",
    "hypertension",
    "cardiovascular",
    "obesity",
    "chronic_renal",
    "smoking",
    "pneumonia",
)

COMORBIDITY_COLUMNS = {
    "diabetes": "DIABETES",
    "copd": "EPOC",
    "asthma": "ASMA",
    "immunosuppression": "INMUSUPR",
    "hypertension": "HIPERTENSION",
    "cardiovascular": "CARDIOVASCULAR",
    "obesity": "OBESIDAD",
    "chronic_renal": "RENAL_CRONICA",
    "smoking": "TABAQUISMO",
    "pneumonia": "NEUMONIA",
}

# ENTIDAD codes 1-32 (residence state).
STATE_NAMES = {
    1: "Aguascalientes",
    2: "Baja California",
    3: "Baja California Sur",
    4: "Campeche",
    5: "Coahuila",
    6: "Colima",
    7: "Chiapas",
    8: "Chihuahua",
    9: "Ciudad de Mexico",
    10: "Durango",
    11: "Guanajuato",
    12: "Guerrero",
    13: "Hidalgo",
    14: "Jalisco",
    15: "Mexico",
    16: "Michoacan",
    17: "Morelos",
    18: "Nayarit",
    19: "Nuevo Leon",
    20: "Oaxaca",
    21: "Puebla",
    22: "Queretaro",
    23: "Quintana Roo",
    24: "San Luis Potosi",
    25: "Sinaloa",
    26: "Sonora",
    27: "Tabasco",
    28: "Tamaulipas",
    29: "Tlaxcala",
    30: "Veracruz",
    31: "Yucatan",
    32: "Zacatecas",
}


@dataclass(slots=True)
class PatientRecord:
    """One decoded registry row.

    ``age_years`` is None when the age column is empty (unknown).
    ``death_date`` is None when the row carries the alive sentinel.
    ``symptom_onset_date`` is None when onset was not recorded.
    ``comorbidities`` maps each name in COMORBIDITY_FIELDS to a CodedFlag.
    """

    state_code: int
    municipality_code: int
    sex: Sex
    age_years: int | None
    speaks_indigenous_language: CodedFlag
    treatment: TreatmentStrategy
    icu: CodedFlag
    intubated: CodedFlag
    death_date: date | None
    classification: CaseClassification
    symptom_onset_date: date | None
    comorbidities: dict[str, CodedFlag]

    @property
    def died(self) -> bool:
        return self.death_date is not None


def is_positive(classification: CaseClassification) -> bool:
    """True for the three confirmation routes (codes 1-3)."""
    return classification in POSITIVE_CLASSIFICATIONS


def suspect_type(
    record: PatientRecord,
    lab_sample: LabSampleStatus,
    epi_association: bool,
) -> SuspectType | None:
    """Resolve the operational confirmation route for a suspect case.

    Rules form an ordered cascade:

    1. BY_ASSOCIATION: the case reported contact with a confirmed case and no
       usable sample exists (not taken, or taken but invalid).
    2. BY_COMMITTEE: the case died and no usable sample exists.
    3. BY_LAB: a usable sample exists and the case classified positive,
       regardless of epidemiological association.

    Returns None when no rule applies. Callers should pass suspect or
    confirmed cases; the function does not reclassify negatives.
    """
    usable = lab_sample is LabSampleStatus.TAKEN
    if epi_association and not usable:
        return SuspectType.BY_ASSOCIATION
    if record.died and not usable:
        return SuspectType.BY_COMMITTEE
    if usable and is_positive(record.classification):
        return SuspectType.BY_LAB
    return None
