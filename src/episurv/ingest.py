"""Streaming, validating readers for the two input formats.

Both readers make a single pass over their source, decode each row into a
typed record, and never buffer the file: iterating yields either a decoded
record or a RowError describing why that row was skipped. Counters accumulate
in an IngestStats that is complete once iteration finishes.

Sharding: callers may split a file's data rows into chunks (keeping the
header with each chunk), ingest the chunks independently, and merge the
resulting stats and downstream accumulators; results equal a whole-file pass.
"""

import csv
import io
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import BinaryIO, Iterator, Union

from .schema import (
    ALIVE_SENTINEL,
    COMORBIDITY_COLUMNS,
    COMORBIDITY_FIELDS,
    MAX_AGE,
    CaseClassification,
    CodedFlag,
    PatientRecord,
    Sex,
    TreatmentStrategy,
)

__all__ = [
    "MissingRequiredColumn",
    "RowError",
    "IngestStats",
    "SampleRecord",
    "SveervStream",
    "GisaidStream",
    "ingest_sveerv",
    "ingest_gisaid",
    "validate_report",
    "LINEAGE_RE",
]

Source = Union[str, Path, bytes, BinaryIO]

# Pango lineage grammar: alphabetic alias, then dot-separated numeric steps.
LINEAGE_RE = re.compile(r"^[A-Za-z]+(\.\d+)*$")

SVEERV_COLUMNS = (
    "ENTIDAD_RES",
    "MUNICIPIO_RES",
    "SEXO",
    "EDAD",
    "HABLA_LENGUA_INDIG",
    "TIPO_PACIENTE",
    "UCI",
    "INTUBADO",
    "FECHA_DEF",
    "CLASIFICACION_FINAL",
    "FECHA_SINTOMAS",
) + tuple(COMORBIDITY_COLUMNS[name] for name in COMORBIDITY_FIELDS)

GISAID_COLUMNS = (
    "accession",
    "date",
    "division",
    "pango_lineage",
    "clade",
    "patient_status",
    "age",
    "sex",
    "vaccine",
)

# Common export spellings mapped onto the canonical metadata header.
_GISAID_ALIASES = {
    "accession_id": "accession",
    "collection_date": "date",
    "location": "division",
    "state": "division",
    "pangolin_lineage": "pango_lineage",
    "lineage": "pango_lineage",
    "gisaid_clade": "clade",
    "patient_age": "age",
    "gender": "sex",
    "vaccine_type": "vaccine",
    "type_of_vaccine": "vaccine",
}


class MissingRequiredColumn(ValueError):
    """The header lacks one or more required columns; the file is unusable."""

    def __init__(self, columns: list[str]):
        super().__init__(f"missing required column(s): {', '.join(columns)}")
        self.columns = columns


@dataclass(slots=True, frozen=True)
class RowError:
    """One skipped row: its 1-based line number, a reason tag, and detail."""

    line_no: int
    reason: str
    detail: str = ""


@dataclass(slots=True)
class IngestStats:
    rows_read: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0

    def merge(self, other: "IngestStats") -> "IngestStats":
        """Field-wise sum; shard stats merge to the whole-file stats."""
        reasons = dict(self.rejection_reasons)
        for reason, n in other.rejection_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + n
        return IngestStats(
            rows_read=self.rows_read + other.rows_read,
            rows_accepted=self.rows_accepted + other.rows_accepted,
            rows_rejected=self.rows_rejected + other.rows_rejected,
            rejection_reasons=reasons,
            bytes_read=self.bytes_read + other.bytes_read,
        )


@dataclass(slots=True)
class SampleRecord:
    """One genomic-surveillance metadata row.

    ``patient_status`` is preserved verbatim; bucketing happens downstream.
    ``collection_date`` and ``age_years`` are None when unparseable: metadata
    exports are messy and only lineage problems reject a row.
    """

    accession: str
    collection_date: date | None
    state: str
    pango_lineage: str
    gisaid_clade: str
    patient_status: str
    age_years: int | None
    sex: Sex
    vaccine: str | None


class _Reject(Exception):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail


def _open_source(source: Source) -> tuple[BinaryIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "rb"), True
    if isinstance(source, bytes):
        return io.BytesIO(source), False
    return source, False


def _decoded_lines(raw: BinaryIO, encoding: str, stats: IngestStats) -> Iterator[str]:
    # Per-line decode with a latin-1 fallback: exports mix encodings and a
    # stray byte must not reject the row. latin-1 never fails.
    for line in raw:
        stats.bytes_read += len(line)
        try:
            yield line.decode(encoding)
        except UnicodeDecodeError:
            yield line.decode("latin-1")


def _resolve_header(
    header: list[str],
    required: tuple[str, ...],
    aliases: dict[str, str] | None = None,
) -> dict[str, int]:
    """Case-insensitive column lookup. Raises MissingRequiredColumn."""
    positions: dict[str, int] = {}
    for idx, cell in enumerate(header):
        name = cell.strip().lstrip("﻿").lower().replace(" ", "_")
        if aliases:
            name = aliases.get(name, name)
        if name not in positions:  # first occurrence wins
            positions[name] = idx
    missing = [col for col in required if col.lower() not in positions]
    if missing:
        raise MissingRequiredColumn(missing)
    return {col: positions[col.lower()] for col in required}


# Raw-string decode tables; the fallback path handles uncommon spellings.
_FLAG_BY_STR = {str(f.value): f for f in CodedFlag}
_CLASS_BY_STR = {str(c.value): c for c in CaseClassification}
_TREAT_BY_STR = {str(t.value): t for t in TreatmentStrategy}
_SEX_BY_STR = {"1": Sex.FEMALE, "2": Sex.MALE}


def _parse_int(raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _Reject("BadInteger", f"{column}={raw!r}") from None


def _parse_flag(raw: str, column: str) -> CodedFlag:
    flag = _FLAG_BY_STR.get(raw)
    if flag is None:
        flag = _FLAG_BY_STR.get(raw.strip())
        if flag is None:
            raise _Reject("UnknownCode", f"{column}={raw!r}")
    return flag


def _parse_date(raw: str, column: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise _Reject("BadDate", f"{column}={raw!r}") from None


class SveervStream:
    """Single-pass reader over a case-registry CSV.

    Iterating yields PatientRecord for accepted rows and RowError for skipped
    ones. ``stats`` is live during iteration and final afterwards.
    """

    def __init__(self, source: Source, *, delimiter: str = ",", encoding: str = "utf-8"):
        self.stats = IngestStats()
        self._raw, self._owns = _open_source(source)
        self._lines = _decoded_lines(self._raw, encoding, self.stats)
        self._reader = csv.reader(self._lines, delimiter=delimiter)
        try:
            header = next(self._reader)
        except StopIteration:
            header = []
        self._cols = _resolve_header(header, SVEERV_COLUMNS)

    def __iter__(self) -> Iterator[PatientRecord | RowError]:
        cols = self._cols
        idx = [cols[c] for c in SVEERV_COLUMNS]
        (i_state, i_muni, i_sex, i_age, i_indig, i_type, i_icu, i_intub,
         i_def, i_clasif, i_onset) = idx[:11]
        como_idx = idx[11:]
        ncols = max(idx) + 1
        stats = self.stats
        reasons = stats.rejection_reasons
        line_no = 1  # header was line 1
        try:
            for row in self._reader:
                line_no += 1
                if not row:
                    continue
                stats.rows_read += 1
                try:
                    if len(row) < ncols:
                        raise _Reject("FieldCount", f"{len(row)} fields")
                    classification = _CLASS_BY_STR.get(row[i_clasif])
                    if classification is None:
                        raise _Reject(
                            "UnknownCode", f"CLASIFICACION_FINAL={row[i_clasif]!r}"
                        )
                    state = _parse_int(row[i_state], "ENTIDAD_RES")
                    if not 1 <= state <= 32:
                        raise _Reject("UnknownCode", f"ENTIDAD_RES={state}")
                    sex_raw = row[i_sex]
                    sex = _SEX_BY_STR.get(sex_raw)
                    if sex is None:
                        _parse_int(sex_raw, "SEXO")  # non-integer rejects
                        sex = Sex.UNSPECIFIED
                    age_raw = row[i_age]
                    if age_raw == "":
                        age = None
                    else:
                        age = _parse_int(age_raw, "EDAD")
                        if not 0 <= age <= MAX_AGE:
                            raise _Reject("AgeOutOfRange", f"EDAD={age}")
                    treatment = _TREAT_BY_STR.get(row[i_type])
                    if treatment is None:
                        raise _Reject("UnknownCode", f"TIPO_PACIENTE={row[i_type]!r}")
                    def_raw = row[i_def]
                    death = None if def_raw == ALIVE_SENTINEL else _parse_date(def_raw, "FECHA_DEF")
                    onset_raw = row[i_onset]
                    if onset_raw == "" or onset_raw == ALIVE_SENTINEL:
                        onset = None
                    else:
                        onset = _parse_date(onset_raw, "FECHA_SINTOMAS")
                    record = PatientRecord(
                        state_code=state,
                        municipality_code=_parse_int(row[i_muni], "MUNICIPIO_RES"),
                        sex=sex,
                        age_years=age,
                        speaks_indigenous_language=_parse_flag(row[i_indig], "HABLA_LENGUA_INDIG"),
                        treatment=treatment,
                        icu=_parse_flag(row[i_icu], "UCI"),
                        intubated=_parse_flag(row[i_intub], "INTUBADO"),
                        death_date=death,
                        classification=classification,
                        symptom_onset_date=onset,
                        comorbidities={
                            name: _parse_flag(row[i], COMORBIDITY_COLUMNS[name])
                            for name, i in zip(COMORBIDITY_FIELDS, como_idx)
                        },
                    )
                except _Reject as exc:
                    stats.rows_rejected += 1
                    reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
                    yield RowError(line_no, exc.reason, exc.detail)
                else:
                    stats.rows_accepted += 1
                    yield record
        finally:
            if self._owns:
                self._raw.close()

    def records(self) -> Iterator[PatientRecord]:
        """Accepted records only; rejected rows are still counted in stats."""
        return (item for item in self if not isinstance(item, RowError))


def _parse_gisaid_age(raw: str) -> int | None:
    raw = raw.strip()
    if not raw:
        return None
    try:
        value = int(float(raw))
    except (ValueError, OverflowError):  # int() raises these for nan and for inf/1e400
        return None
    return value if 0 <= value <= MAX_AGE else None


_GISAID_SEX = {
    "female": Sex.FEMALE, "f": Sex.FEMALE, "mujer": Sex.FEMALE,
    "male": Sex.MALE, "m": Sex.MALE, "hombre": Sex.MALE,
}


class GisaidStream:
    """Single-pass reader over genomic metadata (tab- or comma-separated).

    The delimiter is sniffed from the header line. Only structural lineage
    problems reject a row; other messy fields degrade to Unknown values.
    """

    def __init__(self, source: Source, *, encoding: str = "utf-8"):
        self.stats = IngestStats()
        self._raw, self._owns = _open_source(source)
        self._lines = _decoded_lines(self._raw, encoding, self.stats)
        try:
            header_line = next(self._lines)
        except StopIteration:
            header_line = ""
        delimiter = "\t" if "\t" in header_line else ","
        header = next(csv.reader([header_line], delimiter=delimiter), [])
        self._cols = _resolve_header(header, GISAID_COLUMNS, _GISAID_ALIASES)
        self._reader = csv.reader(self._lines, delimiter=delimiter)

    def __iter__(self) -> Iterator[SampleRecord | RowError]:
        c = self._cols
        i_acc, i_date, i_div, i_lin, i_clade, i_status, i_age, i_sex, i_vax = (
            c[name] for name in GISAID_COLUMNS
        )
        ncols = max(c.values()) + 1
        stats = self.stats
        reasons = stats.rejection_reasons
        line_no = 1
        try:
            for row in self._reader:
                line_no += 1
                if not row:
                    continue
                stats.rows_read += 1
                try:
                    if len(row) < ncols:
                        raise _Reject("FieldCount", f"{len(row)} fields")
                    lineage = row[i_lin].strip()
                    if not lineage:
                        raise _Reject("EmptyLineage")
                    if not LINEAGE_RE.match(lineage):
                        raise _Reject("MalformedLineage", f"pango_lineage={lineage!r}")
                    try:
                        when = date.fromisoformat(row[i_date].strip())
                    except ValueError:
                        when = None
                    vaccine = row[i_vax].strip()
                    record = SampleRecord(
                        accession=row[i_acc].strip(),
                        collection_date=when,
                        state=row[i_div].strip(),
                        pango_lineage=lineage,
                        gisaid_clade=row[i_clade].strip(),
                        patient_status=row[i_status],
                        age_years=_parse_gisaid_age(row[i_age]),
                        sex=_GISAID_SEX.get(row[i_sex].strip().casefold(), Sex.UNSPECIFIED),
                        vaccine=vaccine or None,
                    )
                except _Reject as exc:
                    stats.rows_rejected += 1
                    reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
                    yield RowError(line_no, exc.reason, exc.detail)
                else:
                    stats.rows_accepted += 1
                    yield record
        finally:
            if self._owns:
                self._raw.close()

    def records(self) -> Iterator[SampleRecord]:
        return (item for item in self if not isinstance(item, RowError))


def ingest_sveerv(source: Source, *, delimiter: str = ",", encoding: str = "utf-8") -> SveervStream:
    """Open a case-registry CSV for streaming ingestion.

    Raises MissingRequiredColumn immediately if the header is unusable.
    """
    return SveervStream(source, delimiter=delimiter, encoding=encoding)


def ingest_gisaid(source: Source, *, encoding: str = "utf-8") -> GisaidStream:
    """Open a genomic-metadata file (TSV or CSV) for streaming ingestion."""
    return GisaidStream(source, encoding=encoding)


def validate_report(stats: IngestStats) -> str:
    """Deterministic plain-text summary of an ingestion pass."""
    lines = [
        f"rows read:     {stats.rows_read}",
        f"rows accepted: {stats.rows_accepted}",
        f"rows rejected: {stats.rows_rejected}",
        f"bytes read:    {stats.bytes_read}",
    ]
    if stats.rejection_reasons:
        lines.append("rejections by reason:")
        by_count = sorted(stats.rejection_reasons.items(), key=lambda kv: (-kv[1], kv[0]))
        lines.extend(f"  {reason}: {n}" for reason, n in by_count)
    return "\n".join(lines) + "\n"
