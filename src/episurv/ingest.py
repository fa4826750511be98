"""Streaming, validating readers for the two input formats.

Both readers make a single pass over their source, decode each row into a
typed record, and never buffer the file: iterating yields either a decoded
record or a RowError describing why that row was skipped. Counters accumulate
in an IngestStats that is complete once iteration finishes. A RowError's
line number is the physical line its record starts on, so it stays right
after quoted fields that span lines.

Case registries also have a batch path, ``SveervStream.count``: it pulls
BATCH_ROWS rows at a time, transposes them into columns, checks each column
through the batch's distinct raw values (each distinct value is decoded once
per run), and counts the accepted rows by the requested dimensions in C,
without building a PatientRecord. Rows that are short or hold a value their
column rejects go through the same per-row decoder that iterating uses, so
both paths accept, reject and name reasons identically. The case-table
functions in ``episurv.metrics`` take this path when handed a SveervStream.

Whitespace: every coded and integer column (classification, patient type,
sex, the yes/no flags, state, municipality and age) ignores leading and
trailing whitespace, so " 3" reads as "3" and a blank age is unknown. The
two date columns are read verbatim.

Sharding: callers may split a file's data rows into chunks (keeping the
header with each chunk), ingest the chunks independently, and merge the
resulting stats and downstream accumulators; results equal a whole-file pass.
"""

import csv
import functools
import io
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from itertools import compress, islice, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, Union

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
    "BATCH_ROWS",
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


# Raw-string decode tables for the common spellings; the column decoders
# below fall back to stripping whitespace and to int() for the rest.
_FLAG_BY_STR = {str(f.value): f for f in CodedFlag}
_CLASS_BY_STR = {str(c.value): c for c in CaseClassification}
_TREAT_BY_STR = {str(t.value): t for t in TreatmentStrategy}
_SEX_BY_STR = {"1": Sex.FEMALE, "2": Sex.MALE, "99": Sex.UNSPECIFIED}
_STATE_BY_STR = {str(code): code for code in range(1, 33)}
_AGE_BY_STR = {str(age): age for age in range(MAX_AGE + 1)}

# The thirteen yes/no columns in the order a row checks them.
_FLAG_COLUMNS = ("HABLA_LENGUA_INDIG", "UCI", "INTUBADO") + SVEERV_COLUMNS[11:]

#: Rows per batch of the batch-columnar fold (SveervStream.count).
BATCH_ROWS = 256


def _parse_int(raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _Reject("BadInteger", f"{column}={raw!r}") from None


def _parse_code(table: dict, raw: str, column: str):
    code = table.get(raw)
    if code is None:
        code = table.get(raw.strip())
        if code is None:
            raise _Reject("UnknownCode", f"{column}={raw!r}")
    return code


def _parse_date(raw: str, column: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise _Reject("BadDate", f"{column}={raw!r}") from None


def _parse_state(raw: str) -> int:
    state = _STATE_BY_STR.get(raw)
    if state is None:
        state = _parse_int(raw, "ENTIDAD_RES")
        if not 1 <= state <= 32:
            raise _Reject("UnknownCode", f"ENTIDAD_RES={state}")
    return state


def _parse_sex(raw: str) -> Sex:
    sex = _SEX_BY_STR.get(raw) or _SEX_BY_STR.get(raw.strip())
    if sex is None:
        _parse_int(raw, "SEXO")  # non-integer rejects; other codes are unspecified
        sex = Sex.UNSPECIFIED
    return sex


def _parse_age(raw: str) -> int | None:
    age = _AGE_BY_STR.get(raw)
    if age is None:
        if not raw.strip():
            return None
        age = _parse_int(raw, "EDAD")
        if not 0 <= age <= MAX_AGE:
            raise _Reject("AgeOutOfRange", f"EDAD={age}")
    return age


def _parse_death(raw: str) -> date | None:
    return None if raw == ALIVE_SENTINEL else _parse_date(raw, "FECHA_DEF")


def _parse_onset(raw: str) -> date | None:
    if raw == "" or raw == ALIVE_SENTINEL:
        return None
    return _parse_date(raw, "FECHA_SINTOMAS")


# Every checked column in the order a row is checked (the first failure names
# the rejection), with its PatientRecord field and its decoder. A decoder
# maps one raw cell to its value or raises _Reject; both ingest paths use it.
_COLUMN_DECODERS = (
    ("CLASIFICACION_FINAL", "classification",
     lambda raw: _parse_code(_CLASS_BY_STR, raw, "CLASIFICACION_FINAL")),
    ("ENTIDAD_RES", "state_code", _parse_state),
    ("SEXO", "sex", _parse_sex),
    ("EDAD", "age_years", _parse_age),
    ("TIPO_PACIENTE", "treatment",
     lambda raw: _parse_code(_TREAT_BY_STR, raw, "TIPO_PACIENTE")),
    ("FECHA_DEF", "death_date", _parse_death),
    ("FECHA_SINTOMAS", "symptom_onset_date", _parse_onset),
    ("MUNICIPIO_RES", "municipality_code", lambda raw: _parse_int(raw, "MUNICIPIO_RES")),
    *(
        (column, field, functools.partial(_parse_code, _FLAG_BY_STR, column=column))
        for column, field in zip(
            _FLAG_COLUMNS,
            ("speaks_indigenous_language", "icu", "intubated") + COMORBIDITY_FIELDS,
        )
    ),
)


def _row_decoder(cols: dict[str, int]) -> Callable[[list[str]], PatientRecord]:
    """The per-row decoder: a row to a PatientRecord, or _Reject.

    Checks the columns in _COLUMN_DECODERS order. Common spellings hit the
    lookup tables inline; anything else goes to the column's decoder.
    """
    i_clasif, i_state, i_sex, i_age, i_type, i_def, i_onset, i_muni = (
        cols[column] for column, _, _ in _COLUMN_DECODERS[:8]
    )
    flags_of = operator.itemgetter(*(cols[column] for column in _FLAG_COLUMNS))
    flag_get = _FLAG_BY_STR.get
    ncols = max(cols.values()) + 1
    como_fields = COMORBIDITY_FIELDS

    def decode(row: list[str]) -> PatientRecord:
        if len(row) < ncols:
            raise _Reject("FieldCount", f"{len(row)} fields")
        raw = row[i_clasif]
        classification = _CLASS_BY_STR.get(raw) or _parse_code(
            _CLASS_BY_STR, raw, "CLASIFICACION_FINAL")
        raw = row[i_state]
        state = _STATE_BY_STR.get(raw) or _parse_state(raw)
        raw = row[i_sex]
        sex = _SEX_BY_STR.get(raw) or _parse_sex(raw)
        raw = row[i_age]
        age = _AGE_BY_STR.get(raw)
        if age is None and raw:
            age = _parse_age(raw)
        raw = row[i_type]
        treatment = _TREAT_BY_STR.get(raw) or _parse_code(_TREAT_BY_STR, raw, "TIPO_PACIENTE")
        death = _parse_death(row[i_def])
        onset = _parse_onset(row[i_onset])
        muni = _parse_int(row[i_muni], "MUNICIPIO_RES")
        raw_flags = flags_of(row)
        # Lists, not tuples: on a file with many rejected rows, tuple(map(...))
        # here left about 280 KB of freed 13-tuples resident (CPython keeps up
        # to 2000 free tuples of each small size).
        flags = list(map(flag_get, raw_flags))
        if not all(flags):  # every CodedFlag is truthy
            flags = list(map(_parse_code, repeat(_FLAG_BY_STR), raw_flags, _FLAG_COLUMNS))
        return PatientRecord(
            state, muni, sex, age, flags[0], treatment, flags[1], flags[2], death,
            classification, onset, dict(zip(como_fields, flags[3:])),
        )

    return decode


def _screen(rows: list[list[str]], checks: list, ncols: int) -> tuple[list[tuple], list[list[str]]]:
    """Split one batch into the columns of its accepted rows and its rejected rows.

    ``checks`` holds, per checked column, its index, decoder, cache of decoded
    values and set of rejected raw values; only raw values new to the run are
    decoded, and the caches grow as they are.
    """
    rejects = []
    if min(map(len, rows), default=ncols) < ncols:
        rejects = [row for row in rows if len(row) < ncols]
        rows = [row for row in rows if len(row) >= ncols]
    if not rows:
        return [], rejects
    columns = list(zip(*rows))
    flagged: set[int] = set()
    for i, decoder, cache, bad in checks:
        column = columns[i]
        new = set(column).difference(cache)
        if not new:
            continue
        for raw in new.difference(bad):
            try:
                cache[raw] = decoder(raw)
            except _Reject:
                bad.add(raw)
        new.intersection_update(bad)
        if new:
            flagged.update(compress(range(len(column)), map(new.__contains__, column)))
    if flagged:
        rejects += [row for j, row in enumerate(rows) if j in flagged]
        columns = list(zip(*(row for j, row in enumerate(rows) if j not in flagged)))
    return columns, rejects


class SveervStream:
    """Single-pass reader over a case-registry CSV.

    Iterating yields PatientRecord for accepted rows and RowError for skipped
    ones. ``stats`` is live during iteration and final afterwards. ``count``
    is the batch-columnar alternative to iterating: it folds the accepted
    rows straight into a Counter. A stream is read once, by either.
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
        decode = _row_decoder(self._cols)
        stats = self.stats
        reasons = stats.rejection_reasons
        reader = self._reader
        end = reader.line_num  # physical line the header ended on
        try:
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if not row:
                    continue
                stats.rows_read += 1
                try:
                    record = decode(row)
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

    def count(self, dims: Sequence[tuple[str, Callable | None]]) -> Counter[tuple]:
        """Count the accepted rows by ``dims``; the batch-columnar fold.

        Each dimension is a PatientRecord field name (or a comorbidity name)
        and an optional function of the decoded value; a key holds the
        decoded value, or the function's result, per dimension. The result
        equals ``Counter(key(r) for r in self.records())`` and ``stats``
        equals a full iteration's, but no PatientRecord is built.

        Rows are pulled BATCH_ROWS at a time and transposed into columns.
        Each column is checked through its batch's distinct raw values
        against a per-run cache of decoded values, so every distinct raw
        value is decoded once per run. A row that is short or holds a value
        its column rejects goes through the per-row decoder, which names the
        reason exactly as iterating does.
        """
        cols = self._cols
        decode_row = _row_decoder(cols)
        ncols = max(cols.values()) + 1
        by_field = {field: column for column, field, _ in _COLUMN_DECODERS}
        caches: dict[str, dict] = {column: {} for column, _, _ in _COLUMN_DECODERS}
        checks = [(cols[column], decoder, caches[column], set())
                  for column, _, decoder in _COLUMN_DECODERS]
        # Keys are counted as small-int tokens, one per distinct key value
        # and dimension, and decoded at the end: hashing an int is cheaper
        # than hashing a Sex or AgeGroup.
        keys = []  # per dimension: column index, decode cache, fn, raw -> token, value -> token
        for field, fn in dims:
            column = by_field[field]
            keys.append((cols[column], caches[column], fn, {}, {}))
        stats = self.stats
        reasons = stats.rejection_reasons
        counts: Counter[tuple] = Counter()
        reader = self._reader
        try:
            while rows := list(islice(reader, BATCH_ROWS)):
                if not all(rows):
                    rows = [row for row in rows if row]  # blank lines are not rows
                columns, rejects = _screen(rows, checks, ncols)
                for row in rejects:
                    try:
                        decode_row(row)
                    except _Reject as exc:
                        reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
                accepted = len(rows) - len(rejects)
                stats.rows_read += len(rows)
                stats.rows_rejected += len(rejects)
                stats.rows_accepted += accepted
                if accepted and keys:
                    for _, cache, fn, token_of, tokens in keys:
                        if len(token_of) < len(cache):
                            for raw in cache.keys() - token_of.keys():
                                value = cache[raw] if fn is None else fn(cache[raw])
                                token_of[raw] = tokens.setdefault(value, len(tokens))
                    counts.update(zip(*(map(token_of.__getitem__, columns[i])
                                        for i, _, _, token_of, _ in keys)))
                elif accepted:
                    counts[()] += accepted
                del rows, columns, rejects  # free this batch before reading the next
        finally:
            if self._owns:
                self._raw.close()
        values = [list(tokens) for *_, tokens in keys]
        return Counter({tuple(map(operator.getitem, values, key)): n
                        for key, n in counts.items()})


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
        reader = self._reader
        end = 1  # the header line, read before the reader started
        try:
            for row in reader:
                line_no, end = end + 1, reader.line_num + 1
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
