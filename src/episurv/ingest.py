"""Streaming, validating readers for the two input formats.

Both readers make a single pass over their source, decode each row into a
typed record, and never buffer the file: iterating yields either a decoded
record or a RowError describing why that row was skipped. Counters accumulate
in an IngestStats that is complete once iteration finishes. A RowError's
line number is the physical line its record starts on, so it stays right
after quoted fields that span lines.

Both readers also have a batch path, ``count``: it pulls BATCH_ROWS rows at
a time, transposes them into columns, checks each column that can reject
through the batch's distinct raw values (each distinct value is decoded once
per run), and counts the accepted rows by the requested dimensions in C,
without building a record. Every registry column can reject; of the genomic
columns only the lineage can. Rows that are short or hold a value their
column rejects go through the same per-row decoder that iterating uses, so
both paths accept, reject and name reasons identically. The table functions
in ``episurv.metrics`` and ``episurv.genomics`` take this path when handed a
stream; handed records, they count them the same way (see ``_count``).

Integers: every coded and integer registry column (classification, patient
type, sex, the yes/no flags, state, municipality and age) reads its value
as ``int()`` does, so surrounding whitespace and leading zeros are ignored:
" 3" and "03" read as 3, and a blank age is unknown. The two date columns
are read verbatim.

Malformed CSV: a line the csv module cannot split (a carriage return inside
an unquoted field, a field over csv.field_size_limit()) raises ValueError
naming the physical line, from iteration and ``count`` alike.

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
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, Union

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

# A count dimension: a record field name and an optional function of its
# decoded value (see _Stream.count and _count).
_Dim = tuple[str, Callable | None]

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
# below fall back to int() for the rest (see _parse_code).
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
        try:  # the int() rule: padding, leading zeros
            code = table.get(str(int(raw)))
        except ValueError:
            pass
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
    sex = _SEX_BY_STR.get(raw)
    if sex is None:  # non-integer rejects; other codes are unspecified
        sex = _SEX_BY_STR.get(str(_parse_int(raw, "SEXO")), Sex.UNSPECIFIED)
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


def _sveerv_row_decoder(cols: dict[str, int]) -> Callable[[list[str]], PatientRecord]:
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


def _parse_lineage(raw: str) -> str:
    lineage = raw.strip()
    if not lineage:
        raise _Reject("EmptyLineage")
    if not LINEAGE_RE.match(lineage):
        raise _Reject("MalformedLineage", f"pango_lineage={lineage!r}")
    return lineage


def _parse_gisaid_date(raw: str) -> date | None:
    try:
        return date.fromisoformat(raw.strip())
    except ValueError:
        return None


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


def _parse_gisaid_sex(raw: str) -> Sex:
    return _GISAID_SEX.get(raw.strip().casefold(), Sex.UNSPECIFIED)


def _parse_vaccine(raw: str) -> str | None:
    return raw.strip() or None


# Every SampleRecord field with its column and the decoder of one raw cell,
# for the batch path; only the lineage decoder can reject (_Reject).
_GISAID_DECODERS = {
    "accession": ("accession", str.strip),
    "collection_date": ("date", _parse_gisaid_date),
    "state": ("division", str.strip),
    "pango_lineage": ("pango_lineage", _parse_lineage),
    "gisaid_clade": ("clade", str.strip),
    "patient_status": ("patient_status", str),  # verbatim
    "age_years": ("age", _parse_gisaid_age),
    "sex": ("sex", _parse_gisaid_sex),
    "vaccine": ("vaccine", _parse_vaccine),
}


def _gisaid_row_decoder(cols: dict[str, int]) -> Callable[[list[str]], SampleRecord]:
    """The per-row decoder: a row to a SampleRecord, or _Reject. It applies
    the _GISAID_DECODERS decoders, inlined."""
    i_acc, i_date, i_div, i_lin, i_clade, i_status, i_age, i_sex, i_vax = (
        cols[column] for column, _ in _GISAID_DECODERS.values()
    )
    ncols = max(cols.values()) + 1

    def decode(row: list[str]) -> SampleRecord:
        if len(row) < ncols:
            raise _Reject("FieldCount", f"{len(row)} fields")
        return SampleRecord(
            row[i_acc].strip(), _parse_gisaid_date(row[i_date]), row[i_div].strip(),
            _parse_lineage(row[i_lin]), row[i_clade].strip(), row[i_status],
            _parse_gisaid_age(row[i_age]), _parse_gisaid_sex(row[i_sex]),
            _parse_vaccine(row[i_vax]),
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


class _Tokens(dict):
    """One dimension of a count: raw value -> small-int token of its key.

    A miss computes the key with ``key_of``, once per distinct raw value per
    run. Keys are counted as tokens because hashing an int is cheaper than
    hashing a Sex or AgeGroup; ``keys_by_token`` holds the keys in token order.
    """

    def __init__(self, key_of: Callable[[str], object]):
        super().__init__()
        self.key_of = key_of
        self.keys_by_token: dict = {}  # key -> token, in token order

    def __missing__(self, raw: str) -> int:
        tokens = self.keys_by_token
        token = self[raw] = tokens.setdefault(self.key_of(raw), len(tokens))
        return token


def _decode_keys(counts: Counter[tuple], dims: list[_Tokens]) -> Counter[tuple]:
    """``counts`` re-keyed from token tuples to the values the tokens stand for."""
    values = [list(tokens.keys_by_token) for tokens in dims]
    return Counter({tuple(map(operator.getitem, values, key)): n for key, n in counts.items()})


def _csv_error(exc: csv.Error, line_no: int) -> ValueError:
    return ValueError(f"line {line_no}: malformed CSV: {exc}")


class _Stream:
    """What both readers share: iteration through the per-row decoder, and
    the batch-columnar ``count``.

    A reader sets ``stats``, ``_raw``, ``_owns``, ``_cols`` (required column
    -> index), ``_reader`` and ``_line_offset`` (physical lines read before
    ``_reader`` started). Its class names the per-row decoder, each record
    field's column and decoder, and the fields whose decoder can reject.
    """

    _row_decoder: Callable[[dict[str, int]], Callable[[list[str]], object]]
    _decoders: dict[str, tuple[str, Callable[[str], object]]]
    _checked: tuple[str, ...]

    def __iter__(self) -> Iterator:
        decode = self._row_decoder(self._cols)
        stats = self.stats
        reasons = stats.rejection_reasons
        reader = self._reader
        offset = self._line_offset
        end = reader.line_num + offset  # physical line the header ended on
        try:
            for row in reader:
                line_no, end = end + 1, reader.line_num + offset
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
        except csv.Error as exc:
            raise _csv_error(exc, reader.line_num + offset) from None
        finally:
            if self._owns:
                self._raw.close()

    def records(self) -> Iterator:
        """Accepted records only; rejected rows are still counted in stats."""
        return (item for item in self if not isinstance(item, RowError))

    def count(self, dims: Sequence[_Dim]) -> Counter[tuple]:
        """Count the accepted rows by ``dims``; the batch-columnar fold.

        Each dimension is a record field name (or, for a registry, a
        comorbidity name) and an optional function of the decoded value; a
        key holds the decoded value, or the function's result, per
        dimension. The result equals ``Counter(key(r) for r in
        self.records())`` and ``stats`` equals a full iteration's, but no
        record is built.

        Rows are pulled BATCH_ROWS at a time and transposed into columns.
        Each column that can reject is checked through its batch's distinct
        raw values against a per-run cache of decoded values, so every
        distinct raw value is decoded once per run. A row that is short or
        holds a value its column rejects goes through the per-row decoder,
        which names the reason exactly as iterating does. Accepted rows are
        counted with Counter.update over small-int tokens of their keys
        (see _Tokens), decoded at the end.
        """
        cols = self._cols
        decode_row = self._row_decoder(cols)
        ncols = max(cols.values()) + 1
        checks = []  # per column that can reject: index, decoder, decoded cache, rejected set
        for field in self._checked:
            column, decoder = self._decoders[field]
            checks.append((cols[column], decoder, {}, set()))
        keys = []  # per dimension: column index, tokens
        for field, fn in dims:
            column, decoder = self._decoders[field]
            key_of = decoder if fn is None else (lambda raw, d=decoder, fn=fn: fn(d(raw)))
            keys.append((cols[column], _Tokens(key_of)))
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
                    counts.update(zip(*(map(tokens.__getitem__, columns[i]) for i, tokens in keys)))
                elif accepted:
                    counts[()] += accepted
                del rows, columns, rejects  # free this batch before reading the next
        except csv.Error as exc:
            raise _csv_error(exc, reader.line_num + self._line_offset) from None
        finally:
            if self._owns:
                self._raw.close()
        return _decode_keys(counts, [tokens for _, tokens in keys])


class SveervStream(_Stream):
    """Single-pass reader over a case-registry CSV.

    Iterating yields PatientRecord for accepted rows and RowError for skipped
    ones. ``stats`` is live during iteration and final afterwards. ``count``
    is the batch-columnar alternative to iterating: it folds the accepted
    rows straight into a Counter. A stream is read once, by either.
    """

    _row_decoder = staticmethod(_sveerv_row_decoder)
    _decoders = {field: (column, decoder) for column, field, decoder in _COLUMN_DECODERS}
    _checked = tuple(field for _, field, _ in _COLUMN_DECODERS)  # every column can reject

    def __init__(self, source: Source, *, delimiter: str = ",", encoding: str = "utf-8"):
        self.stats = IngestStats()
        self._raw, self._owns = _open_source(source)
        self._lines = _decoded_lines(self._raw, encoding, self.stats)
        self._reader = csv.reader(self._lines, delimiter=delimiter)
        self._line_offset = 0
        try:
            header = next(self._reader)
        except StopIteration:
            header = []
        except csv.Error as exc:
            raise _csv_error(exc, self._reader.line_num) from None
        self._cols = _resolve_header(header, SVEERV_COLUMNS)


class GisaidStream(_Stream):
    """Single-pass reader over genomic metadata (tab- or comma-separated).

    The delimiter is sniffed from the header line. Only structural lineage
    problems reject a row; other messy fields degrade to Unknown values.
    Iterating yields SampleRecord or RowError; ``count`` is the
    batch-columnar alternative, which checks only the lineage column.
    """

    _row_decoder = staticmethod(_gisaid_row_decoder)
    _decoders = _GISAID_DECODERS
    _checked = ("pango_lineage",)

    def __init__(self, source: Source, *, encoding: str = "utf-8"):
        self.stats = IngestStats()
        self._raw, self._owns = _open_source(source)
        self._lines = _decoded_lines(self._raw, encoding, self.stats)
        try:
            header_line = next(self._lines)
        except StopIteration:
            header_line = ""
        delimiter = "\t" if "\t" in header_line else ","
        try:
            header = next(csv.reader([header_line], delimiter=delimiter), [])
        except csv.Error as exc:
            raise _csv_error(exc, 1) from None
        self._cols = _resolve_header(header, GISAID_COLUMNS, _GISAID_ALIASES)
        self._reader = csv.reader(self._lines, delimiter=delimiter)
        self._line_offset = 1  # the header line, read before the reader started


def _same(value):
    return value


def _field_getter(field: str) -> Callable[[object], object]:
    if field in COMORBIDITY_FIELDS:
        return lambda r: r.comorbidities.get(field)
    return operator.attrgetter(field)


def _count(items: Iterable | _Stream, dims: Sequence[_Dim]) -> Counter[tuple]:
    """Records counted by ``dims`` in one pass. A stream is counted by its
    batch-columnar fold; records are counted the same way, BATCH_ROWS at a
    time, with a column per dimension read off the records. The two agree."""
    if isinstance(items, _Stream):
        return items.count(dims)
    keys = [(_field_getter(field), _Tokens(fn or _same)) for field, fn in dims]
    counts: Counter[tuple] = Counter()
    items = iter(items)
    while batch := list(islice(items, BATCH_ROWS)):
        if keys:
            counts.update(zip(*(map(tokens.__getitem__, map(get, batch)) for get, tokens in keys)))
        else:
            counts[()] += len(batch)
    return _decode_keys(counts, [tokens for _, tokens in keys])


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
