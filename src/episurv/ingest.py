"""Streaming, validating readers for the two input formats.

Both readers make a single pass over their source and never buffer the
file. They read it through one batch loop: it reads BATCH_ROWS lines at a
time, splits them into rows (see Splitting), transposes the rows into
columns and checks each column that can reject through the batch's
distinct raw values, with one decoder per column. Every registry column
can reject; of the genomic columns only the lineage can. A row is rejected
as FieldCount when it is short, else with the reason of its first failing
column in check order. Iterating builds the records of a batch from its
decoded columns and yields them in row order, each rejected row as a
RowError in its place; ``count`` folds the accepted rows by the requested
dimensions in C, without building a record. Both read a decoded value
through one getter table: a checked column's from its check's cache, any
other column's from its decoder. So each distinct raw value of a checked
column is decoded once per run, and both accept, reject and name reasons
identically. A RowError's line number is the physical line its row starts
on, so it stays right after quoted fields that span lines. The IngestStats
advance once per batch and are final once the stream is read; their
reasons are listed in the order the file first shows them. The tables in
``episurv.metrics`` and ``episurv.genomics`` are projections of one fold
of a stream or of records by decoded keys: a roll-up of each batch into
the table's keys and sums as the fold goes (see ``_count``).

Header: both readers, and the variant catalog
(``episurv.genomics.load_catalog``), read their header in one way: the
first row csv.reader gives for the file's lines, read a line at a time, so
a quoted header cell may span lines. The registry's delimiter is given; the
metadata's and the catalog's is sniffed from the first line, a tab if it
holds one, else a comma. Column names are found with a BOM stripped, case
ignored and spaces read as underscores.

Integers: every coded and integer registry column (classification, patient
type, sex, the yes/no flags, state, municipality and age) reads its value
as ``int()`` does, so surrounding whitespace and leading zeros are ignored:
" 3" and "03" read as 3, and a blank age is unknown. The two date columns
are read verbatim.

Splitting: a batch's rows are the ones csv.reader gives for its lines.
Under UTF-8 a batch is decoded in one call; under any other codec, or when
that call fails, line by line, a line that fails falling back to latin-1.
A batch whose text holds no ``"`` or NUL, no carriage return but one that
ends a line (as in CRLF), no blank line and no line over
csv.field_size_limit() is split on newlines, with those carriage returns
dropped, then on the delimiter, with str.split, which gives csv.reader's
rows exactly. Any other batch goes to csv.reader: over its own lines when
it holds no ``"``, since each line then parses alone; else over its lines
and the rest of the file, since a quoted field may span lines.

Malformed CSV: a line the csv module cannot split (a carriage return inside
an unquoted field, a field over csv.field_size_limit()) raises ValueError
naming the physical line, from iteration and ``count`` alike.

Sharding: a count of a large regular file opened by path is split across
CPU cores when ``os.fork`` exists, no other thread runs, two CPUs are
usable and the data fills two shards of SHARD_MIN_BYTES and holds no ``"``.
The process folds the first newline-aligned byte range and a forked worker
each other one (``episurv._shard``), which sends back its IngestStats and
its roll-up, in pieces merged as they come. The parts merge in file order,
so every result equals a whole-file pass item for item and in order, and a
malformed line keeps its whole-file number. Iteration is always serial.
"""

import codecs
import csv
import functools
import io
import operator
import os
import re
import stat
import threading
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import date
from itertools import chain, compress, islice, repeat
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
    SEX_CODES,
    STATE_NAMES,
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
    "SHARD_MIN_BYTES",
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


def _line_batches(raw: BinaryIO, stats: IngestStats, size: int) -> Iterator[list[bytes]]:
    """``raw``'s lines, ``size`` at a time; ``stats.bytes_read`` counts them."""
    while batch := list(islice(raw, size)):
        stats.bytes_read += sum(map(len, batch))
        yield batch


def _decode_lines(lines: list[bytes], encoding: str) -> list[str]:
    # Per-line decode with a latin-1 fallback: exports mix encodings and a
    # stray byte must not reject the row. latin-1 never fails.
    decoded = []
    for line in lines:
        try:
            decoded.append(line.decode(encoding))
        except UnicodeDecodeError:
            decoded.append(line.decode("latin-1"))
    return decoded


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


# The thirteen yes/no columns in the order a row checks them.
_FLAG_COLUMNS = ("HABLA_LENGUA_INDIG", "UCI", "INTUBADO") + tuple(
    COMORBIDITY_COLUMNS[name] for name in COMORBIDITY_FIELDS)

#: Rows per batch of the batch-columnar fold (SveervStream.count).
BATCH_ROWS = 256

#: Least data bytes per shard of a sharded ``count`` (see the module docstring).
SHARD_MIN_BYTES = 1 << 20


def _parse_int(raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _Reject("BadInteger", f"{column}={raw!r}") from None


def _parse_code(enum: type, raw: str, column: str):
    try:
        return enum(int(raw))
    except ValueError:
        raise _Reject("UnknownCode", f"{column}={raw!r}") from None


def _parse_date(raw: str, column: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise _Reject("BadDate", f"{column}={raw!r}") from None


def _parse_state(raw: str) -> int:
    state = _parse_int(raw, "ENTIDAD_RES")
    if state not in STATE_NAMES:
        raise _Reject("UnknownCode", f"ENTIDAD_RES={state}")
    return state


def _parse_sex(raw: str) -> Sex:
    # A non-integer rejects; other codes are unspecified.
    return SEX_CODES.get(_parse_int(raw, "SEXO"), Sex.UNSPECIFIED)


def _parse_age(raw: str) -> int | None:
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
# maps one raw cell to its value or raises _Reject; iteration and ``count``
# both decode through it.
_COLUMN_DECODERS = (
    ("CLASIFICACION_FINAL", "classification",
     lambda raw: _parse_code(CaseClassification, raw, "CLASIFICACION_FINAL")),
    ("ENTIDAD_RES", "state_code", _parse_state),
    ("SEXO", "sex", _parse_sex),
    ("EDAD", "age_years", _parse_age),
    ("TIPO_PACIENTE", "treatment",
     lambda raw: _parse_code(TreatmentStrategy, raw, "TIPO_PACIENTE")),
    ("FECHA_DEF", "death_date", _parse_death),
    ("FECHA_SINTOMAS", "symptom_onset_date", _parse_onset),
    ("MUNICIPIO_RES", "municipality_code", lambda raw: _parse_int(raw, "MUNICIPIO_RES")),
    *(
        (column, field, functools.partial(_parse_code, CodedFlag, column=column))
        for column, field in zip(
            _FLAG_COLUMNS,
            ("speaks_indigenous_language", "icu", "intubated") + COMORBIDITY_FIELDS,
        )
    ),
)

# The PatientRecord fields before ``comorbidities``, in order.
_PATIENT_FIELDS = tuple(f.name for f in fields(PatientRecord) if f.name != "comorbidities")


def _patient_records(values: dict[str, Iterator]) -> Iterator[PatientRecord]:
    """PatientRecords from decoded columns keyed by field; the comorbidity
    columns fold into each record's ``comorbidities`` dict."""
    flags = zip(*map(values.get, COMORBIDITY_FIELDS))
    comorbidities = map(dict, map(zip, repeat(COMORBIDITY_FIELDS), flags))
    return map(PatientRecord, *map(values.get, _PATIENT_FIELDS), comorbidities)


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


# Every SampleRecord field, in its order, with its column and the decoder of
# one raw cell; only the lineage decoder can reject (_Reject).
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

# The canonical metadata header.
GISAID_COLUMNS = tuple(column for column, _ in _GISAID_DECODERS.values())


def _screen(rows: list[list[str]], checks: list, ncols: int) -> tuple[list[tuple], dict[int, tuple[str, str]]]:
    """Decode one batch's checked columns: the columns of its accepted rows
    (none if no row is accepted), and the (reason, detail) of each rejected
    row by its index in the batch, in row order.

    A short row's reason is FieldCount; any other rejected row's is that of
    its first failing column in ``checks`` order. ``checks`` holds, per
    checked column, its index, decoder, a cache of decoded values and a dict
    of rejected raw values to their (reason, detail); only raw values new to
    the run are decoded, and both grow as they are. A reason is kept as a
    tuple, not as the _Reject: a caught exception holds its frames, and with
    them the batch it was raised in.
    """
    rejects = {}
    kept = range(len(rows))  # batch index of each row the columns are read from
    if min(map(len, rows), default=ncols) < ncols:
        rejects = {j: ("FieldCount", f"{len(row)} fields") for j, row in enumerate(rows) if len(row) < ncols}
        kept = [j for j in kept if j not in rejects]
        rows = [rows[j] for j in kept]
    if not rows:
        return [], rejects
    short = len(rejects)
    columns = list(zip(*rows))
    for i, decoder, cache, bad in checks:
        column = columns[i]
        new = set(column).difference(cache)
        if not new:
            continue
        for raw in new:
            if raw not in bad:
                try:
                    cache[raw] = decoder(raw)
                except _Reject as exc:
                    bad[raw] = exc.reason, exc.detail
        new = {raw for raw in new if raw in bad}  # looked up: set methods would walk all of bad
        for k in compress(range(len(column)), map(new.__contains__, column)):
            rejects.setdefault(kept[k], bad[column[k]])  # an earlier column's reason stands
    if len(rejects) > short:
        columns = list(zip(*(row for j, row in zip(kept, rows) if j not in rejects)))
        rejects = dict(sorted(rejects.items()))
    return columns, rejects


class _Memo(dict):
    """One dimension of a count: raw value -> key. A miss computes the key
    by applying ``steps`` to the raw value in turn (None steps left out),
    once per distinct raw value per fold."""

    def __init__(self, *steps: Callable | None):
        super().__init__()
        self.steps = [step for step in steps if step is not None]

    def __missing__(self, raw):
        key = raw
        for step in self.steps:
            key = step(key)
        self[raw] = key
        return key


def _counted() -> tuple[Callable, Callable]:
    """The projection of ``count`` (see _count): each row counted by its key."""
    part: Counter[tuple] = Counter()

    def roll(columns: list[Iterator], n: int) -> None:
        if columns:
            part.update(zip(*columns))
        else:
            part[()] += n
    return roll, lambda: part


def _merge(total: dict, items: Iterable[tuple]) -> dict:
    """Add ``items``, (key, int) pairs, into ``total``; a new key goes last,
    as in a whole-file pass. Shards' parts merge into a whole through this."""
    for key, value in items:
        total[key] = total.get(key, 0) + value
    return total


def _where(where: int, project: Callable) -> Callable:
    """The projection (see _count) of the rows whose ``where`` leading keys
    are true, without them, by ``project``."""
    def kept_by() -> tuple[Callable, Callable]:
        roll, result = project()

        def kept(columns: list[Iterator], n: int) -> None:
            passed = columns[0]
            for column in columns[1:where]:
                passed = map(operator.and_, passed, column)
            passed = list(passed)
            roll([compress(column, passed) for column in columns[where:]], passed.count(True))
        return kept, result
    return kept_by


class _MalformedCSV(ValueError):
    """A line the csv module cannot split: ``args`` are its physical line and
    the csv.Error message, kept apart so that a shard can renumber the line."""

    def __str__(self) -> str:
        return "line %d: malformed CSV: %s" % self.args


def _csv_batches(reader, line_no: int) -> Iterator[tuple[list[list[str]], list[int]]]:
    """``reader``'s rows BATCH_ROWS at a time, blank rows dropped, each batch
    with the physical line each row starts on; ``line_no`` lines were read
    before ``reader``'s first. csv.Error raises _MalformedCSV."""
    rows, starts = [], []
    start = line_no + 1
    try:
        for k, row in enumerate(reader, 1):
            if row:
                rows.append(row)
                starts.append(start)
            start = line_no + reader.line_num + 1
            if k % BATCH_ROWS == 0:
                yield rows, starts
                rows, starts = [], []
    except csv.Error as exc:
        raise _MalformedCSV(line_no + reader.line_num, str(exc)) from None
    if rows:
        yield rows, starts


class _Stream:
    """What every delimited-file reader shares: one header reader
    (``__init__``) and one batch loop (``_batches``) under both iteration
    and the batch-columnar ``count``.

    A reader's class names its required columns and their header aliases,
    and may fix its delimiter; it maps each record field to its column and
    decoder, names the fields whose decoder can reject in the order a row
    checks them, and builds records from decoded columns keyed by field.
    ``__init__`` sets ``stats``, ``_raw``, ``_owns``, ``_encoding``,
    ``_delimiter``, ``_cols`` (required column -> index) and
    ``_line_offset`` (the header's physical lines).
    """

    _columns: tuple[str, ...]
    _aliases: dict[str, str] | None = None
    _delimiter: str | None = None  # None: sniffed from the first line
    _decoders: dict[str, tuple[str, Callable[[str], object]]]
    _checked: tuple[str, ...]
    _records: Callable[[dict[str, Iterator]], Iterator]

    def __init__(self, source: Source, *, encoding: str = "utf-8"):
        """Open ``source`` and read its header: the first row csv.reader
        splits, read a line at a time so that no data line is read before
        the batch reader. A delimiter the reader does not fix is sniffed: a
        tab if the first line holds one, else a comma. Raises _MalformedCSV
        or MissingRequiredColumn, closing a file it opened."""
        self.stats = IngestStats()
        self._raw, self._owns = _open_source(source)
        self._encoding = encoding
        try:
            lines = (line for batch in _line_batches(self._raw, self.stats, 1)
                     for line in _decode_lines(batch, encoding))
            first = next(lines, "")
            if self._delimiter is None:
                self._delimiter = "\t" if "\t" in first else ","
            reader = csv.reader(chain([first], lines), delimiter=self._delimiter)
            try:
                header = next(reader, [])
            except csv.Error as exc:
                raise _MalformedCSV(reader.line_num, str(exc)) from None
            self._cols = _resolve_header(header, self._columns, self._aliases)
        except BaseException:
            if self._owns:
                self._raw.close()
            raise
        self._line_offset = reader.line_num

    def _decoding(self) -> tuple[list[tuple], dict[str, tuple[int, Callable[[str], object]]]]:
        """The checks and the getter table of one pass.

        The checks are, per field that can reject, in check order, what
        _screen takes: its column index, decoder, and an empty cache and
        rejected-value dict. The getter table gives per record field its
        column index and the getter of its decoded value from a raw cell: a
        checked field reads its check's cache, filled by _screen, so that
        each distinct raw value is decoded once; any other is decoded cell by
        cell, so that a column of values that grow with the rows (an
        accession) holds no cache. Iteration and ``count`` both read it.
        """
        checks = [(self._cols[self._decoders[field][0]], self._decoders[field][1], {}, {})
                  for field in self._checked]
        caches = {field: cache for field, (_, _, cache, _) in zip(self._checked, checks)}
        return checks, {field: (self._cols[column], caches[field].__getitem__ if field in caches else decoder)
                        for field, (column, decoder) in self._decoders.items()}

    def __iter__(self) -> Iterator:
        """Records and RowErrors in row order, built batch by batch from the
        decoded columns; ``stats`` advances once per batch."""
        checks, getters = self._decoding()
        try:
            for columns, rejects, starts in self._batches(self._raw, self.stats, checks, self._line_offset):
                records = iter(())
                if columns:
                    records = self._records({field: map(get, columns[i]) for field, (i, get) in getters.items()})
                done = 0  # rows of the batch yielded so far
                for j, reject in rejects.items():
                    yield from islice(records, j - done)
                    yield RowError(starts[j], *reject)
                    done = j + 1
                yield from records
                del columns, rejects, records, starts  # free this batch before reading the next
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
        self.records())``, and ``stats`` a full iteration's once every shard
        has succeeded; a ``count`` that raises leaves them as they were.
        """
        return self._rollup(dims, _counted)

    def _rollup(self, dims: Sequence[_Dim], project: Callable):
        """The projection ``project`` (see _count) of the rows keyed by
        ``dims``; a sharded file's parts merge in file order."""
        try:
            jobs = self._shard_jobs()
            part = None
            if jobs > 1:
                from . import _shard  # compiled only when a file is sharded

                part = _shard.rollup(self, jobs, dims, project)
            if part is None:
                stats = IngestStats()
                part = self._fold(self._raw, stats, dims, project, self._line_offset), stats
            result, stats = part
            merged = self.stats.merge(stats)
            for name in IngestStats.__slots__:  # in place: callers may hold stream.stats
                setattr(self.stats, name, getattr(merged, name))
            return result
        finally:
            if self._owns:
                self._raw.close()

    def _fold(self, raw: BinaryIO, stats: IngestStats, dims: Sequence[_Dim], project: Callable,
              line_no: int = 0):
        """``raw``'s accepted rows counted by ``dims`` and projected by
        ``project`` (see _count); ``line_no`` lines precede ``raw``. A
        checked field's key, with no function, is read from its check's
        cache; any other from a memo."""
        checks, getters = self._decoding()
        keys = [(getters[field][0], getters[field][1] if fn is None and field in self._checked
                 else _Memo(getters[field][1], fn).__getitem__) for field, fn in dims]
        return _fold_rows(self._batches(raw, stats, checks, line_no), keys, project)

    def _batches(self, raw: BinaryIO, stats: IngestStats, checks: list, line_no: int) -> Iterator[tuple]:
        """The batch loop: each batch of rows from the batch reader (``_rows``)
        screened (see _screen), yielding its accepted columns, its rejects and
        the physical line each row starts on. ``stats`` advances once per
        batch, its reasons counted in row order."""
        ncols = max(self._cols.values()) + 1
        reasons = stats.rejection_reasons
        for rows, starts in self._rows(raw, stats, line_no):
            columns, rejects = _screen(rows, checks, ncols)
            for reason, _ in rejects.values():
                reasons[reason] = reasons.get(reason, 0) + 1
            stats.rows_read += len(rows)
            stats.rows_rejected += len(rejects)
            stats.rows_accepted += len(rows) - len(rejects)
            yield columns, rejects, starts
            del rows, columns, rejects, starts

    def _rows(self, raw: BinaryIO, stats: IngestStats, line_no: int) -> Iterator[tuple[list[list[str]], Sequence[int]]]:
        """The batch reader: the rows csv.reader would read from ``raw``'s
        lines, per batch of BATCH_ROWS lines (of rows, from the first ``"``
        on), blank rows dropped, with the physical line each row starts on;
        ``line_no`` lines precede ``raw``. See the module docstring for when
        a batch is split with str.split."""
        encoding, delimiter = self._encoding, self._delimiter
        utf8 = codecs.lookup(encoding).name == "utf-8"
        batches = _line_batches(raw, stats, BATCH_ROWS)
        for batch in batches:
            n, lines, text = len(batch), None, None
            if utf8:  # one decode per batch; under utf-8-sig it would strip only the first line's BOM
                try:
                    text = b"".join(batch).decode("utf-8").removesuffix("\n")
                except UnicodeDecodeError:
                    pass
            if text is None:  # a codec may decode a line to more than one newline: more pieces than lines
                lines = _decode_lines(batch, encoding)
                text = "\n".join([line.removesuffix("\n") for line in lines])
            if "\r" in text:  # csv.reader ends a row at a \r that ends its line, as at CRLF
                text = text.replace("\r\n", "\n").removesuffix("\r")
            pieces = text.split("\n")  # never splitlines(): it also splits on \x0b, \x1c and U+2028
            limit = csv.field_size_limit()
            if ('"' in text or "\r" in text or "\0" in text or len(pieces) != n or "" in pieces
                    or len(text) > limit and max(map(len, pieces)) > limit):
                lines = lines or _decode_lines(batch, encoding)
                if '"' in text:  # a quoted field may span lines: one reader to the end
                    rest = (line for more in batches for line in _decode_lines(more, encoding))
                    yield from _csv_batches(csv.reader(chain(lines, rest), delimiter=delimiter), line_no)
                    return
                yield from _csv_batches(csv.reader(lines, delimiter=delimiter), line_no)
            else:
                batch.clear()  # _line_batches holds it until the next batch
                rows = list(map(str.split, pieces, repeat(delimiter)))
                del lines, text, pieces
                yield rows, range(line_no + 1, line_no + n + 1)
                del rows
            line_no += n

    def _shard_jobs(self) -> int:
        """Shards ``count`` may split the data into, before the quote scan;
        below 2, it counts serially. See the module docstring for the guards."""
        if not (self._owns and hasattr(os, "fork") and threading.active_count() == 1):
            return 0
        info = os.fstat(self._raw.fileno())
        return _jobs(info.st_size - self.stats.bytes_read) if stat.S_ISREG(info.st_mode) else 0


def _jobs(data_bytes: int) -> int:
    """One shard per usable CPU, each of at least SHARD_MIN_BYTES of data."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, data_bytes // SHARD_MIN_BYTES)


class SveervStream(_Stream):
    """Single-pass reader over a case-registry CSV.

    Iterating yields PatientRecord for accepted rows and RowError for skipped
    ones. ``stats`` advances once per batch during iteration and is final
    once iteration ends. ``count`` is the batch-columnar alternative to
    iterating: it folds the accepted rows straight into a Counter. A stream
    is read once, by either.
    """

    _columns = SVEERV_COLUMNS
    _decoders = {field: (column, decoder) for column, field, decoder in _COLUMN_DECODERS}
    _checked = tuple(_decoders)  # every column can reject
    _records = staticmethod(_patient_records)

    def __init__(self, source: Source, *, delimiter: str = ",", encoding: str = "utf-8"):
        self._delimiter = delimiter
        super().__init__(source, encoding=encoding)


class GisaidStream(_Stream):
    """Single-pass reader over genomic metadata (tab- or comma-separated).

    The delimiter is sniffed from the first line. Only structural lineage
    problems reject a row; other messy fields degrade to Unknown values.
    Iterating yields SampleRecord or RowError; ``count`` is the
    batch-columnar alternative, which checks only the lineage column.
    """

    _columns = GISAID_COLUMNS
    _aliases = _GISAID_ALIASES
    _decoders = _GISAID_DECODERS
    _checked = ("pango_lineage",)
    _records = staticmethod(lambda values: map(SampleRecord, *values.values()))


def _fold_rows(batches: Iterable[tuple], keys: list[tuple[int, Callable | None]], project: Callable):
    """The fold: the rows of ``batches`` keyed by ``keys`` (per dimension,
    the index of its column in a batch and the getter of its key from a
    cell, None when the cell is the key) and projected by ``project`` (see
    _count). A batch is a tuple that starts with its columns, one sequence
    of cells per column, the first holding a cell for every row; a batch
    without rows has none. Each batch is rolled up, then freed, before the
    next one is read."""
    roll, result = project()
    for columns, *_ in batches:
        if columns:
            roll([columns[i] if get is None else map(get, columns[i]) for i, get in keys], len(columns[0]))
        del columns, _
    return result()


def _count(items: Iterable | _Stream, dims: Sequence[_Dim], where: Sequence[_Dim] = (),
           project: Callable = _counted):
    """Records that pass the ``where`` filters (bool dimensions), keyed by
    ``dims`` in one pass and projected by ``project``, by default counted
    by key.

    The fold keys each row by its decoded keys: a dimension's key is read
    from its column's decode cache, or, for a dimension with a function or
    a column decoded cell by cell, from one memo of raw value to key
    (_Memo). ``project`` returns a roll-up and a result for one fold. The
    roll-up adds each batch, its key columns and its row count, into its
    part, and the result is that part, the table's keys and sums. A shard
    sends back its part, and the parts merge in file order (see _merge). A
    stream is folded by its batch loop; records BATCH_ROWS at a time, a
    batch's first column being its records and then one per dimension. The
    two agree."""
    if where:
        project, dims = _where(len(where), project), (*where, *dims)
    if isinstance(items, _Stream):
        return items._rollup(dims, project)
    gets = [(lambda r, name=field: r.comorbidities.get(name)) if field in COMORBIDITY_FIELDS
            else operator.attrgetter(field) for field, _ in dims]
    items = iter(items)
    batches = (([batch, *(map(get, batch) for get in gets)],)
               for batch in iter(lambda: list(islice(items, BATCH_ROWS)), []))
    return _fold_rows(batches, [(i, None if fn is None else _Memo(fn).__getitem__)
                              for i, (_, fn) in enumerate(dims, 1)], project)


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
