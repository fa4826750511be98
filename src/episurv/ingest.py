"""Streaming, validating readers for the two input formats.

Both readers make a single pass over their source and never buffer the
file. They read it through one batch loop: it reads BATCH_ROWS lines at a
time, splits them into rows (see Splitting), transposes the rows into
columns and checks each column that can reject through the batch's
distinct raw values, with one decoder per column; each distinct raw value
is decoded once per run. Every registry column can reject; of the genomic
columns only the lineage can. A row is rejected as
FieldCount when it is short, else with the reason of its first failing
column in check order. Iterating builds the records of a batch from its
decoded columns and yields them in row order, each rejected row as a
RowError in its place; ``count`` folds the accepted rows by the requested
dimensions in C, without building a record. So both accept, reject and
name reasons identically. A RowError's line number is the physical line
its row starts on, so it stays right after quoted fields that span lines.
The IngestStats advance once per batch and are final once the stream is
read; their reasons are listed in the order the file first shows them.
The table functions in ``episurv.metrics`` and ``episurv.genomics`` count a
stream with ``count``; handed records, they count them the same way (see
``_count``).

Integers: every coded and integer registry column (classification, patient
type, sex, the yes/no flags, state, municipality and age) reads its value
as ``int()`` does, so surrounding whitespace and leading zeros are ignored:
" 3" and "03" read as 3, and a blank age is unknown. The two date columns
are read verbatim.

Splitting: a batch's rows are the ones csv.reader gives for its lines.
Under UTF-8 a batch is decoded in one call; under any other codec, or when
that call fails, line by line, a line that fails falling back to latin-1.
A batch whose text holds no ``"``, carriage return or NUL, no blank line
and no line over csv.field_size_limit() is split on newlines, then on the
delimiter, with str.split, which gives csv.reader's rows exactly. Any other
batch goes to csv.reader: over its own lines when it holds no ``"``, since
each line then parses alone; else over its lines and the rest of the file,
since a quoted field may span lines.

Malformed CSV: a line the csv module cannot split (a carriage return inside
an unquoted field, a field over csv.field_size_limit()) raises ValueError
naming the physical line, from iteration and ``count`` alike.

Sharding: ``count`` splits a large file across CPU cores by itself. It
shards only a regular file it opened by path, only when ``os.fork`` exists,
no other thread runs, at least two CPUs are usable and the data after the
header fills at least two shards of SHARD_MIN_BYTES; and only when the data
holds no ``"``, since a quoted field may span lines. The data is cut just
after a newline into one byte range per usable CPU, as many as hold
SHARD_MIN_BYTES each. The process folds the first range itself and forks one worker per
other range (``episurv._shard``); each reads its range with ``os.pread``,
so no file offset is shared, through the same batch reader and fold, and
sends back its Counter and IngestStats. The parts merge in file order, so
the Counter equals a whole-file pass item for item and in insertion order,
and the stats are those of a whole-file pass; a malformed line is numbered
by the newlines before its range. Iteration and ``records()`` always read
serially.
"""

import codecs
import contextlib
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


# Raw-string decode tables for the common spellings; the column decoders
# below fall back to int() for the rest (see _parse_code).
_FLAG_BY_STR = {str(f.value): f for f in CodedFlag}
_CLASS_BY_STR = {str(c.value): c for c in CaseClassification}
_TREAT_BY_STR = {str(t.value): t for t in TreatmentStrategy}
_SEX_BY_STR = {str(code): sex for code, sex in SEX_CODES.items()}
_STATE_BY_STR = {str(code): code for code in range(1, 33)}
_AGE_BY_STR = {str(age): age for age in range(MAX_AGE + 1)}

# The thirteen yes/no columns in the order a row checks them.
_FLAG_COLUMNS = ("HABLA_LENGUA_INDIG", "UCI", "INTUBADO") + SVEERV_COLUMNS[11:]

#: Rows per batch of the batch-columnar fold (SveervStream.count).
BATCH_ROWS = 256

#: Least data bytes per shard of a sharded ``count`` (see the module docstring).
SHARD_MIN_BYTES = 1 << 20


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
        sex = SEX_CODES.get(_parse_int(raw, "SEXO"), Sex.UNSPECIFIED)
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
# maps one raw cell to its value or raises _Reject; iteration and ``count``
# both decode through it.
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
        for raw in new.difference(bad):
            try:
                cache[raw] = decoder(raw)
            except _Reject as exc:
                bad[raw] = exc.reason, exc.detail
        new.intersection_update(bad)
        for k in compress(range(len(column)), map(new.__contains__, column)):
            rejects.setdefault(kept[k], bad[column[k]])  # an earlier column's reason stands
    if len(rejects) > short:
        columns = list(zip(*(row for j, row in zip(kept, rows) if j not in rejects)))
        rejects = dict(sorted(rejects.items()))
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
    """What both readers share: one batch loop (``_batches``) under both
    iteration and the batch-columnar ``count``.

    A reader sets ``stats``, ``_raw``, ``_owns``, ``_encoding``,
    ``_delimiter``, ``_cols`` (required column -> index) and
    ``_line_offset`` (the header's physical lines). Its
    class maps each record field to its column and decoder, names the
    fields whose decoder can reject in the order a row checks them, and
    builds records from decoded columns keyed by field.
    """

    _decoders: dict[str, tuple[str, Callable[[str], object]]]
    _checked: tuple[str, ...]
    _records: Callable[[dict[str, Iterator]], Iterator]

    @contextlib.contextmanager
    def _closed_on_error(self) -> Iterator[None]:
        """Close a file this stream opened if the block raises (an unusable header)."""
        try:
            yield
        except BaseException:
            if self._owns:
                self._raw.close()
            raise

    def __iter__(self) -> Iterator:
        """Records and RowErrors in row order, built batch by batch from the
        decoded columns; ``stats`` advances once per batch."""
        checks = self._checks()
        caches = {field: cache for field, (_, _, cache, _) in zip(self._checked, checks)}
        # A checked column reads its decoded values from its check's cache;
        # any other is decoded cell by cell, so that a column of values that
        # grow with the rows (an accession) holds no cache.
        getters = [(field, self._cols[column], caches[field].__getitem__ if field in caches else decoder)
                   for field, (column, decoder) in self._decoders.items()]
        try:
            for columns, rejects, starts in self._batches(self._raw, self.stats, checks, self._line_offset):
                records = iter(())
                if columns:
                    records = self._records({field: map(get, columns[i]) for field, i, get in getters})
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
        self.records())`` and ``stats`` equals a full iteration's, but no
        record is built. A large file is counted in shards across CPU cores
        and the parts merged in file order (see the module docstring). The
        stats merge into ``stats`` once every part has succeeded, so a
        ``count`` that raises leaves ``stats`` as the header read left them.
        """
        try:
            jobs = self._shard_jobs()
            part = None
            if jobs > 1:
                from . import _shard  # compiled only when a file is sharded

                part = _shard.count(self, jobs, dims)
            if part is None:
                stats = IngestStats()
                part = self._fold(self._raw, stats, dims, self._line_offset), stats
            counts, stats = part
            merged = self.stats.merge(stats)
            for name in IngestStats.__slots__:  # in place: callers may hold stream.stats
                setattr(self.stats, name, getattr(merged, name))
            return counts
        finally:
            if self._owns:
                self._raw.close()

    def _fold(self, raw: BinaryIO, stats: IngestStats, dims: Sequence[_Dim], line_no: int = 0) -> Counter[tuple]:
        """``raw``'s accepted rows counted by ``dims`` through the batch loop,
        with Counter.update over small-int tokens of their keys (see
        _Tokens), decoded at the end; ``line_no`` lines precede ``raw``."""
        keys = []  # per dimension: column index, tokens
        for field, fn in dims:
            column, decoder = self._decoders[field]
            key_of = decoder if fn is None else (lambda raw, d=decoder, fn=fn: fn(d(raw)))
            keys.append((self._cols[column], _Tokens(key_of)))
        counts: Counter[tuple] = Counter()
        for columns, _, _ in self._batches(raw, stats, self._checks(), line_no):
            if columns and keys:
                counts.update(zip(*(map(tokens.__getitem__, columns[i]) for i, tokens in keys)))
            elif columns:
                counts[()] += len(columns[0])
            del columns  # free this batch before reading the next
        return _decode_keys(counts, [tokens for _, tokens in keys])

    def _checks(self) -> list[tuple]:
        """Per field that can reject, in check order, what _screen takes:
        its column index, decoder, and an empty cache and rejected-value dict."""
        return [(self._cols[self._decoders[field][0]], self._decoders[field][1], {}, {})
                for field in self._checked]

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

    _decoders = {field: (column, decoder) for column, field, decoder in _COLUMN_DECODERS}
    _checked = tuple(_decoders)  # every column can reject
    _records = staticmethod(_patient_records)

    def __init__(self, source: Source, *, delimiter: str = ",", encoding: str = "utf-8"):
        self.stats = IngestStats()
        self._raw, self._owns = _open_source(source)
        self._encoding, self._delimiter = encoding, delimiter
        with self._closed_on_error():
            # The header is the first row csv.reader splits, read a line at a
            # time so that no data line is read before the batch reader.
            lines = (line for batch in _line_batches(self._raw, self.stats, 1)
                     for line in _decode_lines(batch, encoding))
            reader = csv.reader(lines, delimiter=delimiter)
            try:
                header = next(reader, [])
            except csv.Error as exc:
                raise _MalformedCSV(reader.line_num, str(exc)) from None
            self._cols = _resolve_header(header, SVEERV_COLUMNS)
        self._line_offset = reader.line_num


class GisaidStream(_Stream):
    """Single-pass reader over genomic metadata (tab- or comma-separated).

    The delimiter is sniffed from the header line. Only structural lineage
    problems reject a row; other messy fields degrade to Unknown values.
    Iterating yields SampleRecord or RowError; ``count`` is the
    batch-columnar alternative, which checks only the lineage column.
    """

    _decoders = _GISAID_DECODERS
    _checked = ("pango_lineage",)
    _records = staticmethod(lambda values: map(SampleRecord, *values.values()))

    def __init__(self, source: Source, *, encoding: str = "utf-8"):
        self.stats = IngestStats()
        self._raw, self._owns = _open_source(source)
        with self._closed_on_error():
            header_line = "".join(_decode_lines(next(_line_batches(self._raw, self.stats, 1), []), encoding))
            delimiter = "\t" if "\t" in header_line else ","
            try:
                header = next(csv.reader([header_line], delimiter=delimiter), [])
            except csv.Error as exc:
                raise _MalformedCSV(1, str(exc)) from None
            self._cols = _resolve_header(header, GISAID_COLUMNS, _GISAID_ALIASES)
        self._encoding, self._delimiter = encoding, delimiter
        self._line_offset = 1  # the header line


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
