"""Deterministic rendering of the standard annex tables.

Every table renders byte-identically for identical inputs: rows follow fixed
sort orders, counts print as integers, and percentages print with exactly two
decimals, rounded half-up. docs/tables.md lists each table's columns and the
data shape its builder expects.

Streaming: ``render_chunks`` gives a table as byte chunks of a few dozen
rows, so a writer that sends each on as it comes holds one chunk of output
at a time (the metrics rows, too, are built as they are rendered);
``render`` joins them. The strata tables render from a packed
``StrataTable`` or from ``stratified_report``'s reports alike, a stratum's
counts and rates read through one accessor (``metrics._stratum_cells``).

A builder imports ``metrics`` or ``genomics`` only when it runs; ``json``
and ``decimal`` load only for JSON output and percentages.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache, partial
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from .schema import (
    COMORBIDITY_FIELDS,
    GROUP_DIMENSIONS,
    AgeGroup,
    CaseClassification,
    CodedFlag,
    STATE_NAMES,
    RankMetric,
    Sex,
    StratumKey,
    TreatmentStrategy,
    is_positive,
)

if TYPE_CHECKING:
    from .genomics import StateSummary, VariantShares
    from .metrics import MetricsReport, StrataTable

__all__ = ["TableId", "ShapeMismatch", "render", "render_chunks", "format_pct"]


class TableId(str, Enum):
    """Catalog of renderable tables (see docs/tables.md)."""

    T1 = "t1"
    T2 = "t2"
    T3 = "t3"
    T4 = "t4"
    T5 = "t5"
    T6 = "t6"
    T7 = "t7"
    T8 = "t8"
    T9 = "t9"
    T10 = "t10"
    T11 = "t11"
    T12 = "t12"
    T13 = "t13"
    G3_SHARES = "g3-shares"
    G4_SCATTER = "g4-scatter"
    G5_STACK = "g5-stack"
    COMORBIDITY_PROFILE = "comorbidity-profile"
    METRICS = "metrics"
    RANK = "rank"


class ShapeMismatch(TypeError):
    """The data argument does not have the shape render expects for the table."""


def format_pct(value: float) -> str:
    """Two decimals, round half-up (so 18.505 prints 18.51, never 18.50)."""
    return _quantized(repr(float(value)))


# Keyed by the repr, not the float: -0.0 == 0.0 and NaN != NaN, but their
# reprs, and so their texts, tell them apart. A table repeats few values.
@lru_cache(maxsize=4096)
def _quantized(text: str) -> str:
    from decimal import ROUND_HALF_UP, Decimal

    return str(Decimal(text).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


# Cell markers: _Pct wraps floats that format as percentages.
class _Pct(float):
    pass


# Each member's place in its enum's definition order, for the sort keys;
# None, meaning "all" on a stratum axis, sorts first, below every state and
# municipality code, which rank as themselves.
_RANK = {None: float("-inf"), **{member: i for enum in (Sex, AgeGroup) for i, member in enumerate(enum)}}
# A stratum axis's cell: "all" for None, a member's value, or the code itself.
_AXIS_CELL = {None: "all", **{member: member.value for enum in (Sex, AgeGroup) for member in enum}}

_SEX_COLS = tuple(sex.value for sex in Sex)


def _grid(label_cols: tuple[str, ...], count_cols: tuple[str, ...], rows: Iterable, total: tuple = ()):
    """A labels-by-counts table: per ``(labels, counts)`` pair of ``rows``,
    one row of its labels, its counts and their sum; then, when ``total``
    labels it, one row of the column sums, all zero when ``rows`` is empty."""
    out = []
    sums = [0] * len(count_cols)
    for labels, counts in rows:
        sums = [s + c for s, c in zip(sums, counts)]
        out.append((*labels, *counts, sum(counts)))
    if total:
        out.append((*total, *sums, sum(sums)))
    return (*label_cols, *count_cols, "total"), out, []


def _build_coded_sex(code_cols: tuple[str, str], members, data: Mapping):
    """One row per coded member (its code and its name, counted per Sex) in
    the members' order, then the total row."""
    rows = (((member.value, member.name.lower()), [data.get((member, sex), 0) for sex in Sex])
            for member in members)
    return _grid(code_cols, _SEX_COLS, rows, total=("", "total"))


def _build_t3(data: Mapping):
    rows = (((sex.value,), [data.get((sex, strategy), 0) for strategy in TreatmentStrategy])
            for sex in Sex)
    strategies = tuple(strategy.name.lower() for strategy in TreatmentStrategy)
    return _grid(("sex",), strategies, rows, total=("total",))


def _build_t4(data: Mapping):
    """Per state, its split and its share of the hospitalized; the total
    row's share is that of the nation, 100 when anyone is hospitalized."""
    rows = (((state, STATE_NAMES.get(state, str(state))), (data[state][0], data[state][1]))
            for state in sorted(data))
    cols, rows, trailers = _grid(("state_code", "state"), ("ambulatory", "hospitalized"), rows,
                                 total=("", "total"))
    national = rows[-1][3]  # column 3 is hospitalized; the last row, the total
    rows = [(*row, _Pct(row[3] / national * 100.0) if national else None) for row in rows]
    return (*cols, "hospital_share_pct"), rows, trailers


def _build_t8(data: Mapping):
    cols = ("who_label", "lineage", "clade", "count")
    rows = []
    for label, tab in data.items():
        for lineage, clade in sorted(tab):
            rows.append((label, lineage, clade, tab[(lineage, clade)]))
    return cols, rows, []


def _build_t9(data: Mapping):
    from .genomics import StatusBucket, bucket_status

    cols = ("patient_status", "bucket", "clade", "count")
    rank = {bucket: i for i, bucket in enumerate(StatusBucket)}
    def key(item):
        (status, clade), _ = item
        return (rank[bucket_status(status)], status, clade)
    rows = [
        (status, bucket_status(status).value, clade, n)
        for (status, clade), n in sorted(data.items(), key=key)
    ]
    return cols, rows, []


def _summary_blocks(data: StateSummary):
    yield from data.per_state.items()
    yield ("total", data.totals)


def _build_block_counts(column: str, attr: str, data: StateSummary):
    """Per block, one row per key of its ``attr`` counts, in sorted order."""
    rows = []
    for name, block in _summary_blocks(data):
        counts = getattr(block, attr)
        rows.extend((name, key, counts[key]) for key in sorted(counts))
    return ("state", column, "count"), rows, []


def _build_t11(data: StateSummary):
    rows = []
    for name, block in _summary_blocks(data):
        cells = [block.sexes.get(sex, 0) for sex in Sex]
        rows.append((name, *cells, block.total))
    return ("state", *_SEX_COLS, "total"), rows, []


def _build_t13(data: StateSummary):
    rows = (((name, group.value), [block.age_sex.get((group, sex), 0) for sex in Sex])
            for name, block in _summary_blocks(data) for group in AgeGroup)
    return _grid(("state", "age_group"), _SEX_COLS, rows)


def _build_g3(data: VariantShares):
    cols = ("who_label", "count", "share_pct")
    rows = [(label, count, _Pct(pct)) for label, (count, pct) in data.shares.items()]
    rows.append(("unclassified", data.unclassified, None))
    return cols, rows, []


def _in_stratum_order(keys: Iterable[StratumKey]) -> list[StratumKey]:
    """``keys`` in GROUP_DIMENSIONS order, with None ("all") first on each
    axis: one stable sort per axis, the last axis first. Each sort key is a
    code or a rank, so no key tuple is built per stratum."""
    order = list(keys)
    for axis in reversed(range(len(GROUP_DIMENSIONS))):
        order.sort(key=lambda key: _RANK.get(key[axis], key[axis]))
    return order


def _pcts(values: Iterable) -> list:
    return [None if value is None else _Pct(value) for value in values]


def _build_state_chart(metric_names: tuple[str, ...], data: StrataTable | Mapping[StratumKey, MetricsReport]):
    """Per-state rows for the chart tables; strata with any undefined metric
    are omitted and reported in a trailer comment."""
    from .metrics import _COUNT_FIELDS, _RATE_FIELDS, _stratum_cells

    cells = _stratum_cells(data)
    columns = [len(_COUNT_FIELDS) + _RATE_FIELDS.index(name) for name in metric_names]
    rows = []
    omitted = []
    for key in _in_stratum_order(data):
        if not key.is_state():
            continue
        row = cells(key)
        values = [row[i] for i in columns]
        if None in values:
            omitted.append(key.state)
            continue
        rows.append((key.state, STATE_NAMES.get(key.state, str(key.state)), *_pcts(values)))
    trailers = []
    if omitted:
        trailers.append("# omitted (undefined): " + ", ".join(str(s) for s in omitted))
    return ("state_code", "state", *metric_names), rows, trailers


def _build_rank(data: tuple[RankMetric, StrataTable | Mapping[StratumKey, MetricsReport]]):
    from .metrics import rank_states

    metric, reports = data
    metric = RankMetric(metric)
    cols = ("rank", "state_code", "state", f"{metric.value}_pct")
    # The percentage is a preformatted string, so JSON carries "26.32", not 26.32.
    rows = [
        (rank, code, STATE_NAMES.get(code, str(code)), format_pct(value))
        for rank, (code, value) in enumerate(rank_states(reports, metric), 1)
    ]
    return cols, rows, []


def _build_comorbidity(data: Mapping):
    cols = ("comorbidity", "age_group", "count")
    rows = []
    for name in COMORBIDITY_FIELDS:
        for group in AgeGroup:
            n = data.get((name, group), 0)
            if n:
                rows.append((name, group.value, n))
    return cols, rows, []


def _metrics_rows(keys: list[StratumKey], cells: Callable[[StratumKey], tuple], rates: int):
    for key in keys:
        values = cells(key)
        yield *[_AXIS_CELL.get(value, value) for value in key], *values[:rates], *_pcts(values[rates:])


def _build_metrics(data: StrataTable | Mapping[StratumKey, MetricsReport]):
    """One row per stratum, in stratum order, from a packed table or from
    reports. The rows are built as they are rendered: a fine grouping has
    tens of thousands of strata."""
    from .metrics import _COUNT_FIELDS, _RATE_FIELDS, _stratum_cells

    rows = _metrics_rows(_in_stratum_order(data), _stratum_cells(data), len(_COUNT_FIELDS))
    return GROUP_DIMENSIONS + _COUNT_FIELDS + _RATE_FIELDS, rows, []


_CLASS_COLS = ("classification_code", "classification")
_POSITIVES = tuple(filter(is_positive, CaseClassification))

_BUILDERS = {
    TableId.T1: partial(_build_coded_sex, _CLASS_COLS, CaseClassification),
    TableId.T2: partial(_build_coded_sex, _CLASS_COLS, _POSITIVES),
    TableId.T3: _build_t3,
    TableId.T4: _build_t4,
    TableId.T5: partial(_build_coded_sex, ("flag_code", "intubated"), CodedFlag),
    TableId.T6: partial(_build_coded_sex, _CLASS_COLS, _POSITIVES),
    TableId.T7: partial(_build_coded_sex, ("flag_code", "icu"), CodedFlag),
    TableId.T8: _build_t8,
    TableId.T9: _build_t9,
    TableId.T10: partial(_build_block_counts, "clade", "clades"),
    TableId.T11: _build_t11,
    TableId.T12: partial(_build_block_counts, "vaccine", "vaccines"),
    TableId.T13: _build_t13,
    TableId.G3_SHARES: _build_g3,
    TableId.G4_SCATTER: partial(_build_state_chart, ("fatality_pct", "positivity_pct")),
    TableId.G5_STACK: partial(_build_state_chart, ("tgi1_pct", "tgi2_pct", "tgi3_pct")),
    TableId.COMORBIDITY_PROFILE: _build_comorbidity,
    TableId.METRICS: _build_metrics,
    TableId.RANK: _build_rank,
}

# The class, in genomics, of the data each of these tables renders from.
_SHAPES = {**dict.fromkeys((TableId.T10, TableId.T11, TableId.T12, TableId.T13), "StateSummary"),
           TableId.G3_SHARES: "VariantShares"}

_CHUNK_ROWS = 64  # a few KiB of output: what rendering holds at once, whatever the table size


def _text_cells(row: tuple) -> list[str]:
    return ["NA" if cell is None else format_pct(cell) if type(cell) is _Pct else str(cell)
            for cell in row]


def _escaper(escapes: dict[str, str]) -> Callable[[list[str]], list[str]]:
    """Text cells with each character of ``escapes`` written as its escape;
    a row holding none of them is returned as it is."""
    table, found = str.maketrans(escapes), re.compile("[" + re.escape("".join(escapes)) + "]").search
    return lambda cells: [cell.translate(table) for cell in cells] if found("".join(cells)) else cells


# A tab or a line break in a text cell would split its tsv or markdown row,
# and a "|" its markdown row: each is written as a backslash escape, and so
# is the backslash itself. JSON escapes its own strings.
_TSV_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_escape_tsv = _escaper(_TSV_ESCAPES)
_escape_markdown = _escaper({**_TSV_ESCAPES, "|": "\\|"})


def _json_cells(row: tuple) -> list:
    return [float(format_pct(cell)) if type(cell) is _Pct else cell for cell in row]


def _lines(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_chunks(table_id: TableId, data: Any, fmt: str = "tsv") -> Iterator[bytes]:
    """Render a table to tsv, json, or markdown, as an iterator of byte chunks.

    The chunks are the header, then the rows, _CHUNK_ROWS at a time, then
    the trailers (the closing bracket, for json); joined, they are the
    table's bytes. Raises ShapeMismatch when data does not fit the table's
    expected shape, and ValueError for an unknown format, from this call,
    before any chunk. JSON output is a list of row objects; trailer
    comments appear only in tsv/markdown.
    """
    if fmt not in ("tsv", "json", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    table_id = TableId(table_id)
    builder = _BUILDERS[table_id]
    if table_id in _SHAPES:
        from . import genomics

        if not isinstance(data, getattr(genomics, _SHAPES[table_id])):
            raise ShapeMismatch(f"table {table_id.value} expects a {_SHAPES[table_id]}")
    try:
        cols, rows, trailers = builder(data)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise ShapeMismatch(f"table {table_id.value}: {exc}") from exc
    return _chunks(cols, iter(rows), trailers, fmt)


def _chunks(cols: tuple[str, ...], rows: Iterator[tuple], trailers: list[str], fmt: str) -> Iterator[bytes]:
    if fmt == "json":
        from json import JSONEncoder

        # One encode per chunk's rows, its brackets cut off and the chunks
        # joined as json.dumps joins list items (", "): the chunks join into
        # the dumps of the whole row list.
        encode = JSONEncoder(ensure_ascii=False).encode  # what json.dumps(..., ensure_ascii=False) uses
        yield b"["
        sep = ""
        while batch := list(islice(rows, _CHUNK_ROWS)):
            text = encode([dict(zip(cols, _json_cells(row))) for row in batch])
            yield (sep + text[1:-1]).encode("utf-8")
            sep = ", "
        yield b"]\n"
        return
    if fmt == "markdown":
        line, escape = (lambda cells: "| " + " | ".join(cells) + " |"), _escape_markdown
        yield _lines([line(cols), line("---" for _ in cols)])
    else:
        line, escape = "\t".join, _escape_tsv
        yield _lines([line(cols)])
    while batch := list(islice(rows, _CHUNK_ROWS)):
        yield _lines([line(escape(_text_cells(row))) for row in batch])
    if trailers:
        yield _lines(trailers)


def render(table_id: TableId, data: Any, fmt: str = "tsv") -> bytes:
    """The whole table as bytes: the joined chunks of ``render_chunks``,
    which raises as this does."""
    return b"".join(render_chunks(table_id, data, fmt))
