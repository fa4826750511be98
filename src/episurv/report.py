"""Deterministic rendering of the standard annex tables.

Every table renders byte-identically for identical inputs: rows follow fixed
sort orders, counts print as integers, and percentages print with exactly two
decimals, rounded half-up. docs/tables.md lists each table's columns and the
data shape its builder expects.
"""

from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from functools import partial
from json import JSONEncoder
from operator import attrgetter
from typing import Any, Mapping

from .genomics import StateSummary, StatusBucket, VariantShares, bucket_status
from .metrics import AgeGroup, MetricsReport, RankMetric, StratumKey, rank_states
from .schema import (
    COMORBIDITY_FIELDS,
    CaseClassification,
    CodedFlag,
    STATE_NAMES,
    Sex,
    TreatmentStrategy,
    is_positive,
)

__all__ = ["TableId", "ShapeMismatch", "render", "format_pct"]


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
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


# Cell markers: _Pct wraps floats that format as percentages.
class _Pct(float):
    pass


# Each member's place in its enum's definition order, for the sort keys;
# None, meaning "all" on a stratum axis, sorts first.
_RANK = {None: -1, **{member: i for enum in (Sex, AgeGroup, StatusBucket)
                      for i, member in enumerate(enum)}}

_SEX_COLS = ("female", "male", "unspecified", "total")


def _build_coded_sex(code_cols: tuple[str, str], members, data: Mapping):
    """One row per coded member (its code, its name, a count per Sex and their
    sum) in the members' order, then the total row."""
    rows = []
    tot = [0] * len(Sex)
    for member in members:
        cells = [data.get((member, sex), 0) for sex in Sex]
        tot = [t + c for t, c in zip(tot, cells)]
        rows.append((member.value, member.name.lower(), *cells, sum(cells)))
    rows.append(("", "total", *tot, sum(tot)))
    return code_cols + _SEX_COLS, rows, []


def _build_t3(data: Mapping):
    cols = ("sex", "ambulatory", "hospitalized", "total")
    rows = []
    tot_a = tot_h = 0
    for sex in Sex:
        a = data.get((sex, TreatmentStrategy.AMBULATORY), 0)
        h = data.get((sex, TreatmentStrategy.HOSPITALIZED), 0)
        tot_a += a
        tot_h += h
        rows.append((sex.value, a, h, a + h))
    rows.append(("total", tot_a, tot_h, tot_a + tot_h))
    return cols, rows, []


def _build_t4(data: Mapping):
    cols = ("state_code", "state", "ambulatory", "hospitalized", "total", "hospital_share_pct")
    national_hosp = sum(split[1] for split in data.values())
    rows = []
    tot_a = 0
    for state in sorted(data):
        amb, hosp = data[state][0], data[state][1]
        tot_a += amb
        share = _Pct(hosp / national_hosp * 100.0) if national_hosp else None
        rows.append((state, STATE_NAMES.get(state, str(state)), amb, hosp, amb + hosp, share))
    share = _Pct(100.0) if national_hosp else None
    rows.append(("", "total", tot_a, national_hosp, tot_a + national_hosp, share))
    return cols, rows, []


def _build_t8(data: Mapping):
    cols = ("who_label", "lineage", "clade", "count")
    rows = []
    for label, tab in data.items():
        for lineage, clade in sorted(tab):
            rows.append((label, lineage, clade, tab[(lineage, clade)]))
    return cols, rows, []


def _build_t9(data: Mapping):
    cols = ("patient_status", "bucket", "clade", "count")
    def key(item):
        (status, clade), _ = item
        return (_RANK[bucket_status(status)], status, clade)
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
    return ("state", *_SEX_COLS), rows, []


def _build_t13(data: StateSummary):
    rows = []
    for name, block in _summary_blocks(data):
        for group in AgeGroup:
            cells = [block.age_sex.get((group, sex), 0) for sex in Sex]
            rows.append((name, group.value, *cells, sum(cells)))
    return ("state", "age_group", *_SEX_COLS), rows, []


def _build_g3(data: VariantShares):
    cols = ("who_label", "count", "share_pct")
    rows = [(label, count, _Pct(pct)) for label, (count, pct) in data.shares.items()]
    rows.append(("unclassified", data.unclassified, None))
    return cols, rows, []


def _stratum_sort_key(key: StratumKey):
    return (key.state is not None, key.state or 0,
            key.municipality is not None, key.municipality or 0,
            _RANK[key.sex], _RANK[key.age_group])


def _build_state_chart(metric_names: tuple[str, ...], data: Mapping[StratumKey, MetricsReport]):
    """Per-state rows for the chart tables; strata with any undefined metric
    are omitted and reported in a trailer comment."""
    rows = []
    omitted = []
    for key in sorted(data, key=_stratum_sort_key):
        if not key.is_state():
            continue
        report = data[key]
        values = [getattr(report, name) for name in metric_names]
        if any(v is None for v in values):
            omitted.append(key.state)
            continue
        rows.append((key.state, STATE_NAMES.get(key.state, str(key.state)),
                     *[_Pct(v) for v in values]))
    trailers = []
    if omitted:
        trailers.append("# omitted (undefined): " + ", ".join(str(s) for s in omitted))
    return ("state_code", "state", *metric_names), rows, trailers


def _build_rank(data: tuple[RankMetric, Mapping[StratumKey, MetricsReport]]):
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


_DIM_LABELS = ("state", "municipality", "sex", "age_group")
_COUNT_COLS = ("total", "positive", "negative", "suspect", "invalid", "not_performed",
               "ambulatory_pos", "hospitalized_pos", "icu_pos", "intubated_pos",
               "icu_and_intubated_pos", "deaths_pos", "deaths_icu_intubated_pos")
_RATE_COLS = ("fatality_pct", "positivity_pct", "tgi1_pct", "tgi2_pct", "tgi3_pct")
_counts_of = attrgetter(*_COUNT_COLS)
_rates_of = attrgetter(*_RATE_COLS)


def _build_metrics(data: Mapping):
    cols = _DIM_LABELS + _COUNT_COLS + _RATE_COLS
    rows = []
    for key in sorted(data, key=_stratum_sort_key):
        report = data[key]
        dims = (
            "all" if key.state is None else key.state,
            "all" if key.municipality is None else key.municipality,
            "all" if key.sex is None else key.sex.value,
            "all" if key.age_group is None else key.age_group.value,
        )
        rates = tuple(None if rate is None else _Pct(rate) for rate in _rates_of(report))
        rows.append(dims + _counts_of(report.counts) + rates)
    return cols, rows, []


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

_SUMMARY_TABLES = {TableId.T10, TableId.T11, TableId.T12, TableId.T13}


def _cell_text(cell: Any) -> str:
    if cell is None:
        return "NA"
    if isinstance(cell, _Pct):
        return format_pct(cell)
    return str(cell)


_JSON = JSONEncoder(ensure_ascii=False)  # what json.dumps(..., ensure_ascii=False) uses


def _cell_json(cell: Any) -> Any:
    if isinstance(cell, _Pct):
        return float(format_pct(cell))
    return cell


def render(table_id: TableId, data: Any, fmt: str = "tsv") -> bytes:
    """Render a table to tsv, json, or markdown bytes.

    Raises ShapeMismatch when data does not fit the table's expected shape,
    and ValueError for an unknown format. JSON output is a list of row
    objects; trailer comments appear only in tsv/markdown.
    """
    if fmt not in ("tsv", "json", "markdown"):
        raise ValueError(f"unknown format {fmt!r}")
    table_id = TableId(table_id)
    builder = _BUILDERS[table_id]
    if table_id in _SUMMARY_TABLES and not isinstance(data, StateSummary):
        raise ShapeMismatch(f"table {table_id.value} expects a StateSummary")
    if table_id is TableId.G3_SHARES and not isinstance(data, VariantShares):
        raise ShapeMismatch(f"table {table_id.value} expects a VariantShares")
    try:
        cols, rows, trailers = builder(data)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise ShapeMismatch(f"table {table_id.value}: {exc}") from exc

    if fmt == "json":
        # One encode per row, joined as json.dumps joins list items (", "):
        # the same bytes without holding every row as a dict, nor the text as str.
        out = bytearray(b"[")
        for i, row in enumerate(rows):
            if i:
                out += b", "
            out += _JSON.encode(dict(zip(cols, map(_cell_json, row)))).encode("utf-8")
        out += b"]\n"
        return bytes(out)

    if fmt == "markdown":
        line = lambda cells: "| " + " | ".join(cells) + " |"
        lines = [line(cols), line("---" for _ in cols)]
    else:
        line = "\t".join
        lines = [line(cols)]
    lines.extend(line(map(_cell_text, row)) for row in rows)
    lines.extend(trailers)
    return ("\n".join(lines) + "\n").encode("utf-8")
