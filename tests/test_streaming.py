"""Tables rendered as a stream of chunks (``episurv.report.render_chunks``).

The chunks the CLI writes must join into exactly what ``render`` returns,
for every table and format the golden test pins; a bad shape must raise
before the first chunk; and iterating a large metrics table must hold one
chunk of output at a time, never the whole table. The strata behind that
table are rolled up into packed sums as the fold goes, so building them
must not hold much more than the result, serially or sharded; every table
rendered from them must match the one rendered from ``stratified_report``
at any shard count; and their rates memo must stay bounded.
"""

import cProfile
import pstats
import tracemalloc
from itertools import combinations, product
from unittest import mock

import pytest

from episurv import cli, metrics
from episurv.fixtures import generate_epi_fixture, random_patient_records, smoke_epi_spec, write_sveerv_csv
from episurv.ingest import ingest_sveerv
from episurv.metrics import (
    GROUP_DIMENSIONS,
    AgeGroup,
    CaseCounts,
    PositivityMode,
    RankMetric,
    SeverityCriterion,
    StrataTable,
    StratumKey,
    _RATES_MEMO,
    build_report,
    strata_table,
    stratified_report,
)
from episurv.report import _CHUNK_ROWS, ShapeMismatch, TableId, render, render_chunks
from episurv.schema import Sex
from test_golden import CASES, _argv, _inputs
from test_sharding import _shards

FORMATS = ("tsv", "json", "markdown")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("streaming"))


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_cli_writes_the_chunks_that_join_into_render(name, fmt, inputs, monkeypatch, capsysbinary):
    calls = []

    def recorded(table_id, data, fmt):
        chunks = []
        calls.append((table_id, data, fmt, chunks))
        for chunk in render_chunks(table_id, data, fmt):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(cli, "render_chunks", recorded)
    assert cli.main(_argv(name, fmt, inputs)) == 0
    [(table_id, data, fmt, chunks)] = calls
    out = capsysbinary.readouterr().out
    assert out == b"".join(chunks) == render(table_id, data, fmt)
    # The header, then rows at most _CHUNK_ROWS to a chunk, then the trailers.
    if fmt == "json":
        assert chunks[0] == b"[" and chunks[-1] == b"]\n"
        assert all(chunk.count(b"}") <= _CHUNK_ROWS for chunk in chunks)
    else:
        assert all(chunk.endswith(b"\n") for chunk in chunks)
        assert chunks[0].count(b"\n") == (2 if fmt == "markdown" else 1)
        assert all(chunk.count(b"\n") <= _CHUNK_ROWS for chunk in chunks)
    if name == "metrics-strata":
        assert len(chunks) > 3


BAD_SHAPES = [
    (TableId.T1, 42),
    (TableId.T4, {"x": "y"}),
    *[(table, {"Puebla": 1}) for table in (TableId.T10, TableId.T11, TableId.T12, TableId.T13)],
    (TableId.G3_SHARES, {"Alpha": (1, 17.5)}),
    (TableId.METRICS, {StratumKey(): 42}),
    (TableId.METRICS, {"Puebla": build_report(CaseCounts())}),
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("table,data", BAD_SHAPES, ids=[f"{t.value}-{i}" for i, (t, _) in enumerate(BAD_SHAPES)])
def test_shape_mismatch_comes_before_any_chunk(table, data, fmt):
    with pytest.raises(ShapeMismatch):
        render_chunks(table, data, fmt)  # the call raises; nothing was iterated


def test_unknown_format_comes_before_any_chunk():
    with pytest.raises(ValueError):
        render_chunks(TableId.T1, {}, "csv")


def _strata(states: int) -> dict:
    """A metrics mapping of states × 10 municipalities × every sex and age group."""
    reports = {}
    for i, (state, municipality, sex, group) in enumerate(
            product(range(1, states + 1), range(1, 11), Sex, AgeGroup)):
        counts = CaseCounts(total=10 + i % 7, positive=3 + i % 3, negative=7, ambulatory_pos=2,
                            hospitalized_pos=1 + i % 3, deaths_pos=i % 2)
        reports[StratumKey(state, municipality, sex, group)] = build_report(counts)
    return reports


def test_rendering_a_large_table_holds_one_chunk_at_a_time():
    """The strata JSON of the CLI's finest grouping, rendered chunk by chunk,
    from the call on: holding its rows or its output whole would exceed
    the bound. (Sorting the strata holds a few pointers per stratum, which
    next to a tsv row's 70 bytes leaves no room for so tight a bound.)"""
    data = _strata(42)
    assert len(data) >= 5000
    tracemalloc.start()
    try:
        size = sum(map(len, render_chunks(TableId.METRICS, data, "json")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == len(render(TableId.METRICS, data, "json"))
    assert peak < size / 4, (peak, size)


# The finest grouping's peak, from the call on, over the report it returns.
# On the 10k-row smoke input: about 1.7 when every cell key was decoded
# before the roll-up; 1.30-1.37 when the roll-up ran on a whole token count;
# 1.14-1.16 since the fold rolls its rows up into packed sums as it goes,
# 1.147-1.162 under Pythons 3.10 to 3.13, serial or sharded, where building
# the reports sets the peak. The bound leaves 0.018 for the call-to-call
# spread, which was 0.015.
STRATA_PEAK_RATIO = 1.18
# What strata_table by the finest grouping holds above the table it keeps,
# over that table, on the 30k-row smoke input. When the fold decoded a
# token-keyed part into a copy keyed by StratumKey, that read 0.66-0.72
# serially and 0.25 sharded; since the part is the table, 0.24-0.25 and
# 0.17 under Pythons 3.10 to 3.13.
TABLE_PEAK_RATIO = 0.3
_FINEST = ("state", "municipality", "sex", "age_group")


def _strata_peak(path, jobs: int, build=stratified_report) -> tuple[int, int, int]:
    """What ``build`` (by default ``stratified_report``) by the finest
    grouping at ``jobs`` forced shards peaks at and keeps, from the call
    on, and its number of strata."""
    with _shards(jobs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reports = build(ingest_sveerv(path), group_by=_FINEST)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak - before, after - before, len(reports)


@pytest.fixture(scope="module")
def smoke_10k(tmp_path_factory):
    path = tmp_path_factory.mktemp("strata") / "cases.csv"
    generate_epi_fixture(smoke_epi_spec(10_000, 0), path)
    for jobs in (1, 2):  # what a first call leaves behind: imports, and pickle's on a first shard
        _strata_peak(path, jobs)
    return path


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_strata_roll_up_holds_little_more_than_its_result(smoke_10k, jobs):
    """Serial, and in the parent of 2 forced shards, ``stratified_report``
    over the four group dimensions peaks below STRATA_PEAK_RATIO times the
    report it keeps: the fold holds a bounded count or one int per
    stratum, and each stratum's sums are freed as its report is built."""
    peak, kept, strata = _strata_peak(smoke_10k, jobs)
    assert strata > 5000
    assert peak < STRATA_PEAK_RATIO * kept, (peak, kept)


@pytest.fixture(scope="module")
def smoke_30k(tmp_path_factory):
    path = tmp_path_factory.mktemp("strata") / "cases.csv"
    generate_epi_fixture(smoke_epi_spec(30_000, 0), path)
    for jobs in (1, 2):
        _strata_peak(path, jobs, strata_table)
    return path


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_strata_table_is_the_roll_up_and_no_copy_of_it(smoke_30k, jobs):
    """Serial, and in the parent of 2 forced shards, ``strata_table`` by the
    finest grouping peaks at most TABLE_PEAK_RATIO times the table it keeps
    above what it keeps: the fold's part, keyed by StratumKey from the
    first summed row, is the table it returns, never decoded into a copy."""
    peak, kept, strata = _strata_peak(smoke_30k, jobs, strata_table)
    assert strata > 10000
    assert peak - kept <= TABLE_PEAK_RATIO * kept, (peak, kept)


def test_the_serial_roll_up_peaks_no_higher_than_a_sharded_one(smoke_10k):
    """Counted serially (a quoted file, a pipe, one CPU), the strata hold no
    more above the report they keep than in the parent of 2 forced shards,
    within 5%. What a call keeps moves by up to 0.36 MB from one call to
    the next (tracemalloc counts the tuples on CPython's free lists as
    kept), and the peak with it, so the peak ratios themselves differ by up
    to 0.03 either way; the peak above what is kept does not. When the
    fold held its whole token count, the serial call held 19% more above
    its report on this input, and 36% more on 100k rows."""
    serial_peak, serial_kept, _ = _strata_peak(smoke_10k, 1)
    sharded_peak, sharded_kept, _ = _strata_peak(smoke_10k, 2)
    assert serial_peak - serial_kept <= 1.05 * (sharded_peak - sharded_kept), (
        serial_peak, serial_kept, sharded_peak, sharded_kept)


# Every strata table: metrics by each --group-by subset, rank by each
# metric, and the two per-state charts; each with its rate settings.
_STRATA_TABLES = [
    *[(TableId.METRICS, group_by, SeverityCriterion.ICU_AND_INTUBATION, PositivityMode.AGGREGATE)
      for n in range(len(GROUP_DIMENSIONS) + 1) for group_by in combinations(GROUP_DIMENSIONS, n)],
    (TableId.METRICS, _FINEST, SeverityCriterion.ICU_OR_INTUBATION, PositivityMode.LAB_NEGATIVE),
    *[(TableId.RANK, ("state",), criterion, positivity) for criterion, positivity in
      zip(SeverityCriterion, [*PositivityMode, PositivityMode.AGGREGATE, PositivityMode.LAB_NEGATIVE])],
    (TableId.G4_SCATTER, ("state",), SeverityCriterion.ICU_AND_INTUBATION, PositivityMode.LAB_NEGATIVE),
    (TableId.G5_STACK, ("state",), SeverityCriterion.INTUBATION_ONLY, PositivityMode.AGGREGATE),
]


@pytest.fixture(scope="module")
def random_cases(tmp_path_factory):
    """600 random records: every classification, flag and escape code, so
    some strata have undefined rates."""
    path = tmp_path_factory.mktemp("strata") / "cases.csv"
    path.write_bytes(write_sveerv_csv(random_patient_records(7, 600)))
    return path


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("table,group_by,criterion,positivity", _STRATA_TABLES,
                         ids=[f"{t.value}-{','.join(g) or 'none'}-{c.value}-{p.value}" for t, g, c, p in _STRATA_TABLES])
def test_every_strata_table_renders_as_from_the_reports_at_any_shard_count(
        random_cases, jobs, table, group_by, criterion, positivity):
    """The packed table at 1, 2 or 3 forced shards, its rows summed by group
    from the first batch on, renders, in every format and for rank by every
    metric, the bytes that ``stratified_report``'s dict of a serial count,
    its rows counted by key to the end, renders."""
    with _shards(1):
        reports = stratified_report(ingest_sveerv(random_cases), None, group_by, criterion, positivity)
    with _shards(jobs), mock.patch.object(metrics, "_ROLL_KEYS", 1):
        packed = strata_table(ingest_sveerv(random_cases), None, group_by, criterion, positivity)
    assert isinstance(packed, StrataTable) and list(packed) == list(reports)
    for fmt, metric in product(FORMATS, RankMetric if table is TableId.RANK else [None]):
        pair = (lambda data: (metric, data)) if metric else (lambda data: data)
        assert render(table, pair(packed), fmt) == render(table, pair(reports), fmt)


def test_counting_and_rendering_strata_hash_no_enum_in_python(random_cases):
    """Sex and AgeGroup hash in C: counting 600 records by the finest
    grouping, from records and from a serial stream, and rendering the
    table in every format, makes no call to ``enum.py``'s ``__hash__``."""
    records = random_patient_records(7, 600)
    profile = cProfile.Profile()
    with _shards(1):
        profile.enable()
        tables = [strata_table(records, group_by=_FINEST), strata_table(ingest_sveerv(random_cases), group_by=_FINEST)]
        for table, fmt in product(tables, FORMATS):
            render(TableId.METRICS, table, fmt)
        profile.disable()
    assert len(tables[0]) > 500 and list(tables[0]) == list(tables[1])
    called = {(file, name) for file, _, name in pstats.Stats(profile).stats}
    assert not {(file, name) for file, name in called if name == "__hash__" and file.endswith("enum.py")}
    assert any(name == "_metrics_rows" for _, name in called)  # the profile saw the render


def test_the_rates_memo_stays_bounded():
    """Rendering a packed table whose strata all have distinct counts keeps
    at most _RATES_MEMO rates: four times as many strata leave less than
    twice as much behind as a table just over the memo's size."""
    def table(states: int) -> StrataTable:
        strata = product(range(1, states + 1), range(1, 11), Sex, AgeGroup)
        sums = {StratumKey(*key): (i + 2) | (i + 1) << 64 | 1 << 128 | i % 5 << 384
                for i, key in enumerate(strata)}  # total, positive, negative and ambulatory_pos
        return StrataTable(sums, SeverityCriterion.ICU_AND_INTUBATION, PositivityMode.AGGREGATE)

    def left_behind(data: StrataTable) -> int:
        before = tracemalloc.get_traced_memory()[0]
        for _ in render_chunks(TableId.METRICS, data, "json"):
            pass
        return tracemalloc.get_traced_memory()[0] - before

    states = _RATES_MEMO // 150 + 1  # each state has 150 strata
    small, large = table(states), table(4 * states)
    assert len(small) > _RATES_MEMO and len(large) == 4 * len(small)
    tracemalloc.start()
    try:
        left_behind(table(4 * states))  # fills the bounded memo of formatted percentages
        small_left = left_behind(small)
        large_left = left_behind(large)
    finally:
        tracemalloc.stop()
    assert small.rates.cache_info().currsize == large.rates.cache_info().currsize == _RATES_MEMO
    assert large_left < 2 * small_left, (small_left, large_left)
