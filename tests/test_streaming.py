"""Tables rendered as a stream of chunks (``episurv.report.render_chunks``).

The chunks the CLI writes must join into exactly what ``render`` returns,
for every table and format the golden test pins; a bad shape must raise
before the first chunk; and iterating a large metrics table must hold one
chunk of output at a time, never the whole table. The strata behind that
table are rolled up in token space, so building them must not hold much
more than the result.
"""

import tracemalloc
from itertools import product

import pytest

from episurv import cli
from episurv.fixtures import generate_epi_fixture, smoke_epi_spec
from episurv.ingest import ingest_sveerv
from episurv.metrics import AgeGroup, CaseCounts, StratumKey, build_report, stratified_report
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
# before the roll-up, about 1.25 when the roll-up runs on tokens.
STRATA_PEAK_RATIO = 1.5


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_strata_roll_up_holds_little_more_than_its_result(tmp_path, jobs):
    """Serial, and in the parent of 2 forced shards, ``stratified_report``
    over the four group dimensions peaks below STRATA_PEAK_RATIO times the
    report it keeps: the cell keys are never decoded, and each stratum's
    sums are freed as its report is built."""
    path = tmp_path / "cases.csv"
    generate_epi_fixture(smoke_epi_spec(10_000, 0), path)
    with _shards(jobs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reports = stratified_report(ingest_sveerv(path), group_by=("state", "municipality", "sex", "age_group"))
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(reports) > 5000
    assert peak - before < STRATA_PEAK_RATIO * (after - before), (peak - before, after - before)
