"""The batch reader against csv.reader.

A batch of lines is split with ``str.split`` when that gives csv.reader's
rows, and by csv.reader otherwise (``episurv.ingest``, module docstring).
These tests read each input twice: through the batch reader, and through a
reference that swaps the reader (``_Stream._rows``) for csv.reader over
lines decoded one by one, as the package read every file before, under the
same batch loop. Everything a read shows must agree: the items iteration
yields in order (RowError line numbers included), the stats and their
reason order, the Counter ``count`` returns at 1, 2 and 3 forced shards,
and the message of any malformed-CSV error. A ``csv.QUOTE_ALL`` rewrite of
the annex fixtures, read by csv.reader throughout, must render the same CLI
tables as the unquoted files.

``python tests/test_batch_split.py`` runs the edge table and the QUOTE_ALL
check without a test runner, under any interpreter with ``src`` on its path.
"""

import contextlib
import csv
import io
import sys
import tempfile
from itertools import islice
from pathlib import Path
from unittest import mock

from episurv import ingest
from episurv.cli import main
from episurv.fixtures import generate_fixture, load_preset
from episurv.ingest import BATCH_ROWS
from episurv.metrics import age_group

try:
    import pytest
    from hypothesis import given, settings, strategies as st
except ModuleNotFoundError:  # run as a script: see the end of the file
    pytest = None

ANNEX = {
    "sveerv": generate_fixture(load_preset("annex-epi")).decode("utf-8").split("\n")[:-1],
    "gisaid": generate_fixture(load_preset("annex-gisaid")).decode("utf-8").split("\n")[:-1],
}
SEPARATOR = {"sveerv": ",", "gisaid": "\t"}
DIMS = {
    "sveerv": [("state_code", None), ("sex", None), ("age_years", age_group), ("classification", None)],
    "gisaid": [("pango_lineage", None), ("state", None), ("age_years", age_group)],
}
DATA_ROWS = 2 * BATCH_ROWS + 100  # three batches, so that shards and batch edges both fall in the data


def _reference_rows(self, raw, stats, line_no):
    """csv.reader over ``raw``'s lines decoded one by one (latin-1 when a
    line fails), BATCH_ROWS reader rows per batch, blank rows dropped, each
    row with the physical line it starts on."""

    def lines():
        for line in raw:
            stats.bytes_read += len(line)
            try:
                yield line.decode(self._encoding)
            except UnicodeDecodeError:
                yield line.decode("latin-1")

    reader = csv.reader(lines(), delimiter=self._delimiter)
    start = line_no + 1
    while True:
        batch = []
        try:
            for row in islice(reader, BATCH_ROWS):
                batch.append((row, start))
                start = line_no + reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"line {line_no + reader.line_num}: malformed CSV: {exc}") from None
        if not batch:
            return
        yield [row for row, _ in batch if row], [s for row, s in batch if row]


def _open(kind: str, source, encoding: str, delimiter: str):
    if kind == "gisaid":
        return ingest.ingest_gisaid(source, encoding=encoding)
    return ingest.ingest_sveerv(source, delimiter=delimiter, encoding=encoding)


def _read(kind: str, data: bytes, path: Path, jobs: int, encoding: str = "utf-8", delimiter: str = ",") -> dict:
    """What reading ``data`` shows: the items iteration yields up to any
    error, its stats and reason order, and ``count`` of the same bytes at
    ``path``, cut into ``jobs`` shards when it can be."""
    seen = {}
    try:
        stream = _open(kind, data, encoding, delimiter)
    except (TypeError, ValueError) as exc:  # an unusable delimiter or header
        return {"open": (type(exc), str(exc))}
    items = seen["items"] = []
    try:
        items.extend(stream)
    except ValueError as exc:
        seen["iterate error"] = str(exc)
    seen["stats"] = stream.stats, list(stream.stats.rejection_reasons.items())
    path.write_bytes(data)
    with mock.patch.object(ingest, "_jobs", lambda data_bytes: jobs):
        stream = _open(kind, path, encoding, delimiter)
        try:
            seen["count"] = list(stream.count(DIMS[kind]).items())
        except ValueError as exc:
            seen["count error"] = str(exc)
    seen["count stats"] = stream.stats, list(stream.stats.rejection_reasons.items())
    return seen


def _assert_reads_agree(kind: str, data: bytes, jobs: int, **options) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        with mock.patch.object(ingest._Stream, "_rows", _reference_rows):
            expected = _read(kind, data, path, 1, **options)
        seen = _read(kind, data, path, jobs, **options)
    # After a malformed line iteration's stats are partial, and the batch
    # holding the line was read whole. A count that raises leaves the stats
    # of the header read at every shard count, so those are compared whole.
    if "iterate error" in expected:
        for read in (expected, seen):
            read["stats"][0].bytes_read = None
    for what in expected.keys() | seen.keys():
        assert seen.get(what) == expected.get(what), what
    return seen


# --- the edge table -------------------------------------------------------------

def _lines(kind: str) -> list[str]:
    """The header and DATA_ROWS data lines of the kind's annex fixture."""
    return ANNEX[kind][:1 + DATA_ROWS]


def _set(lines: list[str], kind: str, edits: dict[int, str], column: int = 2) -> list[str]:
    """``lines`` with the cell in ``column`` of each physical line (1-based)
    in ``edits`` replaced by its value."""
    out = list(lines)
    for line_no, value in edits.items():
        cells = out[line_no - 1].split(SEPARATOR[kind])
        cells[column] = value
        out[line_no - 1] = SEPARATOR[kind].join(cells)
    return out


def _joined(lines: list[str], endings: dict[int, str] | None = None, last: str = "\n") -> str:
    endings = endings or {}
    return "".join(line + endings.get(i, "\n") for i, line in enumerate(lines, 1))[:-1] + last


def _edge_cases(kind: str) -> dict[str, tuple[bytes, dict]]:
    """Per case: the file's bytes and the reader's options."""
    lines = _lines(kind)
    utf8 = lambda text: (text.encode("utf-8"), {})  # noqa: E731
    blanks = list(lines)
    for line_no in (3, 256, 257, 400):
        blanks.insert(line_no - 1, "")
    quoted, column = ('"Ambulatorio\nsegunda"', 5) if kind == "gisaid" else ('"2021-\n01-01"', 8)
    cases = {
        "crlf": utf8(_joined(lines, {i: "\r\n" for i in range(1, len(lines) + 1)})),
        "one-crlf-line": utf8(_joined(lines, {100: "\r\n"})),
        "cr-at-the-end": utf8(_joined(lines, last="\r")),
        "cr-inside-a-field": utf8(_joined(_set(lines, kind, {300: "a\rb"}))),
        "nul": utf8(_joined(_set(lines, kind, {200: "a\0b", 450: "\0"}))),
        "blank-lines": utf8(_joined(blanks) + "\n"),
        "stray-quote": utf8(_joined(_set(lines, kind, {150: 'ab"c'}))),
        "quoted-newline": utf8(_joined(_set(lines, kind, {120: quoted}, column))),
        "field-over-the-limit": utf8(_joined(_set(lines, kind, {400: "x" * (csv.field_size_limit() + 1)}))),
        "field-at-the-limit": utf8(_joined(_set(lines, kind, {400: "x" * csv.field_size_limit()}))),
        "vt-fs-and-line-separator": utf8(_joined(_set(lines, kind, {10: "a\x0bb", 11: "a\x1cb", 300: "a\u2028b"}))),
        "no-trailing-newline": utf8(_joined(lines, last="")),
        "invalid-utf8": (_joined(_set(lines, kind, {50: "a\udcffb", 300: "\udce9"})).encode("utf-8", "surrogateescape"),
                         {}),
        "utf-8-sig-bom-lines": ("\ufeff".join(["", _joined(lines[:260]), _joined(lines[260:])]).encode("utf-8"),
                                {"encoding": "utf-8-sig"}),
        "latin-1": (_joined(_set(lines, kind, {40: "é", 270: "ñu"})).encode("latin-1"), {"encoding": "latin-1"}),
        # a codec that decodes a line to more than one newline: "\\n" in a field
        "unicode-escape": (_joined(_set(lines, kind, {30: "a\\tb", 60: "a\\nb"})).encode("utf-8"),
                           {"encoding": "unicode_escape"}),
    }
    if kind == "sveerv":
        for name, delimiter in (("semicolon", ";"), ("tab", "\t"), ("space", " "), ("quote", '"')):
            text = _joined(lines).replace(",", delimiter)
            cases[f"delimiter-{name}"] = (text.encode("utf-8"), {"delimiter": delimiter})
    return cases


EDGE_CASES = {(kind, name): case for kind in ANNEX for name, case in _edge_cases(kind).items()}


def check_edge_case(kind: str, name: str, jobs: int) -> dict:
    data, options = EDGE_CASES[kind, name]
    return _assert_reads_agree(kind, data, jobs, **options)


# --- QUOTE_ALL ------------------------------------------------------------------

QUOTED_COMMANDS = {
    "sveerv": (["epi-report", "--table", "t1"], ["epi-report", "--table", "t4"],
               ["epi-report", "--table", "t7"], ["epi-report", "--group-by", "state,sex", "-f", "json"],
               ["epi-report", "--table", "comorbidity-profile"], ["rank"]),
    "gisaid": (["genomic-report"], ["genomic-report", "--table", "t8"], ["genomic-report", "--table", "t9"],
               ["genomic-report", "--table", "t10"], ["genomic-report", "--table", "t11"],
               ["genomic-report", "--table", "t12"], ["genomic-report", "--table", "t13", "-f", "markdown"]),
}


def _cli(argv: list[str]) -> tuple[int, bytes]:
    stdout = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.buffer.getvalue()


def check_quote_all(kind: str) -> None:
    """Every listed table of the QUOTE_ALL rewrite is byte-identical to the
    unquoted file's."""
    sep = SEPARATOR[kind]
    quoted = io.StringIO()
    csv.writer(quoted, delimiter=sep, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
        line.split(sep) for line in ANNEX[kind])
    with tempfile.TemporaryDirectory() as tmp:
        plain_path, quoted_path = Path(tmp) / "plain", Path(tmp) / "quoted"
        plain_path.write_text("\n".join(ANNEX[kind]) + "\n", encoding="utf-8")
        quoted_path.write_text(quoted.getvalue(), encoding="utf-8")
        assert quoted_path.read_bytes().count(b'"') > 2 * len(ANNEX[kind])
        for argv in QUOTED_COMMANDS[kind]:
            plain = _cli([*argv, "-i", str(plain_path)])
            assert plain[0] == 0 and plain[1], argv
            assert _cli([*argv, "-i", str(quoted_path)]) == plain, argv


if pytest is not None:
    from test_differential import INSERTS  # the CLI gate's byte mutations

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("kind, name", sorted(EDGE_CASES), ids=[f"{k}-{n}" for k, n in sorted(EDGE_CASES)])
    def test_edge_case_reads_as_csv_reader_does(kind, name, jobs):
        check_edge_case(kind, name, jobs)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ANNEX)),
        start=st.integers(0, 5000 - DATA_ROWS),
        inserts=st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(INSERTS)), min_size=1, max_size=8),
        jobs=st.sampled_from((1, 2, 3)),
    )
    def test_mangled_bytes_read_as_csv_reader_does(kind, start, inserts, jobs):
        lines = ANNEX[kind][:1] + ANNEX[kind][1 + start:1 + start + DATA_ROWS]
        data = ("\n".join(lines) + "\n").encode("utf-8")
        for position, chunk in inserts:
            position %= len(data) + 1
            data = data[:position] + chunk + data[position:]
        _assert_reads_agree(kind, data, jobs)

    @pytest.mark.parametrize("kind", sorted(ANNEX))
    def test_quote_all_renders_the_same_tables(kind):
        check_quote_all(kind)

    def test_only_the_batches_that_need_it_go_to_csv_reader():
        calls, reader = [], csv.reader

        def counted(*args, **kwargs):
            calls.append(args)
            return reader(*args, **kwargs)

        expected = {"no-trailing-newline": 1, "crlf": 1, "one-crlf-line": 1, "cr-at-the-end": 1, "stray-quote": 2,
                    "invalid-utf8": 1, "blank-lines": 4, "field-over-the-limit": 2}
        for name, n in expected.items():
            data, options = EDGE_CASES["sveerv", name]
            calls.clear()
            with mock.patch.object(csv, "reader", counted), contextlib.suppress(ValueError):
                list(_open("sveerv", data, options.get("encoding", "utf-8"), ","))
            assert len(calls) == n, name  # the header's reader, then one per batch that needs one


if __name__ == "__main__":
    for kind, name in sorted(EDGE_CASES):
        for jobs in (1, 2, 3):
            check_edge_case(kind, name, jobs)
    for kind in sorted(ANNEX):
        check_quote_all(kind)
    sys.stdout.write(f"{len(EDGE_CASES)} edge cases at 1, 2 and 3 shards and the QUOTE_ALL tables agree "
                     f"under Python {sys.version.split()[0]}\n")
