"""The sharded ``count`` against the serial one.

``count`` splits a large file's data into newline-aligned byte ranges and
folds them in forked workers (``episurv.ingest``, module docstring). These
tests force 2 or 3 shards on small files through the private ``_jobs`` hook,
put awkward rows (rejected, blank, short, invalid UTF-8) on and around the
cuts, and require the sharded Counter to equal the serial one item for item
and in insertion order, equal IngestStats, and byte-identical CLI output for
both readers. They also check the guards that keep a file serial, the
whole-file line number of malformed CSV, and that every worker is reaped.
"""

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from episurv import _shard, ingest
from episurv.cli import main
from episurv.fixtures import generate_genomic_fixture, load_preset, random_patient_records, write_sveerv_csv
from episurv.ingest import ingest_gisaid, ingest_sveerv
from episurv.metrics import age_group

SVEERV_LINES = write_sveerv_csv(random_patient_records(3, 400)).decode("utf-8").splitlines()
GISAID_LINES = generate_genomic_fixture(load_preset("annex-gisaid")).decode("utf-8").splitlines()

# Per reader: its lines, delimiter, a constructor, dimensions with many
# distinct keys (so insertion order is tested), and the CLI commands compared.
READERS = {
    "sveerv": (SVEERV_LINES, ",", ingest_sveerv,
               [("state_code", None), ("sex", None), ("age_years", age_group),
                ("classification", None), ("death_date", None)],
               (["validate"], ["epi-report", "--table", "t4"],
                ["epi-report", "--group-by", "state,sex", "-f", "json"])),
    "gisaid": (GISAID_LINES, "\t", ingest_gisaid,
               [("pango_lineage", None), ("state", None), ("gisaid_clade", None),
                ("age_years", age_group)],
               (["validate", "--kind", "gisaid"], ["genomic-report", "--table", "t8"],
                ["genomic-report", "--table", "t13", "-f", "markdown"])),
}

# Cell edits: rejected values, padding, invalid UTF-8 (a lone surrogate
# written with surrogateescape), short rows and blank lines.
EDIT = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 30), st.sampled_from(("x", "", "96", "B..1", "-1"))),
    st.tuples(st.just("set"), st.integers(0, 30), st.sampled_from(("\udcff", "a\udce9b", "é"))),
    st.tuples(st.just("pad"), st.integers(0, 30), st.just(" {} ")),
    st.tuples(st.just("short"), st.integers(0, 30), st.just("")),
    st.tuples(st.just("blank"), st.just(0), st.just("")),
)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _shards(n: int):
    """Make ``count`` ask for ``n`` shards whatever the file's size."""
    return mock.patch.object(ingest, "_jobs", lambda data_bytes: n)


def _no_fork():
    return mock.patch.object(os, "fork", side_effect=AssertionError("forked"))


@contextlib.contextmanager
def _forks():
    """The pids forked inside the block."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", counted):
        yield pids


def _file_bytes(lines: list[str], newline: str = "\n", trailing: bool = True) -> bytes:
    return (newline.join(lines) + (newline if trailing else "")).encode("utf-8", "surrogateescape")


def _cut_rows(lines: list[str], jobs: int, newline: str) -> list[int]:
    """Indices of the lines holding the bytes the cuts are searched from."""
    ends, total = [], 0
    for line in lines:
        total += len(line.encode("utf-8", "surrogateescape")) + len(newline)
        ends.append(total)
    start = ends[0]
    rows = []
    for k in range(1, jobs):
        pos = start + k * (total - start) // jobs
        rows.append(next((i for i, end in enumerate(ends) if end > pos), len(lines) - 1))
    return rows


def _mutate(lines: list[str], edits, sep: str) -> list[str]:
    out = list(lines)
    for i, (kind, col, value) in edits:
        if not 1 <= i < len(out):  # never the header
            continue
        cells = out[i].split(sep)
        if kind == "blank":
            out[i] = ""
            continue
        col %= len(cells)
        if kind == "set":
            cells[col] = value
        elif kind == "pad":
            cells[col] = value.format(cells[col])
        else:
            cells = cells[:col]
        out[i] = sep.join(cells)
    return out


def _run(argv: list[str]) -> tuple[int, bytes, str]:
    stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.buffer.getvalue(), stderr.getvalue()


def _assert_shards_agree(kind: str, path, jobs: int | None, expect_forks: bool) -> None:
    """Serial and sharded runs agree; ``jobs`` None leaves the shard count to the machine."""
    _, _, open_stream, dims, commands = READERS[kind]
    with _shards(1), _no_fork():
        serial = open_stream(path)
        serial_counts = serial.count(dims)
        serial_out = [_run([*argv, "-i", str(path)]) for argv in commands]
    with _shards(jobs) if jobs else contextlib.nullcontext(), _forks() as pids:
        sharded = open_stream(path)
        sharded_stats = sharded.stats  # updated in place, as a serial count does
        sharded_counts = sharded.count(dims)
        sharded_out = [_run([*argv, "-i", str(path)]) for argv in commands]
    assert list(sharded_counts.items()) == list(serial_counts.items())
    assert sharded_stats == serial.stats
    assert sharded_out == serial_out
    if expect_forks:
        assert pids
    _assert_no_child_left()


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(READERS)),
    start=st.integers(0, 300),
    n=st.integers(0, 60),
    jobs=st.sampled_from((2, 3)),
    newline=st.sampled_from(("\n", "\r\n")),
    trailing=st.booleans(),
    data=st.data(),
)
def test_sharded_count_matches_serial(tmp_path_factory, kind, start, n, jobs, newline, trailing, data):
    lines, sep, *_ = READERS[kind]
    lines = [lines[0]] + lines[1 + start:1 + start + n]
    near_cut = st.sampled_from([row + d for row in _cut_rows(lines, jobs, newline) for d in (-1, 0, 1)])
    edits = data.draw(st.lists(st.tuples(st.one_of(near_cut, st.integers(1, n + 1)), EDIT), max_size=12))
    path = tmp_path_factory.mktemp("shard") / "input"
    path.write_bytes(_file_bytes(_mutate(lines, edits, sep), newline, trailing))
    _assert_shards_agree(kind, path, jobs, expect_forks=n >= 12)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_large_file_shards_without_the_hook(tmp_path, kind):
    lines, *_ = READERS[kind]
    body = lines[1:] * (2 * ingest.SHARD_MIN_BYTES // len("\n".join(lines[1:])) + 1)
    path = tmp_path / "input"
    path.write_bytes(_file_bytes([lines[0], *body]))
    data_bytes = path.stat().st_size - len(lines[0]) - 1
    _assert_shards_agree(kind, path, None, expect_forks=ingest._jobs(data_bytes) > 1)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_quote_after_the_header_keeps_it_serial(tmp_path, kind):
    lines, sep, open_stream, dims, _ = READERS[kind]
    quoted = lines[30].split(sep)
    quoted[1] = f'"{quoted[1]}"'
    path = tmp_path / "input"
    path.write_bytes(_file_bytes(lines[:30] + [sep.join(quoted)] + lines[31:60]))
    with _shards(3), _no_fork():
        counts = open_stream(path).count(dims)
    assert counts == open_stream(path.read_bytes()).count(dims)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_bytes_fifo_and_threads_keep_it_serial(tmp_path, kind):
    lines, _, open_stream, dims, _ = READERS[kind]
    data = _file_bytes(lines[:60])
    expected = open_stream(data).count(dims)
    path = tmp_path / "input"
    path.write_bytes(data)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen([sys.executable, "-c",
                               "import sys; open(sys.argv[1], 'wb').write(open(sys.argv[2], 'rb').read())",
                               str(fifo), str(path)])
    try:
        with _shards(3), _no_fork():
            assert open_stream(data).count(dims) == expected
            assert open_stream(io.BytesIO(data)).count(dims) == expected
            assert open_stream(fifo).count(dims) == expected
            stop = threading.Event()
            thread = threading.Thread(target=stop.wait)
            thread.start()
            try:
                assert open_stream(path).count(dims) == expected
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        try:
            writer.wait(timeout=30)
        finally:
            writer.kill()  # only if the FIFO was never opened
            writer.wait()
    assert writer.returncode == 0


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("bad_rows", [(1,), (25,), (59,), (25, 59), (59, 58), (300,)])
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_malformed_csv_names_the_whole_file_line(tmp_path, kind, bad_rows, jobs):
    """The same error at every shard count, and ``stats`` left as the header
    read left them, although rows before the bad one (a whole batch of them
    when it is on line 301) were counted first."""
    lines, sep, open_stream, _, _ = READERS[kind]
    lines = list(lines[:max(60, max(bad_rows) + 2)])
    for i in bad_rows:  # a carriage return inside an unquoted field
        cells = lines[i].split(sep)
        cells[2] = "a\rb"
        lines[i] = sep.join(cells)
    path = tmp_path / "input"
    path.write_bytes(_file_bytes(lines))
    serial = open_stream(path.read_bytes())
    header_stats = dataclasses.replace(serial.stats)
    with pytest.raises(ValueError) as serial_error:
        serial.count(())
    sharded = open_stream(path)
    with _shards(jobs), _forks() as pids, pytest.raises(ValueError) as sharded_error:
        sharded.count(())
    assert str(sharded_error.value) == str(serial_error.value)
    assert str(serial_error.value).startswith(f"line {min(bad_rows) + 1}: malformed CSV: ")
    assert serial.stats == sharded.stats == header_stats
    assert len(pids) == jobs - 1
    _assert_no_child_left()


def _in_workers(action):
    """Patch the range fold so that, in a forked worker only, it runs ``action``."""
    parent, fold = os.getpid(), _shard._count_range

    def patched(*args):
        if os.getpid() != parent:
            action()
        return fold(*args)

    return mock.patch.object(_shard, "_count_range", patched)


def test_a_worker_that_dies_without_a_result_raises_oserror(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(_file_bytes(SVEERV_LINES[:80]))
    with _shards(3), _in_workers(lambda: os._exit(3)):
        with pytest.raises(OSError, match="ended without a result"):
            ingest_sveerv(path).count(())
        code, out, err = _run(["validate", "-i", str(path)])
    assert code == 2 and out == b""
    assert err.startswith("episurv: error: ") and err.count("\n") == 1
    _assert_no_child_left()


def test_a_worker_exception_reaches_the_caller(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(_file_bytes(GISAID_LINES[:80]))

    def fail():
        raise LookupError("from a worker")

    with _shards(2), _in_workers(fail), pytest.raises(LookupError, match="from a worker"):
        ingest_gisaid(path).count(())
    _assert_no_child_left()


def test_an_error_here_kills_and_reaps_the_workers(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(_file_bytes(SVEERV_LINES[:80]))
    fold = _shard._count_range

    def slow_workers(stream, start, *rest):
        if start == stream.stats.bytes_read:  # the first range, folded in this process
            raise KeyboardInterrupt
        threading.Event().wait(60)  # a worker: still running when it is killed
        return fold(stream, start, *rest)

    with _shards(3), mock.patch.object(_shard, "_count_range", slow_workers):
        with _forks() as pids, pytest.raises(KeyboardInterrupt):
            ingest_sveerv(path).count(())
    assert len(pids) == 2
    _assert_no_child_left()
