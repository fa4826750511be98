"""The sharded ``count`` of a file's data across CPU cores (see ``episurv.ingest``).

Kept out of ``ingest`` and imported only when a file is sharded: every
command compiles ``ingest`` as it starts, and the parser's memory for that
module sets the peak RSS of the small commands.
"""

import io
import os
from collections import Counter
from typing import Iterator, Sequence

from .ingest import IngestStats, _Dim, _MalformedCSV, _Stream

# Bytes per os.pread of the quote scan and the cut search; 1 MiB chunks
# raised the peak RSS of `genomic-report` by about 0.8 MB.
_SCAN_BYTES = 1 << 16


def count(stream: _Stream, jobs: int, dims: Sequence[_Dim]) -> tuple[Counter[tuple], IngestStats] | None:
    """The Counter and IngestStats of the data after the header, folded over
    up to ``jobs`` newline-aligned byte ranges, or None when the data holds
    a ``"`` or too few lines to cut. ``stream.stats`` is left as it is.

    The first range is folded here and every other one in a forked worker;
    the parts merge in file order. The earliest malformed line wins, with
    its whole-file line number; a worker that ends without a result raises
    OSError. Every worker is reaped before this returns, and killed first
    if this raises.
    """
    fd = stream._raw.fileno()
    start, size = stream.stats.bytes_read, os.fstat(fd).st_size  # the header was read from byte 0
    if _holds_quote(fd, start, size):
        return None
    cuts = [start, *(_line_end(fd, start + k * (size - start) // jobs, size) for k in range(1, jobs)),
            size]
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    if len(ranges) < 2:
        return None

    workers = []  # (pid, read end of its result pipe), in file order; not yet reaped
    try:
        for a, b in ranges[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(w, stream, a, b, dims)  # never returns
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            workers.append((pid, open(r, "rb")))
        total: Counter[tuple] = Counter()
        stats = IngestStats()
        part = _count_range(stream, *ranges[0], dims)
        while True:
            total.update(part[0])
            stats = stats.merge(part[1])
            if not workers:
                return total, stats
            pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status != 0 or not data:
                raise OSError(f"shard worker {pid} ended without a result (wait status {status})")
            import pickle  # after the fold, into memory it freed

            part = pickle.loads(data)
            if isinstance(part, BaseException):
                raise part
    except BaseException:
        import signal  # only here: importing it costs 0.7 MB of RSS

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)


def _count_range(stream: _Stream, start: int, end: int, dims: Sequence[_Dim]) -> tuple[Counter[tuple], IngestStats]:
    """Fold bytes [start, end) of the stream's file into its Counter and
    IngestStats. Malformed CSV raises _MalformedCSV with the whole-file line:
    ``start`` follows a newline, so the lines before the range are the
    newlines before ``start``."""
    stats = IngestStats()
    fd = stream._raw.fileno()
    with io.BufferedReader(_ByteRange(fd, start, end)) as raw:
        try:
            return stream._fold(raw, stats, dims), stats
        except _MalformedCSV as exc:
            line_no, reason = exc.args
            raise _MalformedCSV(sum(chunk.count(b"\n") for chunk in _chunks(fd, 0, start)) + line_no,
                                reason) from None


def _work(w: int, stream: _Stream, start: int, end: int, dims: Sequence[_Dim]) -> None:
    """A forked worker's whole life: fold one range, pickle the result (or
    the exception) to ``w``, and end the process with os._exit."""
    code = 1
    try:
        try:
            part = _count_range(stream, start, end, dims)
        except Exception as exc:
            part = exc
        import pickle  # after the fold, into memory it freed

        with open(w, "wb") as pipe:
            pickle.dump(part, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of an open file, read with os.pread: no file
    offset moves, so the shards read one descriptor side by side."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._pos, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._pos), self._pos)
        buffer[:len(data)] = data
        self._pos += len(data)
        return len(data)


def _chunks(fd: int, start: int, end: int) -> Iterator[bytes]:
    """Bytes [start, end) of ``fd``, _SCAN_BYTES per os.pread."""
    return (os.pread(fd, min(_SCAN_BYTES, end - pos), pos) for pos in range(start, end, _SCAN_BYTES))


def _holds_quote(fd: int, start: int, end: int) -> bool:
    return any(b'"' in chunk for chunk in _chunks(fd, start, end))


def _line_end(fd: int, pos: int, end: int) -> int:
    """The byte after the first newline at or after ``pos``, or ``end``."""
    for chunk in _chunks(fd, pos, end):
        newline = chunk.find(b"\n")
        if newline >= 0:
            return pos + newline + 1
        pos += len(chunk)
    return end
