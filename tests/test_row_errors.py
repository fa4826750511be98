"""Golden RowErrors and the order of ``rejection_reasons``.

The two single-cell-mutation inputs of ``test_differential.py`` (every
replacement in every column, one edit per row) are read by iteration. The
exact sequence of ``(line_no, reason, detail)`` of every RowError, and the
final IngestStats with its reasons in order, are pinned as recorded values:
an independent reference for the one column decoder both ingest paths share.

``rejection_reasons`` lists each reason in the order its first row appears
in the file, whether the stream is iterated or counted, serially or in 2 or
3 forced shards.
"""

import hashlib
from unittest import mock

import pytest

from episurv import ingest
from episurv.fixtures import random_patient_records, write_sveerv_csv
from episurv.ingest import RowError, ingest_gisaid, ingest_sveerv
from test_differential import (
    GISAID_COLUMNS,
    GISAID_LINES,
    GISAID_REPLACEMENTS,
    REPLACEMENTS,
    SVEERV_COLUMNS,
    _mutate,
)


def _sveerv_mutations() -> bytes:
    """The input of ``test_every_single_cell_mutation_agrees``."""
    edits = [("set", col, value) for col in range(len(SVEERV_COLUMNS)) for value in REPLACEMENTS]
    edits += [("pad", col, pad) for col in range(len(SVEERV_COLUMNS))
              for pad in (" {} ", "\t{}", "0{}")]
    edits += [("short", col, "") for col in range(0, len(SVEERV_COLUMNS), 5)] + [("blank", 0, "")]
    lines = write_sveerv_csv(random_patient_records(7, len(edits) + 9)).decode("utf-8").splitlines()
    return _mutate(lines, list(enumerate(edits)))


def _gisaid_mutations() -> bytes:
    """The input of ``test_every_single_gisaid_cell_mutation_agrees``."""
    edits = [("set", col, value) for col in range(len(GISAID_COLUMNS)) for value in GISAID_REPLACEMENTS]
    edits += [("pad", col, " {} ") for col in range(len(GISAID_COLUMNS))]
    edits += [("short", col, "") for col in range(len(GISAID_COLUMNS))] + [("blank", 0, "")]
    return _mutate(GISAID_LINES[:len(edits) + 9], list(enumerate(edits)), sep="\t")


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else repr(data).encode()).hexdigest()


# Per input: its constructor, sha256 of its bytes, the RowError count,
# sha256 of repr([(line_no, reason, detail), ...]), the first and last
# three RowErrors, and the final stats as (rows_read, rows_accepted,
# rows_rejected, bytes_read, list(rejection_reasons.items())).
GOLDEN = {
    "sveerv": (
        ingest_sveerv, _sveerv_mutations,
        "4ad2db01c2d0c15c8716fa6d80196ce8bef03b8ccc05de43e9a4d2f2e26d41ec",
        301, "23234254ca0226bbd9064b39ca633315456d4e359d706edb2d6958faf811d0e7",
        [(2, "UnknownCode", "ENTIDAD_RES=0"), (5, "UnknownCode", "ENTIDAD_RES=96"),
         (6, "BadInteger", "ENTIDAD_RES='x'")],
        [(424, "FieldCount", "10 fields"), (425, "FieldCount", "15 fields"),
         (426, "FieldCount", "20 fields")],
        (433, 132, 301, 29507, [("UnknownCode", 228), ("BadInteger", 30), ("AgeOutOfRange", 2),
                                ("BadDate", 37), ("FieldCount", 4)]),
    ),
    "gisaid": (
        ingest_gisaid, _gisaid_mutations,
        "59648a59c6aa7b794671299eacdcca47804289ba61cef7b755cb9b3dc6259a5a",
        25, "e0af6b6c54c415d6c58221c9af884cd7032446adb6490b7d81539fc01b30baf9",
        [(113, "EmptyLineage", ""), (114, "EmptyLineage", ""),
         (119, "MalformedLineage", "pango_lineage='B..1'")],
        [(350, "FieldCount", "6 fields"), (351, "FieldCount", "7 fields"),
         (352, "FieldCount", "8 fields")],
        (358, 333, 25, 24100, [("EmptyLineage", 2), ("MalformedLineage", 15), ("FieldCount", 8)]),
    ),
}


def _stats(stream) -> tuple:
    s = stream.stats
    return s.rows_read, s.rows_accepted, s.rows_rejected, s.bytes_read, list(s.rejection_reasons.items())


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_row_errors_match_the_golden(kind):
    open_stream, make, data_sha, n, errors_sha, first, last, stats = GOLDEN[kind]
    data = make()
    assert _digest(data) == data_sha
    stream = open_stream(data)
    errors = [(e.line_no, e.reason, e.detail) for e in stream if isinstance(e, RowError)]
    assert (len(errors), errors[:3], errors[-3:]) == (n, first, last)
    assert _digest(errors) == errors_sha
    assert _stats(stream) == stats


def _every_path(open_stream, path, dims=()) -> list[tuple]:
    """Final stats from iteration, from ``count`` and from 1, 2 and 3 forced shards."""
    stream = open_stream(path)
    for _ in stream:
        pass
    seen = [_stats(stream)]
    batch = open_stream(path)
    batch.count(dims)
    seen.append(_stats(batch))
    for jobs in (1, 2, 3):
        with mock.patch.object(ingest, "_jobs", lambda data_bytes: jobs):
            sharded = open_stream(path)
            sharded.count(dims)
        seen.append(_stats(sharded))
    return seen


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_reason_order_is_the_same_on_every_path(tmp_path, kind):
    open_stream, make, *_, stats = GOLDEN[kind]
    path = tmp_path / "input"
    path.write_bytes(make())
    assert _every_path(open_stream, path) == [stats] * 5


def test_a_rejected_value_before_a_short_row_is_listed_first(tmp_path):
    lines = write_sveerv_csv(random_patient_records(1, 2)).decode("utf-8").splitlines()
    sex = lines[0].split(",").index("SEXO")
    first = lines[1].split(",")
    first[sex] = "abc"
    path = tmp_path / "input.csv"
    path.write_bytes("\n".join([lines[0], ",".join(first), lines[2].split(",", 1)[0]]).encode() + b"\n")
    reasons = [("BadInteger", 1), ("FieldCount", 1)]
    assert [stats[4] for stats in _every_path(ingest_sveerv, path)] == [reasons] * 5


def test_a_short_row_before_a_malformed_lineage_is_listed_first(tmp_path):
    lines = GISAID_LINES[:3]
    second = lines[2].split("\t")
    second[lines[0].split("\t").index("pango_lineage")] = "B..1"
    path = tmp_path / "input.tsv"
    path.write_bytes("\n".join([lines[0], lines[1].split("\t", 1)[0], "\t".join(second)]).encode() + b"\n")
    reasons = [("FieldCount", 1), ("MalformedLineage", 1)]
    assert [stats[4] for stats in _every_path(ingest_gisaid, path)] == [reasons] * 5
