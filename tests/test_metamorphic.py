"""One metamorphic gate for the whole CLI.

Metamorphic testing checks relations between runs instead of expected
outputs (Chen, Cheung and Yiu 1998, "Metamorphic testing: a new approach for
generating next test cases"; Segura et al. 2016, "A Survey on Metamorphic
Testing"). Every ``epi-report`` table, ``rank`` and every ``genomic-report``
table, in tsv and json, must print byte for byte the same stdout and stderr
and exit with the same code after its input is rewritten in a way the
readers promise to ignore:
- the data rows shuffled;
- the columns permuted (the header names them);
- every field quoted;
- CRLF line endings;
- the final newline dropped;
- another delimiter, passed with ``--delimiter`` (registry files);
- CSV instead of TSV (GISAID files);
- latin-1 instead of UTF-8, passed with ``--encoding latin-1``;
- the count forced into 1, 2 or 3 shards.

Each relation is checked alone, and hypothesis checks compositions of them.
The base file ends each line with a column read verbatim (the registry's
death date, GISAID's patient status), so a carriage return left on a line's
last field changes a table.
"""

import csv
import dataclasses
import functools
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from episurv.fixtures import generate_genomic_fixture, load_preset, random_patient_records, write_sveerv_csv
from test_sharding import _run, _shards


@dataclasses.dataclass(frozen=True)
class Input:
    """An input file as the relations rewrite it."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    delimiter: str
    quoting: int = csv.QUOTE_MINIMAL
    newline: str = "\n"
    final_newline: bool = True
    encoding: str = "utf-8"

    def data(self) -> bytes:
        out = io.StringIO(newline="")
        writer = csv.writer(out, delimiter=self.delimiter, quoting=self.quoting, lineterminator=self.newline)
        writer.writerows([self.header, *self.rows])
        text = out.getvalue()
        return (text if self.final_newline else text.removesuffix(self.newline)).encode(self.encoding)


def _input(data: bytes, delimiter: str, last: str) -> Input:
    """``data`` parsed, with the column ``last`` moved to the end."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""), delimiter=delimiter)
    order = [i for i, name in enumerate(header) if name != last] + [header.index(last)]

    def pick(row: list[str]) -> tuple[str, ...]:
        return tuple(row[i] for i in order)

    return Input(pick(header), tuple(map(pick, rows)), delimiter)


def shuffle_rows(f: Input, rng: random.Random) -> Input:
    rows = list(f.rows)
    rng.shuffle(rows)
    return dataclasses.replace(f, rows=tuple(rows))


def permute_columns(f: Input, rng: random.Random) -> Input:
    order = rng.sample(range(len(f.header)), len(f.header))
    return dataclasses.replace(f, header=tuple(f.header[i] for i in order),
                               rows=tuple(tuple(row[i] for i in order) for row in f.rows))


def quote_all(f: Input, rng: random.Random) -> Input:
    return dataclasses.replace(f, quoting=csv.QUOTE_ALL)


def crlf(f: Input, rng: random.Random) -> Input:
    return dataclasses.replace(f, newline="\r\n")


def no_final_newline(f: Input, rng: random.Random) -> Input:
    return dataclasses.replace(f, final_newline=False)


def other_delimiter(f: Input, rng: random.Random) -> Input:
    return dataclasses.replace(f, delimiter=rng.choice(";|\t"))


def as_csv(f: Input, rng: random.Random) -> Input:
    return dataclasses.replace(f, delimiter=",")


def latin_1(f: Input, rng: random.Random) -> Input:
    return dataclasses.replace(f, encoding="latin-1")


COMMON = (shuffle_rows, permute_columns, quote_all, crlf, no_final_newline, latin_1)

# Per kind: its commands (each run in tsv and json), its relations, and its base file.
KINDS = {
    "registry": (
        [["epi-report", "--table", table]
         for table in ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "comorbidity-profile")]
        + [["epi-report"], ["epi-report", "--group-by", "state,municipality,sex,age-group"], ["rank"]],
        (*COMMON, other_delimiter),
        lambda: _input(write_sveerv_csv(random_patient_records(11, 300)), ",", "FECHA_DEF"),
    ),
    "gisaid": (
        [["genomic-report", "--table", table] for table in ("g3-shares", "t8", "t9", "t10", "t11", "t12", "t13")],
        (*COMMON, as_csv),
        lambda: _input(b"\n".join(generate_genomic_fixture(load_preset("annex-gisaid")).splitlines()[::12]),
                       "\t", "patient_status"),
    ),
}


@functools.cache
def _base(kind: str) -> Input:
    return KINDS[kind][2]()


def _outputs(kind: str, f: Input, jobs: int, tmp_path) -> list[tuple[int, bytes, str]]:
    """Every command of ``kind`` in tsv and json over ``f``, at ``jobs`` forced shards."""
    path = tmp_path / f"input-{jobs}"
    path.write_bytes(f.data())
    extra = [] if f.encoding == "utf-8" else ["--encoding", f.encoding]
    if kind == "registry" and f.delimiter != ",":
        extra += ["--delimiter", f.delimiter]
    with _shards(jobs):
        return [_run([*command, "-i", str(path), *extra, "-f", fmt])
                for command in KINDS[kind][0] for fmt in ("tsv", "json")]


@pytest.fixture(scope="module")
def expected(tmp_path_factory) -> dict[str, list[tuple[int, bytes, str]]]:
    """Per kind, the outputs of its base file at 1 shard."""
    return {kind: _outputs(kind, _base(kind), 1, tmp_path_factory.mktemp("base")) for kind in KINDS}


def _assert_same(kind: str, got: list, want: list) -> None:
    for (code, out, err), (want_code, want_out, want_err), argv in zip(
            got, want, ((c, fmt) for c in KINDS[kind][0] for fmt in ("tsv", "json"))):
        assert (code, err) == (want_code, want_err), argv
        assert out == want_out, argv
    assert len(got) == len(want)


def test_the_base_runs_clean(expected):
    for outputs in expected.values():
        assert all(code == 0 and out for code, out, _ in outputs)


CASES = [(kind, relation, 1) for kind, (_, relations, _) in KINDS.items() for relation in relations]
CASES += [(kind, None, jobs) for kind in KINDS for jobs in (2, 3)]


@pytest.mark.parametrize("kind,relation,jobs", CASES,
                         ids=[f"{kind}-{relation.__name__ if relation else f'{jobs}-shards'}"
                              for kind, relation, jobs in CASES])
def test_each_relation_keeps_every_table(kind, relation, jobs, expected, tmp_path):
    f = _base(kind)
    if relation is not None:
        f = relation(f, random.Random(0))
        assert f != _base(kind)
    _assert_same(kind, _outputs(kind, f, jobs, tmp_path), expected[kind])


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), jobs=st.sampled_from((1, 2, 3)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_composed_relations_keep_every_table(kind, jobs, seed, data, expected, tmp_path_factory):
    relations = data.draw(st.lists(st.sampled_from(KINDS[kind][1]), min_size=2, unique=True))
    rng = random.Random(seed)
    f = _base(kind)
    for relation in relations:
        f = relation(f, rng)
    _assert_same(kind, _outputs(kind, f, jobs, tmp_path_factory.mktemp("composed")), expected[kind])
