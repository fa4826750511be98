"""Differential tests of the two ingest paths (McKeeman, 1998), and the CLI
exit-code gate.

The same mutated registry CSV (or genomic metadata file) is read twice:
record by record through ``records()``, and by the batch-columnar fold that
the CLI uses (a stream handed straight to the table functions). Counters and
every table must agree; the national counts must equal ``oracle_aggregate``
over the accepted records, and the genomic tables a per-sample count.

The gate feeds mangled bytes (stray quotes, CRs, LFs, NULs, long fields,
invalid UTF-8) to ``cli.main``: every command exits 0, or 2 with one
``episurv: error:`` line, and no exception escapes.
"""

import contextlib
import io
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

from hypothesis import given, settings, strategies as st

from episurv.cli import main
from episurv.fixtures import (
    generate_genomic_fixture,
    load_preset,
    oracle_aggregate,
    random_patient_records,
    write_sveerv_csv,
)
from episurv.genomics import (
    DEFAULT_CATALOG,
    bucket_status,
    clade_crosstab,
    fold_text,
    full_crosstab,
    load_catalog,
    state_summary,
    status_crosstab,
    variant_shares,
)
from episurv.ingest import BATCH_ROWS, GISAID_COLUMNS, SVEERV_COLUMNS, ingest_gisaid, ingest_sveerv
from episurv.metrics import age_group
from episurv.metrics import (
    GROUP_DIMENSIONS,
    CohortFilter,
    StratumKey,
    Subcohort,
    classification_sex_tally,
    comorbidity_profile,
    death_classification_sex_tally,
    death_icu_sex_tally,
    intubation_sex_tally,
    state_treatment_tally,
    stratified_report,
    treatment_sex_tally,
)
from episurv.schema import Sex

TALLIES = (
    classification_sex_tally,
    treatment_sex_tally,
    state_treatment_tally,
    intubation_sex_tally,
    death_classification_sex_tally,
    death_icu_sex_tally,
)
COHORTS = (
    None,
    CohortFilter(states=frozenset({1, 5, 9, 13, 17, 21, 25, 29}),
                 onset_range=(date(2020, 7, 1), date(2021, 3, 31))),
    CohortFilter(indigenous_only=True, sexes=frozenset({Sex.FEMALE, Sex.UNSPECIFIED}),
                 municipalities=frozenset(range(1, 300))),
)
GROUPINGS = ((), ("state",), ("sex", "age_group"), GROUP_DIMENSIONS)

# Cell mutations: bad codes, padding, empty values, odd spellings, non-ASCII.
REPLACEMENTS = ("0", "3", "8", "96", "x", "", " ", "-1", "131", "inf", "nan", "é", "١",
                "2021-02-30", "9999-99-99", "1_0", "+2")
MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, len(SVEERV_COLUMNS) - 1), st.sampled_from(REPLACEMENTS)),
    st.tuples(st.just("pad"), st.integers(0, len(SVEERV_COLUMNS) - 1), st.sampled_from((" {} ", "\t{}", "0{}"))),
    st.tuples(st.just("short"), st.integers(0, len(SVEERV_COLUMNS) - 1), st.just("")),
    st.tuples(st.just("blank"), st.just(0), st.just("")),
)


def _mutate(lines: list[str], edits, sep: str = ",") -> bytes:
    out = list(lines)
    for index, (kind, col, value) in edits:
        i = 1 + index % (len(lines) - 1)  # never the header
        cells = out[i].split(sep)
        if col >= len(cells):  # the row was cut short by an earlier edit
            continue
        if kind == "set":
            cells[col] = value
        elif kind == "pad":
            cells[col] = value.format(cells[col])
        elif kind == "short":
            cells = cells[:col]
        else:
            out[i] = ""
            continue
        out[i] = sep.join(cells)
    return ("\n".join(out) + "\n").encode("utf-8")


# Row indices on both sides of the first two batch boundaries, and anywhere.
ROW_INDEX = st.one_of(
    st.sampled_from([BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, 2 * BATCH_ROWS, 2 * BATCH_ROWS + 1]),
    st.integers(0, 3 * BATCH_ROWS),
)


def _assert_paths_agree(data: bytes) -> None:
    stream = ingest_sveerv(data)
    records = list(stream.records())
    batch = ingest_sveerv(data)
    batch.count(())
    assert batch.stats == stream.stats
    assert list(batch.stats.rejection_reasons.items()) == list(stream.stats.rejection_reasons.items())

    for cohort in COHORTS:
        for tally in TALLIES:
            assert tally(ingest_sveerv(data), cohort) == tally(records, cohort), tally.__name__
        for subcohort in Subcohort:
            assert (comorbidity_profile(ingest_sveerv(data), cohort, subcohort)
                    == comorbidity_profile(records, cohort, subcohort))
        for group_by in GROUPINGS:
            assert (stratified_report(ingest_sveerv(data), cohort, group_by)
                    == stratified_report(records, cohort, group_by))

    national = stratified_report(ingest_sveerv(data))[StratumKey()]
    assert national.counts == oracle_aggregate(records).counts


def test_every_single_cell_mutation_agrees():
    edits = [("set", col, value) for col in range(len(SVEERV_COLUMNS)) for value in REPLACEMENTS]
    edits += [("pad", col, pad) for col in range(len(SVEERV_COLUMNS))
              for pad in (" {} ", "\t{}", "0{}")]
    edits += [("short", col, "") for col in range(0, len(SVEERV_COLUMNS), 5)] + [("blank", 0, "")]
    lines = write_sveerv_csv(random_patient_records(7, len(edits) + 9)).decode("utf-8").splitlines()
    _assert_paths_agree(_mutate(lines, list(enumerate(edits))))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(BATCH_ROWS - 3, 2 * BATCH_ROWS + 40),
    edits=st.lists(st.tuples(ROW_INDEX, MUTATION), min_size=1, max_size=60),
)
def test_batch_fold_matches_record_path(seed, n, edits):
    lines = write_sveerv_csv(random_patient_records(seed, n)).decode("utf-8").splitlines()
    _assert_paths_agree(_mutate(lines, edits))


# --- genomic metadata ------------------------------------------------------------

GISAID_LINES = generate_genomic_fixture(load_preset("annex-gisaid")).decode("utf-8").splitlines()
CATALOGS = {
    "default": (DEFAULT_CATALOG, ("Delta", "Alpha", "jota")),
    "custom": (load_catalog(
        b"who_label,category,clades,pango_pattern\n"
        b"Delta,VOC,GK,B.1.617.2\n"
        b"Deltoid,VOI,GK;GH,AY.x+AY.4.2\n"
        b"Mystery,VOI,GH,B.1.x\n"
    ), ("Delta", "Deltoid", "Mystery")),
}
STATES = ["Puebla", "Hidalgo", "Veracruz", "Oaxaca", "Ciudad de México", "mexico city"]

# Cell mutations: empty, padded and malformed lineages, non-ASCII text,
# non-finite ages and mixed-case sexes; any of them may land in any column.
GISAID_REPLACEMENTS = (
    "", " ", "AY.20", " AY.20 ", "ay.4", "B.1.1.7", "B..1", "B.1.", "1.2", "XBB.1.5", "AY.٢",
    "é", "Ciudad de México", "CIUDAD DE MEXICO ", "puebla", "Oaxaca", "Fallecido",
    " hospitalizado", "Sintomático", "algo raro", "inf", "-inf", "nan", "1e400", "34.9",
    " 41 ", "200", "-3", "FEMALE", "mAlE", " f ", "Hombre", "Pfizer", " Pfizer ", "GK", " GH",
    "2021-02-30",
)
GISAID_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, len(GISAID_COLUMNS) - 1),
              st.sampled_from(GISAID_REPLACEMENTS)),
    st.tuples(st.just("pad"), st.integers(0, len(GISAID_COLUMNS) - 1),
              st.sampled_from((" {} ", "\t{}", "{}\u00a0"))),
    st.tuples(st.just("short"), st.integers(0, len(GISAID_COLUMNS) - 1), st.just("")),
    st.tuples(st.just("blank"), st.just(0), st.just("")),
)


def _per_sample_summary(records, catalog, who_label):
    """state_summary counted one sample at a time, without the fold."""
    wanted = catalog.get(who_label).who_label
    lookup = {fold_text(name): name for name in STATES}
    cells = Counter()
    for s in records:
        name = lookup.get(fold_text(s.state))
        if catalog.classify(s.pango_lineage) == wanted and name is not None:
            cells[name, bucket_status(s.patient_status), s.gisaid_clade, s.sex, s.vaccine,
                  age_group(s.age_years)] += 1
    return cells


def _assert_gisaid_paths_agree(data: bytes) -> None:
    stream = ingest_gisaid(data)
    records = list(stream.records())
    batch = ingest_gisaid(data)
    batch.count(())
    assert batch.stats == stream.stats
    assert list(batch.stats.rejection_reasons.items()) == list(stream.stats.rejection_reasons.items())

    for catalog, labels in CATALOGS.values():
        shares = variant_shares(ingest_gisaid(data), catalog)
        assert shares == variant_shares(records, catalog)
        labelled = Counter(catalog.classify(s.pango_lineage) for s in records)
        assert shares.unclassified == labelled.pop(None, 0)
        assert {label: n for label, (n, _) in shares.shares.items()} == labelled
        full = full_crosstab(ingest_gisaid(data), catalog)
        assert full == full_crosstab(records, catalog)
        for label in labels:
            clades = clade_crosstab(ingest_gisaid(data), catalog, label)
            assert clades == clade_crosstab(records, catalog, label)
            assert clades == full.get(catalog.get(label).who_label, {})
            assert (status_crosstab(ingest_gisaid(data), catalog, label)
                    == status_crosstab(records, catalog, label))
            summary = state_summary(ingest_gisaid(data), catalog, label, STATES)
            assert summary == state_summary(records, catalog, label, STATES)
            cells = _per_sample_summary(records, catalog, label)
            for name, block in summary.per_state.items():
                assert block.total == sum(n for key, n in cells.items() if key[0] == name)
            assert summary.totals.total == sum(cells.values())
            age_sex = Counter()
            for (_, _, _, sex, _, group), n in cells.items():
                age_sex[group, sex] += n
            assert summary.totals.age_sex == age_sex


def test_every_single_gisaid_cell_mutation_agrees():
    edits = [("set", col, value) for col in range(len(GISAID_COLUMNS)) for value in GISAID_REPLACEMENTS]
    edits += [("pad", col, " {} ") for col in range(len(GISAID_COLUMNS))]
    edits += [("short", col, "") for col in range(len(GISAID_COLUMNS))] + [("blank", 0, "")]
    lines = GISAID_LINES[:len(edits) + 9]
    _assert_gisaid_paths_agree(_mutate(lines, list(enumerate(edits)), sep="\t"))


@settings(max_examples=30, deadline=None)
@given(
    start=st.integers(0, len(GISAID_LINES) - 2 * BATCH_ROWS - 41),
    n=st.integers(BATCH_ROWS - 3, 2 * BATCH_ROWS + 40),
    edits=st.lists(st.tuples(ROW_INDEX, GISAID_MUTATION), min_size=1, max_size=60),
)
def test_gisaid_batch_fold_matches_record_path(start, n, edits):
    lines = [GISAID_LINES[0]] + GISAID_LINES[1 + start:1 + start + n]
    _assert_gisaid_paths_agree(_mutate(lines, edits, sep="\t"))


# --- the CLI exit-code gate ----------------------------------------------------------

INSERTS = (b'"', b"\r", b"\n", b"\r\n", b'\r"', b"\x00", b"\xff\xfe", "é".encode(), b",", b"\t",
           b"x" * 131073)
COMMANDS = {
    "sveerv": (["validate"], ["epi-report", "--table", "t4"],
               ["epi-report", "--group-by", "state,sex"], ["rank"]),
    "gisaid": (["validate", "--kind", "gisaid"], ["genomic-report"],
               ["genomic-report", "--table", "t9"], ["genomic-report", "--table", "t13"]),
}


def _run(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(COMMANDS)),
    seed=st.integers(0, 2**16),
    inserts=st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(INSERTS)),
                     min_size=1, max_size=8),
)
def test_cli_exits_0_or_2_on_mangled_bytes(kind, seed, inserts):
    if kind == "sveerv":
        data = write_sveerv_csv(random_patient_records(seed, 25))
    else:
        data = ("\n".join(GISAID_LINES[:1] + GISAID_LINES[1 + seed % 5000:26 + seed % 5000])
                + "\n").encode("utf-8")
    for position, chunk in inserts:
        position %= len(data) + 1
        data = data[:position] + chunk + data[position:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        for argv in COMMANDS[kind]:
            code, err = _run([*argv, "-i", str(path)])
            assert code in (0, 2), (argv, code, err)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("episurv: error: ") and err.count("\n") == 1, err
