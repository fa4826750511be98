"""Differential test of the two ingest paths (McKeeman, 1998).

The same mutated registry CSV is read twice: record by record through
``SveervStream.records()``, and by the batch-columnar fold that the CLI uses
(a ``SveervStream`` handed straight to the table functions). Counters and
every table must agree, and the national counts must equal
``oracle_aggregate`` over the accepted records.
"""

from datetime import date

from hypothesis import given, settings, strategies as st

from episurv.fixtures import oracle_aggregate, random_patient_records, write_sveerv_csv
from episurv.ingest import BATCH_ROWS, SVEERV_COLUMNS, ingest_sveerv
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


def _mutate(lines: list[str], edits) -> bytes:
    out = list(lines)
    for index, (kind, col, value) in edits:
        i = 1 + index % (len(lines) - 1)  # never the header
        cells = out[i].split(",")
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
        out[i] = ",".join(cells)
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
