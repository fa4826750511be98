import io
from collections import Counter
from datetime import date

import pytest

from episurv import ingest
from episurv.ingest import (
    BATCH_ROWS,
    GISAID_COLUMNS,
    MissingRequiredColumn,
    RowError,
    SVEERV_COLUMNS,
    ingest_gisaid,
    ingest_sveerv,
    validate_report,
)
from episurv.schema import CaseClassification, CodedFlag, Sex, TreatmentStrategy

HEADER = ",".join(SVEERV_COLUMNS)

# ENTIDAD, MUNICIPIO, SEXO, EDAD, INDIG, TIPO, UCI, INTUBADO, FECHA_DEF,
# CLASIFICACION, FECHA_SINTOMAS, then ten comorbidity flags
BASE = {
    "ENTIDAD_RES": "20",
    "MUNICIPIO_RES": "5",
    "SEXO": "1",
    "EDAD": "34",
    "HABLA_LENGUA_INDIG": "1",
    "TIPO_PACIENTE": "1",
    "UCI": "97",
    "INTUBADO": "97",
    "FECHA_DEF": "9999-99-99",
    "CLASIFICACION_FINAL": "3",
    "FECHA_SINTOMAS": "2021-07-01",
}


def row(**overrides) -> str:
    cells = {col: BASE.get(col, "2") for col in SVEERV_COLUMNS}
    cells.update(overrides)
    return ",".join(cells[col] for col in SVEERV_COLUMNS)


def csv_bytes(*rows: str, header: str = HEADER) -> bytes:
    return ("\n".join((header,) + rows) + "\n").encode("utf-8")


def test_accepts_well_formed_row():
    stream = ingest_sveerv(csv_bytes(row()))
    [r] = list(stream.records())
    assert r.state_code == 20
    assert r.municipality_code == 5
    assert r.sex is Sex.FEMALE
    assert r.age_years == 34
    assert r.speaks_indigenous_language is CodedFlag.YES
    assert r.treatment is TreatmentStrategy.AMBULATORY
    assert r.icu is CodedFlag.NOT_APPLICABLE
    assert r.death_date is None
    assert r.classification is CaseClassification.CONFIRMED_BY_LAB
    assert r.symptom_onset_date == date(2021, 7, 1)
    assert r.comorbidities["diabetes"] is CodedFlag.NO
    assert stream.stats.rows_read == 1
    assert stream.stats.rows_accepted == 1
    assert stream.stats.rows_rejected == 0
    assert stream.stats.bytes_read > 0


def test_header_lookup_is_case_insensitive_and_order_free():
    shuffled = list(SVEERV_COLUMNS)
    shuffled.reverse()
    header = ",".join(c.lower() for c in shuffled)
    cells = {col: BASE.get(col, "2") for col in SVEERV_COLUMNS}
    data = ("\n".join([header, ",".join(cells[c] for c in shuffled)]) + "\n").encode()
    [r] = list(ingest_sveerv(data).records())
    assert r.state_code == 20 and r.age_years == 34


def test_bom_on_first_header_cell():
    data = csv_bytes(row(), header="﻿" + HEADER)
    [r] = list(ingest_sveerv(data).records())
    assert r.state_code == 20


def test_extra_columns_are_ignored():
    header = "ORIGEN," + HEADER + ",PAIS_ORIGEN"
    data = ("\n".join([header, "7," + row() + ",99"]) + "\n").encode()
    [r] = list(ingest_sveerv(data).records())
    assert r.sex is Sex.FEMALE


def test_missing_columns_raise_before_iteration():
    header = ",".join(c for c in SVEERV_COLUMNS if c not in ("UCI", "EDAD"))
    with pytest.raises(MissingRequiredColumn) as exc:
        ingest_sveerv((header + "\n").encode())
    assert set(exc.value.columns) == {"UCI", "EDAD"}


def test_empty_file_raises_missing_columns():
    with pytest.raises(MissingRequiredColumn):
        ingest_sveerv(b"")


@pytest.mark.parametrize(
    "overrides,reason",
    [
        ({"CLASIFICACION_FINAL": "8"}, "UnknownCode"),
        ({"CLASIFICACION_FINAL": "0"}, "UnknownCode"),
        ({"ENTIDAD_RES": "33"}, "UnknownCode"),
        ({"ENTIDAD_RES": "0"}, "UnknownCode"),
        ({"ENTIDAD_RES": "abc"}, "BadInteger"),
        ({"SEXO": "xyz"}, "BadInteger"),
        ({"EDAD": "abc"}, "BadInteger"),
        ({"EDAD": "-1"}, "AgeOutOfRange"),
        ({"EDAD": "131"}, "AgeOutOfRange"),
        ({"TIPO_PACIENTE": "3"}, "UnknownCode"),
        ({"UCI": "5"}, "UnknownCode"),
        ({"INTUBADO": "0"}, "UnknownCode"),
        ({"FECHA_DEF": ""}, "BadDate"),
        ({"FECHA_DEF": "2021-13-40"}, "BadDate"),
        ({"FECHA_SINTOMAS": "not-a-date"}, "BadDate"),
        ({"DIABETES": "3"}, "UnknownCode"),
        ({"CLASIFICACION_FINAL": "08"}, "UnknownCode"),
        ({"CLASIFICACION_FINAL": "0x3"}, "UnknownCode"),
        ({"UCI": "05"}, "UnknownCode"),
        ({"SEXO": "0x1"}, "BadInteger"),
    ],
)
def test_rejections_by_reason(overrides, reason):
    stream = ingest_sveerv(csv_bytes(row(**overrides)))
    items = list(stream)
    assert len(items) == 1
    err = items[0]
    assert isinstance(err, RowError)
    assert err.reason == reason
    assert err.line_no == 2
    assert stream.stats.rows_rejected == 1
    assert stream.stats.rejection_reasons == {reason: 1}


def test_short_row_rejected_as_field_count():
    stream = ingest_sveerv(csv_bytes("1,2,3"))
    [err] = list(stream)
    assert isinstance(err, RowError)
    assert err.reason == "FieldCount"


def test_rejected_rows_do_not_stop_the_stream():
    data = csv_bytes(row(), row(EDAD="999"), row(EDAD="70"))
    stream = ingest_sveerv(data)
    records = list(stream.records())
    assert [r.age_years for r in records] == [34, 70]
    assert stream.stats.rows_read == 3
    assert stream.stats.rows_accepted == 2
    assert stream.stats.rows_rejected == 1


def test_age_boundaries():
    data = csv_bytes(row(EDAD="0"), row(EDAD="130"), row(EDAD=""))
    ages = [r.age_years for r in ingest_sveerv(data).records()]
    assert ages == [0, 130, None]


def test_death_sentinel_is_strict():
    # exactly the sentinel means alive; any other text must parse as a date
    data = csv_bytes(
        row(FECHA_DEF="9999-99-99"),
        row(FECHA_DEF="2021-08-15"),
    )
    alive, dead = list(ingest_sveerv(data).records())
    assert alive.death_date is None and not alive.died
    assert dead.death_date == date(2021, 8, 15) and dead.died


def test_sex_code_99_is_unspecified_not_rejected():
    [r] = list(ingest_sveerv(csv_bytes(row(SEXO="99"))).records())
    assert r.sex is Sex.UNSPECIFIED


def test_onset_empty_or_sentinel_is_none():
    data = csv_bytes(row(FECHA_SINTOMAS=""), row(FECHA_SINTOMAS="9999-99-99"))
    records = list(ingest_sveerv(data).records())
    assert all(r.symptom_onset_date is None for r in records)


def test_latin1_fallback_decodes_stray_bytes():
    # 0xF1 is n-tilde in latin-1 and invalid utf-8; the row must survive
    good = row().encode("utf-8")
    data = (HEADER + "\n").encode() + good + b"\n" + good.replace(b"2021-07-01", b"2021-07-0\xf11")
    stream = ingest_sveerv(data + b"\n")
    items = list(stream)
    assert not isinstance(items[0], RowError)
    assert stream.stats.rows_read == 2
    # second row decodes via latin-1 then fails date parsing, not decoding
    assert stream.stats.rejection_reasons == {"BadDate": 1}


def test_source_kinds_agree(tmp_path):
    data = csv_bytes(row(), row(EDAD="70"))
    path = tmp_path / "cases.csv"
    path.write_bytes(data)
    from_bytes = [r.age_years for r in ingest_sveerv(data).records()]
    from_path = [r.age_years for r in ingest_sveerv(path).records()]
    from_str = [r.age_years for r in ingest_sveerv(str(path)).records()]
    with open(path, "rb") as fh:
        from_file = [r.age_years for r in ingest_sveerv(fh).records()]
    assert from_bytes == from_path == from_str == from_file == [34, 70]


def test_stats_merge_matches_whole_file():
    rows = [row(), row(EDAD="999"), row(SEXO="2"), row(UCI="3"), row(EDAD="70")]
    whole = ingest_sveerv(csv_bytes(*rows))
    list(whole)
    first = ingest_sveerv(csv_bytes(*rows[:2]))
    list(first)
    second = ingest_sveerv(csv_bytes(*rows[2:]))
    list(second)
    merged = first.stats.merge(second.stats)
    assert merged.rows_read == whole.stats.rows_read == 5
    assert merged.rows_accepted == whole.stats.rows_accepted == 3
    assert merged.rejection_reasons == whole.stats.rejection_reasons
    # two extra header lines in the sharded pass
    assert merged.bytes_read == whole.stats.bytes_read + len(HEADER) + 1


def test_validate_report_lists_reasons_by_count():
    stream = ingest_sveerv(csv_bytes(row(EDAD="999"), row(EDAD="998"), row(UCI="3")))
    list(stream)
    text = validate_report(stream.stats)
    assert "rows read:     3" in text
    assert "rows rejected: 3" in text
    lines = text.splitlines()
    assert lines.index("  AgeOutOfRange: 2") < lines.index("  UnknownCode: 1")


# --- genomic metadata reader ---------------------------------------------------

GHEAD = "\t".join(GISAID_COLUMNS)


def grow(**overrides) -> str:
    base = {
        "accession": "EPI_ISL_0000001",
        "date": "2021-06-15",
        "division": "Oaxaca",
        "pango_lineage": "AY.20",
        "clade": "GK",
        "patient_status": "Ambulatorio",
        "age": "41",
        "sex": "Female",
        "vaccine": "",
    }
    base.update(overrides)
    return "\t".join(base[c] for c in GISAID_COLUMNS)


def gisaid_bytes(*rows: str, header: str = GHEAD) -> bytes:
    return ("\n".join((header,) + rows) + "\n").encode("utf-8")


def test_gisaid_accepts_tab_separated():
    stream = ingest_gisaid(gisaid_bytes(grow()))
    [s] = list(stream.records())
    assert s.accession == "EPI_ISL_0000001"
    assert s.collection_date == date(2021, 6, 15)
    assert s.state == "Oaxaca"
    assert s.pango_lineage == "AY.20"
    assert s.gisaid_clade == "GK"
    assert s.patient_status == "Ambulatorio"
    assert s.age_years == 41
    assert s.sex is Sex.FEMALE
    assert s.vaccine is None


def test_gisaid_sniffs_comma_delimiter():
    data = (",".join(GISAID_COLUMNS) + "\n" + grow().replace("\t", ",") + "\n").encode()
    [s] = list(ingest_gisaid(data).records())
    assert s.pango_lineage == "AY.20"


def test_gisaid_header_aliases():
    header = "\t".join([
        "Accession ID", "Collection date", "Location", "Pangolin lineage",
        "GISAID Clade", "Patient status", "Patient age", "Gender", "Type of vaccine",
    ])
    [s] = list(ingest_gisaid(gisaid_bytes(grow(), header=header)).records())
    assert s.state == "Oaxaca" and s.sex is Sex.FEMALE


def test_gisaid_missing_column():
    header = "\t".join(c for c in GISAID_COLUMNS if c != "clade")
    with pytest.raises(MissingRequiredColumn) as exc:
        ingest_gisaid((header + "\n").encode())
    assert exc.value.columns == ["clade"]


def test_gisaid_only_lineage_problems_reject():
    stream = ingest_gisaid(gisaid_bytes(
        grow(pango_lineage=""),
        grow(pango_lineage="AY..20"),
        grow(pango_lineage="AY.20.B"),
        grow(date="unknown", age="banana", sex="?", vaccine="Pfizer"),
    ))
    items = list(stream)
    errors = [e for e in items if isinstance(e, RowError)]
    assert [e.reason for e in errors] == ["EmptyLineage", "MalformedLineage", "MalformedLineage"]
    [s] = [s for s in items if not isinstance(s, RowError)]
    assert s.collection_date is None
    assert s.age_years is None
    assert s.sex is Sex.UNSPECIFIED
    assert s.vaccine == "Pfizer"
    assert stream.stats.rows_accepted == 1
    assert stream.stats.rows_rejected == 3


def test_gisaid_age_parsing():
    stream = ingest_gisaid(gisaid_bytes(
        grow(age="34.0"),
        grow(age="200"),   # out of range degrades to unknown, never rejects
        grow(age="-3"),
        grow(age=""),
    ))
    ages = [s.age_years for s in stream.records()]
    assert ages == [34, None, None, None]
    assert stream.stats.rows_rejected == 0


@pytest.mark.parametrize("raw", ["inf", "-inf", "1e400", "Infinity", "nan"])
def test_gisaid_non_finite_age_degrades_to_unknown(raw):
    stream = ingest_gisaid(gisaid_bytes(grow(age=raw)))
    [s] = list(stream.records())
    assert s.age_years is None
    assert stream.stats.rows_rejected == 0


def test_gisaid_sex_spellings():
    stream = ingest_gisaid(gisaid_bytes(
        grow(sex="female"), grow(sex="F"), grow(sex="Mujer"),
        grow(sex="MALE"), grow(sex="m"), grow(sex="Hombre"), grow(sex="unknown"),
    ))
    sexes = [s.sex for s in stream.records()]
    assert sexes == [Sex.FEMALE, Sex.FEMALE, Sex.FEMALE,
                     Sex.MALE, Sex.MALE, Sex.MALE, Sex.UNSPECIFIED]


def test_gisaid_file_object_not_closed():
    buf = io.BytesIO(gisaid_bytes(grow()))
    stream = ingest_gisaid(buf)
    list(stream)
    assert not buf.closed


# --- one whitespace rule, and the batch path ----------------------------------

CODED_COLUMNS = tuple(c for c in SVEERV_COLUMNS if c not in ("FECHA_DEF", "FECHA_SINTOMAS"))


def _both_paths(data: bytes):
    """(records, stats) by iterating, and (count, stats) by the batch path."""
    stream = ingest_sveerv(data)
    records = list(stream.records())
    batch = ingest_sveerv(data)
    counts = batch.count([("classification", None), ("sex", None), ("state_code", None),
                          ("age_years", None), ("icu", None), ("diabetes", None)])
    return records, stream.stats, counts, batch.stats


@pytest.mark.parametrize("column", CODED_COLUMNS)
@pytest.mark.parametrize("pad", [" {} ", "\t{}", "{}  "])
def test_every_coded_column_strips_whitespace(column, pad):
    plain = row(SEXO="2", UCI="1")
    cells = dict(zip(SVEERV_COLUMNS, plain.split(",")))
    padded = row(**{**cells, column: pad.format(cells[column])})
    records, stats, counts, batch_stats = _both_paths(csv_bytes(plain, padded))
    assert stats.rows_accepted == 2, stats.rejection_reasons
    assert records[0] == records[1]
    assert batch_stats == stats
    assert counts == {(CaseClassification.CONFIRMED_BY_LAB, Sex.MALE, 20, 34,
                       CodedFlag.YES, CodedFlag.NO): 2}


def test_blank_age_after_stripping_is_unknown():
    [r] = list(ingest_sveerv(csv_bytes(row(EDAD="  "))).records())
    assert r.age_years is None


@pytest.mark.parametrize("column", ["FECHA_DEF", "FECHA_SINTOMAS"])
def test_date_columns_are_read_verbatim(column):
    stream = ingest_sveerv(csv_bytes(row(**{column: " 2021-07-02"})))
    [err] = list(stream)
    assert err.reason == "BadDate"


def test_line_numbers_are_physical_lines_after_a_multiline_field():
    header = HEADER + ",NOTA"
    data = "\n".join([
        header,
        row() + ',"first line\nsecond line\nthird line"',  # lines 2-4
        row(EDAD="999") + ",x",                             # line 5
        "",                                                 # line 6, blank
        row(UCI="7") + ',"a\nb"',                           # lines 7-8
        row(SEXO="?") + ",y",                               # line 9
    ]) + "\n"
    errors = [e for e in ingest_sveerv(data.encode()) if isinstance(e, RowError)]
    assert [(e.line_no, e.reason) for e in errors] == [
        (5, "AgeOutOfRange"), (7, "UnknownCode"), (9, "BadInteger")]


def test_gisaid_line_numbers_are_physical_lines():
    data = gisaid_bytes(grow(patient_status='"Ambulatorio\nsegunda linea"'), grow(pango_lineage=""))
    [err] = [e for e in ingest_gisaid(data) if isinstance(e, RowError)]
    assert (err.line_no, err.reason) == (4, "EmptyLineage")


def test_batch_path_matches_iteration_across_batches():
    rows = [row(EDAD=str(i % 120)) for i in range(BATCH_ROWS * 2 + 7)]
    rows[BATCH_ROWS - 1] = row(CLASIFICACION_FINAL="9")
    rows[BATCH_ROWS] = "1,2,3"
    rows[BATCH_ROWS + 1] = row(DIABETES=" 1 ", ENTIDAD_RES="007")
    rows.insert(BATCH_ROWS + 2, "")
    records, stats, counts, batch_stats = _both_paths(csv_bytes(*rows))
    assert batch_stats == stats
    assert stats.rejection_reasons == {"UnknownCode": 1, "FieldCount": 1}
    assert sum(counts.values()) == len(records) == BATCH_ROWS * 2 + 5
    assert counts == Counter((r.classification, r.sex, r.state_code, r.age_years, r.icu,
                              r.comorbidities["diabetes"]) for r in records)
    assert counts[CaseClassification.CONFIRMED_BY_LAB, Sex.FEMALE, 7, 34,
                  CodedFlag.NOT_APPLICABLE, CodedFlag.YES] == 1


def test_screen_looks_up_the_rejected_values_without_walking_them():
    """A batch's new raw values are looked up in the memo of rejected values:
    walking the whole memo on each such batch would make a file whose bad
    values are all distinct cost time quadratic in its rows."""
    class Unwalkable(dict):
        def __iter__(self):
            raise AssertionError("the memo of rejected values was walked")

    def decode(raw):
        if not raw.isdigit():
            raise ingest._Reject("BadInteger", f"EDAD={raw!r}")
        return int(raw)

    cache, bad = {}, Unwalkable()
    checks = [(0, decode, cache, bad)]
    assert ingest._screen([["1", "a"], ["x1", "b"]], checks, 2) == (
        [("1",), ("a",)], {1: ("BadInteger", "EDAD='x1'")})
    assert ingest._screen([["x1", "c"], ["x2", "d"], ["2", "e"], ["1", "f"]], checks, 2) == (
        [("2", "1"), ("e", "f")], {0: ("BadInteger", "EDAD='x1'"), 1: ("BadInteger", "EDAD='x2'")})
    assert (cache, set(bad.keys())) == ({"1": 1, "2": 2}, {"x1", "x2"})


# --- one integer rule: leading zeros --------------------------------------------

@pytest.mark.parametrize("column", CODED_COLUMNS)
def test_every_integer_coded_column_reads_leading_zeros(column):
    plain = row(SEXO="2", UCI="1")
    cells = dict(zip(SVEERV_COLUMNS, plain.split(",")))
    padded = row(**{**cells, column: "0" + cells[column]})
    records, stats, counts, batch_stats = _both_paths(csv_bytes(plain, padded, padded.replace(",0", ",00", 1)))
    assert stats.rows_accepted == 3, stats.rejection_reasons
    assert records[0] == records[1] == records[2]
    assert batch_stats == stats
    assert counts == {(CaseClassification.CONFIRMED_BY_LAB, Sex.MALE, 20, 34,
                       CodedFlag.YES, CodedFlag.NO): 3}


def test_leading_zero_sex_codes():
    records = list(ingest_sveerv(csv_bytes(row(SEXO="01"), row(SEXO="002"), row(SEXO="099"),
                                           row(SEXO="07"))).records())
    assert [r.sex for r in records] == [Sex.FEMALE, Sex.MALE, Sex.UNSPECIFIED, Sex.UNSPECIFIED]


# --- malformed CSV ----------------------------------------------------------------

READS = {"iterate": list, "count": lambda stream: stream.count([("sex", None)])}
DEFECTS = {"cr": "a\rb", "long": "x" * 131073}


def _malformed(kind: str, defect: str, before: int) -> bytes:
    """A file whose data row ``before + 1`` holds the defect in an unquoted
    field, after one quoted field spanning two lines."""
    if kind == "sveerv":
        rows = [row() + ',"one\ntwo"'] + [row() + ",n"] * before + [row() + "," + DEFECTS[defect]]
        return csv_bytes(*rows, header=HEADER + ",NOTA")
    rows = ([grow(patient_status='"Ambulatorio\nsegunda"')] + [grow()] * before
            + [grow(division=DEFECTS[defect])])
    return gisaid_bytes(*rows)


@pytest.mark.parametrize("read", READS.values(), ids=READS)
@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("kind", ["sveerv", "gisaid"])
@pytest.mark.parametrize("before", [0, BATCH_ROWS + 3])
def test_malformed_csv_raises_value_error_naming_the_physical_line(kind, defect, read, before):
    data = _malformed(kind, defect, before)
    stream = ingest_sveerv(data) if kind == "sveerv" else ingest_gisaid(data)
    line = before + 4  # header, two lines of the quoted field, the good rows
    with pytest.raises(ValueError, match=rf"^line {line}: malformed CSV: "):
        read(stream)


@pytest.mark.parametrize("defect", DEFECTS)
def test_malformed_header_raises_value_error(defect):
    with pytest.raises(ValueError, match="^line 1: malformed CSV: "):
        ingest_sveerv(csv_bytes(row(), header=HEADER + "," + DEFECTS[defect]))
    with pytest.raises(ValueError, match="^line 1: malformed CSV: "):
        ingest_gisaid(gisaid_bytes(grow(), header=GHEAD + "\t" + DEFECTS[defect]))


@pytest.mark.parametrize("kind", ["sveerv", "gisaid"])
@pytest.mark.parametrize("header", ["missing", *DEFECTS])
def test_unusable_header_closes_the_file(tmp_path, monkeypatch, kind, header):
    if kind == "sveerv":
        bad = "a,b,c" if header == "missing" else HEADER + "," + DEFECTS[header]
        data, read = csv_bytes(row(), header=bad), ingest_sveerv
    else:
        bad = "a\tb\tc" if header == "missing" else GHEAD + "\t" + DEFECTS[header]
        data, read = gisaid_bytes(grow(), header=bad), ingest_gisaid
    path = tmp_path / "input"
    path.write_bytes(data)
    opened = []
    open_source = ingest._open_source
    monkeypatch.setattr(ingest, "_open_source", lambda source: opened.append(open_source(source)) or opened[-1])
    with pytest.raises(ValueError):
        read(path)
    [(raw, owns)] = opened
    assert owns and raw.closed


# --- one header reader, one getter table ------------------------------------------

def test_a_gisaid_header_cell_may_span_lines():
    data = gisaid_bytes(grow(), grow(pango_lineage=""), header=GHEAD + '\t"note\nsecond line"')
    items = list(ingest_gisaid(data))
    assert [s.pango_lineage for s in items[:1]] == ["AY.20"]
    assert [(e.line_no, e.reason) for e in items[1:]] == [(4, "EmptyLineage")]
    assert ingest_gisaid(data).count([("pango_lineage", None)]) == {("AY.20",): 1}


@pytest.mark.parametrize("dims", [[("state_code", None)], [("sex", None), ("state_code", lambda code: code > 16)]],
                         ids=["state", "sex and a function of the state"])
def test_count_decodes_each_distinct_raw_value_once(annex_epi_path, monkeypatch, dims):
    column, decoder = ingest.SveervStream._decoders["state_code"]
    calls = Counter()

    def counted(raw):
        calls[raw] += 1
        return decoder(raw)

    monkeypatch.setitem(ingest.SveervStream._decoders, "state_code", (column, counted))
    data = annex_epi_path.read_bytes()  # bytes are never sharded: every call is in this process
    ingest_sveerv(data).count(dims)
    assert len(calls) == 32
    assert set(calls.values()) == {1}
