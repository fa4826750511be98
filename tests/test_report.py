import json
import math
import re
from datetime import date
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import pytest
from hypothesis import given, strategies as st

from episurv.genomics import StateSummary, VariantShares, state_summary
from episurv.metrics import stratified_report
from episurv.report import ShapeMismatch, TableId, _Pct, format_pct, render
from episurv.schema import (
    COMORBIDITY_FIELDS,
    CaseClassification,
    CodedFlag,
    Sex,
    TreatmentStrategy,
)
from episurv.metrics import AgeGroup
from test_genomics import sample
from test_schema import make_record


class TestFormatPct:
    @pytest.mark.parametrize("value,text", [
        (18.505, "18.51"),   # half-up, not banker's
        (10.005, "10.01"),
        (17.525, "17.53"),
        (36.2519, "36.25"),
        (15.5959425, "15.60"),
        (100.0, "100.00"),
        (0.0, "0.00"),
        (2.695, "2.70"),
        (7, "7.00"),
    ])
    def test_values(self, value, text):
        assert format_pct(value) == text

    def test_float_repr_not_binary_expansion(self):
        # 0.145 stored as a float is slightly below 0.145; the shortest repr
        # is what users see, so rounding follows it
        assert format_pct(0.145) == "0.15"

    @staticmethod
    def _outcome(fn, value):
        try:
            return fn(value)
        except InvalidOperation as exc:  # inf, and values too large to quantize
            return type(exc)

    @given(values=st.lists(st.one_of(st.floats(), st.integers(-10**6, 10**6),
                                     st.sampled_from([0.0, -0.0, math.nan, -math.inf, 18.505, 0.145])),
                           min_size=1, max_size=20),
           pct=st.booleans())
    def test_memo_matches_the_decimal_formula(self, values, pct):
        """Each value twice, so that the second call reads the memo: -0.0
        after 0.0, NaN after NaN and a _Pct after its float must still
        format as the uncached formula does."""
        def uncached(value):
            return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

        for value in values * 2:
            value = _Pct(value) if pct and isinstance(value, float) else value
            assert self._outcome(format_pct, value) == self._outcome(uncached, value), value


class TestClassificationTables:
    def test_t1_rows_cover_all_codes_plus_total(self):
        data = {
            (CaseClassification.CONFIRMED_BY_LAB, Sex.FEMALE): 2,
            (CaseClassification.NEGATIVE, Sex.MALE): 1,
        }
        lines = render(TableId.T1, data, "tsv").decode().splitlines()
        assert lines[0] == "classification_code\tclassification\tfemale\tmale\tunspecified\ttotal"
        assert len(lines) == 1 + 7 + 1
        assert lines[3] == "3\tconfirmed_by_lab\t2\t0\t0\t2"
        assert lines[7] == "7\tnegative\t0\t1\t0\t1"
        assert lines[8] == "\ttotal\t2\t1\t0\t3"

    def test_t2_positive_classes_only(self):
        data = {(CaseClassification.NEGATIVE, Sex.FEMALE): 9,
                (CaseClassification.CONFIRMED_BY_COMMITTEE, Sex.MALE): 4}
        lines = render(TableId.T2, data, "tsv").decode().splitlines()
        assert len(lines) == 1 + 3 + 1          # three positive classes + total
        assert lines[2] == "2\tconfirmed_by_committee\t0\t4\t0\t4"
        assert lines[4] == "\ttotal\t0\t4\t0\t4"

    def test_t3_treatment_by_sex(self):
        data = {(Sex.FEMALE, TreatmentStrategy.AMBULATORY): 5,
                (Sex.MALE, TreatmentStrategy.HOSPITALIZED): 2}
        lines = render(TableId.T3, data, "tsv").decode().splitlines()
        assert lines[0] == "sex\tambulatory\thospitalized\ttotal"
        assert lines[1] == "female\t5\t0\t5"
        assert lines[2] == "male\t0\t2\t2"
        assert lines[3] == "unspecified\t0\t0\t0"
        assert lines[4] == "total\t5\t2\t7"

    def test_t4_state_shares(self):
        data = {31: (0, 3), 20: (3, 1)}
        lines = render(TableId.T4, data, "tsv").decode().splitlines()
        assert lines[1] == "20\tOaxaca\t3\t1\t4\t25.00"
        assert lines[2] == "31\tYucatan\t0\t3\t3\t75.00"
        assert lines[3] == "\ttotal\t3\t4\t7\t100.00"

    def test_t4_share_undefined_without_hospitalized(self):
        lines = render(TableId.T4, {20: (3, 0)}, "tsv").decode().splitlines()
        assert lines[1] == "20\tOaxaca\t3\t0\t3\tNA"
        assert lines[2] == "\ttotal\t3\t0\t3\tNA"

    def test_t4_with_no_states_is_the_zero_total(self):
        assert render(TableId.T4, {}, "tsv") == \
            b"state_code\tstate\tambulatory\thospitalized\ttotal\thospital_share_pct\n\ttotal\t0\t0\t0\tNA\n"
        assert render(TableId.T4, {}, "json") == \
            (b'[{"state_code": "", "state": "total", "ambulatory": 0, "hospitalized": 0,'
             b' "total": 0, "hospital_share_pct": null}]\n')

    @pytest.mark.parametrize("table, counts", [
        (TableId.T1, st.dictionaries(st.tuples(st.sampled_from(CaseClassification), st.sampled_from(Sex)),
                                     st.integers(0, 10**6))),
        (TableId.T3, st.dictionaries(st.tuples(st.sampled_from(Sex), st.sampled_from(TreatmentStrategy)),
                                     st.integers(0, 10**6))),
        (TableId.T4, st.dictionaries(st.integers(1, 32), st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))),
    ], ids=["t1", "t3", "t4"])
    @given(data=st.data())
    def test_the_total_row_is_the_column_sums(self, table, counts, data):
        """Each row's total is the sum of its counts, and the total row's
        counts are the sums of the rows' (all of the input's, in its total)."""
        drawn = data.draw(counts)
        *rows, total = json.loads(render(table, drawn, "json"))
        count_cols = [col for col, value in total.items() if type(value) is int]
        assert count_cols[-1] == "total"
        for row in (*rows, total):
            assert row["total"] == sum(row[col] for col in count_cols[:-1])
        for col in count_cols:
            assert total[col] == sum(row[col] for row in rows)
        assert total["total"] == sum(sum(v) if isinstance(v, tuple) else v for v in drawn.values())

    def test_t5_flag_rows_in_code_order(self):
        data = {(CodedFlag.YES, Sex.MALE): 3,
                (CodedFlag.NOT_APPLICABLE, Sex.FEMALE): 8}
        lines = render(TableId.T5, data, "tsv").decode().splitlines()
        assert lines[0] == "flag_code\tintubated\tfemale\tmale\tunspecified\ttotal"
        assert lines[1] == "1\tyes\t0\t3\t0\t3"
        assert lines[2] == "2\tno\t0\t0\t0\t0"
        assert lines[3] == "97\tnot_applicable\t8\t0\t0\t8"
        assert lines[6] == "\ttotal\t8\t3\t0\t11"

    def test_t7_same_layout_different_header(self):
        head = render(TableId.T7, {}, "tsv").decode().splitlines()[0]
        assert head == "flag_code\ticu\tfemale\tmale\tunspecified\ttotal"


class TestGenomicTables:
    def test_t8_sorted_within_label(self):
        data = {"Delta": {("AY.20", "GK"): 2, ("AY.13", "G"): 1}}
        lines = render(TableId.T8, data, "tsv").decode().splitlines()
        assert lines == [
            "who_label\tlineage\tclade\tcount",
            "Delta\tAY.13\tG\t1",
            "Delta\tAY.20\tGK\t2",
        ]

    def test_t9_bucket_then_status_order(self):
        data = {("Hospitalizado", "GK"): 3, ("Liberado", "G"): 1,
                ("Ambulatorio", "GK"): 2, ("raro", "GK"): 1}
        lines = render(TableId.T9, data, "tsv").decode().splitlines()
        assert lines == [
            "patient_status\tbucket\tclade\tcount",
            "Liberado\tmild\tG\t1",
            "Ambulatorio\tmoderate\tGK\t2",
            "Hospitalizado\tsevere\tGK\t3",
            "raro\tunknown\tGK\t1",
        ]

    def test_text_cells_escape_separators_and_line_breaks(self):
        data = {("Hospital|ized\tnow", "G|X"): 1, ("two\nlines\r", "GK"): 2, ("back\\slash", "GK"): 3}
        assert render(TableId.T9, data, "tsv").decode().split("\n")[1:] == [
            "Hospital|ized\\tnow\tunknown\tG|X\t1",
            "back\\\\slash\tunknown\tGK\t3",
            "two\\nlines\\r\tunknown\tGK\t2",
            "",
        ]
        assert render(TableId.T9, data, "markdown").decode().split("\n")[2:] == [
            "| Hospital\\|ized\\tnow | unknown | G\\|X | 1 |",
            "| back\\\\slash | unknown | GK | 3 |",
            "| two\\nlines\\r | unknown | GK | 2 |",
            "",
        ]
        assert [(row["patient_status"], row["clade"]) for row in json.loads(render(TableId.T9, data, "json"))] \
            == [("Hospital|ized\tnow", "G|X"), ("back\\slash", "GK"), ("two\nlines\r", "GK")]

    @given(st.dictionaries(st.tuples(st.text(max_size=6), st.text(max_size=6)), st.integers(0, 9), max_size=5))
    def test_every_text_row_is_one_line_of_its_cells(self, data):
        """Each row is one line whose cells, with the escapes undone, are the
        row's json values."""
        rows = [list(map(str, row.values())) for row in json.loads(render(TableId.T9, data, "json"))]
        unescape = {"t": "\t", "n": "\n", "r": "\r"}
        for fmt, head in (("tsv", 1), ("markdown", 2)):
            lines = render(TableId.T9, data, fmt).decode().split("\n")
            assert lines.pop() == "" and len(lines) == head + len(rows)
            for line, row in zip(lines[head:], rows):
                if fmt == "tsv":
                    cells = line.split("\t")
                else:
                    assert line.startswith("| ") and line.endswith(" |")
                    cells = line[2:-2].split(" | ")  # every "|" in a cell follows a backslash
                assert [re.sub(r"\\(.)", lambda m: unescape.get(m[1], m[1]), cell) for cell in cells] == row

    def test_g3_catalog_order_plus_unclassified(self):
        shares = VariantShares(shares={"Alpha": (1, 17.525)}, classified=1, unclassified=2)
        out = render(TableId.G3_SHARES, shares, "tsv").decode()
        assert out == ("who_label\tcount\tshare_pct\n"
                       "Alpha\t1\t17.53\n"
                       "unclassified\t2\tNA\n")

    def test_summary_tables(self):
        samples = [
            sample(state="Puebla", sex=Sex.FEMALE, age=30, vaccine="Pfizer"),
            sample(state="Puebla", sex=Sex.MALE, age=65),
        ]
        summary = state_summary(samples, states=("Puebla",))
        t11 = render(TableId.T11, summary, "tsv").decode().splitlines()
        assert t11[1] == "Puebla\t1\t1\t0\t2"
        assert t11[2] == "total\t1\t1\t0\t2"
        t10 = render(TableId.T10, summary, "tsv").decode().splitlines()
        assert t10[1] == "Puebla\tGK\t2"
        t12 = render(TableId.T12, summary, "tsv").decode().splitlines()
        assert t12[1] == "Puebla\tPfizer\t1"
        assert t12[2] == "total\tPfizer\t1"
        t13 = render(TableId.T13, summary, "tsv").decode().splitlines()
        # one row per age group per block, zero cells kept
        assert t13[1] == "Puebla\t0-20\t0\t0\t0\t0"
        assert t13[2] == "Puebla\t21-40\t1\t0\t0\t1"
        assert t13[4] == "Puebla\t60+\t0\t1\t0\t1"

    @pytest.mark.parametrize("table", [TableId.T10, TableId.T11, TableId.T12, TableId.T13])
    def test_summary_tables_reject_plain_mappings(self, table):
        with pytest.raises(ShapeMismatch):
            render(table, {"Puebla": 1}, "tsv")

    def test_g3_rejects_plain_mapping(self):
        with pytest.raises(ShapeMismatch):
            render(TableId.G3_SHARES, {"Alpha": (1, 17.5)}, "tsv")


def _chart_reports():
    records = [
        make_record(state_code=20, death_date=date(2021, 8, 1)),
        make_record(state_code=20),
        make_record(state_code=31, classification=CaseClassification.NEGATIVE),
    ]
    return stratified_report(records, group_by=("state",))


class TestChartTables:
    def test_g4_rows_and_omission_trailer(self):
        out = render(TableId.G4_SCATTER, _chart_reports(), "tsv").decode()
        assert out == ("state_code\tstate\tfatality_pct\tpositivity_pct\n"
                       "20\tOaxaca\t50.00\t100.00\n"
                       "# omitted (undefined): 31\n")

    def test_g4_json_has_no_trailer(self):
        payload = json.loads(render(TableId.G4_SCATTER, _chart_reports(), "json"))
        assert payload == [
            {"state_code": 20, "state": "Oaxaca", "fatality_pct": 50.0,
             "positivity_pct": 100.0},
        ]

    def test_g5_stack(self):
        out = render(TableId.G5_STACK, _chart_reports(), "tsv")
        lines = out.decode().splitlines()
        assert lines[0] == "state_code\tstate\ttgi1_pct\ttgi2_pct\ttgi3_pct"
        assert lines[1] == "20\tOaxaca\t100.00\t0.00\t0.00"
        assert lines[2] == "# omitted (undefined): 31"

    def test_metrics_table_national_row_first(self):
        lines = render(TableId.METRICS, _chart_reports(), "tsv").decode().splitlines()
        assert lines[0].startswith("state\tmunicipality\tsex\tage_group\ttotal\tpositive")
        assert lines[1].startswith("all\tall\tall\tall\t3\t2\t1\t")
        assert lines[1].endswith("\t66.67\t100.00\t0.00\t0.00")  # national fatality 50, IP 66.67
        assert lines[2].startswith("20\tall\tall\tall\t2\t2\t0\t")
        assert lines[3].startswith("31\tall\tall\tall\t1\t0\t1\t")
        assert lines[3].endswith("\tNA\t0.00\tNA\tNA\tNA")       # no positives in 31


class TestComorbidityTable:
    def test_zero_cells_dropped_and_field_order_kept(self):
        data = {("asthma", AgeGroup.Y21_40): 2,
                ("diabetes", AgeGroup.Y60_PLUS): 3,
                ("diabetes", AgeGroup.Y0_20): 0}
        lines = render(TableId.COMORBIDITY_PROFILE, data, "tsv").decode().splitlines()
        assert lines == [
            "comorbidity\tage_group\tcount",
            "diabetes\t60+\t3",
            "asthma\t21-40\t2",
        ]
        assert COMORBIDITY_FIELDS.index("diabetes") < COMORBIDITY_FIELDS.index("asthma")


class TestRenderContract:
    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(TableId.T1, {}, "csv")

    def test_table_id_accepts_strings(self):
        assert render("t3", {}, "tsv") == render(TableId.T3, {}, "tsv")
        with pytest.raises(ValueError):
            render("t99", {}, "tsv")

    def test_garbage_data_becomes_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            render(TableId.T1, 42, "tsv")
        with pytest.raises(ShapeMismatch):
            render(TableId.T4, {"x": "y"}, "tsv")
        assert issubclass(ShapeMismatch, TypeError)

    def test_markdown_structure(self):
        data = {20: (3, 1)}
        lines = render(TableId.T4, data, "markdown").decode().splitlines()
        assert lines[0].startswith("| state_code | state |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert lines[2] == "| 20 | Oaxaca | 3 | 1 | 4 | 100.00 |"

    def test_markdown_keeps_trailers(self):
        out = render(TableId.G4_SCATTER, _chart_reports(), "markdown").decode()
        assert out.endswith("# omitted (undefined): 31\n")

    def test_json_is_utf8_with_unicode_kept(self):
        data = {("Sintomático", "GK"): 1}
        raw = render(TableId.T9, data, "json")
        assert "Sintomático" in raw.decode("utf-8")
        assert json.loads(raw) == [
            {"patient_status": "Sintomático", "bucket": "moderate",
             "clade": "GK", "count": 1}
        ]

    def test_render_is_deterministic(self):
        a = {31: (0, 3), 20: (3, 1)}
        b = {20: (3, 1), 31: (0, 3)}
        assert render(TableId.T4, a, "tsv") == render(TableId.T4, b, "tsv")
        shares = VariantShares(shares={"Alpha": (1, 50.0), "Delta": (1, 50.0)},
                               classified=2, unclassified=0)
        assert render(TableId.G3_SHARES, shares, "json") == \
            render(TableId.G3_SHARES, shares, "json")

    def test_every_table_id_has_a_builder(self):
        from episurv.report import _BUILDERS
        assert set(_BUILDERS) == set(TableId)


@pytest.mark.parametrize("table,data", [
    (TableId.COMORBIDITY_PROFILE, {}),
    (TableId.T12, None),
    (TableId.METRICS, None),
])
def test_json_is_byte_identical_to_dumps_of_the_row_list(table, data):
    records = [make_record(state_code=s, age_years=a) for s in (5, 20, 21) for a in (10, 70, None)]
    if table is TableId.T12:
        data = state_summary([sample(state="Puebla", vaccine="Sputnik V"),
                              sample(state="Puebla", vaccine="Vacuna Pátria")], states=["Puebla"])
    elif table is TableId.METRICS:
        data = stratified_report(records, group_by=("state", "age_group"))
    out = render(table, data, "json")
    assert out == (json.dumps(json.loads(out), ensure_ascii=False) + "\n").encode("utf-8")
