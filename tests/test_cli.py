import json
import subprocess
import sys

import pytest

from episurv.cli import main
from test_ingest import csv_bytes, gisaid_bytes, grow, row


@pytest.fixture()
def epi_file(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_bytes(csv_bytes(
        row(),                                                    # 20, F, positive
        row(FECHA_DEF="2021-08-01"),                              # positive death
        row(TIPO_PACIENTE="2", UCI="1", INTUBADO="1", SEXO="2",
            DIABETES="1"),                                        # hospitalized M
        row(CLASIFICACION_FINAL="7"),
        row(ENTIDAD_RES="31", CLASIFICACION_FINAL="7"),
        row(ENTIDAD_RES="31", CLASIFICACION_FINAL="7", SEXO="2"),
        row(SEXO="abc"),                                          # rejected
    ))
    return str(path)


@pytest.fixture()
def gisaid_file(tmp_path):
    path = tmp_path / "meta.tsv"
    path.write_bytes(gisaid_bytes(
        grow(accession="EPI_ISL_1"),
        grow(accession="EPI_ISL_2", pango_lineage="B.1.1.7", clade="GRY",
             division="Puebla", patient_status="Fallecido", sex="Male"),
        grow(accession="EPI_ISL_3", pango_lineage="AY.20", division="Puebla",
             vaccine="Pfizer"),
        grow(accession="EPI_ISL_4", pango_lineage="B.1.1.519"),  # unclassified
    ))
    return str(path)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["epi-report"],                          # missing --input
        ["epi-report", "-i", "x", "--table", "t99"],
        ["validate", "-i", "x", "--kind", "other"],
        ["epi-report", "-i", "x", "--format", "xml"],
        ["epi-report", "-i", "x", "--group-by", "postcode"],
        ["epi-report", "-i", "x", "--onset-from", "not-a-date"],
    ])
    def test_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["epi-report", "--encoding", "nope"],
         "episurv epi-report: error: argument --encoding: 'nope' is not a text encoding with a one-byte newline"),
        (["validate", "--kind", "gisaid", "--encoding", "nope"],
         "episurv validate: error: argument --encoding: 'nope' is not a text encoding with a one-byte newline"),
        (["genomic-report", "--encoding", "hex"],
         "episurv genomic-report: error: argument --encoding: 'hex' is not a text encoding with a one-byte newline"),
        (["epi-report", "--encoding", "utf-16"],
         "episurv epi-report: error: argument --encoding: 'utf-16' is not a text encoding with a one-byte newline"),
        (["validate", "--encoding", "utf-32"],
         "episurv validate: error: argument --encoding: 'utf-32' is not a text encoding with a one-byte newline"),
        (["epi-report", "--delimiter", "ab"],
         "episurv epi-report: error: argument --delimiter: must be exactly one character, not 'ab'"),
        (["rank", "--delimiter="], "episurv rank: error: argument --delimiter: must be exactly one character, not ''"),
    ])
    def test_encoding_and_delimiter_are_checked_before_reading(self, argv, error, epi_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-i", epi_file])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert [line for line in captured.err.splitlines() if "error:" in line] == [error]

    @pytest.mark.parametrize("argv", [["validate", "--encoding", "UTF8"],
                                      ["validate", "--encoding", "utf-8-sig"],
                                      ["epi-report", "--encoding", "latin-1", "--delimiter", ","]])
    def test_a_valid_encoding_and_delimiter_read(self, argv, epi_file):
        assert main([*argv, "-i", epi_file]) == 0

    def test_fixture_gen_needs_preset_or_list(self, capsys):
        assert main(["fixture-gen"]) == 1
        assert "--preset is required" in capsys.readouterr().err


class TestDataErrors:
    def test_missing_input_file(self, capsys):
        assert main(["validate", "-i", "/nonexistent/cases.csv"]) == 2
        assert capsys.readouterr().err.startswith("episurv: error:")

    def test_missing_columns(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b,c\n1,2,3\n")
        assert main(["epi-report", "-i", str(path)]) == 2
        assert "episurv: error:" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["fixture-gen", "--preset", "table99"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_smoke_rows_too_small(self, capsys):
        assert main(["fixture-gen", "--preset", "smoke", "--rows", "5"]) == 2
        assert "at least 20 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["validate"], ["epi-report"], ["validate", "--kind", "gisaid"], ["genomic-report"],
    ])
    @pytest.mark.parametrize("cell", ["a\rb", "x" * 131073], ids=["cr", "long"])
    def test_malformed_csv_is_one_error_line(self, argv, cell, tmp_path, capsys):
        path = tmp_path / "input"
        if "gisaid" in argv or argv == ["genomic-report"]:
            path.write_bytes(gisaid_bytes(grow(), grow(division=cell)))
        else:
            path.write_bytes(csv_bytes(row(), row(MUNICIPIO_RES=cell)))
        assert main([*argv, "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("episurv: error: line 3: malformed CSV: ")
        assert err.count("\n") == 1


class TestValidate:
    def test_counters_and_reasons(self, epi_file, capsys):
        assert main(["validate", "-i", epi_file]) == 0
        out = capsys.readouterr().out
        assert "rows read:     7" in out
        assert "rows accepted: 6" in out
        assert "rows rejected: 1" in out
        assert "BadInteger: 1" in out

    def test_gisaid_kind(self, gisaid_file, capsys):
        assert main(["validate", "--kind", "gisaid", "-i", gisaid_file]) == 0
        out = capsys.readouterr().out
        assert "rows read:     4" in out
        assert "rows rejected: 0" in out

    @pytest.mark.parametrize("argv", [["-f", "json"], ["--format", "tsv"], ["--kind", "gisaid", "-f", "json"]])
    def test_format_is_a_usage_error(self, argv, epi_file, capsys):
        """validate prints one plain-text report; it takes no --format."""
        with pytest.raises(SystemExit) as exc:
            main(["validate", "-i", epi_file, *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert "error: unrecognized arguments: " in captured.err

    def test_out_file(self, epi_file, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["validate", "-i", epi_file, "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "rows read:     7" in target.read_text()


class TestEpiReport:
    def test_t1_table_and_progress(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--table", "t1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[3] == "3\tconfirmed_by_lab\t2\t1\t0\t3"
        assert lines[7] == "7\tnegative\t2\t1\t0\t3"
        assert lines[8] == "\ttotal\t4\t2\t0\t6"
        assert "read 7 rows: 6 accepted, 1 rejected" in captured.err

    def test_metrics_json_national_row(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        [national] = [r for r in payload if r["state"] == "all"]
        assert national["total"] == 6
        assert national["positive"] == 3
        assert national["fatality_pct"] == 33.33
        assert national["positivity_pct"] == 50.0
        assert national["tgi3_pct"] == 33.33

    def test_group_by_state(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--format", "json",
                     "--group-by", "state"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_state = {r["state"]: r for r in payload}
        assert by_state[20]["total"] == 4
        assert by_state[31]["total"] == 2
        assert by_state[31]["fatality_pct"] is None

    def test_cohort_filters(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--format", "json",
                     "--states", "20", "--sexes", "male"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["total"] == 1          # only the hospitalized male
        assert payload[0]["hospitalized_pos"] == 1

    def test_positivity_mode_changes_result(self, tmp_path, capsys):
        path = tmp_path / "mix.csv"
        path.write_bytes(csv_bytes(
            row(),
            row(CLASIFICACION_FINAL="7"),
            row(CLASIFICACION_FINAL="6"),
            row(CLASIFICACION_FINAL="6"),
        ))
        assert main(["epi-report", "-i", str(path), "--format", "json"]) == 0
        aggregate = json.loads(capsys.readouterr().out)[0]["positivity_pct"]
        assert main(["epi-report", "-i", str(path), "--format", "json",
                     "--positivity", "lab-negative"]) == 0
        lab = json.loads(capsys.readouterr().out)[0]["positivity_pct"]
        assert aggregate == 25.0    # 1 of 4 rows
        assert lab == 50.0          # suspects drop out of the denominator

    def test_severity_rule_changes_tgi3(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--format", "json",
                     "--severity-rule", "intubation-only"]) == 0
        intub = json.loads(capsys.readouterr().out)[0]["tgi3_pct"]
        assert main(["epi-report", "-i", epi_file, "--format", "json",
                     "--severity-rule", "icu-or-intubation"]) == 0
        either = json.loads(capsys.readouterr().out)[0]["tgi3_pct"]
        assert intub == either == 33.33

    def test_comorbidity_profile(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file,
                     "--table", "comorbidity-profile",
                     "--subcohort", "hospitalized-positive"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "comorbidity\tage_group\tcount"
        assert "diabetes\t21-40\t1" in out

    def test_markdown_format(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--table", "t3",
                     "--format", "markdown"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("| sex |")
        assert out[1].startswith("| --- |")


class TestFatalityNote:
    def _write_cohort(self, tmp_path, positives, deaths):
        rows = [row(FECHA_DEF="2021-08-01") for _ in range(deaths)]
        rows += [row() for _ in range(positives - deaths)]
        path = tmp_path / "note.csv"
        path.write_bytes(csv_bytes(*rows))
        return str(path)

    def test_note_fires_at_the_contested_value(self, tmp_path, capsys):
        path = self._write_cohort(tmp_path, positives=250, deaths=39)  # 15.60%
        assert main(["epi-report", "-i", path]) == 0
        captured = capsys.readouterr()
        assert "15.60 per 100 positives" in captured.err
        assert "13.5" in captured.err
        assert "15.60" in captured.out

    def test_note_silent_otherwise(self, tmp_path, capsys):
        path = self._write_cohort(tmp_path, positives=250, deaths=40)  # 16.00%
        assert main(["epi-report", "-i", path]) == 0
        assert "13.5" not in capsys.readouterr().err

    def test_note_only_on_metrics_table(self, tmp_path, capsys):
        path = self._write_cohort(tmp_path, positives=250, deaths=39)
        assert main(["epi-report", "-i", path, "--table", "t1"]) == 0
        assert "13.5" not in capsys.readouterr().err


class TestRankAndCharts:
    def test_rank_default_metric(self, epi_file, capsys):
        assert main(["rank", "-i", epi_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank\tstate_code\tstate\tfatality_pct"
        assert lines[1] == "1\t20\tOaxaca\t33.33"
        assert len(lines) == 2                    # state 31 has no positives

    def test_rank_positivity_includes_defined_zero(self, epi_file, capsys):
        assert main(["rank", "-i", epi_file, "--metric", "positivity",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [(r["state_code"], r["positivity_pct"]) for r in payload] == \
            [(20, "75.00"), (31, "0.00")]

    def test_rank_markdown_matches_tsv(self, epi_file, capsys):
        out = {}
        for fmt in ("tsv", "markdown"):
            assert main(["rank", "-i", epi_file, "--metric", "positivity", "-f", fmt]) == 0
            out[fmt] = capsys.readouterr().out.splitlines()
        header, rule, *body = out["markdown"]
        assert rule == "| --- | --- | --- | --- |"
        assert [line[2:-2].split(" | ") for line in (header, *body)] == \
            [line.split("\t") for line in out["tsv"]]

    def test_scatter(self, epi_file, capsys):
        assert main(["scatter", "-i", epi_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state_code\tstate\tfatality_pct\tpositivity_pct"
        assert lines[1] == "20\tOaxaca\t33.33\t75.00"
        assert lines[2] == "# omitted (undefined): 31"

    def test_severity(self, epi_file, capsys):
        assert main(["severity", "-i", epi_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "20\tOaxaca\t66.67\t0.00\t33.33"
        assert lines[2] == "# omitted (undefined): 31"


class TestGenomicReport:
    def test_default_shares(self, gisaid_file, capsys):
        assert main(["genomic-report", "-i", gisaid_file]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "who_label\tcount\tshare_pct"
        assert lines[1] == "Alpha\t1\t33.33"
        assert lines[2] == "Delta\t2\t66.67"
        assert lines[3] == "unclassified\t1\tNA"
        assert "read 4 rows: 4 accepted, 0 rejected" in captured.err

    def test_t8_crosstab(self, gisaid_file, capsys):
        assert main(["genomic-report", "-i", gisaid_file, "--table", "t8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "Alpha\tB.1.1.7\tGRY\t1" in lines
        assert "Delta\tAY.20\tGK\t2" in lines

    def test_t9_label_filter(self, gisaid_file, capsys):
        assert main(["genomic-report", "-i", gisaid_file, "--table", "t9",
                     "--label", "Alpha"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "Fallecido\tsevere\tGRY\t1"
        assert len(lines) == 2

    @pytest.mark.parametrize("table", ["t9", "t10", "t11", "t12", "t13"])
    @pytest.mark.parametrize("label,canonical", [("delta", "Delta"), ("DELTA", "Delta"),
                                                 (" jota ", "Iota")])
    def test_label_matches_case_insensitively(self, annex_gisaid_path, capsys, table, label,
                                              canonical):
        def out(label):
            assert main(["genomic-report", "-i", str(annex_gisaid_path), "--table", table,
                         "--label", label]) == 0
            return capsys.readouterr().out

        assert out(label) == out(canonical)
        if table == "t9":  # both variants have samples; an unknown label has none
            assert out(label) != out("Mystery")

    def test_t11_states_flag(self, gisaid_file, capsys):
        assert main(["genomic-report", "-i", gisaid_file, "--table", "t11",
                     "--states", "Puebla,Oaxaca"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "Puebla\t1\t0\t0\t1"     # Delta only: EPI_ISL_3
        assert lines[2] == "Oaxaca\t1\t0\t0\t1"
        assert lines[3] == "total\t2\t0\t0\t2"

    def test_t12_vaccines(self, gisaid_file, capsys):
        assert main(["genomic-report", "-i", gisaid_file, "--table", "t12",
                     "--states", "Puebla"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "Puebla\tPfizer\t1"

    def test_catalog_override(self, gisaid_file, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(
            "who_label,category,clades,pango_pattern\n"
            "Homegrown,VOI,GK,B.1.1.519\n"
        )
        assert main(["genomic-report", "-i", gisaid_file,
                     "--catalog", str(catalog)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "Homegrown\t1\t100.00"
        assert lines[2] == "unclassified\t3\tNA"

    @pytest.mark.parametrize("argv", [["validate", "--kind", "gisaid"], ["genomic-report"]])
    def test_overflowing_age_is_not_a_crash(self, argv, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_bytes(gisaid_bytes(grow(age="inf"), grow(age="1e400"), grow(age="-inf")))
        proc = subprocess.run(
            [sys.executable, "-m", "episurv.cli", *argv, "-i", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr

    def test_bad_catalog_is_a_data_error(self, gisaid_file, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("who_label,category\nAlpha,VOC\n")
        assert main(["genomic-report", "-i", gisaid_file,
                     "--catalog", str(catalog)]) == 2


class TestFixtureGen:
    def test_list(self, capsys):
        assert main(["fixture-gen", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "annex-epi" in out
        assert "smoke" in out
        assert out == sorted(out)

    def test_generate_to_file(self, tmp_path, capsys):
        target = tmp_path / "smoke.csv"
        assert main(["fixture-gen", "--preset", "smoke", "--rows", "40",
                     "--seed", "3", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().err
        assert target.read_bytes().count(b"\n") == 41   # header + 40 rows

    def test_generate_to_stdout_matches_file(self, tmp_path, capsys):
        target = tmp_path / "smoke.csv"
        main(["fixture-gen", "--preset", "smoke", "--rows", "40",
              "--seed", "3", "--out", str(target)])
        capsys.readouterr()
        assert main(["fixture-gen", "--preset", "smoke", "--rows", "40",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().out.encode() == target.read_bytes()

    def test_stdout_streams_the_same_bytes_as_out(self, tmp_path, capsysbinary):
        target = tmp_path / "gisaid.tsv"
        assert main(["fixture-gen", "--preset", "annex-gisaid", "--seed", "2",
                     "--out", str(target)]) == 0
        capsysbinary.readouterr()
        assert main(["fixture-gen", "--preset", "annex-gisaid", "--seed", "2"]) == 0
        assert capsysbinary.readouterr().out == target.read_bytes()

    @pytest.mark.parametrize("preset", ["annex-epi", "Table8"])
    def test_rows_needs_the_smoke_preset(self, preset, tmp_path, capsys):
        target = tmp_path / "never.csv"
        assert main(["fixture-gen", "--preset", preset, "--rows", "10",
                     "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == ["episurv fixture-gen: error: --rows applies only to the smoke preset"]
        assert not target.exists()

    def test_dash_out_means_stdout(self, capsys):
        assert main(["fixture-gen", "--preset", "smoke", "--rows", "40",
                     "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ENTIDAD_RES,")


def test_genomic_report_does_not_import_fixtures(gisaid_file):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "episurv.cli", "genomic-report",
         "-i", gisaid_file],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "episurv.genomics" in imported
    assert "episurv.fixtures" not in imported


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "episurv.cli", "fixture-gen", "--list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "annex-gisaid" in proc.stdout
