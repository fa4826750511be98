import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from episurv import _shard, cli, fixtures, ingest
from episurv.cli import _FATALITY_NOTE, main
from episurv.fixtures import generate_fixture, load_preset
from episurv.ingest import ingest_gisaid, ingest_sveerv
from episurv.metrics import SeverityCriterion
from episurv.report import TableId
from test_ingest import csv_bytes, gisaid_bytes, grow, row
from test_sharding import SVEERV_LINES, _assert_no_child_left, _file_bytes, _forks, _run, _shards


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

    @pytest.mark.parametrize("argv, error", [
        (["--states", "20,a"],
         "argument --states: 'a' is not an integer code (expected comma-separated integers)"),
        (["--municipalities", " x "],
         "argument --municipalities: 'x' is not an integer code (expected comma-separated integers)"),
        (["--sexes", "female,x"],
         "argument --sexes: unknown sex 'x' (expected female, male, unspecified)"),
        (["--onset-from", "2021-13-01"],
         "argument --onset-from: '2021-13-01' is not a date (expected YYYY-MM-DD)"),
        (["--onset-to", "soon"],
         "argument --onset-to: 'soon' is not a date (expected YYYY-MM-DD)"),
        (["--group-by", "state,foo"],
         "argument --group-by: unknown dimension 'foo' (expected state, municipality, sex, age-group)"),
    ], ids=["states", "municipalities", "sexes", "onset-from", "onset-to", "group-by"])
    def test_a_bad_option_value_is_named_with_the_accepted_values(self, argv, error, epi_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["epi-report", "-i", epi_file, *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == \
            ["episurv epi-report: error: " + error]

    @pytest.mark.parametrize("command", ["epi-report", "rank", "scatter", "severity"])
    @pytest.mark.parametrize("codes, token", [("99", "99"), ("20,0", "0"), (" 33 ", "33")])
    def test_a_state_code_outside_the_domain_is_refused_before_reading(self, command, codes, token, epi_file,
                                                                        tmp_path, capsys):
        for path in (epi_file, str(tmp_path / "missing.csv")):
            with pytest.raises(SystemExit) as exc:
                main([command, "-i", path, "--states", codes])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage: ")
            assert [line for line in captured.err.splitlines() if "error:" in line] == \
                [f"episurv {command}: error: argument --states: {token!r} is not a state code (expected 1-32)"]

    @pytest.mark.parametrize("argv, error", [
        *[([command, "--onset-from", "2021-05-01", "--onset-to", "2020-01-01"],
           f"episurv {command}: error: --onset-from 2021-05-01 is later than --onset-to 2020-01-01")
          for command in ("epi-report", "rank", "scatter", "severity")],
        (["epi-report", "--table", "t1", "--group-by", "state"],
         "episurv epi-report: error: --group-by applies only to --table metrics"),
        (["epi-report", "--table", "comorbidity-profile", "--group-by", "sex"],
         "episurv epi-report: error: --group-by applies only to --table metrics"),
        (["epi-report", "--subcohort", "deaths-positive"],
         "episurv epi-report: error: --subcohort applies only to --table comorbidity-profile"),
        (["epi-report", "--table", "t4", "--subcohort", "hospitalized-positive"],
         "episurv epi-report: error: --subcohort applies only to --table comorbidity-profile"),
        *[(["epi-report", "--table", "t1", "--group-by", empty],
           "episurv epi-report: error: --group-by applies only to --table metrics") for empty in ("", " , ")],
    ], ids=["onset-epi-report", "onset-rank", "onset-scatter", "onset-severity", "group-by-t1",
            "group-by-comorbidity-profile", "subcohort-metrics", "subcohort-t4", "group-by-empty-t1",
            "group-by-blank-t1"])
    def test_options_that_do_not_fit_are_refused_before_reading(self, argv, error, epi_file, tmp_path, capsys):
        for path in (epi_file, str(tmp_path / "missing.csv")):
            assert main([*argv, "-i", path]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("usage: ")
            assert [line for line in captured.err.splitlines() if "error:" in line] == [error]

    def test_an_empty_group_by_prints_the_national_row(self, epi_file, capsys):
        outs = []
        for given in ([], ["--group-by", ""]):
            assert main(["epi-report", "-i", epi_file, *given]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv, code", [
        (["epi-report", "-i", "unread", "--states=--"], 1),
        (["epi-report", "-i", "unread", "--format=--"], 1),
        (["genomic-report", "-i", "unread", "--table", "t9", "--label=--"], 1),
        (["fixture-gen", "--preset=--"], 2),
        (["validate", "--input=--"], 2),
    ], ids=["states", "format", "label", "preset", "input"])
    def test_a_double_dash_value_is_read_as_itself(self, argv, code):
        """Python 3.11's argparse drops a value "--" and hands the option an
        unchecked [], which --label and --preset raised a traceback on."""
        status, out, err = _outcome(argv)
        assert (status, out) == (code, b"")
        assert [line for line in err.splitlines() if ": error: " in line] == [err.splitlines()[-1]]
        assert "'--'" in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [["validate", "--encoding", "UTF8"],
                                      ["validate", "--encoding", "utf-8-sig"],
                                      ["epi-report", "--encoding", "latin-1", "--delimiter", ","]])
    def test_a_valid_encoding_and_delimiter_read(self, argv, epi_file):
        assert main([*argv, "-i", epi_file]) == 0

    def test_fixture_gen_needs_preset_or_list(self, capsys):
        assert main(["fixture-gen"]) == 1
        assert "--preset is required" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("the input was opened")


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

    @pytest.mark.parametrize("rows", [10**8 + 1, 10**20])
    def test_smoke_rows_above_the_ceiling_generate_nothing(self, rows, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generate_fixture was called")

        monkeypatch.setattr(fixtures, "generate_fixture", never)
        target = tmp_path / "never.csv"
        assert main(["fixture-gen", "--preset", "smoke", "--rows", str(rows), "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "episurv: error: smoke preset takes at most 100000000 rows\n"
        assert not target.exists()

    @pytest.mark.parametrize("argv", [["validate"], ["epi-report", "--table", "t1"], ["genomic-report"], ["rank"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("out, error", [
        ("missing/out.tsv", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
        ("cases.csv/out.tsv", "[Errno 20] Not a directory"),
    ], ids=["missing directory", "directory", "file as directory"])
    def test_an_unusable_out_fails_before_reading(self, argv, out, error, epi_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_open", _never)
        before = sorted(tmp_path.rglob("*"))
        target = str(tmp_path / out)
        assert main([*argv, "-i", epi_file, "-o", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"episurv: error: {error}: {target!r}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "cases.csv").read_bytes().startswith(b"ENTIDAD_RES,")

    @pytest.mark.parametrize("argv", [["validate"], ["epi-report", "--table", "t1"], ["genomic-report"], ["rank"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("out, denied", [("new.tsv", "."), ("cases.csv", "cases.csv")],
                             ids=["directory", "existing file"])
    def test_an_unwritable_out_fails_before_reading(self, argv, out, denied, epi_file, tmp_path, capsys,
                                                   monkeypatch):
        """Running as root ignores permission bits, so os.access is patched
        to deny writing ``denied`` only."""
        def access(path, mode):
            assert mode == os.W_OK
            return os.path.normpath(path) != str(tmp_path / denied)

        monkeypatch.setattr(cli, "_open", _never)
        monkeypatch.setattr(os, "access", access)
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        target = str(tmp_path / out)
        assert main([*argv, "-i", epi_file, "-o", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"episurv: error: [Errno 13] Permission denied: {target!r}\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_an_existing_out_needs_no_writable_directory(self, epi_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_open", _opened)
        monkeypatch.setattr(os, "access", lambda path, mode: os.path.normpath(path) != str(tmp_path))
        with pytest.raises(_Opened):
            main(["epi-report", "-i", epi_file, "-o", epi_file])

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

    @pytest.mark.parametrize("delimiter", [";", "\t", ","])
    def test_a_delimiter_for_gisaid_is_a_usage_error(self, delimiter, gisaid_file, capsys):
        """The metadata delimiter is sniffed from the file's first line."""
        assert main(["validate", "--kind", "gisaid", "-i", gisaid_file, "--delimiter", delimiter]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: episurv validate ")
        assert captured.err.endswith("episurv validate: error: --delimiter applies only to --kind sveerv:"
                                     " the metadata delimiter is sniffed\n")

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

    @pytest.mark.parametrize("empty, other", [
        ("--states=", []), ("--states=", ["--sexes", "female"]),
        ("--municipalities=", []), ("--municipalities=", ["--sexes", "female"]),
        ("--municipalities=", ["--states", "20"]),
        ("--sexes=", []), ("--sexes=", ["--states", "20"]),
    ])
    def test_an_empty_list_is_no_filter_alone_or_next_to_another(self, empty, other, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--table", "t1", *other]) == 0
        without = capsys.readouterr().out
        assert main(["epi-report", "-i", epi_file, "--table", "t1", empty, *other]) == 0
        assert capsys.readouterr().out == without
        assert without.splitlines()[-1].endswith("\t4" if other else "\t6")  # of the 6 accepted rows

    def test_an_equal_onset_pair_is_that_day(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file, "--table", "t1"]) == 0
        every = capsys.readouterr().out
        assert main(["epi-report", "-i", epi_file, "--table", "t1",
                     "--onset-from", "2021-07-01", "--onset-to", "2021-07-01"]) == 0
        assert capsys.readouterr().out == every  # every row's onset is 2021-07-01
        assert main(["epi-report", "-i", epi_file, "--table", "t1",
                     "--onset-from", "2021-07-02", "--onset-to", "2021-07-02"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "\ttotal\t0\t0\t0\t0"

    def test_out_may_be_a_dash_or_the_input(self, epi_file, capsys):
        argv = ["epi-report", "-i", epi_file, "--table", "t1"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert main([*argv, "-o", "-"]) == 0
        assert capsys.readouterr().out == table
        assert main([*argv, "-o", epi_file]) == 0
        assert capsys.readouterr().out == ""
        with open(epi_file) as f:
            assert f.read() == table

    def test_an_empty_group_by_is_the_national_table(self, epi_file, capsys):
        assert main(["epi-report", "-i", epi_file]) == 0
        national = capsys.readouterr().out
        assert main(["epi-report", "-i", epi_file, "--group-by", " , "]) == 0
        assert capsys.readouterr().out == national

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


class TestStreamedOutput:
    STRATA = ["epi-report", "--group-by", "state,municipality,sex,age-group", "-f", "json"]

    @pytest.fixture(scope="class")
    def strata_input(self, tmp_path_factory):
        """A smoke registry whose strata JSON is about 1 MB, many chunks."""
        path = tmp_path_factory.mktemp("strata") / "smoke.csv"
        generate_fixture(load_preset("smoke", rows=3000, seed=0), path)
        return str(path)

    def test_out_file_holds_the_stdout_bytes(self, strata_input, tmp_path, capsysbinary):
        target = tmp_path / "strata.json"
        assert main([*self.STRATA, "-i", strata_input, "-o", str(target)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main([*self.STRATA, "-i", strata_input]) == 0
        out = capsysbinary.readouterr().out
        assert len(out) > 500_000
        assert target.read_bytes() == out

    @pytest.mark.parametrize("fmt, head", [
        ("json", b'[{"state": "all"'),
        ("tsv", b"state\tmunicipality"),
        ("markdown", b"| state | municipality"),
    ])
    @pytest.mark.parametrize("read", [100, 0])
    def test_a_reader_that_stops_early_is_not_an_error(self, strata_input, fmt, head, read):
        argv = [*self.STRATA[:-1], fmt, "-i", strata_input]
        # stdout buffered, as it is by default: a reader that closes before
        # the first write makes the pipe break while a small chunk (the
        # header) is held in the buffer
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen([sys.executable, "-m", "episurv.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.read(read)[:len(head)] == head[:read]
            proc.stdout.close()  # the rest of the table meets a closed pipe
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == "read 3000 rows: 3000 accepted, 0 rejected\n"


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
        if table == "t9":  # both variants have samples
            assert len(out(label).splitlines()) > 1

    @pytest.mark.parametrize("argv, error", [
        *[(["--table", table, "--label", "Omicron"],
           "--label 'Omicron' is not in the catalog (expected Alpha, Beta, Gamma, Delta, Eta, Iota, Kappa,"
           " Lambda, Mu)") for table in ("t9", "t10", "t11", "t12", "t13")],
        (["--table", "t9", "--label", "Delta", "--catalog", "CATALOG"],
         "--label 'Delta' is not in the catalog (expected Homegrown)"),
        (["--label", "Delta"], "--label applies only to --table t9, t10, t11, t12, t13"),
        (["--table", "t8", "--label", "Omicron"], "--label applies only to --table t9, t10, t11, t12, t13"),
    ], ids=["t9", "t10", "t11", "t12", "t13", "catalog", "g3-shares", "t8"])
    def test_a_label_that_does_not_apply_is_refused_before_reading(self, argv, error, gisaid_file, tmp_path,
                                                                    capsys, monkeypatch):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("who_label,category,clades,pango_pattern\nHomegrown,VOI,GK,B.1.1.519\n")
        monkeypatch.setattr(cli, "_open", _never)
        argv = [str(catalog) if arg == "CATALOG" else arg for arg in argv]
        assert main(["genomic-report", "-i", gisaid_file, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")
        assert [line for line in captured.err.splitlines() if "error:" in line] == \
            ["episurv genomic-report: error: " + error]

    def test_a_label_in_an_override_catalog_is_accepted(self, gisaid_file, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("who_label,category,clades,pango_pattern\nHomegrown,VOI,GK,B.1.1.519\n")
        assert main(["genomic-report", "-i", gisaid_file, "--catalog", str(catalog),
                     "--table", "t9", "--label", "homegrown"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["Ambulatorio\tmoderate\tGK\t1"]

    def test_t11_states_flag(self, gisaid_file, capsys):
        assert main(["genomic-report", "-i", gisaid_file, "--table", "t11",
                     "--states", "Puebla,Oaxaca"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "Puebla\t1\t0\t0\t1"     # Delta only: EPI_ISL_3
        assert lines[2] == "Oaxaca\t1\t0\t0\t1"
        assert lines[3] == "total\t2\t0\t0\t2"

    def test_t11_with_no_states_is_the_empty_total(self, gisaid_file, capsys):
        assert main(["genomic-report", "-i", gisaid_file, "--table", "t11", "--states="]) == 0
        assert capsys.readouterr().out == "state\tfemale\tmale\tunspecified\ttotal\ntotal\t0\t0\t0\t0\n"

    @pytest.mark.parametrize("table", ["t10", "t11", "t12", "t13"])
    def test_without_states_a_summary_renders_the_four_default_states(self, table, gisaid_file, capsys):
        def out(*argv):
            assert main(["genomic-report", "-i", gisaid_file, "--table", table, *argv]) == 0
            return capsys.readouterr().out

        assert out() == out("--states", "Puebla,Hidalgo,Veracruz,Oaxaca") != out("--states", "Oaxaca")
        if table == "t11":  # a row per state, with or without samples
            assert [line.split("\t")[0] for line in out().splitlines()[1:]] == \
                ["Puebla", "Hidalgo", "Veracruz", "Oaxaca", "total"]

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

    @pytest.mark.parametrize("fmt", ["tsv", "markdown"])
    def test_a_cell_holding_a_separator_or_a_line_break_keeps_its_row(self, fmt, tmp_path, capsys):
        path = tmp_path / "meta.tsv"
        path.write_bytes(gisaid_bytes(
            grow(accession="EPI_ISL_1", patient_status='"Hospital|ized\tnow"', clade="G|X"),
            grow(accession="EPI_ISL_2", patient_status='"two\nlines"'),
            grow(accession="EPI_ISL_3", patient_status="back\\slash"),
        ))
        out = {}
        for table in ("t8", "t9"):
            assert main(["genomic-report", "-i", str(path), "--table", table, "-f", fmt]) == 0
            out[table] = capsys.readouterr().out.splitlines()
        if fmt == "tsv":
            assert out["t9"][1:] == ["Hospital|ized\\tnow\tunknown\tG|X\t1",
                                     "back\\\\slash\tunknown\tGK\t1",
                                     "two\\nlines\tunknown\tGK\t1"]
            assert out["t8"][1:] == ["Delta\tAY.20\tGK\t2", "Delta\tAY.20\tG|X\t1"]
        else:
            assert out["t9"][2:] == ["| Hospital\\|ized\\tnow | unknown | G\\|X | 1 |",
                                     "| back\\\\slash | unknown | GK | 1 |",
                                     "| two\\nlines | unknown | GK | 1 |"]
            assert out["t8"][2:] == ["| Delta | AY.20 | GK | 2 |", "| Delta | AY.20 | G\\|X | 1 |"]

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

    @pytest.mark.parametrize("row, error", [
        ("Homegrown,VOI", "2 field(s), its columns need 4"),
        ("Homegrown,VOX,GK,B.1", "'VOX' is not a valid VariantCategory"),
        ("Homegrown,VOI,GK,", "pattern '' has no alternatives"),
        ("Homegrown,VOI,GK,B..1", "bad pattern alternative 'B..1' in 'B..1'"),
        ("Homegrown,VOI,GK," + "B" * 140_000, "malformed CSV: field larger than field limit (131072)"),
    ], ids=["short row", "unknown category", "empty pattern", "bad pattern", "oversized field"])
    def test_a_short_catalog_row_is_one_error_line(self, gisaid_file, tmp_path, row, error):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(f"who_label,category,clades,pango_pattern\n{row}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "episurv.cli", "genomic-report", "-i", gisaid_file,
             "--catalog", str(catalog)],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"episurv: error: catalog line 2: {error}\n"

    def test_a_catalog_with_carriage_return_line_ends_is_one_error_line(self, gisaid_file, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_bytes(b"who_label,category,clades,pango_pattern\rHomegrown,VOI,GK,B.1.1.519\r")
        assert main(["genomic-report", "-i", gisaid_file, "--catalog", str(catalog)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("episurv: error: catalog line 1: malformed CSV: ")
        assert captured.err.count("\n") == 1

    def test_a_catalog_cell_may_span_lines(self, gisaid_file, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_bytes(b'who_label,category,clades,pango_pattern\nHomegrown,VOI,"GK;\nGH",B.1.1.519\n')
        assert main(["genomic-report", "-i", gisaid_file, "--catalog", str(catalog)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "Homegrown\t1\t100.00"

    def test_a_catalog_saved_with_a_bom_reads(self, gisaid_file, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_bytes(b"\xef\xbb\xbfwho_label,category,clades,pango_pattern\nHomegrown,VOI,GK,B.1.1.519\n")
        assert main(["genomic-report", "-i", gisaid_file, "--catalog", str(catalog)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "Homegrown\t1\t100.00"

    def test_a_missing_catalog_is_named_before_a_missing_input(self, tmp_path, capsys):
        """The catalog is loaded before the input is opened."""
        argv = ["genomic-report", "-i", str(tmp_path / "meta.tsv"), "--catalog", str(tmp_path / "catalog.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"episurv: error: [Errno 2] No such file or directory: '{tmp_path / 'catalog.csv'}'\n"


# The command that renders each table; every TableId has one.
_TABLE_COMMANDS = {
    **{table: ["epi-report", "--table", table.value] for table in (
        TableId.T1, TableId.T2, TableId.T3, TableId.T4, TableId.T5, TableId.T6, TableId.T7,
        TableId.METRICS, TableId.COMORBIDITY_PROFILE)},
    **{table: ["genomic-report", "--table", table.value] for table in (
        TableId.G3_SHARES, TableId.T8, TableId.T9, TableId.T10, TableId.T11, TableId.T12, TableId.T13)},
    TableId.RANK: ["rank"],
    TableId.G4_SCATTER: ["scatter"],
    TableId.G5_STACK: ["severity"],
}


def test_every_table_has_a_command():
    assert set(_TABLE_COMMANDS) == set(TableId)


@pytest.mark.parametrize("table", list(TableId), ids=lambda table: table.value)
def test_a_table_prints_only_its_progress_line_on_stderr(table, annex_epi_path, annex_gisaid_path, capsys):
    """On the annex inputs, stderr is exactly the progress line, and for the
    metrics table, whose national fatality is the contested figure, the
    fatality note before it."""
    argv = _TABLE_COMMANDS[table]
    path = annex_gisaid_path if argv[0] == "genomic-report" else annex_epi_path
    stream = (ingest_gisaid if argv[0] == "genomic-report" else ingest_sveerv)(path)
    stream.count(())
    stats = stream.stats
    assert stats.rows_read > 0
    progress = f"read {stats.rows_read} rows: {stats.rows_accepted} accepted, {stats.rows_rejected} rejected\n"
    assert main([*argv, "-i", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert captured.err == (_FATALITY_NOTE + "\n" if table is TableId.METRICS else "") + progress


# The tables that read each option that only some tables of a stream kind
# read, as its refusal names them, and a value the option accepts.
_READERS = {
    "group_by": ("--table metrics", "sex"),
    "subcohort": ("--table comorbidity-profile", "deaths-positive"),
    "severity_rule": ("epi-report --table metrics, rank, severity", "icu-only"),
    "positivity": ("epi-report --table metrics, rank, scatter", "lab-negative"),
    "label": ("--table t9, t10, t11, t12, t13", "Delta"),
    "states": ("--table t10, t11, t12, t13", "Puebla"),
}


def _args(table: TableId):
    """The parsed arguments of the command that renders ``table``."""
    return cli._build_parser().parse_args([*_TABLE_COMMANDS[table], "-i", "unread"])


def _given(dest: str) -> list[str]:
    return ["--" + dest.replace("_", "-"), _READERS[dest][1]]


class _Opened(Exception):
    pass


def _opened(args):
    raise _Opened


def test_the_catalog_names_options_that_the_tables_command_takes():
    for table in TableId:
        args = _args(table)
        assert all(hasattr(args, dest) and dest in cli._TABLE_OPTIONS[args.kind] for dest in cli._TABLES[table][1])
    assert {dest: cli._readers(dest) for kind in cli._TABLE_OPTIONS.values() for dest in kind} == \
        {dest: readers for dest, (readers, _) in _READERS.items()}


@pytest.mark.parametrize("table, dest", [
    (table, dest) for table in TableId for args in [_args(table)] for dest in cli._TABLE_OPTIONS[args.kind]
    if hasattr(args, dest) and dest not in cli._TABLES[table][1]], ids=lambda v: getattr(v, "value", v))
def test_an_option_that_the_table_does_not_read_is_refused_before_reading(table, dest, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_open", _never)
    argv = _TABLE_COMMANDS[table]
    assert main([*argv, "-i", "unread", *_given(dest)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ")
    lines = captured.err.splitlines()
    assert [line for line in lines if "error:" in line] == [lines[-1]] == \
        [f"episurv {argv[0]}: error: {_given(dest)[0]} applies only to {_READERS[dest][0]}"]


@pytest.mark.parametrize("table, dest", [
    (table, dest) for table in TableId for dest in cli._TABLES[table][1]], ids=lambda v: getattr(v, "value", v))
def test_an_option_that_the_table_reads_gets_to_the_input(table, dest, monkeypatch):
    monkeypatch.setattr(cli, "_open", _opened)
    with pytest.raises(_Opened):
        main([*_TABLE_COMMANDS[table], "-i", "unread", *_given(dest)])


@pytest.mark.parametrize("argv, option, default, other", [
    *[(argv, "--severity-rule", "icu-and-intubation", "icu-only")
      for argv in (["epi-report"], ["rank", "--metric", "tgi3"], ["severity"])],
    *[(argv, "--positivity", "aggregate", "lab-negative")
      for argv in (["epi-report"], ["rank", "--metric", "positivity"], ["scatter"])],
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_an_indicator_setting_reaches_each_table_that_reads_it(argv, option, default, other, tmp_path, capsys):
    """Left out, a setting is its default; given, it changes the table."""
    path = tmp_path / "cases.csv"
    path.write_bytes(csv_bytes(row(TIPO_PACIENTE="2", UCI="1", INTUBADO="2"),  # in ICU, not intubated
                               row(CLASIFICACION_FINAL="6")))                   # a suspect

    def out(*given):
        assert main([*argv, "-i", str(path), *given]) == 0
        return capsys.readouterr().out

    assert out() == out(option, default) != out(option, other)


def test_each_severity_rule_prints_its_own_severity_table(tmp_path, capsys):
    """Among hospitalized positives, one in ICU only, two intubated only, one
    with both and one with neither: 3, 2, 1 and 4 count as severe under the
    four rules. The shipped presets write the two flags alike, so there the
    rules print the same tables."""
    path = tmp_path / "cases.csv"
    path.write_bytes(csv_bytes(*(row(TIPO_PACIENTE="2", UCI=icu, INTUBADO=intubated)
                                 for icu, intubated in (("1", "2"), ("2", "1"), ("2", "1"), ("1", "1"), ("2", "2")))))
    outs = []
    for rule in SeverityCriterion:
        assert main(["severity", "-i", str(path), "--severity-rule", rule.value]) == 0
        outs.append(capsys.readouterr().out)
    assert len(set(outs)) == len(SeverityCriterion) == 4


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


# The modules whose loading the gate below watches: the two domain modules,
# the fixtures, and the standard modules that only some tables need.
_WATCHED = {"episurv.metrics", "episurv.genomics", "episurv.fixtures", "json", "decimal", "unicodedata"}


@pytest.mark.parametrize("argv, loaded", [
    (["validate", "-i", "{epi}"], set()),
    (["validate", "--kind", "gisaid", "-i", "{gisaid}"], set()),
    (["epi-report", "--table", "t1", "-i", "{epi}"], {"episurv.metrics"}),
    (["epi-report", "--table", "t1", "-f", "json", "-i", "{epi}"], {"episurv.metrics", "json"}),
    (["epi-report", "--group-by", "state,municipality,sex,age-group", "-f", "json", "-i", "{epi}"],
     {"episurv.metrics", "json", "decimal"}),
    (["rank", "-i", "{epi}"], {"episurv.metrics", "decimal"}),
    (["genomic-report", "--table", "t8", "-i", "{gisaid}"], {"episurv.genomics", "unicodedata"}),
    (["genomic-report", "--table", "g3-shares", "-i", "{gisaid}"], {"episurv.genomics", "unicodedata", "decimal"}),
    (["-c", "import episurv.report"], set()),
    (["-c", "import episurv.genomics"], {"episurv.genomics", "unicodedata"}),
], ids=lambda v: " ".join(v).replace(" -i {epi}", "").replace(" -i {gisaid}", "") if isinstance(v, list)
   else "+".join(sorted(v)) or "none")
def test_a_fresh_process_loads_only_the_modules_its_table_needs(argv, loaded, epi_file, gisaid_file):
    """A command imports the domain module its table reads and no other,
    json only for JSON output, and decimal only to format a percentage: the
    modules loaded once it has run, listed on the last line of its stderr."""
    argv = [arg.format(epi=epi_file, gisaid=gisaid_file) for arg in argv]
    run = argv[1] if argv[0] == "-c" else f"from episurv.cli import main; assert main({argv!r}) == 0"
    proc = subprocess.run([sys.executable, "-c", f"import sys; {run}; print(*sys.modules, file=sys.stderr)"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.splitlines()[-1].split()) & _WATCHED == loaded


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "episurv.cli", "fixture-gen", "--list"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "annex-gisaid" in proc.stdout


def test_an_interrupt_prints_one_line_and_leaves_no_worker(tmp_path):
    """Ctrl-C during a sharded count: exit 130 with one stderr line, no
    traceback, and the worker killed and reaped."""
    path = tmp_path / "input"
    path.write_bytes(_file_bytes(SVEERV_LINES[:80]))
    fold = _shard._count_range

    def interrupted(stream, start, *rest):
        if start == stream.stats.bytes_read:  # the first range, folded in this process
            raise KeyboardInterrupt
        threading.Event().wait(60)  # a worker: still running when it is killed
        return fold(stream, start, *rest)

    with _shards(2), mock.patch.object(_shard, "_count_range", interrupted), _forks() as pids:
        code, out, err = _run(["epi-report", "-i", str(path), "--group-by", "state,sex"])
    assert code == 130 and out == b""
    assert err.splitlines() == ["episurv: interrupted"]
    assert len(pids) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_running_out_of_memory_prints_one_line(jobs, tmp_path):
    """A MemoryError in the fold, serial or in a shard worker (pickled back
    to the parent), ends in one error line and exit 2, with no traceback and
    no worker left."""
    path = tmp_path / "input"
    path.write_bytes(_file_bytes(SVEERV_LINES[:80]))
    parent, fold = os.getpid(), ingest._fold_rows

    def exhausted(*args):
        if jobs == 1 or os.getpid() != parent:
            raise MemoryError
        return fold(*args)

    with _shards(jobs), mock.patch.object(ingest, "_fold_rows", exhausted), _forks() as pids:
        code, out, err = _run(["validate", "-i", str(path)])
    assert (code, out, err.splitlines()) == (2, b"", ["episurv: error: out of memory"])
    assert len(pids) == jobs - 1
    _assert_no_child_left()



# --- the argv gate ---------------------------------------------------------------
#
# Every option of every subcommand, as _build_parser() declares it, drawn with
# its choices, values of its type and hostile strings. Whatever the argv, the
# run prints a table or help (exit 0), a usage line and one error line (exit
# 1) or one ``episurv: error:`` line (exit 2), and never a traceback. The
# oracle is the table catalog: an option that the table does not read exits 1.

_SUBPARSERS = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
_HOSTILE = ("", " ", ",", " , ", "-", "--", "-1", "0", "1" * 30, "\x00", "é", "\udcff", "x" * 300,
            "a\nb", "9999-99-99", "NaN", "１", "Delta,", "'\"", "%s%n", "--help")
_TYPED = {
    cli._state_codes: ("20", "20,31", " 1 , 32 ", "0", "33", "20,x"),
    cli._municipality_codes: ("1", "1,2", "-4", "1.5"),
    cli._sexes: ("female", "Male,unspecified", "other"),
    cli._dimensions: ("state", "state,sex,age-group", "age_group", "postcode"),
    cli._names: ("Puebla", "puebla,OAXACA", "Nowhere", "Puebla,,Oaxaca"),
    cli._date: ("2021-07-01", "2021-02-30", "07/01/2021"),
    cli._encoding: ("utf-8", "latin-1", "cp1252", "utf-16", "utf_32", "hex", "rot13", "idna", "nope"),
    cli._delimiter: (",", ";", "\t", "\n", '"', ",,"),
}
# The files of a run's own directory that each path option is given ("" is
# the directory itself); --out may also be "-".
_FILES = {"input": ("epi.csv", "meta.tsv", "catalog.tsv", "missing.csv", ""),
          "catalog": ("catalog.tsv", "bad_catalog.tsv", "meta.tsv", "missing.tsv", ""),
          "out": ("out.txt", "epi.csv", "missing/out.txt", "", "-")}
_CATALOGS = {"catalog.tsv": "who_label\tcategory\tclades\tpango_pattern\nAlpha\tVOC\tGRY\tB.1.1.7+Q.x\n"
                            "Delta\tVOC\tG/478K.V1\tB.1.617.2+AY.x\n",
             "bad_catalog.tsv": "who_label\tcategory\tclades\tpango_pattern\nDelta\tVOX\tG\tB.1.617.2\n"}


def _values(action: argparse.Action, here: pathlib.Path):
    """What ``action`` may be given: a path in ``here`` for a path option,
    else its choices, values of its type and hostile strings."""
    if action.dest in _FILES:
        return st.sampled_from(_FILES[action.dest]).map(lambda name: name if name == "-" else str(here / name))
    if action.type is int:  # fixture-gen: at most a thousand rows, whatever the seed
        return st.one_of(st.integers(-5, 1000).map(str), st.sampled_from(("", "1e3", "0x10", "x")))
    known = [*(action.choices or ()), *_TYPED.get(action.type, ())]
    if action.dest == "preset":
        known += ["smoke", " SMOKE", "table1", "annex-epi"]
    return st.one_of(*([st.sampled_from(known)] if known else []), st.sampled_from(_HOSTILE), st.text(max_size=8))


@st.composite
def _argv(draw, here: pathlib.Path) -> tuple[list[str], dict[str, str | None]]:
    """A subcommand and some of its options, each once and in a drawn
    spelling, with the value given to each option by dest (None for a flag)."""
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    actions = {a.dest: a for a in _SUBPARSERS[command]._actions if a.option_strings}
    dests = draw(st.lists(st.sampled_from(sorted(actions)), unique=True, max_size=6))
    if command == "fixture-gen":
        dests += [] if "rows" in dests else ["rows"]  # without --rows, smoke writes 100k rows
    elif "input" not in dests and draw(st.integers(0, 9)):
        dests.append("input")  # nearly always
    argv, given = [command], {}
    for dest in dests:
        option = draw(st.sampled_from(actions[dest].option_strings))
        value = given[dest] = None if actions[dest].nargs == 0 else draw(_values(actions[dest], here))
        if value is None:
            argv.append(option)
        else:
            argv += [f"{option}={value}"] if option.startswith("--") and draw(st.booleans()) else [option, value]
    return argv, given


def _outcome(argv: list[str]) -> tuple[int, bytes, str]:
    """Exit status, stdout bytes and stderr of ``main(argv)`` in this process."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help, or a usage error argparse finds
            code = exc.code
        stdout.flush()
    return code, stdout.buffer.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def argv_gate_files(annex_epi_path, annex_gisaid_path) -> dict[str, bytes]:
    """About 300 lines of each annex input, and two catalogs."""
    return {"epi.csv": b"".join(annex_epi_path.read_bytes().splitlines(True)[:300]),
            "meta.tsv": b"".join(annex_gisaid_path.read_bytes().splitlines(True)[:300]),
            **{name: text.encode() for name, text in _CATALOGS.items()}}


@settings(max_examples=250, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_argv_prints_a_table_or_one_error(data, argv_gate_files, tmp_path_factory):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        here = pathlib.Path(tmp)
        for name, content in argv_gate_files.items():
            (here / name).write_bytes(content)
        argv, given = data.draw(_argv(here))
        code, out, err = _outcome(argv)
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 0:
        assert ": error: " not in err
        assert out or given.get("out", "-") != "-" or "help" in given, argv
    elif code == 1:
        assert out == b"" and lines[0].startswith(f"usage: episurv {argv[0]}"), (argv, err)
        assert [line for line in lines if ": error: " in line] == [lines[-1]], (argv, err)
        assert lines[-1].startswith(f"episurv {argv[0]}: error: "), (argv, err)
    else:
        assert code == 2 and out == b"" and lines == [lines[0]] and lines[0].startswith("episurv: error: "), \
            (argv, code, err)
    command = _SUBPARSERS[argv[0]]
    table = given.get("table", command.get_default("table"))
    if command.get_default("func") is cli._cmd_table and table in cli._tables_of(argv[0]) and "help" not in given:
        options = set(cli._TABLE_OPTIONS[command.get_default("kind")])
        unread = (set(given) & options) - set(cli._TABLES[TableId(table)][1])
        assert not unread or code == 1, (argv, code, err)
