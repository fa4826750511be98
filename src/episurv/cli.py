"""Command-line interface.

Subcommands cover the full pipeline: ``validate`` checks a file and reports
ingestion counters, ``epi-report`` renders case-registry tables and stratified
metrics, ``genomic-report`` renders variant tables from sequence metadata,
``rank``/``scatter``/``severity`` produce the chart-feeding per-state outputs,
and ``fixture-gen`` writes synthetic datasets from shipped presets.

Every table is rendered the same way, by ``_cmd_table``: it opens the input
as the subcommand's stream kind, computes the table's data by its entry in
``_TABLES``, renders it and writes the chunks as they come. ``_TABLES`` is
the one place that ties a table to its subcommand, the options it reads and
its producer. A producer imports the domain module it calls, ``metrics`` or
``genomics``, when it runs, so a command loads only the one its table reads.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable file, malformed
CSV, missing columns, inconsistent marginals, unknown preset, out of memory),
130 interrupted.
"""

import argparse
import errno
import os
import sys
from datetime import date
from importlib import import_module
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .ingest import ingest_gisaid, ingest_sveerv, validate_report
from .report import ShapeMismatch, TableId, format_pct, render_chunks
from .schema import (
    GROUP_DIMENSIONS,
    STATE_NAMES,
    PositivityMode,
    RankMetric,
    SeverityCriterion,
    Sex,
    StratumKey,
    Subcohort,
)

__all__ = ["main"]

# ValueError covers MissingRequiredColumn, UnicodeDecodeError, malformed CSV
# and the fixtures module's InconsistentMarginals and UnknownPreset.
_DATA_ERRORS = (OSError, ShapeMismatch, ValueError)

_FATALITY_NOTE = (
    "note: record-level fatality computes to 15.60 per 100 positives for this"
    " cohort; a circulated summary figure of 13.5 does not reproduce from the"
    " tabulated counts."
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for data errors."""

    def error(self, message):
        raise SystemExit(_usage_error(self, message))

    def _get_values(self, action, arg_strings):
        # Python 3.11's argparse drops a "--" given as an option's value
        # (--label=--) and yields [], unchecked by the option's type and
        # choices; read it as the value it is.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


# The option types below raise argparse.ArgumentTypeError, whose message
# argparse prints as it is: a ValueError would be reported under the name
# of the function.

def _list_of(decode: Callable[[str], object], error: str, collect: Callable = frozenset, empty=None):
    """The type of a comma-list option: its non-blank tokens, stripped, each
    decoded by ``decode`` and the values collected by ``collect``. No tokens
    parse to ``empty``, by default None, which means no filter. A token that
    ``decode`` refuses with ValueError or KeyError is reported as ``error``
    formatted with the token's repr; a decoder with a message of its own
    raises ArgumentTypeError."""
    def parse(text: str):
        values = []
        for tok in filter(None, map(str.strip, text.split(","))):
            try:
                values.append(decode(tok))
            except (KeyError, ValueError):
                raise argparse.ArgumentTypeError(error.format(tok)) from None
        return collect(values) if values else empty
    return parse


def _state_code(tok: str) -> int:
    code = int(tok)
    if code not in STATE_NAMES:
        raise argparse.ArgumentTypeError(
            f"{tok!r} is not a state code (expected {min(STATE_NAMES)}-{max(STATE_NAMES)})")
    return code


_NOT_AN_INTEGER = "{!r} is not an integer code (expected comma-separated integers)"
_DIMENSIONS = {dim.replace("_", "-"): dim for dim in GROUP_DIMENSIONS}  # as --group-by spells them

_state_codes = _list_of(_state_code, _NOT_AN_INTEGER)
_municipality_codes = _list_of(int, _NOT_AN_INTEGER)
_sexes = _list_of(lambda tok: Sex(tok.casefold()),
                  f"unknown sex {{!r}} (expected {', '.join(sex.value for sex in Sex)})")
# Given empty, --group-by and the genomic --states parse to (), not to their
# default None: a table that does not read them refuses them given.
_dimensions = _list_of(lambda tok: _DIMENSIONS[tok.casefold().replace("_", "-")],
                       f"unknown dimension {{!r}} (expected {', '.join(_DIMENSIONS)})", tuple, empty=())
_names = _list_of(str, "", list, empty=())


def _date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a date (expected YYYY-MM-DD)") from None


def _encoding(text: str) -> str:
    """A codec that decodes the newline byte to a newline, as reading a file
    cut into lines at that byte needs: not unknown, not a bytes-to-bytes
    codec like ``hex``, and not UTF-16 or UTF-32."""
    try:
        if b"\n".decode(text) == "\n":
            return text
    except (LookupError, UnicodeError):
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a text encoding with a one-byte newline")


def _delimiter(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, not {text!r}")
    return text


def _cohort_from(args):
    from .metrics import CohortFilter

    onset = None
    if args.onset_from is not None or args.onset_to is not None:
        onset = (args.onset_from or date.min, args.onset_to or date.max)
    return CohortFilter(args.indigenous_only, args.states, args.municipalities, args.sexes, onset)


def _write(chunks: Iterable[bytes], out: str | None) -> None:
    """Write each chunk as it comes, to stdout or to the file ``out``."""
    if out in (None, "-"):
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as f:
            f.writelines(chunks)


def _check_out(out: str | None) -> None:
    """Raise the OSError that writing the file ``out`` would, if it is a
    directory, its directory is missing, or ``os.access`` says that ``out``
    (if it exists) or else its directory is not writable; checked before the
    input is read, and without creating or truncating ``out``."""
    if out in (None, "-"):
        return
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    parent = os.path.dirname(out) or os.curdir
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        raise OSError(code, os.strerror(code), out)
    if not os.access(out if os.path.exists(out) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)


# --- commands -----------------------------------------------------------------

def _open(args):
    """The stream of ``args.input``, of the kind the subcommand sets."""
    if args.kind == "gisaid":
        return ingest_gisaid(args.input, encoding=args.encoding)
    return ingest_sveerv(args.input, delimiter=args.delimiter or ",", encoding=args.encoding)


def _cmd_validate(args) -> int:
    if args.kind == "gisaid" and args.delimiter is not None:
        return _usage_error(args.parser, "--delimiter applies only to --kind sveerv:"
                                         " the metadata delimiter is sniffed")
    _check_out(args.out)
    stream = _open(args)
    stream.count(())  # the batch path: only the counters are reported
    _write([validate_report(stream.stats).encode("utf-8")], args.out)
    return 0


def _call(module: str, name: str, *reads: Callable) -> Callable:
    """The producer that calls the function ``name`` of ``module``, a domain
    module imported as it runs, on the stream and what each of ``reads``
    reads of the parsed arguments."""
    def produce(stream, args):
        return getattr(import_module(module, __package__), name)(stream, *[read(args) for read in reads])
    return produce


def _strata(stream, args, group_by=("state",)):
    """A registry table's strata by ``group_by``, packed: the per-state
    charts keep the default."""
    from .metrics import strata_table

    return strata_table(stream, _cohort_from(args), group_by,
                        SeverityCriterion(args.severity_rule or SeverityCriterion.ICU_AND_INTUBATION),
                        PositivityMode(args.positivity or PositivityMode.AGGREGATE))


def _label(args) -> str:
    return args.label or "Delta"


def _states(args) -> Sequence[str]:
    return ("Puebla", "Hidalgo", "Veracruz", "Oaxaca") if args.states is None else args.states


_summary = _call(".genomics", "state_summary", attrgetter("catalog"), _label, _states)


# Every table, with the subcommand that renders it, the options its table
# reads (by dest) and what computes its data from the open stream and the
# parsed arguments: the one place that ties a table to its producer. A
# subcommand's --table choices are its tables here, in this order. rank
# reads both indicator settings, whichever --metric it ranks by.
_TABLES: dict[TableId, tuple[str, tuple[str, ...], Callable]] = {
    TableId.T1: ("epi-report", (), _call(".metrics", "classification_sex_tally", _cohort_from)),
    TableId.T2: ("epi-report", (), _call(".metrics", "classification_sex_tally", _cohort_from)),
    TableId.T3: ("epi-report", (), _call(".metrics", "treatment_sex_tally", _cohort_from)),
    TableId.T4: ("epi-report", (), _call(".metrics", "state_treatment_tally", _cohort_from)),
    TableId.T5: ("epi-report", (), _call(".metrics", "intubation_sex_tally", _cohort_from)),
    TableId.T6: ("epi-report", (), _call(".metrics", "death_classification_sex_tally", _cohort_from)),
    TableId.T7: ("epi-report", (), _call(".metrics", "death_icu_sex_tally", _cohort_from)),
    TableId.METRICS: ("epi-report", ("group_by", "severity_rule", "positivity"),
                      lambda stream, args: _strata(stream, args, args.group_by or ())),
    TableId.COMORBIDITY_PROFILE: ("epi-report", ("subcohort",), _call(
        ".metrics", "comorbidity_profile", _cohort_from,
        lambda args: Subcohort(args.subcohort or Subcohort.DEATHS_ICU_INTUBATED))),
    TableId.G3_SHARES: ("genomic-report", (), _call(".genomics", "variant_shares", attrgetter("catalog"))),
    TableId.T8: ("genomic-report", (), _call(".genomics", "full_crosstab", attrgetter("catalog"))),
    TableId.T9: ("genomic-report", ("label",), _call(".genomics", "status_crosstab", attrgetter("catalog"), _label)),
    TableId.T10: ("genomic-report", ("label", "states"), _summary),
    TableId.T11: ("genomic-report", ("label", "states"), _summary),
    TableId.T12: ("genomic-report", ("label", "states"), _summary),
    TableId.T13: ("genomic-report", ("label", "states"), _summary),
    TableId.RANK: ("rank", ("severity_rule", "positivity"),
                   lambda stream, args: (RankMetric(args.metric), _strata(stream, args))),
    TableId.G4_SCATTER: ("scatter", ("positivity",), _strata),
    TableId.G5_STACK: ("severity", ("severity_rule",), _strata),
}

# The options, by stream kind, that some of its tables read and others do
# not. Given with a table whose entry above does not name it, one is a usage
# error. By kind, because the registry --states, which every registry table
# reads, shares its dest with the genomic one.
_TABLE_OPTIONS = {"sveerv": ("group_by", "subcohort", "severity_rule", "positivity"),
                  "gisaid": ("label", "states")}


def _tables_of(command: str, dest: str | None = None) -> list[str]:
    """The ids of ``command``'s tables in catalog order, or of those that read ``dest``."""
    return [t.value for t, (c, reads, _) in _TABLES.items() if c == command and dest in (None, *reads)]


def _readers(dest: str) -> str:
    """The tables that read ``dest``, in catalog order, each named by the
    command that renders it, with ``--table`` if that has several; the
    command is left out when it is the only one."""
    named = {c: f"{c} --table {', '.join(_tables_of(c, dest))}" if len(_tables_of(c)) > 1 else c
             for c, reads, _ in _TABLES.values() if dest in reads}
    if len(named) == 1:
        [(command, name)] = named.items()
        return name.removeprefix(command + " ")
    return ", ".join(named.values())


def _option_error(args, table: TableId) -> str | None:
    """Why a table's options do not fit the table, each other or the
    catalog, if they do not. A metadata table's catalog is loaded into
    ``args.catalog`` after the checks that need no file."""
    if args.kind == "sveerv" and (args.onset_from or date.min) > (args.onset_to or date.max):
        return f"--onset-from {args.onset_from} is later than --onset-to {args.onset_to}"
    for dest in _TABLE_OPTIONS[args.kind]:
        if getattr(args, dest, None) is not None and dest not in _TABLES[table][1]:
            return f"--{dest.replace('_', '-')} applies only to {_readers(dest)}"
    if args.kind == "sveerv":
        return None
    from .genomics import DEFAULT_CATALOG, load_catalog

    args.catalog = load_catalog(args.catalog) if args.catalog else DEFAULT_CATALOG
    if args.label is not None and args.catalog.get(args.label) is None:
        labels = ", ".join(v.who_label for v in args.catalog.variants)
        return f"--label {args.label!r} is not in the catalog (expected {labels})"
    return None


def _cmd_table(args) -> int:
    table = TableId(args.table)
    if message := _option_error(args, table):  # before the input, which is read after the catalog
        return _usage_error(args.parser, message)
    _check_out(args.out)
    stream = _open(args)
    data = _TABLES[table][2](stream, args)
    chunks = render_chunks(table, data, args.format)
    if table is TableId.METRICS:
        national = data.report(StratumKey()).fatality_pct
        if national is not None and format_pct(national) == "15.60":
            sys.stderr.write(_FATALITY_NOTE + "\n")
    stats = stream.stats
    sys.stderr.write(f"read {stats.rows_read} rows: {stats.rows_accepted} accepted,"
                     f" {stats.rows_rejected} rejected\n")
    _write(chunks, args.out)
    return 0


def _cmd_fixture_gen(args) -> int:
    from .fixtures import (  # only this command needs them
        PRESET_ALIASES,
        generate_fixture,
        list_presets,
        load_preset,
    )

    if args.list:
        _write([("\n".join(list_presets()) + "\n").encode()], args.out)
        return 0
    if args.preset is None:
        return _usage_error(args.parser, "--preset is required (or use --list)")
    canonical = PRESET_ALIASES.get(args.preset.strip().casefold())
    if args.rows is not None and canonical not in (None, "smoke"):
        return _usage_error(args.parser, "--rows applies only to the smoke preset")
    spec = load_preset(args.preset, rows=args.rows, seed=args.seed)
    if args.out in (None, "-"):
        generate_fixture(spec, sys.stdout.buffer)
        sys.stdout.buffer.flush()
    else:
        generate_fixture(spec, args.out)
        sys.stderr.write(f"wrote {args.out}\n")
    return 0


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    sys.stderr.write(f"{parser.prog}: error: {message}\n")
    return 1


# --- parser -------------------------------------------------------------------

def _add_io(p: argparse.ArgumentParser, *, gisaid: bool = False, table: bool = True) -> None:
    p.add_argument("--input", "-i", required=True, help="input file path")
    p.add_argument("--out", "-o", default=None,
                   help="output path (default: stdout)")
    if table:
        p.add_argument("--format", "-f", choices=("tsv", "json", "markdown"),
                       default="tsv", help="output format (default tsv)")
    p.add_argument("--encoding", type=_encoding, default="utf-8",
                   help="input encoding (default utf-8; bad lines fall back to latin-1)")
    if not gisaid:
        p.add_argument("--delimiter", type=_delimiter, default=None,
                       help="field delimiter, one character (default ,)")


def _add_registry_options(p: argparse.ArgumentParser) -> None:
    """The cohort filters and the metric settings of a registry table."""
    p.add_argument("--indigenous-only", action="store_true",
                   help="keep only records whose indigenous-language flag is yes")
    p.add_argument("--states", type=_state_codes, default=None, metavar="CODES",
                   help="comma-separated state codes to keep (e.g. 20,21,30)")
    p.add_argument("--municipalities", type=_municipality_codes, default=None, metavar="CODES",
                   help="comma-separated municipality codes to keep")
    p.add_argument("--sexes", type=_sexes, default=None, metavar="NAMES",
                   help="comma-separated sexes to keep (female,male,unspecified)")
    p.add_argument("--onset-from", type=_date, default=None,
                   metavar="DATE", help="inclusive lower bound on symptom onset")
    p.add_argument("--onset-to", type=_date, default=None,
                   metavar="DATE", help="inclusive upper bound on symptom onset")
    p.add_argument("--severity-rule", choices=tuple(c.value for c in SeverityCriterion), default=None,
                   help="what counts as severe for the typology (default icu-and-intubation)")
    p.add_argument("--positivity", choices=tuple(m.value for m in PositivityMode), default=None,
                   help="positivity denominator (default aggregate)")


def _add_table_command(sub, name: str, help: str, kind: str = "sveerv",
                       default: str | None = None) -> argparse.ArgumentParser:
    """The subcommand ``name``, which renders its tables in _TABLES from a
    stream of ``kind``: the one chosen by --table (``default`` if none is),
    or else its only one, a per-state chart."""
    p = sub.add_parser(name, help=help)
    _add_io(p, gisaid=kind == "gisaid")
    if kind == "sveerv":
        _add_registry_options(p)
    tables = _tables_of(name)
    if default is None:
        p.set_defaults(table=tables[0])
    else:
        p.add_argument("--table", choices=tables, default=default,
                       help=f"which table to render (default {default})")
    p.set_defaults(func=_cmd_table, kind=kind, parser=p)
    return p


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="episurv",
        description="Streaming surveillance analytics over case registries"
                    " and sequence metadata.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate",
                       help="ingest a file and print acceptance/rejection counters")
    p.add_argument("--kind", choices=("sveerv", "gisaid"), default="sveerv",
                   help="input flavor (default sveerv)")
    _add_io(p, table=False)
    p.set_defaults(func=_cmd_validate, parser=p)

    p = _add_table_command(sub, "epi-report", "render case-registry tables or stratified metrics",
                           default="metrics")
    p.add_argument("--group-by", type=_dimensions, default=None, metavar="DIMS",
                   help="metrics table strata: comma list of " + ",".join(_DIMENSIONS))
    p.add_argument("--subcohort", choices=tuple(s.value for s in Subcohort), default=None,
                   help="rows counted by the comorbidity profile")

    p = _add_table_command(sub, "genomic-report", "render variant tables from sequence metadata",
                           kind="gisaid", default="g3-shares")
    p.add_argument("--label", default=None,
                   help="variant label for t9-t13 (default Delta)")
    p.add_argument("--states", type=_names, default=None, metavar="NAMES",
                   help="state names for t10-t13, comma-separated")
    p.add_argument("--catalog", default=None,
                   help="variant catalog file overriding the built-in one")

    p = _add_table_command(sub, "rank", "order states by a headline metric")
    p.add_argument("--metric", choices=tuple(m.value for m in RankMetric),
                   default=RankMetric.FATALITY.value,
                   help="ranking metric (default fatality)")
    _add_table_command(sub, "scatter", "per-state fatality vs positivity table")
    _add_table_command(sub, "severity", "per-state severity typology table")

    p = sub.add_parser("fixture-gen",
                       help="write a synthetic dataset from a preset")
    p.add_argument("--preset", default=None,
                   help="preset name (see --list)")
    p.add_argument("--list", action="store_true", help="list preset names and exit")
    p.add_argument("--rows", type=int, default=None,
                   help="row count for the smoke preset")
    p.add_argument("--seed", type=int, default=None,
                   help="override the preset's seed")
    p.add_argument("--out", "-o", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_fixture_gen, parser=p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader has gone. Chunks still in stdout's buffer would fail
        # again at the interpreter's flush on exit, so send them nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"episurv: error: {exc}\n")
        return 2
    except MemoryError:  # raised here or, pickled, by a shard worker
        sys.stderr.write("episurv: error: out of memory\n")
        return 2
    except KeyboardInterrupt:
        sys.stderr.write("episurv: interrupted\n")
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
