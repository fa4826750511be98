"""The benchmark's workloads: seeded inputs, CLI commands and in-process twins.

Each workload builds its input files from the seed through
``episurv.fixtures`` (timed, as set-up), derives the expected outputs
independently (see oracle.py), and lists its commands. A command has the
argv an analyst would type after ``episurv``, an output check, and an
in-process twin that calls the same public library functions the CLI calls,
for the traced run.
"""

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from time import perf_counter
from typing import Callable

from episurv.fixtures import generate_epi_fixture, generate_genomic_fixture, load_preset, smoke_epi_spec
from episurv.genomics import (
    DEFAULT_CATALOG,
    bucket_status,
    full_crosstab,
    state_summary,
    status_crosstab,
    variant_shares,
)
from episurv.ingest import ingest_gisaid, ingest_sveerv, validate_report
from episurv.metrics import (
    CaseCounts,
    CohortFilter,
    RankMetric,
    Subcohort,
    classification_sex_tally,
    comorbidity_profile,
    death_icu_sex_tally,
    intubation_sex_tally,
    rank_states,
    state_treatment_tally,
    stratified_report,
    treatment_sex_tally,
)
from episurv.report import TableId, render

import oracle
from oracle import Cohort, GenomicExpect, RegistryExpect

ROOT = Path(__file__).resolve().parent.parent
PRESET_JSON = ROOT / "src" / "episurv" / "presets" / "annex_gisaid.json"

REGISTRY_ROWS = 100_000
GENOMIC_COPIES = 40        # annex-gisaid seeds joined: about 220k samples
SETUP_REPEATS = 5          # set-up runs per benchmark run; setup_s is their median
DIRTY_SHARE = 4            # one row in DIRTY_SHARE carries a defect
COHORT = Cohort(frozenset({1, 5, 9, 13, 17, 21, 25, 29}), "2020-07-01", "2021-03-31")
GENOMIC_LABEL = "Delta"
GENOMIC_STATES = ["Puebla", "Hidalgo", "Veracruz", "Oaxaca"]

# Defects whose handling stays fixed whatever ingest does about padding,
# inf/nan ages or quoted newlines; each maps to the reason validate reports.
DEFECTS = {
    "unknown-classification": "UnknownCode",
    "non-integer-age": "BadInteger",
    "age-out-of-range": "AgeOutOfRange",
    "bad-death-date": "BadDate",
    "unknown-comorbidity": "UnknownCode",
    "short-row": "FieldCount",
}
_COMORBIDITY_COLUMNS = tuple(oracle.COMORBIDITY_NAMES)


@dataclass
class Step:
    name: str
    argv: list[str]
    check: Callable[[bytes], str | None]
    inproc: Callable  # (tracer) -> rendered bytes, or None when the CLI formats it itself


@dataclass
class Workload:
    name: str
    kind: str                  # "sveerv" or "gisaid"
    path: Path
    rows: int
    nbytes: int
    steps: list[Step]
    setup_s: list[float]       # one per set-up; each writes the inputs afresh
    reject_path: Path | None = None
    extra: dict = field(default_factory=dict)


# --- in-process twins --------------------------------------------------------

def _open_sveerv(t, path):
    with t.span("ingest.sveerv"):
        return ingest_sveerv(path)


def _closed_sveerv(t, stream):
    t.count("ingest.sveerv.rows", stream.stats.rows_read)
    t.count("ingest.sveerv.rejected", stream.stats.rows_rejected)


def _render(t, table_id, data, fmt="tsv"):
    with t.span("report.render"):
        out = render(table_id, data, fmt)
    t.count("report.bytes_out", len(out))
    return out


def _tally(path, tally, table_id):
    def run(t):
        stream = _open_sveerv(t, path)
        with t.span("metrics.tally"):
            data = tally(t.pull(stream, "ingest.sveerv"))
        _closed_sveerv(t, stream)
        return _render(t, table_id, data)
    return run


def _stratified(path, cohort, group_by, fmt="tsv"):
    def run(t):
        stream = _open_sveerv(t, path)
        with t.span("metrics.stratified"):
            reports = stratified_report(t.pull(stream, "ingest.sveerv"), cohort, group_by)
        t.peak("metrics.strata", len(reports))
        _closed_sveerv(t, stream)
        return _render(t, TableId.METRICS, reports, fmt)
    return run


def _rank(path):
    def run(t):
        stream = _open_sveerv(t, path)
        with t.span("metrics.stratified"):
            reports = stratified_report(t.pull(stream, "ingest.sveerv"), None, ("state",))
            rank_states(reports, RankMetric.FATALITY)
        t.peak("metrics.strata", len(reports))
        _closed_sveerv(t, stream)
        return None
    return run


def _comorbidity(path, subcohort):
    def run(t):
        stream = _open_sveerv(t, path)
        with t.span("metrics.comorbidity"):
            data = comorbidity_profile(t.pull(stream, "ingest.sveerv"), None, subcohort)
        _closed_sveerv(t, stream)
        return _render(t, TableId.COMORBIDITY_PROFILE, data)
    return run


def _validate(path):
    def run(t):
        stream = _open_sveerv(t, path)
        for _ in t.pull(stream, "ingest.sveerv", rejects=True):
            pass
        _closed_sveerv(t, stream)
        return validate_report(stream.stats).encode("utf-8")
    return run


def _genomic(path, table_id, table):
    def run(t):
        with t.span("ingest.gisaid"):
            stream = ingest_gisaid(path)
        samples = list(t.pull(stream, "ingest.gisaid"))
        t.count("ingest.gisaid.rows", stream.stats.rows_read)
        with t.span("genomics.tables"):
            data = table(samples)
        return _render(t, table_id, data)
    return run


# --- layer isolation (traced run only) ---------------------------------------

def isolate(t, w: Workload) -> None:
    """Time the layers that the pass cannot split: the stdlib CSV floor over
    the bytes a pass reads, the CaseCounts.add fold, the reject path, and
    the per-sample genomic lookups."""
    reads = len(w.steps)
    delimiter = "," if w.kind == "sveerv" else "\t"
    with t.span("ingest.csv_floor"):
        for _ in range(reads):
            with open(w.path, "rb") as raw:
                for _ in csv.reader(io.TextIOWrapper(raw, encoding="utf-8", newline=""),
                                    delimiter=delimiter):
                    pass
    if w.kind == "sveerv":
        stream = _open_sveerv(t, w.path)
        counts = CaseCounts()
        with t.span("metrics.fold"):
            for record in t.pull(stream, "ingest.sveerv"):
                counts.add(record)
        if counts.total != stream.stats.rows_accepted:
            raise RuntimeError("fold lost records")
        if w.reject_path is not None:
            with t.span("ingest.sveerv.reject"):
                for _ in range(reads):
                    for _ in ingest_sveerv(w.reject_path):
                        pass
        return
    samples = list(ingest_gisaid(w.path).records())
    lineages = [s.pango_lineage for s in samples]
    statuses = [s.patient_status for s in samples]
    del samples
    classify = DEFAULT_CATALOG.classify
    with t.span("genomics.classify"):
        for lineage in lineages:
            classify(lineage)
    with t.span("genomics.bucket_status"):
        for status in statuses:
            bucket_status(status)
    t.count("genomics.samples", len(lineages))
    t.count("genomics.distinct_lineages", len(set(lineages)))


# --- set-up ------------------------------------------------------------------

def _timed_setup(make) -> tuple[object, list[float]]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        result = make()
        times.append(perf_counter() - start)
    return result, times


def inject_defects(lines: list[str], header: str, seed: int) -> tuple[list[str], set[int], Counter]:
    """Give one defect to each of len(lines) // DIRTY_SHARE rows picked at random.

    Returns the new lines, the indices of the defective rows and the
    expected rejection count per reason.
    """
    rng = random.Random(seed * 7919 + 17)
    col = {name: i for i, name in enumerate(header.split(","))}
    kinds = tuple(DEFECTS)
    dirty = sorted(rng.sample(range(len(lines)), len(lines) // DIRTY_SHARE))
    reasons = Counter()
    out = list(lines)
    for i in dirty:
        fields = out[i].split(",")
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "unknown-classification":
            fields[col["CLASIFICACION_FINAL"]] = rng.choice(("0", "8", "9", "12"))
        elif kind == "non-integer-age":
            fields[col["EDAD"]] = rng.choice(("abc", "x7", "7x", "?", "4o"))
        elif kind == "age-out-of-range":
            fields[col["EDAD"]] = rng.choice((str(rng.randrange(131, 400)), f"-{rng.randrange(1, 9)}"))
        elif kind == "bad-death-date":
            fields[col["FECHA_DEF"]] = rng.choice(("2020-13-01", "2021-02-30", "2020-00-10", "20-05-2020"))
        elif kind == "unknown-comorbidity":
            fields[col[rng.choice(_COMORBIDITY_COLUMNS)]] = rng.choice(("0", "3", "5", "96"))
        else:
            fields = fields[:rng.randrange(3, len(fields) - 1)]
        out[i] = ",".join(fields)
        reasons[DEFECTS[kind]] += 1
    return out, set(dirty), reasons


def registry_annex(seed: int, workdir: Path, rows: int = REGISTRY_ROWS) -> Workload:
    path = workdir / "registry-annex.csv"
    spec = smoke_epi_spec(rows, seed)

    def make():
        data = generate_epi_fixture(spec)
        path.write_bytes(data)
        return data

    data, times = _timed_setup(make)
    header, *lines = data.decode("utf-8").splitlines()
    exp = RegistryExpect.from_lines(header, lines)
    marg = oracle.marginals(spec)
    p = str(path)
    epi = ["epi-report", "-i", p]
    steps = [
        Step("t1", epi + ["--table", "t1"], oracle.check_t1(marg),
             _tally(p, classification_sex_tally, TableId.T1)),
        Step("t3", epi + ["--table", "t3"], oracle.check_t3(marg),
             _tally(p, treatment_sex_tally, TableId.T3)),
        Step("t4", epi + ["--table", "t4"], oracle.check_t4(exp),
             _tally(p, state_treatment_tally, TableId.T4)),
        Step("t5", epi + ["--table", "t5"], oracle.check_t5(marg),
             _tally(p, intubation_sex_tally, TableId.T5)),
        Step("t7", epi + ["--table", "t7"], oracle.check_t7(marg, exp),
             _tally(p, death_icu_sex_tally, TableId.T7)),
        Step("metrics", epi, oracle.check_metrics_national(exp), _stratified(p, None, ())),
        Step("rank", ["rank", "-i", p], oracle.check_rank(exp), _rank(p)),
        Step("comorbidity-profile",
             epi + ["--table", "comorbidity-profile", "--subcohort", "hospitalized-positive"],
             oracle.check_comorbidity(exp), _comorbidity(p, Subcohort.HOSPITALIZED_POSITIVE)),
        Step("metrics-strata",
             epi + ["--group-by", "state,municipality,sex,age-group", "-f", "json"],
             oracle.check_groupby_json(exp),
             _stratified(p, None, ("state", "municipality", "sex", "age_group"), "json")),
    ]
    return Workload("registry-annex", "sveerv", path, rows, len(data), steps, times)


def registry_dirty(seed: int, workdir: Path, rows: int = REGISTRY_ROWS) -> Workload:
    path = workdir / "registry-dirty.csv"
    spec = smoke_epi_spec(rows, seed)

    def make():
        clean = generate_epi_fixture(spec).decode("utf-8")
        header, *lines = clean.splitlines()
        dirty_lines, dirty, reasons = inject_defects(lines, header, seed)
        data = ("\n".join([header, *dirty_lines]) + "\n").encode("utf-8")
        path.write_bytes(data)
        return header, lines, dirty_lines, dirty, reasons, data

    (header, lines, dirty_lines, dirty, reasons, data), times = _timed_setup(make)
    reject_path = workdir / "registry-dirty-rejects.csv"
    reject_path.write_text("\n".join([header, *(dirty_lines[i] for i in sorted(dirty))]) + "\n",
                           encoding="utf-8")
    exp = RegistryExpect.from_lines(header, (ln for i, ln in enumerate(lines) if i not in dirty), COHORT)
    p = str(path)
    cohort = CohortFilter(states=COHORT.states, onset_range=(
        date.fromisoformat(COHORT.onset_from), date.fromisoformat(COHORT.onset_to)))
    steps = [
        Step("validate", ["validate", "-i", p], oracle.check_validate(rows, len(data), reasons),
             _validate(p)),
        Step("metrics-cohort", ["epi-report", "-i", p, *COHORT.cli_args()],
             oracle.check_metrics_national(exp), _stratified(p, cohort, ())),
    ]
    return Workload("registry-dirty", "sveerv", path, rows, len(data), steps, times,
                    reject_path=reject_path,
                    extra={"rows_defective": len(dirty), "defects": dict(sorted(reasons.items()))})


def genomic_annex(seed: int, workdir: Path, copies: int = GENOMIC_COPIES) -> Workload:
    path = workdir / "genomic-annex.tsv"

    def make():
        parts = []
        n = 0
        for i in range(copies):
            header, _, body = generate_genomic_fixture(
                load_preset("annex-gisaid", seed=seed * copies + i)).partition(b"\n")
            if i == 0:
                parts.append(header + b"\n")
            for line in body.splitlines():
                n += 1
                parts.append(b"EPI_ISL_%07d\t%s\n" % (n, line.partition(b"\t")[2]))
        data = b"".join(parts)
        path.write_bytes(data)
        return n, len(data)

    (rows, nbytes), times = _timed_setup(make)
    exp = GenomicExpect.from_preset(json.loads(PRESET_JSON.read_text("utf-8")), copies, GENOMIC_LABEL)
    p = str(path)
    gen = ["genomic-report", "-i", p, "--table"]
    cat = DEFAULT_CATALOG
    steps = [
        Step("g3-shares", gen + ["g3-shares"], oracle.check_g3(exp),
             _genomic(p, TableId.G3_SHARES, lambda s: variant_shares(s, cat))),
        Step("t8", gen + ["t8"], oracle.check_t8(exp),
             _genomic(p, TableId.T8, lambda s: full_crosstab(s, cat))),
        Step("t9", gen + ["t9"], oracle.check_t9(exp),
             _genomic(p, TableId.T9, lambda s: status_crosstab(s, cat, GENOMIC_LABEL))),
        Step("t10", gen + ["t10"], oracle.check_t10(exp, GENOMIC_STATES),
             _genomic(p, TableId.T10, lambda s: state_summary(s, cat, GENOMIC_LABEL, GENOMIC_STATES))),
        Step("t13", gen + ["t13"], oracle.check_t13(exp, GENOMIC_STATES),
             _genomic(p, TableId.T13, lambda s: state_summary(s, cat, GENOMIC_LABEL, GENOMIC_STATES))),
    ]
    return Workload("genomic-annex", "gisaid", path, rows, nbytes, steps, times,
                    extra={"copies": copies})


WORKLOADS = {
    "registry-annex": registry_annex,
    "registry-dirty": registry_dirty,
    "genomic-annex": genomic_annex,
}
