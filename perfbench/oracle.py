"""Expected outputs for the benchmark's output checks.

The expectations never go through the episurv ingest, metrics, genomics or
report code that the commands under test run:

* registry files are decoded here with a plain ``split(",")`` (the generator
  never quotes a field), looking columns up by their header names;
* annex-table cells that the generator fixes come from the marginal spec
  (``smoke_epi_spec``) or from the preset's JSON file, read directly;
* national counts come from ``episurv.fixtures.oracle_aggregate``, the
  package's own comprehension-style recount, fed with records decoded here.

Every ``check_*`` function takes a command's stdout bytes and returns None
when the output is right, or a one-line description of the first mismatch.
"""

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

ALIVE = "9999-99-99"
SEXES = ("female", "male", "unspecified")
SEX_BY_CODE = {"1": "female", "2": "male"}
AGE_BANDS = ("0-20", "21-40", "41-59", "60+", "unknown")
FLAG_CODES = (1, 2, 97, 98, 99)

# Registry comorbidity columns and the names the profile table prints.
COMORBIDITY_NAMES = {
    "DIABETES": "diabetes",
    "EPOC": "copd",
    "ASMA": "asthma",
    "INMUSUPR": "immunosuppression",
    "HIPERTENSION": "hypertension",
    "CARDIOVASCULAR": "cardiovascular",
    "OBESIDAD": "obesity",
    "RENAL_CRONICA": "chronic_renal",
    "TABAQUISMO": "smoking",
    "NEUMONIA": "pneumonia",
}

COUNT_COLUMNS = (
    "total", "positive", "negative", "suspect", "invalid", "not_performed",
    "ambulatory_pos", "hospitalized_pos", "icu_pos", "intubated_pos",
    "icu_and_intubated_pos", "deaths_pos", "deaths_icu_intubated_pos",
)


def age_band(raw: str) -> str:
    if raw == "":
        return "unknown"
    age = int(raw)
    if age <= 20:
        return "0-20"
    if age <= 40:
        return "21-40"
    if age <= 59:
        return "41-59"
    return "60+"


class _Code(NamedTuple):
    value: int


_CODES = {n: _Code(n) for n in range(100)}


class _Row(NamedTuple):
    """The fields oracle_aggregate reads, decoded without episurv.ingest."""

    classification: _Code
    treatment: _Code
    icu: _Code
    intubated: _Code
    death_date: str | None


@dataclass
class Cohort:
    """The benchmark's own copy of the cohort filter it passes to the CLI."""

    states: frozenset[int]
    onset_from: str
    onset_to: str

    def cli_args(self) -> list[str]:
        return [
            "--states", ",".join(str(s) for s in sorted(self.states)),
            "--onset-from", self.onset_from,
            "--onset-to", self.onset_to,
        ]


@dataclass
class RegistryExpect:
    """Independent tallies over the accepted rows of a registry file."""

    state_treat: Counter = field(default_factory=Counter)
    death_icu_sex: Counter = field(default_factory=Counter)
    state_pos: Counter = field(default_factory=Counter)
    state_dead: Counter = field(default_factory=Counter)
    comorbid_hosp: Counter = field(default_factory=Counter)
    leaves: Counter = field(default_factory=Counter)
    national: object = None

    @classmethod
    def from_lines(cls, header: str, lines, cohort: Cohort | None = None) -> "RegistryExpect":
        from episurv.fixtures import oracle_aggregate

        names = header.rstrip("\n").split(",")
        col = {name: i for i, name in enumerate(names)}
        i_state, i_muni, i_sex, i_age = (col[c] for c in ("ENTIDAD_RES", "MUNICIPIO_RES", "SEXO", "EDAD"))
        i_type, i_icu, i_tube, i_def = (col[c] for c in ("TIPO_PACIENTE", "UCI", "INTUBADO", "FECHA_DEF"))
        i_class, i_onset = col["CLASIFICACION_FINAL"], col["FECHA_SINTOMAS"]
        como = [(col[c], name) for c, name in COMORBIDITY_NAMES.items()]
        exp = cls()
        records = []
        for line in lines:
            f = line.rstrip("\n").split(",")
            state = int(f[i_state])
            if cohort is not None:
                onset = f[i_onset]
                if state not in cohort.states or onset in ("", ALIVE) \
                        or not cohort.onset_from <= onset <= cohort.onset_to:
                    continue
            code = int(f[i_class])
            sex = SEX_BY_CODE.get(f[i_sex], "unspecified")
            band = age_band(f[i_age])
            dead = f[i_def] != ALIVE
            treat = int(f[i_type])
            exp.leaves[state, int(f[i_muni]), sex, band] += 1
            if code <= 3:
                exp.state_treat[state, treat] += 1
                exp.state_pos[state] += 1
                if dead:
                    exp.state_dead[state] += 1
                    exp.death_icu_sex[int(f[i_icu]), sex] += 1
                if treat == 2:
                    for i, name in como:
                        if f[i] == "1":
                            exp.comorbid_hosp[name, band] += 1
            records.append(_Row(_CODES[code], _CODES[treat], _CODES[int(f[i_icu])],
                                _CODES[int(f[i_tube])], f[i_def] if dead else None))
        exp.national = oracle_aggregate(records)
        return exp


# --- parsing -----------------------------------------------------------------

def _tsv(out: bytes) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in out.decode("utf-8").splitlines() if not ln.startswith("#")]
    if not lines:
        raise ValueError("empty output")
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


def _mismatch(what: str, got, want) -> str | None:
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=repr):
            if got.get(key) != want.get(key):
                return f"{what}: {key!r} is {got.get(key)!r}, expected {want.get(key)!r}"
    return f"{what}: got {got!r}, expected {want!r}"


def _guarded(check):
    """Turn a parse failure of malformed output into a check failure."""
    def run(out: bytes) -> str | None:
        try:
            return check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output ({type(exc).__name__}: {exc})"
    return run


def _sex_cells(rows: list[list[str]], key_col: int, first: int) -> dict:
    """{(key, sex): count} from rows laid out as key ... female male unspecified total."""
    cells = {}
    for row in rows:
        key = row[key_col]
        counts = [int(c) for c in row[first:first + 3]]
        if sum(counts) != int(row[first + 3]):
            raise ValueError(f"row {key!r} total {row[first + 3]} != sum of its cells")
        for sex, n in zip(SEXES, counts):
            cells[key, sex] = n
    return cells


# --- registry checks ---------------------------------------------------------

def marginals(spec) -> dict:
    """The smoke spec's marginal tables keyed by plain codes and sex names."""
    return {
        "class_sex": {(code, sex.value): n for (code, sex), n in spec.classification_sex.items()},
        "treat_sex": {(sex.value, treat.value): n for (sex, treat), n in spec.treatment_sex.items()},
        "intub_sex": {(flag.value, sex.value): n for (flag, sex), n in spec.intubation_sex.items()},
        "deaths": sum(spec.deaths_classification_sex.values()),
    }


def check_t1(marg: dict):
    def check(out):
        _, rows = _tsv(out)
        got = _sex_cells([r for r in rows if r[1] != "total"], 0, 2)
        want = {(str(code), sex): marg["class_sex"].get((code, sex), 0)
                for code in range(1, 8) for sex in SEXES}
        total = [r for r in rows if r[1] == "total"]
        if len(total) != 1 or int(total[0][5]) != sum(want.values()):
            return "t1: total row does not match the spec's row count"
        return _mismatch("t1 cell", got, want)
    return _guarded(check)


def check_t3(marg: dict):
    def check(out):
        _, rows = _tsv(out)
        got = {}
        for sex, amb, hosp, total in rows:
            if int(amb) + int(hosp) != int(total):
                return f"t3: row {sex!r} total does not add up"
            got[sex, 1], got[sex, 2] = int(amb), int(hosp)
        want = {(sex, t): marg["treat_sex"].get((sex, t), 0) for sex in SEXES for t in (1, 2)}
        want["total", 1] = sum(n for (_, t), n in marg["treat_sex"].items() if t == 1)
        want["total", 2] = sum(n for (_, t), n in marg["treat_sex"].items() if t == 2)
        return _mismatch("t3 cell", got, want)
    return _guarded(check)


def check_t4(exp: RegistryExpect):
    def check(out):
        _, rows = _tsv(out)
        got = {}
        for row in rows:
            if row[0] == "" or row[1] == "total":
                continue
            got[int(row[0]), 1], got[int(row[0]), 2] = int(row[2]), int(row[3])
        want = {(s, t): exp.state_treat.get((s, t), 0) for s in exp.state_pos for t in (1, 2)}
        return _mismatch("t4 cell", got, want)
    return _guarded(check)


def check_t5(marg: dict):
    def check(out):
        _, rows = _tsv(out)
        got = _sex_cells([r for r in rows if r[1] != "total"], 0, 2)
        want = {(str(flag), sex): marg["intub_sex"].get((flag, sex), 0)
                for flag in FLAG_CODES for sex in SEXES}
        return _mismatch("t5 cell", got, want)
    return _guarded(check)


def check_t7(marg: dict, exp: RegistryExpect):
    def check(out):
        _, rows = _tsv(out)
        total = [r for r in rows if r[1] == "total"]
        if len(total) != 1 or int(total[0][5]) != marg["deaths"]:
            return f"t7: total deaths {total[0][5] if total else None}, expected {marg['deaths']}"
        got = _sex_cells([r for r in rows if r[1] != "total"], 0, 2)
        want = {(str(flag), sex): exp.death_icu_sex.get((flag, sex), 0)
                for flag in FLAG_CODES for sex in SEXES}
        return _mismatch("t7 cell", got, want)
    return _guarded(check)


def _national_mismatch(row: dict, national) -> str | None:
    got = {col: int(row[col]) for col in COUNT_COLUMNS}
    want = {col: getattr(national.counts, col) for col in COUNT_COLUMNS}
    bad = _mismatch("national count", got, want)
    if bad:
        return bad
    rates = {"fatality_pct": national.fatality_pct,
             "positivity_pct": {m.value: v for m, v in national.positivity_pct.items()}["aggregate"]}
    for col, value in rates.items():
        cell = row[col]
        if value is None:
            if cell not in ("NA", None):
                return f"national {col}: got {cell!r}, expected NA"
        elif abs(float(cell) - value) > 0.005 + 1e-9:
            return f"national {col}: got {cell!r}, expected {value:.4f}"
    return None


def check_metrics_national(exp: RegistryExpect):
    def check(out):
        header, rows = _tsv(out)
        if len(rows) != 1 or rows[0][:4] != ["all"] * 4:
            return f"metrics: expected one national row, got {len(rows)}"
        return _national_mismatch(dict(zip(header, rows[0])), exp.national)
    return _guarded(check)


def check_rank(exp: RegistryExpect):
    def check(out):
        _, rows = _tsv(out)
        want = sorted(
            ((-exp.state_dead[s] / exp.state_pos[s] * 100.0, s) for s in exp.state_pos),
        )
        if len(rows) != len(want):
            return f"rank: {len(rows)} states ranked, expected {len(want)}"
        for i, (row, (neg_pct, state)) in enumerate(zip(rows, want)):
            if int(row[0]) != i + 1 or int(row[1]) != state or abs(float(row[3]) + neg_pct) > 0.005 + 1e-9:
                return f"rank: row {i + 1} is {row!r}, expected state {state} at {-neg_pct:.4f}"
        return None
    return _guarded(check)


def check_comorbidity(exp: RegistryExpect):
    def check(out):
        _, rows = _tsv(out)
        got = {(name, band): int(n) for name, band, n in rows}
        return _mismatch("comorbidity-profile cell", got, dict(exp.comorbid_hosp))
    return _guarded(check)


def check_groupby_json(exp: RegistryExpect):
    def check(out):
        rows = json.loads(out)
        national = [r for r in rows if r["state"] == "all"]
        if len(national) != 1 or len(rows) != len(exp.leaves) + 1:
            return f"metrics group-by: {len(rows)} strata, expected {len(exp.leaves) + 1}"
        got = {(r["state"], r["municipality"], r["sex"], r["age_group"]): r["total"]
               for r in rows if r["state"] != "all"}
        return _mismatch("stratum total", got, dict(exp.leaves)) \
            or _national_mismatch(national[0], exp.national)
    return _guarded(check)


def check_validate(rows: int, nbytes: int, reasons: Counter):
    def check(out):
        got, got_reasons = {}, {}
        for line in out.decode("utf-8").splitlines():
            key, _, value = line.partition(":")
            if line.startswith("  "):
                got_reasons[key.strip()] = int(value)
            elif value.strip():
                got[key] = int(value)
        rejected = sum(reasons.values())
        want = {"rows read": rows, "rows accepted": rows - rejected,
                "rows rejected": rejected, "bytes read": nbytes}
        return _mismatch("validate", got, want) \
            or _mismatch("rejections by reason", got_reasons, dict(reasons))
    return _guarded(check)


# --- genomic checks ----------------------------------------------------------

@dataclass
class GenomicExpect:
    """Cells of the annex-gisaid tables, scaled by the number of seeds joined."""

    labels: dict
    lineage_clade: dict
    status_clade: dict
    state_clade: dict
    state_age_sex: dict

    @classmethod
    def from_preset(cls, preset: dict, copies: int, label: str = "Delta") -> "GenomicExpect":
        blocks = preset["blocks"]
        lineage_clade = {
            (lab, lineage, clade): n * copies
            for lab, block in blocks.items()
            for lineage, cells in block["lineage_clade"].items()
            for clade, n in cells.items()
        }
        labels = Counter()
        for (lab, _, _), n in lineage_clade.items():
            labels[lab] += n
        block = blocks[label]
        pairs = lambda table: {(a, b): n * copies for a, cells in table.items() for b, n in cells.items() if n}
        state_age_sex = {}
        for state, by_sex in block["state_age_sex"].items():
            for sex, counts in by_sex.items():
                for band, n in zip(AGE_BANDS, counts):
                    state_age_sex[state, band, sex] = n * copies
        return cls(dict(labels), lineage_clade, pairs(block["status_clade"]),
                   pairs(block["state_clade"]), state_age_sex)


def check_g3(exp: GenomicExpect):
    def check(out):
        _, rows = _tsv(out)
        got = {label: int(n) for label, n, _ in rows}
        return _mismatch("g3-shares count", got, {**exp.labels, "unclassified": 0})
    return _guarded(check)


def check_t8(exp: GenomicExpect):
    def check(out):
        _, rows = _tsv(out)
        got = {(lab, lineage, clade): int(n) for lab, lineage, clade, n in rows}
        return _mismatch("t8 cell", got, exp.lineage_clade)
    return _guarded(check)


def check_t9(exp: GenomicExpect):
    def check(out):
        _, rows = _tsv(out)
        got = {(status, clade): int(n) for status, _, clade, n in rows}
        return _mismatch("t9 cell", got, exp.status_clade)
    return _guarded(check)


def check_t10(exp: GenomicExpect, states: list[str]):
    def check(out):
        _, rows = _tsv(out)
        got = {(state, clade): int(n) for state, clade, n in rows}
        want = {k: n for k, n in exp.state_clade.items() if k[0] in states}
        totals = Counter()
        for (_, clade), n in want.items():
            totals["total", clade] += n
        return _mismatch("t10 cell", got, {**want, **totals})
    return _guarded(check)


def check_t13(exp: GenomicExpect, states: list[str]):
    def check(out):
        _, rows = _tsv(out)
        cells = _sex_cells([[f"{r[0]}|{r[1]}", *r[2:]] for r in rows], 0, 1)
        got = {tuple(key.split("|")) + (sex,): n for (key, sex), n in cells.items()}
        want = {}
        for state in states + ["total"]:
            for band in AGE_BANDS:
                for sex in SEXES:
                    want[state, band, sex] = 0
        for (state, band, sex), n in exp.state_age_sex.items():
            if state in states:
                want[state, band, sex] += n
                want["total", band, sex] += n
        return _mismatch("t13 cell", got, want)
    return _guarded(check)
