"""Deterministic synthetic-data generators driven by marginal tables.

A marginal spec names cell counts for one or more nested cross-tabulations
(classification x sex, treatment x sex, state quotas, flag splits over
deaths, ...). The generator builds a joint cell plan that satisfies every
table simultaneously, fails with InconsistentMarginals when the tables
cannot coexist, expands the plan into rows, shuffles them with the spec's
seed, and streams the file out. Unconstrained fields are filled from the
seeded generator, so a given (spec, seed) always produces identical bytes.

The shipped presets (see PRESET_ALIASES) reproduce the standard annex
tables cell-for-cell when re-aggregated.
"""

import io
import json
import random
import struct
from array import array
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from enum import Enum
from importlib import resources
from itertools import product, repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Union

from .ingest import GISAID_COLUMNS, SVEERV_COLUMNS
from .metrics import CaseCounts, PositivityMode, SeverityCriterion
from .schema import (
    AGE_FLOORS,
    ALIVE_SENTINEL,
    COMORBIDITY_FIELDS,
    CaseClassification,
    CodedFlag,
    PatientRecord,
    SEX_CODES,
    STATE_NAMES,
    AgeGroup,
    Sex,
    TreatmentStrategy,
    is_positive,
)

__all__ = [
    "InconsistentMarginals",
    "UnknownPreset",
    "EpiMarginalSpec",
    "GenomicBlockSpec",
    "GenomicMarginalSpec",
    "generate_epi_fixture",
    "generate_genomic_fixture",
    "generate_fixture",
    "OracleAggregate",
    "oracle_aggregate",
    "random_patient_records",
    "write_sveerv_csv",
    "load_preset",
    "list_presets",
    "smoke_epi_spec",
    "PRESET_ALIASES",
]


class InconsistentMarginals(ValueError):
    """The requested marginal tables cannot hold simultaneously."""

    def __init__(self, conflicts: list[str]):
        super().__init__("; ".join(conflicts))
        self.conflicts = conflicts


class UnknownPreset(ValueError):
    pass


_SEX_CODES = {sex: str(code) for code, sex in SEX_CODES.items()}

# Fixture date window (symptom onsets; deaths may trail by up to 60 days).
_WINDOW_START = date(2020, 4, 6)
_WINDOW_DAYS = 516
_DATE_STR = [
    (_WINDOW_START + timedelta(days=i)).isoformat()
    for i in range(_WINDOW_DAYS + 61)
]


def _cells(table: dict | None, key=lambda outer, inner: (outer, inner)) -> dict | None:
    """``{outer: {inner: n}}`` as ``{key(outer, inner): int(n)}`` in file order, outer keys
    first; the plans, and so the bytes, follow that order. None stays None."""
    if table is None:
        return None
    return {key(outer, inner): int(n) for outer, cells in table.items() for inner, n in cells.items()}


def _spelled(part) -> str:
    """One part of a cell key as a spec file spells it."""
    if isinstance(part, Enum):
        return part.value if isinstance(part.value, str) else part.name.lower()
    return str(part)


_CLASS_CODES = [c.value for c in CaseClassification]
_POSITIVE_CODES = [c.value for c in CaseClassification if is_positive(c)]

# The codes that the first part of a table's cell keys may take, and what a
# conflict calls them.
_CODE_DOMAINS = {
    "classification_sex": ("classification", _CLASS_CODES),
    "deaths_classification_sex": ("deaths classification", _POSITIVE_CODES),
    "state_treatment": ("state", sorted(STATE_NAMES)),
}


def _bad_cells(spec) -> Iterator[str]:
    """A conflict for each cell of the spec's tables that no file can hold: a
    code outside its table's domain, or a negative count, naming the table and
    the cell; a ``state_treatment`` cell is a state and a treatment."""
    for table in fields(spec):
        cells = getattr(spec, table.name)
        noun, codes = _CODE_DOMAINS.get(table.name, (None, None))
        for key, n in cells.items() if isinstance(cells, dict) else ():
            code = key[0] if isinstance(key, tuple) else key
            if codes is not None and code not in codes:
                yield f"{noun} code {code} outside {codes[0]}-{codes[-1]}"
            split = zip(((key, t) for t in TreatmentStrategy), n) if isinstance(n, tuple) else [(key, n)]
            for cell, count in split:
                if count < 0:
                    yield f"{table.name} {'/'.join(map(_spelled, cell))}: negative count {count}"


@dataclass(frozen=True)
class EpiMarginalSpec:
    """Cell constraints for a case-registry fixture.

    ``classification_sex`` is required; the rest are optional refinements.
    Within positives the generator equates the ICU and intubation flags, and
    ambulatory rows always carry NotApplicable on both, so intubation
    marginals must put exactly the ambulatory count under NotApplicable.
    """

    classification_sex: dict[tuple[int, Sex], int]
    treatment_sex: dict[tuple[Sex, TreatmentStrategy], int] | None = None
    state_treatment: dict[int, tuple[int, int]] | None = None
    intubation_sex: dict[tuple[CodedFlag, Sex], int] | None = None
    deaths_classification_sex: dict[tuple[int, Sex], int] | None = None
    deaths_icu_sex: dict[tuple[CodedFlag, Sex], int] | None = None
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "EpiMarginalSpec":
        def class_sex(code: str, sex: str) -> tuple[int, Sex]:
            return int(code), Sex(sex)

        def flag_sex(flag: str, sex: str) -> tuple[CodedFlag, Sex]:
            return CodedFlag[flag.upper()], Sex(sex)

        states = None
        if raw.get("state_treatment") is not None:
            states = {
                int(code): (int(cells["ambulatory"]), int(cells["hospitalized"]))
                for code, cells in raw["state_treatment"].items()
            }
        return cls(
            classification_sex=_cells(raw["classification_sex"], class_sex),
            treatment_sex=_cells(raw.get("treatment_sex"),
                                 lambda treat, sex: (Sex(sex), TreatmentStrategy[treat.upper()])),
            state_treatment=states,
            intubation_sex=_cells(raw.get("intubation_sex"), flag_sex),
            deaths_classification_sex=_cells(raw.get("deaths_classification_sex"), class_sex),
            deaths_icu_sex=_cells(raw.get("deaths_icu_sex"), flag_sex),
            seed=int(raw.get("seed", 0)),
        )


@dataclass(frozen=True)
class GenomicBlockSpec:
    """Cell constraints for one variant's samples in a genomic fixture.

    ``status_clade``, when given, must cover every clade of the block
    exactly; ``state_clade`` may cover clades partially (remaining rows get
    filler divisions). Per-state demographic tables must agree with the
    state totals implied by ``state_clade``.
    """

    lineage_clade: dict[tuple[str, str], int]
    status_clade: dict[tuple[str, str], int] | None = None
    state_clade: dict[tuple[str, str], int] | None = None
    state_sex: dict[tuple[str, Sex], int] | None = None
    state_vaccine: dict[tuple[str, str], int] | None = None
    state_age_sex: dict[tuple[str, AgeGroup, Sex], int] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "GenomicBlockSpec":
        state_age_sex = None
        if raw.get("state_age_sex") is not None:
            state_age_sex = {}
            for state, cells in raw["state_age_sex"].items():
                # One count per age group, in AgeGroup order.
                for sex, counts in cells.items():
                    if len(counts) > len(AgeGroup):
                        raise ValueError(f"state_age_sex {state}/{sex}: {len(counts)} counts"
                                         f" for {len(AgeGroup)} age bins")
                    for group, n in zip(AgeGroup, counts):
                        state_age_sex[(state, group, Sex(sex))] = int(n)
        return cls(
            lineage_clade=_cells(raw["lineage_clade"]),
            status_clade=_cells(raw.get("status_clade")),
            state_clade=_cells(raw.get("state_clade")),
            state_sex=_cells(raw.get("state_sex"), lambda state, sex: (state, Sex(sex))),
            state_vaccine=_cells(raw.get("state_vaccine")),
            state_age_sex=state_age_sex,
        )


@dataclass(frozen=True)
class GenomicMarginalSpec:
    """Per-variant blocks for a genomic-metadata fixture."""

    blocks: dict[str, GenomicBlockSpec]
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "GenomicMarginalSpec":
        return cls(
            blocks={
                label: GenomicBlockSpec.from_dict(block)
                for label, block in raw["blocks"].items()
            },
            seed=int(raw.get("seed", 0)),
        )


# --- epi plan ---------------------------------------------------------------

@dataclass(frozen=True)
class _EpiCell:
    classification: int
    sex: Sex
    treatment: TreatmentStrategy
    flag: CodedFlag  # written alike as the ICU and the intubation flag
    death: bool
    profile: str


_LAB = CaseClassification.CONFIRMED_BY_LAB.value
# A hospitalized case's flags; an ambulatory case's is NOT_APPLICABLE, and its cell comes first.
_HOSPITAL_FLAGS = (CodedFlag.YES, CodedFlag.NO, CodedFlag.IGNORED, CodedFlag.UNSPECIFIED)
_CELL_FLAGS = (CodedFlag.NOT_APPLICABLE, *_HOSPITAL_FLAGS)


def _fill_in_order(cell_sizes: list[int], amounts: list[tuple[object, int]]) -> list[list[tuple[object, int]]]:
    """Distribute keyed amounts over cells front to back; sums must agree."""
    out: list[list[tuple[object, int]]] = [[] for _ in cell_sizes]
    ci = 0
    room = cell_sizes[0] if cell_sizes else 0
    for key, n in amounts:
        while n > 0:
            if room == 0:
                ci += 1
                room = cell_sizes[ci]
                continue
            take = room if room < n else n
            out[ci].append((key, take))
            room -= take
            n -= take
    return out


def _of_sex(table: dict, sex: Sex, members: Iterable, sex_first: bool = False) -> dict:
    """Each member's count of ``sex`` in ``table``, in member order; the table is keyed
    (member, sex), or (sex, member) with ``sex_first``."""
    return {m: table.get((sex, m) if sex_first else (m, sex), 0) for m in members}


def _plan_epi(spec: EpiMarginalSpec) -> tuple[list[tuple[_EpiCell, int]], list[int] | None, list[int] | None]:
    conflicts = list(_bad_cells(spec))
    if conflicts:
        raise InconsistentMarginals(conflicts)
    cells: list[tuple[_EpiCell, int]] = []
    total_amb = 0
    total_hosp = 0

    for sex in Sex:
        cls = _of_sex(spec.classification_sex, sex, _CLASS_CODES)
        positives = sum(cls[c] for c in _POSITIVE_CODES)

        if spec.treatment_sex is not None:
            amb, hosp = _of_sex(spec.treatment_sex, sex, TreatmentStrategy, sex_first=True).values()
            if amb + hosp != positives:
                conflicts.append(
                    f"{sex.value}: treatment total {amb + hosp} != positives {positives}"
                )
                continue
        else:
            amb, hosp = positives, 0

        if spec.intubation_sex is not None:
            tube = _of_sex(spec.intubation_sex, sex, CodedFlag)
            if tube[CodedFlag.NOT_APPLICABLE] != amb:
                conflicts.append(
                    f"{sex.value}: intubation not_applicable {tube[CodedFlag.NOT_APPLICABLE]}"
                    f" != ambulatory {amb}"
                )
            if sum(tube[f] for f in _HOSPITAL_FLAGS) != hosp:
                conflicts.append(
                    f"{sex.value}: intubation yes/no/ignored/unspecified sum"
                    f" {sum(tube[f] for f in _HOSPITAL_FLAGS)} != hospitalized {hosp}"
                )
        else:
            tube = {f: 0 for f in CodedFlag}
            tube[CodedFlag.NO] = hosp
            tube[CodedFlag.NOT_APPLICABLE] = amb

        death_cls = _of_sex(spec.deaths_classification_sex or {}, sex, _POSITIVE_CODES)
        deaths = sum(death_cls.values())
        for c in _POSITIVE_CODES:
            if death_cls[c] > cls[c]:
                conflicts.append(
                    f"{sex.value}: class-{c} deaths {death_cls[c]} > class-{c} cases {cls[c]}"
                )

        if spec.deaths_icu_sex is not None:
            dead = _of_sex(spec.deaths_icu_sex, sex, CodedFlag)
            if spec.deaths_classification_sex is None:
                deaths = sum(dead.values())
                death_cls[_LAB] = deaths
                if death_cls[_LAB] > cls[_LAB]:
                    conflicts.append(
                        f"{sex.value}: deaths {deaths} > class-{_LAB} cases {cls[_LAB]}"
                    )
            elif sum(dead.values()) != deaths:
                conflicts.append(
                    f"{sex.value}: deaths by ICU flag sum {sum(dead.values())}"
                    f" != deaths by classification {deaths}"
                )
        else:
            # Default placement: hospitalized non-intubated first, then
            # intubated, ignored, unspecified, finally ambulatory.
            dead = {f: 0 for f in CodedFlag}
            remaining = deaths
            for f in (CodedFlag.NO, CodedFlag.YES, CodedFlag.IGNORED, CodedFlag.UNSPECIFIED):
                dead[f] = min(remaining, tube[f])
                remaining -= dead[f]
            dead[CodedFlag.NOT_APPLICABLE] = remaining

        if dead[CodedFlag.NOT_APPLICABLE] > amb:
            conflicts.append(
                f"{sex.value}: ambulatory deaths {dead[CodedFlag.NOT_APPLICABLE]}"
                f" > ambulatory positives {amb}"
            )
        for f in _HOSPITAL_FLAGS:
            if dead[f] > tube[f]:
                conflicts.append(
                    f"{sex.value}: deaths with flag {f.name.lower()} {dead[f]}"
                    f" > positives with that flag {tube[f]}"
                )
        if conflicts:
            continue

        total_amb += amb
        total_hosp += hosp

        # The dead, then the living: one cell per flag (the checks made tube[NOT_APPLICABLE]
        # the ambulatory count), filled front to back by the positive classes.
        alive = {f: tube[f] - dead[f] for f in CodedFlag}
        alive_cls = {c: cls[c] - death_cls[c] for c in _POSITIVE_CODES}
        for died, by_flag, by_class in ((True, dead, death_cls), (False, alive, alive_cls)):
            flags = [f for f in _CELL_FLAGS if by_flag[f] > 0]
            split = _fill_in_order([by_flag[f] for f in flags], [(c, n) for c, n in by_class.items() if n])
            for flag, parts in zip(flags, split):
                ambulatory = flag is CodedFlag.NOT_APPLICABLE
                treatment = TreatmentStrategy.AMBULATORY if ambulatory else TreatmentStrategy.HOSPITALIZED
                if died:
                    profile = "severe_death" if flag is CodedFlag.YES else "death"
                else:
                    profile = "default" if ambulatory else "hospitalized"
                for code, n in parts:
                    cells.append((_EpiCell(code, sex, treatment, flag, died, profile), n))

        # The other classes: alive and ambulatory, after every positive cell.
        cells.extend(
            (_EpiCell(code, sex, TreatmentStrategy.AMBULATORY, CodedFlag.NOT_APPLICABLE, False, "default"), n)
            for code, n in cls.items() if n and code not in _POSITIVE_CODES
        )

    amb_quota = hosp_quota = None
    if spec.state_treatment is not None:
        amb_quota, hosp_quota = [], []
        for state in sorted(spec.state_treatment):
            a, h = spec.state_treatment[state]
            amb_quota.extend(repeat(state, a))
            hosp_quota.extend(repeat(state, h))
        if len(amb_quota) != total_amb:
            conflicts.append(
                f"state ambulatory quotas {len(amb_quota)} != ambulatory total {total_amb}"
            )
        if len(hosp_quota) != total_hosp:
            conflicts.append(
                f"state hospitalized quotas {len(hosp_quota)} != hospitalized total {total_hosp}"
            )

    if conflicts:
        raise InconsistentMarginals(conflicts)
    return cells, amb_quota, hosp_quota


# Comorbidity YES probabilities per cell profile; severe deaths skew toward
# the respiratory/renal flags so profile tables have signal to report.
_PROFILE_P = {
    "default": dict.fromkeys(COMORBIDITY_FIELDS, 0.12),
    "hospitalized": dict.fromkeys(COMORBIDITY_FIELDS, 0.20),
    "death": dict.fromkeys(COMORBIDITY_FIELDS, 0.30),
    "severe_death": {
        **dict.fromkeys(COMORBIDITY_FIELDS, 0.15),
        "smoking": 0.7, "pneumonia": 0.7, "chronic_renal": 0.7, "copd": 0.7,
    },
}

# A drawn age, as (low, span) for int(random()*span)+low, is never above
# the ceiling.
_AGE_CEILING = 95
_ANY_AGE = (0, _AGE_CEILING + 1)

_PROFILE_AGE = {
    "default": _ANY_AGE,
    "hospitalized": (20, _AGE_CEILING + 1 - 20),
    "death": (30, _AGE_CEILING + 1 - 30),
    "severe_death": (45, 46),
}


def _open_out(out) -> tuple[BinaryIO, bool]:
    """(stream, owns) for generator output; None means in-memory."""
    if out is None:
        return io.BytesIO(), False
    if isinstance(out, (str, Path)):
        return open(out, "wb"), True
    return out, False


# Rows are built and written this many at a time, so memory stays bounded
# whatever the row count when ``out`` is a path or stream.
_CHUNK_ROWS = 8192

_NUM_STR = [str(i) for i in range(100)]

# A row's comorbidity flags are drawn with one getrandbits(64 * 10) call in
# place of ten random() calls. Both take the same 32-bit words from the
# generator in the same order: random() makes each value from two words a
# and b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and getrandbits returns
# its words least significant first. The top byte t of a puts the value in
# [t / 256, (t + 1) / 256), which settles "value < p" unless p lies inside.
_FLAG_COUNT = len(COMORBIDITY_FIELDS)
_FLAG_BITS = 64 * _FLAG_COUNT

# The comorbidity columns for each string of outcomes, b"1" YES or b"2" NO.
_FLAG_STR = {
    bytes(outcomes): ",".join(map(chr, outcomes))
    for outcomes in product(b"12", repeat=_FLAG_COUNT)
}


def _random_values(bits: int, n: int) -> list[float]:
    """The n random() values made from the words of ``bits = getrandbits(64 * n)``."""
    words = struct.unpack(f"<{2 * n}I", bits.to_bytes(8 * n, "little"))
    return [((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
            for a, b in zip(words[::2], words[1::2])]


def _flag_plan(probs: dict[str, float]) -> tuple[tuple[float, ...], bytes]:
    """The YES probabilities in COMORBIDITY_FIELDS order, and a translate()
    table from a draw's top byte to b"1" (YES), b"2" (NO) or b"?" (undecided).

    Only a profile whose flags share one probability is decided by the top
    byte; any other leaves every flag undecided.
    """
    flag_p = tuple(probs[f] for f in COMORBIDITY_FIELDS)
    if len(set(flag_p)) > 1:
        return flag_p, b"?" * 256
    p = flag_p[0]
    return flag_p, bytes(
        ord("1") if (t + 1) / 256 <= p else ord("2") if t / 256 >= p else ord("?")
        for t in range(256)
    )


_PROFILE_FLAGS = {name: _flag_plan(probs) for name, probs in _PROFILE_P.items()}


def generate_epi_fixture(spec: EpiMarginalSpec, out=None) -> bytes | None:
    """Emit a registry CSV satisfying the spec's marginals.

    Writes to ``out`` (path or binary stream) and returns None, or returns
    the CSV bytes when ``out`` is None. Raises InconsistentMarginals before
    writing anything if the tables cannot coexist.
    """
    cells, amb_quota, hosp_quota = _plan_epi(spec)
    rng = random.Random(spec.seed)

    order = array("H") if len(cells) < 65536 else array("l")
    for idx, (_, n) in enumerate(cells):
        order.extend(repeat(idx, n))
    rng.shuffle(order)
    if amb_quota is not None:
        rng.shuffle(amb_quota)
        rng.shuffle(hosp_quota)
        quota_next = {TreatmentStrategy.AMBULATORY: map(str, amb_quota).__next__,
                      TreatmentStrategy.HOSPITALIZED: map(str, hosp_quota).__next__}

    # Per cell: the source of the state (None draws it), the age range, the
    # flag probabilities and their top-byte table, and the fixed parts of
    # the row.
    plans = []
    for cell, _ in cells:
        state_next = None
        if amb_quota is not None and is_positive(cell.classification):
            state_next = quota_next[cell.treatment]
        plans.append((
            state_next, *_PROFILE_AGE[cell.profile], cell.death, *_PROFILE_FLAGS[cell.profile],
            f",{_SEX_CODES[cell.sex]},",
            f",1,{cell.treatment:d},{cell.flag:d},{cell.flag:d},",
            f",{cell.classification},",
        ))

    num, dates, window, flag_str = _NUM_STR, _DATE_STR, _WINDOW_DAYS, _FLAG_STR.get
    n_states = len(STATE_NAMES)
    draw, getrandbits = rng.random, rng.getrandbits
    stream, owns = _open_out(out)
    try:
        stream.write((",".join(SVEERV_COLUMNS) + "\n").encode("utf-8"))
        for start in range(0, len(order), _CHUNK_ROWS):
            lines = []
            for cell_idx in order[start:start + _CHUNK_ROWS]:
                (state_next, age_lo, age_span, death, flag_p, flag_table,
                 sex_s, care_s, class_s) = plans[cell_idx]
                # Draw order: state unless it has a quota, age, onset, the
                # death day if dead, the flags, then the municipality.
                state = num[int(draw() * n_states) + 1] if state_next is None else state_next()
                age = num[int(draw() * age_span) + age_lo]
                onset = int(draw() * window)
                death_s = dates[onset + 1 + int(draw() * 59)] if death else ALIVE_SENTINEL
                bits = getrandbits(_FLAG_BITS)
                # Byte 3 of every 8 is the top byte of a draw's first word.
                flags = flag_str(bits.to_bytes(_FLAG_BITS // 8, "little")[3::8].translate(flag_table))
                if flags is None:
                    flags = ",".join(["1" if value < p else "2"
                                      for value, p in zip(_random_values(bits, _FLAG_COUNT), flag_p)])
                lines.append(
                    f"{state},{num[int(draw() * 50) + 1]}{sex_s}{age}{care_s}"
                    f"{death_s}{class_s}{dates[onset]},{flags}\n"
                )
            stream.write("".join(lines).encode("utf-8"))
    finally:
        if owns:
            stream.close()
    if out is None:
        return stream.getvalue()
    return None


# --- genomic plan -----------------------------------------------------------

@dataclass
class _GenomicColumns:
    """The planned samples, one list entry per sample in plan order.

    None marks a status, division or sex left for the generator to draw.
    An age is the (low, span) the generator draws it from, or None for an
    empty age.
    """

    lineage_clade: list[str] = field(default_factory=list)  # "lineage\tclade"
    status: list[str | None] = field(default_factory=list)
    division: list[str | None] = field(default_factory=list)
    sex: list[str | None] = field(default_factory=list)     # as written
    age: list[tuple[int, int] | None] = field(default_factory=list)
    vaccine: list[str] = field(default_factory=list)


_STATUS_POOL = (
    "Liberado", "Ambulatorio", "Hospitalizado", "Fallecido",
    "Sintomático", "Released", "Ambulatory", "unknown",
)

_FILLER_DIVISIONS = (
    "Mexico City", "Jalisco", "Nuevo Leon", "Sonora", "Yucatan",
    "Tamaulipas", "Baja California", "Chiapas",
)

# A sample's age: any age up to the ceiling, or any age of one group. An
# UNKNOWN sample has no age.
_AGE_SPANS = {group: (low, high - low) for group, low, high
              in zip(AgeGroup, AGE_FLOORS, (*AGE_FLOORS[1:], _AGE_CEILING + 1))}
_AGE_SPANS[AgeGroup.UNKNOWN] = None

_GISAID_SEX_OUT = {Sex.FEMALE: "Female", Sex.MALE: "Male", Sex.UNSPECIFIED: ""}


def _spread(column: list, members: list[int], amounts: Iterable[tuple[object, int]]) -> None:
    """Set ``column`` at ``members`` in consecutive runs, n members to each value."""
    at = 0
    for value, n in amounts:
        for i in members[at:at + n]:
            column[i] = value
        at += n


def _deal(cells: dict[tuple[str, str], int], by_clade: dict[str, list[int]], column: list, conflicts: list[str],
          table: str, quotas: str, from_back: bool = False) -> tuple[dict[str, int], dict[str, list[int]]]:
    """Set ``column`` to each ``(value, clade): n`` cell's value at the next n of the clade's
    samples, from the front or the back; an unknown clade or an overflow is a conflict. Returns
    the count dealt per clade, and each value's samples in the order dealt."""
    dealt = dict.fromkeys(by_clade, 0)
    given: dict[str, list[int]] = {}
    for (value, clade), n in cells.items():
        members = by_clade.get(clade)
        if members is None:
            conflicts.append(f"{table} names unknown clade {clade!r}")
        elif dealt[clade] + n > len(members):
            conflicts.append(f"{quotas} for clade {clade} exceed its {len(members)} samples")
        else:
            at = len(members) - dealt[clade] - n if from_back else dealt[clade]
            dealt[clade] += n
            taken = members[at:at + n]
            _spread(column, taken, [(value, n)])
            given.setdefault(value, []).extend(taken)
    return dealt, given


def _plan_genomic_block(label: str, block: GenomicBlockSpec, conflicts: list[str],
                        cols: _GenomicColumns) -> None:
    """Append one block's samples to ``cols``; conflicts are appended, not raised.
    A block with a negative cell is not planned."""
    negative = [f"{label}: {conflict}" for conflict in _bad_cells(block)]
    if negative:
        conflicts.extend(negative)
        return
    by_clade: dict[str, list[int]] = {}
    first = len(cols.lineage_clade)
    for (lineage, clade) in sorted(block.lineage_clade):
        n = block.lineage_clade[(lineage, clade)]
        at = len(cols.lineage_clade)
        by_clade.setdefault(clade, []).extend(range(at, at + n))
        cols.lineage_clade.extend(repeat(f"{lineage}\t{clade}", n))
    size = len(cols.lineage_clade) - first
    cols.status.extend(repeat(None, size))
    cols.division.extend(repeat(None, size))
    cols.sex.extend(repeat(None, size))
    cols.age.extend(repeat(_ANY_AGE, size))
    cols.vaccine.extend(repeat("", size))

    if block.status_clade is not None:
        dealt, _ = _deal(block.status_clade, by_clade, cols.status, conflicts,
                         f"{label}: status table", f"{label}: statuses")
        for clade, at in sorted(dealt.items()):
            if at != len(by_clade[clade]):
                conflicts.append(
                    f"{label}: statuses cover {at} of {len(by_clade[clade])} clade-{clade} samples"
                )

    # Divisions are dealt from the tail of each clade group so the status/state
    # joint varies instead of pinning states to the first statuses; no marginal
    # constrains that joint.
    _, state_rows = _deal(block.state_clade or {}, by_clade, cols.division, conflicts,
                          f"{label}: state table", f"{label}: state quotas", from_back=True)
    # Every state a demographic table names is checked, dealt samples or none.
    named = (block.state_sex, block.state_vaccine, block.state_age_sex)
    for state in sorted(state_rows.keys() | {key[0] for table in named if table for key in table}):
        members = state_rows.get(state, [])
        if block.state_sex is not None:
            wanted = sum(n for (s, _), n in block.state_sex.items() if s == state)
            if wanted != len(members):
                conflicts.append(
                    f"{label}/{state}: sex total {wanted} != state samples {len(members)}"
                )
        if block.state_age_sex is not None:
            cells = [
                ((group, sex), n)
                for (s, group, sex), n in block.state_age_sex.items()
                if s == state and n
            ]
            covered = sum(n for _, n in cells)
            if covered != len(members):
                conflicts.append(
                    f"{label}/{state}: age x sex total {covered}"
                    f" != state samples {len(members)}"
                )
            elif block.state_sex is not None:
                for sex in Sex:
                    from_age = sum(n for (g, s2), n in cells if s2 is sex)
                    declared = block.state_sex.get((state, sex), 0)
                    if from_age != declared:
                        conflicts.append(
                            f"{label}/{state}: {sex.value} differs between the"
                            f" sex table ({declared}) and age x sex table ({from_age})"
                        )
            if covered == len(members):
                _spread(cols.age, members, ((_AGE_SPANS[group], n) for (group, _), n in cells))
                _spread(cols.sex, members, ((_GISAID_SEX_OUT[sex], n) for (_, sex), n in cells))
        elif block.state_sex is not None:
            _spread(cols.sex, members, ((_GISAID_SEX_OUT[sex], block.state_sex.get((state, sex), 0))
                                        for sex in Sex))
        if block.state_vaccine is not None:
            doses = [(v, n) for (s, v), n in block.state_vaccine.items() if s == state]
            covered = sum(n for _, n in doses)
            if covered > len(members):
                conflicts.append(
                    f"{label}/{state}: vaccine doses {covered} exceed state"
                    f" samples {len(members)}"
                )
            else:
                _spread(cols.vaccine, members, doses)


def generate_genomic_fixture(spec: GenomicMarginalSpec, out=None) -> bytes | None:
    """Emit genomic-metadata TSV satisfying the spec's marginals.

    Same output conventions as generate_epi_fixture.
    """
    conflicts: list[str] = []
    cols = _GenomicColumns()
    pools: list[tuple[int, int, tuple[str, ...]]] = []  # (first, end, filler divisions)
    for label, block in spec.blocks.items():
        first = len(cols.lineage_clade)
        _plan_genomic_block(label, block, conflicts, cols)
        named = {state for (state, _) in (block.state_clade or {})}
        pool = tuple(d for d in _FILLER_DIVISIONS if d not in named) or ("Other",)
        pools.append((first, len(cols.lineage_clade), pool))
    if conflicts:
        raise InconsistentMarginals(conflicts)

    rng = random.Random(spec.seed)
    random_fn = rng.random
    lineage_clade, status, division, sex, age, vaccine = (
        cols.lineage_clade, cols.status, cols.division, cols.sex, cols.age, cols.vaccine)
    n_status = len(_STATUS_POOL)
    for first, end, pool in pools:
        n_pool = len(pool)
        for i in range(first, end):
            if status[i] is None:
                status[i] = _STATUS_POOL[int(random_fn() * n_status)]
            if division[i] is None:
                division[i] = pool[int(random_fn() * n_pool)]
            if sex[i] is None:
                sex[i] = "Female" if random_fn() < 0.5 else "Male"

    # Shuffling the indices permutes them exactly as shuffling the samples would.
    order = list(range(len(lineage_clade)))
    rng.shuffle(order)

    num, dates, days = _NUM_STR, _DATE_STR, _WINDOW_DAYS + 60
    stream, owns = _open_out(out)
    try:
        stream.write(("\t".join(GISAID_COLUMNS) + "\n").encode("utf-8"))
        for start in range(0, len(order), _CHUNK_ROWS):
            lines = []
            for accession, i in enumerate(order[start:start + _CHUNK_ROWS], start + 1):
                span = age[i]
                age_s = "" if span is None else num[int(random_fn() * span[1]) + span[0]]
                lines.append(
                    f"EPI_ISL_{accession:07d}\t{dates[int(random_fn() * days)]}\t{division[i]}\t"
                    f"{lineage_clade[i]}\t{status[i]}\t{age_s}\t{sex[i]}\t{vaccine[i]}\n"
                )
            stream.write("".join(lines).encode("utf-8"))
    finally:
        if owns:
            stream.close()
    if out is None:
        return stream.getvalue()
    return None


def generate_fixture(spec, out=None) -> bytes | None:
    """Dispatch on spec type; handy for preset-driven callers."""
    if isinstance(spec, EpiMarginalSpec):
        return generate_epi_fixture(spec, out)
    if isinstance(spec, GenomicMarginalSpec):
        return generate_genomic_fixture(spec, out)
    raise TypeError(f"not a marginal spec: {type(spec).__name__}")


# --- independent oracle ------------------------------------------------------

@dataclass(frozen=True)
class OracleAggregate:
    """Naive recount over materialized records, for checking the streaming path.

    Computed with comprehension-style counting, never via CaseCounts.add, so
    the oracle stays independent of the code it validates.
    """

    counts: CaseCounts
    fatality_pct: float | None
    positivity_pct: dict[PositivityMode, float | None]
    severity_pct: dict[SeverityCriterion, tuple[float, float, float] | None]


def oracle_aggregate(records: Iterable[PatientRecord]) -> OracleAggregate:
    rows = list(records)
    pos = [r for r in rows if r.classification.value in (1, 2, 3)]
    icu_yes = [r for r in pos if r.icu.value == 1]
    tube_yes = [r for r in pos if r.intubated.value == 1]
    both = [r for r in pos if r.icu.value == 1 and r.intubated.value == 1]
    dead = [r for r in pos if r.death_date is not None]
    counts = CaseCounts(
        total=len(rows),
        positive=len(pos),
        negative=sum(1 for r in rows if r.classification.value == 7),
        suspect=sum(1 for r in rows if r.classification.value == 6),
        invalid=sum(1 for r in rows if r.classification.value == 4),
        not_performed=sum(1 for r in rows if r.classification.value == 5),
        ambulatory_pos=sum(1 for r in pos if r.treatment.value == 1),
        hospitalized_pos=sum(1 for r in pos if r.treatment.value == 2),
        icu_pos=len(icu_yes),
        intubated_pos=len(tube_yes),
        icu_and_intubated_pos=len(both),
        deaths_pos=len(dead),
        deaths_icu_intubated_pos=sum(
            1 for r in dead if r.icu.value == 1 and r.intubated.value == 1
        ),
    )
    fatality = len(dead) / len(pos) * 100.0 if pos else None
    lab = len(pos) + counts.negative
    positivity = {
        PositivityMode.AGGREGATE: len(pos) / len(rows) * 100.0 if rows else None,
        PositivityMode.LAB_NEGATIVE: len(pos) / lab * 100.0 if lab else None,
    }
    severe_by = {
        SeverityCriterion.INTUBATION_ONLY: len(tube_yes),
        SeverityCriterion.ICU_ONLY: len(icu_yes),
        SeverityCriterion.ICU_AND_INTUBATION: len(both),
        SeverityCriterion.ICU_OR_INTUBATION: len(icu_yes) + len(tube_yes) - len(both),
    }
    severity = {}
    for criterion, severe in severe_by.items():
        if not pos:
            severity[criterion] = None
            continue
        severity[criterion] = (
            counts.ambulatory_pos / len(pos) * 100.0,
            (counts.hospitalized_pos - severe) / len(pos) * 100.0,
            severe / len(pos) * 100.0,
        )
    return OracleAggregate(
        counts=counts,
        fatality_pct=fatality,
        positivity_pct=positivity,
        severity_pct=severity,
    )


# --- random records and re-encoding (round-trip and property tests) ----------

def random_patient_records(seed: int, n: int) -> list[PatientRecord]:
    """Seeded, schema-valid random records covering the code domains."""
    rng = random.Random(seed)
    flags = (CodedFlag.YES, CodedFlag.NO, CodedFlag.IGNORED, CodedFlag.UNSPECIFIED)
    out = []
    for _ in range(n):
        classification = CaseClassification(rng.randint(1, 7))
        positive = classification.value <= 3
        if positive and rng.random() < 0.4:
            treatment = TreatmentStrategy.HOSPITALIZED
            icu = rng.choice(flags)
            intubated = rng.choice(flags)
        else:
            treatment = TreatmentStrategy.AMBULATORY
            icu = intubated = CodedFlag.NOT_APPLICABLE
        onset = (
            _WINDOW_START + timedelta(days=rng.randrange(_WINDOW_DAYS))
            if rng.random() < 0.9 else None
        )
        death = None
        if rng.random() < 0.12:
            start = onset or _WINDOW_START
            death = start + timedelta(days=rng.randint(1, 60))
        out.append(PatientRecord(
            state_code=rng.randint(1, 32),
            municipality_code=rng.randint(1, 570),
            sex=rng.choice((Sex.FEMALE, Sex.MALE, Sex.FEMALE, Sex.MALE, Sex.UNSPECIFIED)),
            age_years=rng.randint(0, 110) if rng.random() < 0.95 else None,
            speaks_indigenous_language=rng.choice((CodedFlag.YES, CodedFlag.NO, CodedFlag.UNSPECIFIED)),
            treatment=treatment,
            icu=icu,
            intubated=intubated,
            death_date=death,
            classification=classification,
            symptom_onset_date=onset,
            comorbidities={
                name: rng.choice((CodedFlag.YES, CodedFlag.NO, CodedFlag.NO, CodedFlag.IGNORED))
                for name in COMORBIDITY_FIELDS
            },
        ))
    return out


def write_sveerv_csv(records: Iterable[PatientRecord]) -> bytes:
    """Encode records back to registry CSV; inverse of the ingest decoding."""
    lines = [",".join(SVEERV_COLUMNS)]
    for r in records:
        death = ALIVE_SENTINEL if r.death_date is None else r.death_date.isoformat()
        onset = "" if r.symptom_onset_date is None else r.symptom_onset_date.isoformat()
        age = "" if r.age_years is None else str(r.age_years)
        flags = ",".join(str(r.comorbidities[name].value) for name in COMORBIDITY_FIELDS)
        lines.append(
            f"{r.state_code},{r.municipality_code},{_SEX_CODES[r.sex]},{age},"
            f"{r.speaks_indigenous_language.value},{r.treatment.value},{r.icu.value},"
            f"{r.intubated.value},{death},{r.classification.value},{onset},{flags}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- presets -----------------------------------------------------------------

_PRESET_FILES = {
    "annex-epi": "annex_epi.json",
    "annex-gisaid": "annex_gisaid.json",
    "annex-delta": "annex_delta.json",
}

#: Preset names accepted by load_preset and the CLI. tableN aliases resolve
#: to the smallest shipped spec that reproduces that annex table.
PRESET_ALIASES = {
    **{f"table{i}": "annex-epi" for i in range(1, 8)},
    "table8": "annex-gisaid",
    **{f"table{i}": "annex-delta" for i in range(9, 14)},
    "annex-epi": "annex-epi",
    "annex-gisaid": "annex-gisaid",
    "annex-delta": "annex-delta",
    "smoke": "smoke",
}


# The most rows a smoke spec may ask for: at this count the generator's
# shuffle plan alone holds 200 MB (two bytes a row).
_SMOKE_MAX_ROWS = 10**8


def smoke_epi_spec(rows: int, seed: int = 0) -> EpiMarginalSpec:
    """Synthetic load-test spec with an exact total row count, from 20 to
    10**8 (_SMOKE_MAX_ROWS)."""
    if rows < 20:
        raise ValueError("smoke preset needs at least 20 rows")
    if rows > _SMOKE_MAX_ROWS:
        raise ValueError(f"smoke preset takes at most {_SMOKE_MAX_ROWS} rows")
    half = rows // 2
    c3 = (rows * 18) // 100
    c6 = (rows * 5) // 100
    c1 = rows // 200
    classification_sex = {}
    for sex, share in ((Sex.FEMALE, half), (Sex.MALE, rows - half)):
        classification_sex[(3, sex)] = c3
        classification_sex[(6, sex)] = c6
        classification_sex[(1, sex)] = c1
        classification_sex[(7, sex)] = share - c3 - c6 - c1
    positives = c3 + c1
    hosp = (positives * 3) // 10
    treatment_sex = {}
    intubation_sex = {}
    deaths = {}
    for sex in (Sex.FEMALE, Sex.MALE):
        treatment_sex[(sex, TreatmentStrategy.HOSPITALIZED)] = hosp
        treatment_sex[(sex, TreatmentStrategy.AMBULATORY)] = positives - hosp
        intubation_sex[(CodedFlag.YES, sex)] = hosp // 10
        intubation_sex[(CodedFlag.NO, sex)] = hosp - hosp // 10
        intubation_sex[(CodedFlag.NOT_APPLICABLE, sex)] = positives - hosp
        deaths[(3, sex)] = positives // 20
    return EpiMarginalSpec(
        classification_sex=classification_sex,
        treatment_sex=treatment_sex,
        intubation_sex=intubation_sex,
        deaths_classification_sex=deaths,
        seed=seed,
    )


def list_presets() -> list[str]:
    return sorted(PRESET_ALIASES)


def load_preset(name: str, *, rows: int | None = None, seed: int | None = None):
    """Resolve a preset name to its marginal spec.

    ``rows`` applies only to the smoke preset (any other raises ValueError);
    ``seed`` overrides the spec's seed for any preset.
    """
    canonical = PRESET_ALIASES.get(name.strip().casefold())
    if canonical is None:
        raise UnknownPreset(f"unknown preset {name!r} (try: {', '.join(list_presets())})")
    if canonical == "smoke":
        return smoke_epi_spec(rows if rows is not None else 100_000,
                              seed if seed is not None else 0)
    if rows is not None:
        raise ValueError("rows applies only to the smoke preset")
    raw = json.loads(
        resources.files("episurv.presets").joinpath(_PRESET_FILES[canonical]).read_text("utf-8")
    )
    if seed is not None:
        raw["seed"] = seed
    if raw.get("kind") == "gisaid":
        return GenomicMarginalSpec.from_dict(raw)
    return EpiMarginalSpec.from_dict(raw)
