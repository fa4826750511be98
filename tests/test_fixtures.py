import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from episurv.fixtures import (
    EpiMarginalSpec,
    GenomicBlockSpec,
    GenomicMarginalSpec,
    InconsistentMarginals,
    UnknownPreset,
    generate_epi_fixture,
    generate_fixture,
    generate_genomic_fixture,
    list_presets,
    load_preset,
    oracle_aggregate,
    random_patient_records,
    smoke_epi_spec,
    write_sveerv_csv,
    _AGE_SPANS,
    _ANY_AGE,
    _PROFILE_FLAGS,
    _random_values,
)
from episurv.ingest import ingest_gisaid, ingest_sveerv
from episurv.metrics import (
    AgeGroup,
    CaseCounts,
    age_group,
    classification_sex_tally,
    death_classification_sex_tally,
    death_icu_sex_tally,
    intubation_sex_tally,
    state_treatment_tally,
    treatment_sex_tally,
)
from episurv.schema import CodedFlag, Sex, TreatmentStrategy

F, M = Sex.FEMALE, Sex.MALE
AMB, HOSP = TreatmentStrategy.AMBULATORY, TreatmentStrategy.HOSPITALIZED


def fold(records) -> CaseCounts:
    counts = CaseCounts()
    for r in records:
        counts.add(r)
    return counts


def epi_spec(**overrides) -> EpiMarginalSpec:
    base = dict(classification_sex={(3, F): 5}, seed=1)
    base.update(overrides)
    return EpiMarginalSpec(**base)


def conflicts_of(spec) -> list[str]:
    with pytest.raises(InconsistentMarginals) as exc:
        generate_fixture(spec)
    return exc.value.conflicts


class TestEpiConflicts:
    def test_bad_classification_code(self):
        msgs = conflicts_of(epi_spec(classification_sex={(9, F): 1}))
        assert msgs == ["classification code 9 outside 1-7"]

    def test_treatment_total_must_equal_positives(self):
        msgs = conflicts_of(epi_spec(treatment_sex={(F, AMB): 2, (F, HOSP): 2}))
        assert msgs == ["female: treatment total 4 != positives 5"]

    def test_intubation_na_must_equal_ambulatory(self):
        msgs = conflicts_of(epi_spec(
            treatment_sex={(F, AMB): 3, (F, HOSP): 2},
            intubation_sex={(CodedFlag.NOT_APPLICABLE, F): 2,
                            (CodedFlag.NO, F): 2},
        ))
        assert msgs == ["female: intubation not_applicable 2 != ambulatory 3"]

    def test_intubation_flags_must_sum_to_hospitalized(self):
        msgs = conflicts_of(epi_spec(
            treatment_sex={(F, AMB): 3, (F, HOSP): 2},
            intubation_sex={(CodedFlag.NOT_APPLICABLE, F): 3,
                            (CodedFlag.NO, F): 1},
        ))
        assert msgs == ["female: intubation yes/no/ignored/unspecified sum 1"
                        " != hospitalized 2"]

    def test_deaths_cannot_exceed_cases(self):
        msgs = conflicts_of(epi_spec(deaths_classification_sex={(3, F): 6}))
        assert any("class-3 deaths 6 > class-3 cases 5" in m for m in msgs)

    def test_icu_deaths_need_matching_flag_cells(self):
        msgs = conflicts_of(epi_spec(
            treatment_sex={(F, AMB): 3, (F, HOSP): 2},
            intubation_sex={(CodedFlag.NOT_APPLICABLE, F): 3,
                            (CodedFlag.NO, F): 2},
            deaths_icu_sex={(CodedFlag.YES, F): 1},
        ))
        assert msgs == ["female: deaths with flag yes 1 > positives with that flag 0"]

    def test_icu_deaths_must_sum_to_classification_deaths(self):
        msgs = conflicts_of(epi_spec(
            deaths_classification_sex={(3, F): 2},
            deaths_icu_sex={(CodedFlag.NOT_APPLICABLE, F): 1},
        ))
        assert msgs == ["female: deaths by ICU flag sum 1 != deaths by classification 2"]

    def test_state_quotas_must_match_totals(self):
        msgs = conflicts_of(epi_spec(
            classification_sex={(3, F): 4},
            treatment_sex={(F, AMB): 2, (F, HOSP): 2},
            state_treatment={1: (1, 2), 2: (1, 1)},
        ))
        assert msgs == ["state hospitalized quotas 3 != hospitalized total 2"]

    def test_conflicts_are_collected_across_sexes(self):
        msgs = conflicts_of(epi_spec(
            classification_sex={(3, F): 5, (3, M): 4},
            treatment_sex={(F, AMB): 1, (F, HOSP): 1,
                           (M, AMB): 1, (M, HOSP): 1},
        ))
        assert msgs == ["female: treatment total 2 != positives 5",
                        "male: treatment total 2 != positives 4"]

    @pytest.mark.parametrize("overrides, conflicts", [
        ({"classification_sex": {(1, F): 5, (2, F): 0, (7, F): -2, (7, M): 3}},
         ["classification_sex 7/female: negative count -2"]),
        ({"classification_sex": {(1, F): 4, (1, M): 3},
          "treatment_sex": {(F, AMB): 7, (F, HOSP): -3, (M, HOSP): 3},
          "state_treatment": {20: (7, 0)}},
         ["treatment_sex female/hospitalized: negative count -3"]),
        ({"treatment_sex": {(F, AMB): 5, (F, HOSP): 0}, "state_treatment": {20: (6, -1)},
          "intubation_sex": {(CodedFlag.NOT_APPLICABLE, F): 5, (CodedFlag.NO, F): -1},
          "deaths_classification_sex": {(3, F): -1},
          "deaths_icu_sex": {(CodedFlag.YES, F): -1}},
         ["state_treatment 20/hospitalized: negative count -1",
          "intubation_sex no/female: negative count -1",
          "deaths_classification_sex 3/female: negative count -1",
          "deaths_icu_sex yes/female: negative count -1"]),
    ], ids=["dropped class cell", "StopIteration", "every other table"])
    def test_a_negative_cell_is_a_conflict_before_any_byte(self, overrides, conflicts, tmp_path):
        out = tmp_path / "cases.csv"
        with pytest.raises(InconsistentMarginals) as exc:
            generate_epi_fixture(epi_spec(**overrides), out)
        assert exc.value.conflicts == conflicts
        assert not out.exists()

    @pytest.mark.parametrize("overrides, conflicts", [
        ({"treatment_sex": {(F, AMB): 5, (M, AMB): 3}}, ["male: treatment total 3 != positives 0"]),
        ({"intubation_sex": {(CodedFlag.NOT_APPLICABLE, F): 5, (CodedFlag.NOT_APPLICABLE, M): 2}},
         ["male: intubation not_applicable 2 != ambulatory 0"]),
        ({"deaths_icu_sex": {(CodedFlag.NOT_APPLICABLE, M): 1}},
         ["male: deaths 1 > class-3 cases 0", "male: ambulatory deaths 1 > ambulatory positives 0"]),
        ({"deaths_classification_sex": {(3, M): 1}},
         ["male: class-3 deaths 1 > class-3 cases 0", "male: ambulatory deaths 1 > ambulatory positives 0"]),
        ({"deaths_classification_sex": {(7, F): 1, (9, M): 0}},
         ["deaths classification code 7 outside 1-3", "deaths classification code 9 outside 1-3"]),
        ({"state_treatment": {40: (5, 0)}}, ["state code 40 outside 1-32"]),
        ({"state_treatment": {21: (5, 0), 0: (0, 0)}}, ["state code 0 outside 1-32"]),
    ], ids=["treatment of an absent sex", "intubation of an absent sex", "ICU deaths of an absent sex",
            "class deaths of an absent sex", "deaths class", "state 40", "state 0"])
    def test_a_cell_that_no_row_can_hold_is_a_conflict(self, overrides, conflicts):
        buf = io.BytesIO()
        with pytest.raises(InconsistentMarginals) as exc:
            generate_epi_fixture(epi_spec(**overrides), buf)
        assert exc.value.conflicts == conflicts
        assert buf.getvalue() == b""

    def test_message_joins_conflicts(self):
        with pytest.raises(InconsistentMarginals) as exc:
            generate_epi_fixture(epi_spec(classification_sex={(0, F): 1, (8, F): 1}))
        assert ";" in str(exc.value)
        assert isinstance(exc.value, ValueError)


def _table(*parts):
    """Small tables keyed by ``parts``, 0-3 a cell."""
    return st.dictionaries(st.tuples(*parts), st.integers(0, 3), max_size=4)


_CLASSES = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9])
_SEXES = st.sampled_from(list(Sex))
_FLAGS = st.sampled_from(list(CodedFlag))


@given(
    classification_sex=_table(_CLASSES, _SEXES),
    treatment_sex=st.none() | _table(_SEXES, st.sampled_from(list(TreatmentStrategy))),
    state_treatment=st.none() | st.dictionaries(st.sampled_from([1, 21, 32, 40]),
                                                st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3),
    intubation_sex=st.none() | _table(_FLAGS, _SEXES),
    deaths_classification_sex=st.none() | _table(_CLASSES, _SEXES),
    deaths_icu_sex=st.none() | _table(_FLAGS, _SEXES),
)
def test_a_registry_spec_is_refused_or_reproduced(**tables):
    """A spec raises InconsistentMarginals before any byte, or its file ingests
    every row and gives back each table it names through the public tallies."""
    spec = EpiMarginalSpec(**tables)
    buf = io.BytesIO()
    try:
        generate_epi_fixture(spec, buf)
    except InconsistentMarginals:
        assert buf.getvalue() == b""
        return
    stream = ingest_sveerv(buf.getvalue())
    records = list(stream.records())
    assert stream.stats.rows_rejected == 0
    assert len(records) == sum(spec.classification_sex.values())

    def by_code(tally):
        return {(c.value, sex): n for (c, sex), n in tally.items()}

    tallies = {
        "classification_sex": by_code(classification_sex_tally(records)),
        "treatment_sex": treatment_sex_tally(records),
        "state_treatment": {state: tuple(split) for state, split in state_treatment_tally(records).items()},
        "intubation_sex": intubation_sex_tally(records),
        "deaths_classification_sex": by_code(death_classification_sex_tally(records)),
        "deaths_icu_sex": death_icu_sex_tally(records),
    }
    for name, tally in tallies.items():
        table = getattr(spec, name)
        if table is not None:
            assert dict(tally) == {key: n for key, n in table.items() if n not in (0, (0, 0))}, name


class TestEpiGeneration:
    def test_smoke_spec_hits_marginals_exactly(self):
        raw = generate_epi_fixture(smoke_epi_spec(200, seed=3))
        counts = fold(ingest_sveerv(raw).records())
        assert counts.total == 200
        assert counts.positive == 74          # (36 lab + 1 assoc) per sex
        assert counts.suspect == 20
        assert counts.negative == 106
        assert counts.hospitalized_pos == 22
        assert counts.ambulatory_pos == 52
        assert counts.intubated_pos == 2
        assert counts.icu_pos == 2            # generator equates the two flags
        assert counts.icu_and_intubated_pos == 2
        assert counts.deaths_pos == 2

    def test_smoke_spec_minimum(self):
        with pytest.raises(ValueError):
            smoke_epi_spec(19)

    def test_smoke_spec_ceiling(self):
        assert sum(smoke_epi_spec(10**8).classification_sex.values()) == 10**8
        for rows in (10**8 + 1, 10**20):
            with pytest.raises(ValueError, match=r"^smoke preset takes at most 100000000 rows$"):
                smoke_epi_spec(rows)

    def test_same_seed_same_bytes(self):
        spec = smoke_epi_spec(300, seed=11)
        assert generate_epi_fixture(spec) == generate_epi_fixture(spec)

    def test_different_seed_different_bytes(self):
        a = generate_epi_fixture(smoke_epi_spec(300, seed=1))
        b = generate_epi_fixture(smoke_epi_spec(300, seed=2))
        assert a != b

    def test_out_path_and_stream(self, tmp_path):
        spec = smoke_epi_spec(120, seed=4)
        expected = generate_epi_fixture(spec)
        path = tmp_path / "epi.csv"
        assert generate_epi_fixture(spec, str(path)) is None
        assert path.read_bytes() == expected
        buf = io.BytesIO()
        assert generate_epi_fixture(spec, buf) is None
        assert buf.getvalue() == expected

    def test_state_quotas_place_positives_only(self):
        spec = epi_spec(
            classification_sex={(3, F): 6, (7, F): 4},
            treatment_sex={(F, AMB): 4, (F, HOSP): 2},
            state_treatment={13: (4, 0), 21: (0, 2)},
        )
        records = list(ingest_sveerv(generate_epi_fixture(spec)).records())
        positives = [r for r in records if r.classification.value <= 3]
        assert {r.state_code for r in positives if r.treatment is AMB} == {13}
        assert {r.state_code for r in positives if r.treatment is HOSP} == {21}

    def test_fixture_rows_all_ingest_cleanly(self):
        raw = generate_epi_fixture(smoke_epi_spec(500, seed=9))
        stream = ingest_sveerv(raw)
        items = list(stream.records())
        assert len(items) == 500
        assert stream.stats.rows_rejected == 0

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    def test_flag_words_are_the_random_draws(self, seed):
        words, draws = random.Random(seed), random.Random(seed)
        for n in (1, 10, 25):
            values = _random_values(words.getrandbits(64 * n), n)
            assert values == [draws.random() for _ in range(n)]
            assert words.getstate() == draws.getstate()

    @pytest.mark.parametrize("profile", sorted(_PROFILE_FLAGS))
    def test_top_byte_decides_flags_exactly(self, profile):
        flag_p, table = _PROFILE_FLAGS[profile]
        rng = random.Random(profile)
        for _ in range(2000):
            bits = rng.getrandbits(64 * len(flag_p))
            decided = bits.to_bytes(8 * len(flag_p), "little")[3::8].translate(table)
            exact = _random_values(bits, len(flag_p))
            for outcome, value, p in zip(decided, exact, flag_p):
                assert outcome == ord("?") or (outcome == ord("1")) == (value < p)


class TestRoundTrip:
    def test_random_records_survive_encode_decode(self):
        records = random_patient_records(seed=7, n=200)
        decoded = list(ingest_sveerv(write_sveerv_csv(records)).records())
        assert decoded == records

    def test_oracle_matches_streaming_accumulator(self):
        records = random_patient_records(seed=21, n=500)
        oracle = oracle_aggregate(records)
        assert oracle.counts == fold(records)

    def test_random_records_are_seed_stable(self):
        assert random_patient_records(5, 50) == random_patient_records(5, 50)
        assert random_patient_records(5, 50) != random_patient_records(6, 50)


def one_block(**overrides) -> GenomicMarginalSpec:
    base = dict(lineage_clade={("AY.20", "GK"): 2})
    base.update(overrides)
    return GenomicMarginalSpec(blocks={"Delta": GenomicBlockSpec(**base)}, seed=0)


class TestGenomicConflicts:
    def test_status_unknown_clade(self):
        msgs = conflicts_of(one_block(status_clade={("Fallecido", "G"): 1}))
        assert any("unknown clade 'G'" in m for m in msgs)

    def test_statuses_must_not_exceed_clade(self):
        msgs = conflicts_of(one_block(status_clade={("Fallecido", "GK"): 3}))
        assert any("exceed its 2 samples" in m for m in msgs)

    def test_statuses_must_cover_clade(self):
        msgs = conflicts_of(one_block(status_clade={("Fallecido", "GK"): 1}))
        assert msgs == ["Delta: statuses cover 1 of 2 clade-GK samples"]

    def test_state_quota_exceeds_clade(self):
        msgs = conflicts_of(one_block(state_clade={("Puebla", "GK"): 3}))
        assert msgs == ["Delta: state quotas for clade GK exceed its 2 samples"]

    def test_state_sex_must_match_state_total(self):
        msgs = conflicts_of(one_block(
            state_clade={("Puebla", "GK"): 2},
            state_sex={("Puebla", F): 1},
        ))
        assert msgs == ["Delta/Puebla: sex total 1 != state samples 2"]

    def test_age_sex_must_match_state_total(self):
        msgs = conflicts_of(one_block(
            state_clade={("Puebla", "GK"): 2},
            state_age_sex={("Puebla", AgeGroup.Y21_40, F): 1},
        ))
        assert msgs == ["Delta/Puebla: age x sex total 1 != state samples 2"]

    def test_age_sex_must_agree_with_sex_table(self):
        msgs = conflicts_of(one_block(
            state_clade={("Puebla", "GK"): 2},
            state_sex={("Puebla", F): 1, ("Puebla", M): 1},
            state_age_sex={("Puebla", AgeGroup.Y21_40, F): 2},
        ))
        assert "Delta/Puebla: female differs between the sex table (1)" \
               " and age x sex table (2)" in msgs
        assert len(msgs) == 2  # male disagrees too

    def test_vaccines_cannot_exceed_state_rows(self):
        msgs = conflicts_of(one_block(
            state_clade={("Puebla", "GK"): 2},
            state_vaccine={("Puebla", "Pfizer"): 3},
        ))
        assert msgs == ["Delta/Puebla: vaccine doses 3 exceed state samples 2"]

    @pytest.mark.parametrize("overrides, conflict", [
        ({"state_sex": {("Puebla", F): 1}}, "Delta/Puebla: sex total 1 != state samples 0"),
        ({"state_vaccine": {("Puebla", "Pfizer"): 1}}, "Delta/Puebla: vaccine doses 1 exceed state samples 0"),
        ({"state_age_sex": {("Puebla", AgeGroup.Y0_20, F): 1}}, "Delta/Puebla: age x sex total 1 != state samples 0"),
        ({"state_clade": {("Hidalgo", "GK"): 2}, "state_sex": {("Hidalgo", F): 2, ("Puebla", M): 1}},
         "Delta/Puebla: sex total 1 != state samples 0"),
    ], ids=["sex", "vaccine", "age x sex", "beside a planned state"])
    def test_a_state_with_no_planned_samples_is_a_conflict(self, overrides, conflict):
        assert conflicts_of(one_block(**overrides)) == [conflict]

    def test_a_negative_cell_is_a_conflict_before_any_byte(self, tmp_path):
        spec = GenomicMarginalSpec(blocks={
            "Delta": GenomicBlockSpec(lineage_clade={("B.1.617.2", "G"): 4, ("AY.1", "G"): -2}),
            "Alpha": GenomicBlockSpec(
                lineage_clade={("B.1.1.7", "GRY"): 2},
                status_clade={("Fallecido", "GRY"): -1},
                state_clade={("Puebla", "GRY"): -1},
                state_sex={("Puebla", M): -1},
                state_vaccine={("Puebla", "Pfizer"): -1},
                state_age_sex={("Puebla", AgeGroup.Y60_PLUS, F): -1},
            ),
        })
        out = tmp_path / "meta.tsv"
        with pytest.raises(InconsistentMarginals) as exc:
            generate_genomic_fixture(spec, out)
        assert exc.value.conflicts == [
            "Delta: lineage_clade AY.1/G: negative count -2",
            "Alpha: status_clade Fallecido/GRY: negative count -1",
            "Alpha: state_clade Puebla/GRY: negative count -1",
            "Alpha: state_sex Puebla/male: negative count -1",
            "Alpha: state_vaccine Puebla/Pfizer: negative count -1",
            "Alpha: state_age_sex Puebla/60+/female: negative count -1",
        ]
        assert not out.exists()


class TestGenomicGeneration:
    def test_marginals_come_back_exactly(self):
        spec = GenomicMarginalSpec(blocks={"Delta": GenomicBlockSpec(
            lineage_clade={("AY.20", "GK"): 6, ("B.1.617.2", "G"): 2},
            status_clade={("Fallecido", "GK"): 2, ("Ambulatorio", "GK"): 4,
                          ("Liberado", "G"): 2},
            state_clade={("Puebla", "GK"): 3, ("Veracruz", "GK"): 1},
            state_sex={("Puebla", F): 2, ("Puebla", M): 1, ("Veracruz", M): 1},
            state_vaccine={("Puebla", "Pfizer"): 2},
        )}, seed=5)
        samples = list(ingest_gisaid(generate_genomic_fixture(spec)).records())
        assert len(samples) == 8
        lineages = {}
        for s in samples:
            key = (s.pango_lineage, s.gisaid_clade)
            lineages[key] = lineages.get(key, 0) + 1
        assert lineages == {("AY.20", "GK"): 6, ("B.1.617.2", "G"): 2}
        statuses = [s.patient_status for s in samples]
        assert statuses.count("Fallecido") == 2
        assert statuses.count("Ambulatorio") == 4
        assert statuses.count("Liberado") == 2
        puebla = [s for s in samples if s.state == "Puebla"]
        assert len(puebla) == 3
        assert sum(1 for s in puebla if s.sex is F) == 2
        assert sum(1 for s in puebla if s.vaccine == "Pfizer") == 2
        assert sum(1 for s in samples if s.state == "Veracruz") == 1

    def test_filler_states_never_collide_with_named_ones(self):
        spec = GenomicMarginalSpec(blocks={"Delta": GenomicBlockSpec(
            lineage_clade={("AY.20", "GK"): 50},
            state_clade={("Yucatan", "GK"): 5},
        )}, seed=2)
        samples = list(ingest_gisaid(generate_genomic_fixture(spec)).records())
        assert sum(1 for s in samples if s.state == "Yucatan") == 5

    def test_accessions_are_unique(self):
        spec = one_block(lineage_clade={("AY.20", "GK"): 40})
        samples = list(ingest_gisaid(generate_genomic_fixture(spec)).records())
        accessions = [s.accession for s in samples]
        assert len(set(accessions)) == 40
        assert all(a.startswith("EPI_ISL_") for a in accessions)

    def test_seed_determinism(self):
        spec = one_block(lineage_clade={("AY.20", "GK"): 30})
        assert generate_genomic_fixture(spec) == generate_genomic_fixture(spec)
        other = GenomicMarginalSpec(blocks=spec.blocks, seed=99)
        assert generate_genomic_fixture(other) != generate_genomic_fixture(spec)

    def test_age_bins_respected(self):
        spec = GenomicMarginalSpec(blocks={"Delta": GenomicBlockSpec(
            lineage_clade={("AY.20", "GK"): 4},
            state_clade={("Puebla", "GK"): 4},
            state_age_sex={("Puebla", AgeGroup.Y0_20, F): 1,
                           ("Puebla", AgeGroup.Y60_PLUS, M): 2,
                           ("Puebla", AgeGroup.UNKNOWN, F): 1},
        )}, seed=8)
        samples = list(ingest_gisaid(generate_genomic_fixture(spec)).records())
        young = [s for s in samples if s.age_years is not None and s.age_years <= 20]
        old = [s for s in samples if s.age_years is not None and s.age_years >= 60]
        unknown = [s for s in samples if s.age_years is None]
        assert (len(young), len(old), len(unknown)) == (1, 2, 1)
        assert all(s.sex is M for s in old)

    def test_each_age_span_draws_only_its_own_group(self):
        assert list(_AGE_SPANS) == list(AgeGroup)
        drawn = []
        for group, span in _AGE_SPANS.items():
            if span is None:
                assert group is AgeGroup.UNKNOWN
                continue
            low, n = span  # int(random()*n)+low
            assert {age_group(age) for age in range(low, low + n)} == {group}
            drawn.extend(range(low, low + n))
        # Together the spans draw every age that a sample of any group may have.
        assert drawn == list(range(_ANY_AGE[0], sum(_ANY_AGE)))


class TestDispatchAndPresets:
    def test_generate_fixture_rejects_other_types(self):
        with pytest.raises(TypeError):
            generate_fixture({"rows": 10})

    def test_list_presets_is_sorted_and_complete(self):
        names = list_presets()
        assert names == sorted(names)
        for name in ("annex-epi", "annex-gisaid", "annex-delta", "smoke",
                     "table1", "table8", "table13"):
            assert name in names

    def test_table_aliases_resolve(self):
        assert load_preset("table1") == load_preset("annex-epi")
        assert isinstance(load_preset("table1"), EpiMarginalSpec)
        assert isinstance(load_preset("table8"), GenomicMarginalSpec)
        delta = load_preset("table9")
        assert isinstance(delta, GenomicMarginalSpec)
        assert set(delta.blocks) == {"Delta"}

    def test_lookup_is_case_and_space_insensitive(self):
        assert load_preset(" TABLE9 ") == load_preset("table9")

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset) as exc:
            load_preset("table99")
        assert "smoke" in str(exc.value)

    def test_seed_override(self):
        assert load_preset("annex-epi", seed=9).seed == 9
        assert load_preset("annex-epi").seed != 9
        assert load_preset("smoke", rows=40, seed=5).seed == 5

    def test_smoke_rows_param(self):
        spec = load_preset("smoke", rows=500)
        assert sum(spec.classification_sex.values()) == 500

    @pytest.mark.parametrize("name", ["annex-epi", "annex-gisaid", "annex-delta", "Table8", " table1 "])
    def test_rows_applies_only_to_smoke(self, name):
        with pytest.raises(ValueError, match="^rows applies only to the smoke preset$"):
            load_preset(name, rows=10)
        with pytest.raises(ValueError, match="^rows applies only to the smoke preset$"):
            load_preset(name, rows=58739, seed=1)

    def test_annex_preset_shapes(self):
        epi = load_preset("annex-epi")
        assert sum(epi.classification_sex.values()) == 58739
        gisaid = load_preset("annex-gisaid")
        total = sum(
            sum(block.lineage_clade.values()) for block in gisaid.blocks.values()
        )
        assert total == 5495
        delta = load_preset("annex-delta")
        assert sum(delta.blocks["Delta"].lineage_clade.values()) == 2814


class TestFromDict:
    def test_epi_from_dict(self):
        spec = EpiMarginalSpec.from_dict({
            "classification_sex": {"3": {"female": 5, "male": 4}},
            "treatment_sex": {"ambulatory": {"female": 3},
                              "hospitalized": {"female": 2}},
            "state_treatment": {"21": {"ambulatory": 3, "hospitalized": 2}},
            "intubation_sex": {"yes": {"female": 1},
                               "no": {"female": 1},
                               "not_applicable": {"female": 3}},
            "seed": 42,
        })
        assert spec.classification_sex == {(3, F): 5, (3, M): 4}
        assert spec.treatment_sex == {(F, AMB): 3, (F, HOSP): 2}
        assert spec.state_treatment == {21: (3, 2)}
        assert spec.intubation_sex[(CodedFlag.YES, F)] == 1
        assert spec.seed == 42

    def test_genomic_from_dict_age_bins(self):
        spec = GenomicMarginalSpec.from_dict({
            "blocks": {
                "Delta": {
                    "lineage_clade": {"AY.20": {"GK": 3}},
                    "state_clade": {"Puebla": {"GK": 3}},
                    "state_age_sex": {"Puebla": {"female": [1, 0, 0, 1, 1]}},
                },
            },
            "seed": 7,
        })
        block = spec.blocks["Delta"]
        assert block.lineage_clade == {("AY.20", "GK"): 3}
        assert block.state_age_sex == {
            ("Puebla", AgeGroup.Y0_20, F): 1,
            ("Puebla", AgeGroup.Y21_40, F): 0,
            ("Puebla", AgeGroup.Y41_59, F): 0,
            ("Puebla", AgeGroup.Y60_PLUS, F): 1,
            ("Puebla", AgeGroup.UNKNOWN, F): 1,
        }
        assert spec.seed == 7

    def test_too_many_age_counts_name_the_state_and_sex(self):
        raw = {"blocks": {"Delta": {
            "lineage_clade": {"AY.20": {"GK": 6}},
            "state_clade": {"Puebla": {"GK": 6}},
            "state_age_sex": {"Puebla": {"female": [1, 1, 1, 1, 1, 1]}},
        }}}
        with pytest.raises(ValueError, match=r"^state_age_sex Puebla/female: 6 counts for 5 age bins$"):
            GenomicMarginalSpec.from_dict(raw)

    def test_nested_tables_keep_the_file_order(self):
        """Outer keys first, inner keys within each: plans follow this order."""
        block = GenomicBlockSpec.from_dict({
            "lineage_clade": {"B.1": {"GR": 1, "G": 2}, "AY.20": {"GK": 3}},
            "state_clade": {"Sonora": {"GK": 1, "G": 1}, "Jalisco": {"GK": 2}},
            "state_sex": {"Sonora": {"male": 1, "female": 1}},
        })
        assert list(block.lineage_clade) == [("B.1", "GR"), ("B.1", "G"), ("AY.20", "GK")]
        assert list(block.state_clade) == [("Sonora", "GK"), ("Sonora", "G"), ("Jalisco", "GK")]
        assert list(block.state_sex) == [("Sonora", M), ("Sonora", F)]


def _preset_format_examples() -> list[dict]:
    """The JSON blocks under "Preset file format" in docs/tables.md."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "tables.md").read_text("utf-8")
    section = text.split("\n## Preset file format\n", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block.split("\n```", 1)[0]) for block in section.split("```json\n")[1:]]


def test_the_preset_format_examples_generate():
    examples = _preset_format_examples()
    assert [raw.get("kind") for raw in examples] == [None, "gisaid"]
    for raw in examples:
        # The dispatch load_preset makes on a preset file's kind.
        if raw.get("kind") == "gisaid":
            spec = GenomicMarginalSpec.from_dict(raw)
            rows = sum(n for block in spec.blocks.values() for n in block.lineage_clade.values())
        else:
            spec = EpiMarginalSpec.from_dict(raw)
            rows = sum(spec.classification_sex.values())
        assert generate_fixture(spec).count(b"\n") == rows + 1
