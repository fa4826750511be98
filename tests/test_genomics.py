import csv
import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from episurv.genomics import (
    DEFAULT_CATALOG,
    EmptyPattern,
    MalformedSegment,
    StatusBucket,
    VariantCatalog,
    VariantCategory,
    bucket_status,
    clade_crosstab,
    classify_sample,
    fold_text,
    full_crosstab,
    load_catalog,
    matches,
    parse_pattern,
    state_summary,
    status_crosstab,
    variant_shares,
)
from episurv.ingest import MissingRequiredColumn, SampleRecord, ingest_gisaid
from episurv.metrics import AgeGroup
from episurv.schema import Sex
from test_ingest import gisaid_bytes, grow


def sample(lineage="AY.20", clade="GK", state="Oaxaca", status="Ambulatorio",
           sex=Sex.FEMALE, age=40, vaccine=None) -> SampleRecord:
    return SampleRecord(
        accession="EPI_ISL_1",
        collection_date=None,
        state=state,
        pango_lineage=lineage,
        gisaid_clade=clade,
        patient_status=status,
        age_years=age,
        sex=sex,
        vaccine=vaccine,
    )


class TestPatternParsing:
    def test_exact_pattern(self):
        p = parse_pattern("B.1.1.7")
        assert p.alternatives == ((("B", "1", "1", "7"), False),)

    def test_descendants_suffix(self):
        p = parse_pattern("AY.x")
        assert p.alternatives == ((("AY",), True),)
        # uppercase X works too
        assert parse_pattern("Q.X").alternatives == ((("Q",), True),)

    def test_alternatives_split_on_plus(self):
        p = parse_pattern("B.1.617.2+AY.x")
        assert len(p.alternatives) == 2
        assert p.alternatives[0] == (("B", "1", "617", "2"), False)
        assert p.alternatives[1] == (("AY",), True)

    def test_whitespace_and_empty_parts_tolerated(self):
        p = parse_pattern(" B.1.621 + + B.1.621.1 ")
        assert len(p.alternatives) == 2

    @pytest.mark.parametrize("bad", ["B..1", "1.2", "AY.", "B-1", "AY.2a"])
    def test_malformed_segments(self, bad):
        with pytest.raises(MalformedSegment):
            parse_pattern(bad)

    def test_empty_pattern(self):
        with pytest.raises(EmptyPattern):
            parse_pattern(" + ")
        with pytest.raises(EmptyPattern):
            parse_pattern("")


class TestMatching:
    def test_exact_match_only_without_wildcard(self):
        p = parse_pattern("B.1.617.2")
        assert matches(p, "B.1.617.2")
        assert not matches(p, "B.1.617")
        assert not matches(p, "B.1.617.2.1")

    def test_descendants_are_segment_wise(self):
        p = parse_pattern("AY.2.x")
        assert matches(p, "AY.2")        # the root itself
        assert matches(p, "AY.2.5")      # a true descendant
        assert not matches(p, "AY.20")   # 20 is not the segment 2
        assert not matches(p, "AY.25.1")

    def test_case_insensitive(self):
        p = parse_pattern("ay.x")
        assert matches(p, "AY.20")
        assert matches(parse_pattern("B.1.1.7"), "b.1.1.7")

    @given(st.sampled_from(["AY.20", "B.1.617.2", "P.1.10.2", "Q.3", "C.37"]),
           st.randoms(use_true_random=False))
    def test_random_case_flips_do_not_change_result(self, lineage, rnd):
        flipped = "".join(
            ch.lower() if rnd.random() < 0.5 else ch.upper() for ch in lineage
        )
        for v in DEFAULT_CATALOG.variants:
            assert matches(v.pango, lineage) == matches(v.pango, flipped)


class TestDefaultCatalog:
    def test_order_and_categories(self):
        labels = [v.who_label for v in DEFAULT_CATALOG.variants]
        assert labels == ["Alpha", "Beta", "Gamma", "Delta", "Eta",
                          "Iota", "Kappa", "Lambda", "Mu"]
        cats = {v.who_label: v.category for v in DEFAULT_CATALOG.variants}
        assert cats["Alpha"] is VariantCategory.VOC
        assert cats["Delta"] is VariantCategory.VOC
        assert cats["Eta"] is VariantCategory.VOI
        assert cats["Mu"] is VariantCategory.VOI

    @pytest.mark.parametrize("lineage,label", [
        ("B.1.1.7", "Alpha"),
        ("Q.1", "Alpha"),
        ("Q.3", "Alpha"),
        ("B.1.351", "Beta"),
        ("P.1", "Gamma"),
        ("P.1.10.2", "Gamma"),
        ("B.1.617.2", "Delta"),
        ("AY.20", "Delta"),
        ("AY.10", "Delta"),
        ("B.1.525", "Eta"),
        ("B.1.526", "Iota"),
        ("B.1.617.1", "Kappa"),
        ("C.37", "Lambda"),
        ("B.1.621", "Mu"),
        ("B.1.621.1", "Mu"),
    ])
    def test_classification(self, lineage, label):
        assert DEFAULT_CATALOG.classify(lineage) == label

    @pytest.mark.parametrize("lineage", ["B.1.1.529", "XBB", "B.1", "BA.1", "P.10"])
    def test_unlisted_lineages_are_none(self, lineage):
        assert DEFAULT_CATALOG.classify(lineage) is None

    def test_wildcard_covers_its_own_root(self):
        # "AY.x" includes the bare AY lineage, not just dotted descendants
        assert DEFAULT_CATALOG.classify("AY") == "Delta"
        assert DEFAULT_CATALOG.classify("Q") == "Alpha"

    def test_kappa_not_swallowed_by_delta(self):
        # B.1.617.1 and B.1.617.2 share a stem; exact segments must separate
        assert DEFAULT_CATALOG.classify("B.1.617.1") == "Kappa"
        assert DEFAULT_CATALOG.classify("B.1.617") is None

    def test_get_accepts_the_jota_alias(self):
        assert DEFAULT_CATALOG.get("Jota").who_label == "Iota"
        assert DEFAULT_CATALOG.get("iota").who_label == "Iota"
        assert DEFAULT_CATALOG.get("Sigma") is None

    def test_classify_sample_uses_lineage_not_clade(self):
        s = sample(lineage="B.1.1.7", clade="GK")  # clade says Delta-ish
        assert classify_sample(s) == "Alpha"


class TestLoadCatalog:
    def test_load_tsv_and_classify(self):
        text = (
            "who_label\tcategory\tclades\tpango_pattern\n"
            "Alpha\tVOC\tGRY\tB.1.1.7+Q.x\n"
            "Jota\tVOI\tGH\tB.1.526\n"
        )
        catalog = load_catalog(text.encode())
        assert [v.who_label for v in catalog.variants] == ["Alpha", "Iota"]
        assert catalog.classify("Q.2") == "Alpha"
        assert catalog.classify("B.1.526") == "Iota"

    def test_load_csv_with_reordered_header(self):
        text = (
            "pango_pattern,who_label,clades,category\n"
            "C.37,Lambda,GR,voi\n"
        )
        catalog = load_catalog(text.encode())
        assert catalog.variants[0].category is VariantCategory.VOI
        assert catalog.classify("C.37") == "Lambda"

    def test_missing_columns(self):
        with pytest.raises(MissingRequiredColumn):
            load_catalog(b"who_label,category\nAlpha,VOC\n")

    def test_header_is_found_as_the_readers_find_theirs(self):
        text = "\ufeffWho_Label,CATEGORY,clades ,pango_pattern\nAlpha,VOC,GRY,B.1.1.7\n"
        catalog = load_catalog(text.encode("utf-8"))
        assert [v.who_label for v in catalog.variants] == ["Alpha"]
        with pytest.raises(MissingRequiredColumn, match=r"missing required column\(s\): clades, pango_pattern$"):
            load_catalog(b"\xef\xbb\xbfwho_label,category\nAlpha,VOC\n")

    @pytest.mark.parametrize("row", ["Alpha,VOC,GRY", "Alpha,VOC", "Alpha"])
    def test_a_short_row_names_its_line(self, row):
        text = f"who_label,category,clades,pango_pattern\nBeta,VOC,GH,B.1.351\n\n{row}\n"
        with pytest.raises(ValueError, match=r"^catalog line 4: \d field\(s\), its columns need 4$"):
            load_catalog(text.encode())

    def test_a_row_may_omit_columns_after_the_required_ones(self):
        text = "who_label,category,clades,pango_pattern,note\nAlpha,VOC,GRY,B.1.1.7\n"
        assert load_catalog(text.encode()).classify("B.1.1.7") == "Alpha"

    @pytest.mark.parametrize("row, error", [
        ("Alpha,VOX,GRY,B.1.1.7", ValueError),
        ("Alpha,VOC,GRY,", EmptyPattern),
        ("Alpha,VOC,GRY,B..7", MalformedSegment),
        ("Alpha,VOC,GRY," + "B" * (csv.field_size_limit() + 1), ValueError),
    ], ids=["unknown category", "empty pattern", "bad pattern", "oversized field"])
    def test_a_bad_row_names_its_line_and_keeps_its_class(self, row, error):
        text = f"who_label,category,clades,pango_pattern\nBeta,VOC,GH,B.1.351\n{row}\n"
        with pytest.raises(error, match=r"^catalog line 3: ") as caught:
            load_catalog(text.encode())
        assert type(caught.value) is error

    def test_bad_pattern_propagates(self):
        text = "who_label,category,clades,pango_pattern\nAlpha,VOC,GRY,B..7\n"
        with pytest.raises(MalformedSegment):
            load_catalog(text.encode())


class TestFoldText:
    def test_accents_case_punctuation(self):
        assert fold_text("Atención ambulatoria en vivo") == "atencion ambulatoria en vivo"
        assert fold_text("SINTOMÁTICO-Ambulatorio") == "sintomatico ambulatorio"
        assert fold_text("  Fallecido.  ") == "fallecido"
        assert fold_text("Asintomático,y ambulatorio") == "asintomatico y ambulatorio"

    @given(st.text(max_size=40))
    def test_idempotent(self, text):
        once = fold_text(text)
        assert fold_text(once) == once

    @given(st.text(st.one_of(st.characters(), st.sampled_from("áÉñÜç\u0301\u0327ßﬁ½²_-.,;/ \t\n")), max_size=40))
    def test_equals_the_character_loop(self, text):
        assert fold_text(text) == _fold_text_by_loop(text)

    def test_the_word_class_without_underscore_is_exactly_isalnum(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"[^\W_]", every) == list(filter(str.isalnum, every))


def _fold_text_by_loop(text: str) -> str:
    """fold_text as a loop over the folded characters: the reference its
    regular expression must agree with."""
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    out = []
    last_space = True
    for ch in stripped.casefold():
        if ch.isalnum():
            out.append(ch)
            last_space = False
        elif not last_space:
            out.append(" ")
            last_space = True
    return "".join(out).strip()


class TestBucketStatus:
    @pytest.mark.parametrize("status,bucket", [
        ("Liberado", StatusBucket.MILD),
        ("Vivir", StatusBucket.MILD),
        ("Atención ambulatoria en vivo", StatusBucket.MILD),
        ("Ambulatorio", StatusBucket.MODERATE),
        ("Moderar", StatusBucket.MODERATE),
        ("Asintomático-Ambulatorio", StatusBucket.MODERATE),
        ("Ambulatorio asintomático", StatusBucket.MODERATE),
        ("Asintomático y ambulatorio", StatusBucket.MODERATE),
        ("Ambulatorio sintomático", StatusBucket.MODERATE),
        ("Sintomático", StatusBucket.MODERATE),
        ("Sintomático-Ambulatorio", StatusBucket.MODERATE),
        ("Sintomático y ambulatorio", StatusBucket.MODERATE),
        ("Hospitalizado", StatusBucket.SEVERE),
        ("Fallecido", StatusBucket.SEVERE),
        ("Fatal", StatusBucket.SEVERE),
        ("Released", StatusBucket.MILD),
        ("Hospitalized", StatusBucket.SEVERE),
        ("", StatusBucket.UNKNOWN),
        ("unknown", StatusBucket.UNKNOWN),
        ("Recuperado en UCI", StatusBucket.UNKNOWN),
    ])
    def test_table(self, status, bucket):
        assert bucket_status(status) is bucket

    def test_exact_phrase_not_substring(self):
        # containing a known phrase is not enough; the whole phrase must match
        assert bucket_status("Liberado ayer") is StatusBucket.UNKNOWN


class TestAggregations:
    def test_variant_shares_excludes_unclassified_from_denominator(self):
        samples = [sample(lineage="AY.20"), sample(lineage="B.1.1.7"),
                   sample(lineage="XBB"), sample(lineage="AY.20")]
        shares = variant_shares(samples)
        assert shares.classified == 3
        assert shares.unclassified == 1
        assert shares.shares["Delta"] == (2, pytest.approx(200 / 3))
        assert shares.shares["Alpha"] == (1, pytest.approx(100 / 3))
        assert list(shares.shares) == ["Alpha", "Delta"]  # catalog order

    def test_clade_crosstab_filters_by_label(self):
        samples = [sample(lineage="AY.20", clade="GK"),
                   sample(lineage="AY.20", clade="G"),
                   sample(lineage="B.1.617.2", clade="GK"),
                   sample(lineage="B.1.1.7", clade="GRY")]
        tab = clade_crosstab(samples, who_label="Delta")
        assert tab == {("AY.20", "GK"): 1, ("AY.20", "G"): 1, ("B.1.617.2", "GK"): 1}

    def test_status_crosstab_keeps_status_verbatim(self):
        samples = [sample(status="Sintomático-Ambulatorio"),
                   sample(status="Sintomático-Ambulatorio"),
                   sample(status="Fatal")]
        tab = status_crosstab(samples, who_label="Delta")
        assert tab[("Sintomático-Ambulatorio", "GK")] == 2
        assert tab[("Fatal", "GK")] == 1

    def test_full_crosstab_catalog_order(self):
        samples = [sample(lineage="B.1.621", clade="GH"),
                   sample(lineage="B.1.1.7", clade="GRY")]
        tabs = full_crosstab(samples)
        assert list(tabs) == ["Alpha", "Mu"]

    def test_state_summary_folds_names_and_keeps_request_order(self):
        samples = [
            sample(state="PUEBLA", sex=Sex.FEMALE, age=30),
            sample(state="Puebla ", sex=Sex.MALE, age=70, vaccine="Pfizer"),
            sample(state="Yucatán"),  # not requested
            sample(state="Oaxaca", lineage="B.1.1.7"),  # not Delta
        ]
        summary = state_summary(samples, who_label="Delta",
                                states=("Puebla", "Oaxaca"))
        assert list(summary.per_state) == ["Puebla", "Oaxaca"]
        puebla = summary.per_state["Puebla"]
        assert puebla.total == 2
        assert puebla.sexes == {Sex.FEMALE: 1, Sex.MALE: 1}
        assert puebla.vaccines == {"Pfizer": 1}
        assert puebla.age_sex == {(AgeGroup.Y21_40, Sex.FEMALE): 1,
                                  (AgeGroup.Y60_PLUS, Sex.MALE): 1}
        assert summary.per_state["Oaxaca"].total == 0
        assert summary.totals.total == 2

    def test_state_summary_label_alias(self):
        samples = [sample(lineage="B.1.526", clade="GH", state="Puebla")]
        summary = state_summary(samples, who_label="Jota", states=("Puebla",))
        assert summary.who_label == "Iota"
        assert summary.totals.total == 1


@dataclass(frozen=True)
class CountingCatalog(VariantCatalog):
    """The default catalog, counting classify calls per lineage."""

    calls: Counter = field(default_factory=Counter, compare=False)

    def classify(self, lineage):
        self.calls[lineage] += 1
        return super().classify(lineage)


_EVERY_TABLE = pytest.mark.parametrize("table", [
    variant_shares,
    full_crosstab,
    lambda samples, catalog: clade_crosstab(samples, catalog, "Delta"),
    lambda samples, catalog: status_crosstab(samples, catalog, "Delta"),
    lambda samples, catalog: state_summary(samples, catalog, "Delta", ("Oaxaca",)),
], ids=["variant_shares", "full_crosstab", "clade_crosstab", "status_crosstab",
        "state_summary"])


@_EVERY_TABLE
def test_each_distinct_lineage_classified_once_per_call(table):
    samples = [sample(lineage=lin) for lin in ("AY.20", "B.1.1.7", "XBB") for _ in range(4)]
    catalog = CountingCatalog(DEFAULT_CATALOG.variants)
    table(samples, catalog)
    assert catalog.calls == {"AY.20": 1, "B.1.1.7": 1, "XBB": 1}
    table(samples, catalog)  # the memo lives for one call only
    assert catalog.calls == {"AY.20": 2, "B.1.1.7": 2, "XBB": 2}


@_EVERY_TABLE
def test_a_stream_classifies_each_distinct_lineage_once(table):
    data = gisaid_bytes(*(grow(pango_lineage=lin) for lin in ("AY.20", "B.1.1.7", "XBB") for _ in range(4)))
    catalog = CountingCatalog(DEFAULT_CATALOG.variants)
    table(ingest_gisaid(data), catalog)
    assert catalog.calls == {"AY.20": 1, "B.1.1.7": 1, "XBB": 1}


def test_each_distinct_state_and_status_folded_once_per_call(monkeypatch):
    from episurv import genomics

    calls = Counter()

    def counting_fold(text):
        calls[text] += 1
        return fold_text(text)

    monkeypatch.setattr(genomics, "fold_text", counting_fold)
    samples = [sample(state=state, status=status)
               for state in ("Oaxaca", "Puebla", "Sonora")
               for status in ("Ambulatorio", "Fallecido") for _ in range(3)]
    summary = state_summary(samples, states=("Oaxaca", "Puebla"))
    assert summary.totals.total == 12
    assert calls == {"Oaxaca": 1, "Puebla": 1, "Sonora": 1}
    state_summary(samples, states=("Oaxaca", "Puebla"))  # the memo lives for one call only
    assert calls == {"Oaxaca": 2, "Puebla": 2, "Sonora": 2}
