"""The variant catalog reader: a catalog file is read as the metadata is."""

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from episurv import ingest
from episurv.genomics import (
    MalformedSegment,
    VariantCategory,
    VariantDefinition,
    _canonical_label,
    load_catalog,
    parse_pattern,
)

HEADER = "who_label,category,clades,pango_pattern\n"
COLUMNS = ("who_label", "category", "clades", "pango_pattern")


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_a_cell_holding_a_line_break_of_splitlines_is_read_verbatim(char, quoted):
    cell = f'"Al{char}pha"' if quoted else f"Al{char}pha"
    catalog = load_catalog((HEADER + f"{cell},VOC,GRY,B.1.1.7\nBeta,VOC,GH,B.1.351\n").encode())
    assert [v.who_label for v in catalog.variants] == [f"Al{char}pha", "Beta"]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_quoted_cell_spanning_lines_keeps_its_newline(newline):
    text = f'who_label,category,clades,pango_pattern{newline}"Al{newline}pha",VOC,"GRY;{newline}GK",B.1.1.7{newline}'
    [alpha] = load_catalog(text.encode()).variants
    assert alpha.who_label == f"Al{newline}pha"
    assert alpha.gisaid_clades == {"GRY", "GK"}


def test_an_error_names_the_line_its_row_starts_on():
    text = HEADER + 'Beta,VOC,GH,B.1.351\n"Al\npha",VOC,"GRY;\nGK",B..7\n'
    with pytest.raises(MalformedSegment, match=r"^catalog line 3: bad pattern alternative 'B\.\.7'"):
        load_catalog(text.encode())


def test_a_line_that_is_not_utf8_is_read_as_latin1():
    data = HEADER.encode() + b"Alph\xe9,VOC,GRY,B.1.1.7\nBeta,VOC,GH,B.1.351\n"
    assert [v.who_label for v in load_catalog(data).variants] == ["Alph\xe9", "Beta"]


def test_carriage_return_line_ends_are_malformed_csv_on_line_1():
    data = HEADER.replace("\n", "\r").encode() + b"Alpha,VOC,GRY,B.1.1.7\r"
    with pytest.raises(ValueError, match=r"^catalog line 1: malformed CSV: ") as caught:
        load_catalog(data)
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("text", [HEADER + "Alpha,VOC,GRY,B..7\n", "who_label,category\n"],
                         ids=["bad row", "missing columns"])
def test_a_catalog_file_is_closed_on_error(text, tmp_path, monkeypatch):
    path = tmp_path / "catalog.csv"
    path.write_text(text)
    opened = []
    open_source = ingest._open_source
    monkeypatch.setattr(ingest, "_open_source", lambda source: opened.append(open_source(source)) or opened[-1])
    with pytest.raises(ValueError):
        load_catalog(path)
    [(raw, owns)] = opened
    assert owns and raw.closed


# --- a catalog loads to the variants csv.reader reads ----------------------------

CHARS = "ab ,\t;\"\n\r\x0b\x0c\x1c\x85\u2028\u2029\xe9"


def _expected(text: str, delimiter: str) -> tuple[VariantDefinition, ...]:
    """The variants of ``text`` as csv.reader splits it."""
    header, *rows = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    names = [cell.strip().lstrip("\ufeff").lower() for cell in header]
    idx = [names.index(column) for column in COLUMNS]
    variants = []
    for row in rows:
        if any(cell.strip() for cell in row):
            label, category, clades, pattern = (row[i].strip() for i in idx)
            variants.append(VariantDefinition(
                _canonical_label(label), VariantCategory(category.upper()),
                frozenset(c.strip() for c in clades.split(";") if c.strip()), parse_pattern(pattern)))
    return tuple(variants)


@st.composite
def catalogs(draw) -> tuple[str, str]:
    """A catalog's text and its delimiter."""
    delimiter = draw(st.sampled_from(",\t"))
    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def cell(text: str) -> str:
        if any(c in text for c in (delimiter, '"', "\n", "\r")) or draw(st.booleans()):
            return '"' + text.replace('"', '""') + '"'
        return text

    order = draw(st.permutations(COLUMNS))
    lines = [delimiter.join(order)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            lines.append("")  # a blank row
            continue
        values = {
            "who_label": draw(st.text(CHARS, min_size=1, max_size=8)),
            "category": draw(st.sampled_from(["VOC", "voi", " VOI "])),
            "clades": draw(st.text(CHARS, max_size=8)),
            "pango_pattern": draw(st.sampled_from(["B.1.1.7", "AY.x+B.1.617.2", " P.1 "])),
        }
        lines.append(delimiter.join(cell(values[column]) for column in order))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return ("\ufeff" if draw(st.booleans()) else "") + text, delimiter


@settings(max_examples=200)
@given(catalogs())
def test_a_catalog_loads_to_the_variants_csv_reader_reads(catalog):
    text, delimiter = catalog
    assert load_catalog(text.encode("utf-8")).variants == _expected(text, delimiter)
