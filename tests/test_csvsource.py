"""CSV parsing, and how extraction turns cells into terms."""

import pytest

from rmlprune.algebra import (
    BuildLiteral,
    ConstantTerm,
    DataObject,
    ExtractSpec,
    Template,
    TriplesMapExpr,
    materialize_trmap,
)
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.errors import CsvError
from rmlprune.rdf import XSD_STRING, Iri, Literal


def extract_column(text: str, column: str) -> set:
    """The terms a reference to *column* gives, one per distinct cell."""
    sigma = {"t.csv": DataObject(kind=CSV_KIND, payload=parse_csv(text))}
    tm = TriplesMapExpr(
        subject_expr=ConstantTerm(Iri("http://e.com/s")),
        predicate_expr=ConstantTerm(Iri("http://e.com/v")),
        object_expr=BuildLiteral(Template(("", "v", "")), XSD_STRING),
        extract=ExtractSpec("t.csv", {"v": column}),
    )
    return {t.o for t in materialize_trmap(tm, sigma)}


def test_parse_simple():
    table = parse_csv("a,b\n1,2\n3,4\n")
    assert table.header == ("a", "b")
    assert table.rows == (("1", "2"), ("3", "4"))


def test_parse_bytes_with_bom():
    table = parse_csv("﻿a,b\n1,2\n".encode("utf-8"))
    assert table.header == ("a", "b")


def test_parse_quoted_fields():
    table = parse_csv('a,b\n"x,y","line\nbreak"\n"he said ""hi""",z\n')
    assert table.rows == (("x,y", "line\nbreak"), ('he said "hi"', "z"))


def test_parse_header_only():
    table = parse_csv("a,b\n")
    assert table.rows == ()


def test_parse_missing_header():
    with pytest.raises(CsvError, match="header"):
        parse_csv("")


def test_parse_duplicate_header():
    with pytest.raises(CsvError, match="[Dd]uplicate"):
        parse_csv("a,a\n1,2\n")


def test_parse_empty_header_name():
    with pytest.raises(CsvError):
        parse_csv("a,\n1,2\n")


def test_parse_ragged_row_reports_record_number():
    with pytest.raises(CsvError, match="row 3"):
        parse_csv("a,b\n1,2\n1\n")


def test_select_preserves_empty_cells():
    assert extract_column("a,b\n,y\n", "a") == {Literal("")}


def test_cast_always_builds_string_literals():
    assert extract_column("a\n42\n\"\"\n", "a") == {Literal("42", XSD_STRING), Literal("")}
