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


def test_parse_shares_equal_cells_of_a_table():
    table = parse_csv("a,b,c\nstop-1,route-9,stop-1\nroute-9,stop-1,other\n")
    assert table.rows == (("stop-1", "route-9", "stop-1"), ("route-9", "stop-1", "other"))
    (first, second) = table.rows
    assert first[0] is first[2] is second[1]
    assert first[1] is second[0]


def test_parse_bytes_with_bom():
    table = parse_csv("﻿a,b\n1,2\n".encode("utf-8"))
    assert table.header == ("a", "b")


def test_parse_quoted_fields():
    table = parse_csv('a,b\n"x,y","line\nbreak"\n"he said ""hi""",z\n')
    assert table.rows == (("x,y", "line\nbreak"), ('he said "hi"', "z"))


@pytest.mark.parametrize(
    "text, message",
    [
        ('a,b\n1,"2\n3,4\n', "unexpected end of data"),  # the open quote would take every later row
        ('a,b\n"1"x,2\n', "',' expected after '\"'"),  # would read as 1x
    ],
)
def test_parse_rejects_broken_quoting(text, message):
    with pytest.raises(CsvError) as info:
        parse_csv(text)
    assert str(info.value) == f"malformed CSV: {message}"


def test_parse_header_only():
    table = parse_csv("a,b\n")
    assert table.rows == ()


def test_parse_missing_header():
    with pytest.raises(CsvError, match="header"):
        parse_csv("")
    # a first row of one empty cell names no column
    with pytest.raises(CsvError, match="^missing header row$"):
        parse_csv('""\n1\n')


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
    # the table keeps the empty cell; a reference reads it as NULL and builds nothing
    assert list(parse_csv("a,b\n,y\n").rows) == [("", "y")]
    assert extract_column("a,b\n,y\n", "a") == set()
    assert extract_column("a,b\n,y\n", "b") == {Literal("y")}


def test_cast_always_builds_string_literals():
    # a quoted empty cell is empty too; a blank one is not
    assert extract_column("a\n42\n\"\"\n", "a") == {Literal("42", XSD_STRING)}
    assert extract_column("a\n\" \"\n", "a") == {Literal(" ", XSD_STRING)}
