"""The lexer shared by the Turtle and SPARQL parsers: both parsers must
read every term spelling alike."""

import pytest

from rmlprune._lexer import MAX_NESTING
from rmlprune.errors import SparqlError, TurtleError, UnsupportedSparqlError
from rmlprune.rdf import XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, Iri, Literal
from rmlprune.sparql import collect_triple_patterns, parse_query

from .helpers import read_turtle

EX = "http://ex.org/"


def turtle_object(spelling: str):
    doc = read_turtle(f"@prefix ex: <{EX}> .\nex:s ex:p {spelling} .\n")
    (triple,) = doc.triples
    return triple.o


def sparql_object(spelling: str):
    query = parse_query(f"PREFIX ex: <{EX}>\nSELECT * WHERE {{ ?s ex:p {spelling} }}")
    (pattern,) = collect_triple_patterns(query)
    return pattern.o


SPELLINGS = [
    # IRIREF, with UCHAR escapes
    ("<http://ex.org/a>", Iri(EX + "a")),
    ("<http://ex.org/\\u0041b>", Iri(EX + "Ab")),
    ("<http://ex.org/\\U0001F600>", Iri(EX + "\U0001F600")),
    # prefixed names, with PLX
    ("ex:", Iri(EX)),
    ("ex:a", Iri(EX + "a")),
    ("ex:a.b", Iri(EX + "a.b")),
    ("ex:a:b", Iri(EX + "a:b")),
    ("ex:a%20b", Iri(EX + "a%20b")),
    ("ex:a\\~b\\-c\\#d", Iri(EX + "a~b-c#d")),
    ("ex:a\\.", Iri(EX + "a.")),
    # the four quote forms, with ECHAR and UCHAR
    ('"x"', Literal("x")),
    ("'x'", Literal("x")),
    ('"""x"""', Literal("x")),
    ("'''x'''", Literal("x")),
    ('"a\\tb\\n\\"c\\\\"', Literal('a\tb\n"c\\')),
    ("'it\\'s'", Literal("it's")),
    ('"""two\nlines"""', Literal("two\nlines")),
    ("'''two\r\nlines'''", Literal("two\r\nlines")),
    ('"""say "hi" """', Literal('say "hi" ')),
    ('"""a""""', Literal('a"')),
    ("'''b''''", Literal("b'")),
    ('"\\u00e9\\U0001F600"', Literal("é\U0001F600")),
    ('"5"^^ex:int', Literal("5", EX + "int")),
    ('"5"^^<http://www.w3.org/2001/XMLSchema#integer>', Literal("5", XSD_INTEGER)),
    # numbers and booleans
    ("42", Literal("42", XSD_INTEGER)),
    ("+3", Literal("+3", XSD_INTEGER)),
    ("-7", Literal("-7", XSD_INTEGER)),
    ("3.14", Literal("3.14", XSD_DECIMAL)),
    ("-.5", Literal("-.5", XSD_DECIMAL)),
    ("1e10", Literal("1e10", XSD_DOUBLE)),
    ("1.5E-3", Literal("1.5E-3", XSD_DOUBLE)),
    (".5e2", Literal(".5e2", XSD_DOUBLE)),
    ("true", Literal("true", XSD_BOOLEAN)),
    ("false", Literal("false", XSD_BOOLEAN)),
]


@pytest.mark.parametrize("spelling,term", SPELLINGS, ids=[s for s, _ in SPELLINGS])
def test_both_parsers_read_a_term_alike(spelling, term):
    assert turtle_object(spelling) == term
    assert sparql_object(spelling) == term


# Names whose first character the grammar forbids: PN_PREFIX starts with a
# letter; PN_LOCAL and BLANK_NODE_LABEL do not start with '-' or '.'.  Each
# is a statement of both languages; SPARQL has no blank node labels in
# patterns at all.
MISSPELLINGS = [
    ("@prefix -a: <http://ex.org/> .", "PREFIX -a: <http://ex.org/>"),
    ("@prefix .a: <http://ex.org/> .", "PREFIX .a: <http://ex.org/>"),
    ("@prefix 1a: <http://ex.org/> .", "PREFIX 1a: <http://ex.org/>"),
    ("@prefix _a: <http://ex.org/> .", "PREFIX _a: <http://ex.org/>"),
    ("ex:s ex:p ex:-o .", "ex:s ex:p ex:-o"),
    ("ex:s ex:p ex:.o .", "ex:s ex:p ex:.o"),
    ("ex:s ex:p ex:..o .", "ex:s ex:p ex:..o"),
    ("ex:-s ex:p ex:o .", "ex:-s ex:p ex:o"),
    ("ex:s ex:-p ex:o .", "ex:s ex:-p ex:o"),
    ("ex:s ex:p _:-a .", "ex:s ex:p _:-a"),
    ("ex:s ex:p _:.a .", "ex:s ex:p _:.a"),
]


@pytest.mark.parametrize("turtle,sparql", MISSPELLINGS, ids=[t for t, _ in MISSPELLINGS])
def test_both_parsers_reject_a_name_that_starts_wrong(turtle, sparql):
    with pytest.raises(TurtleError, match="line 2"):
        read_turtle(f"@prefix ex: <{EX}> .\n{turtle}\n")
    if sparql.startswith("PREFIX"):
        sparql = f"{sparql} SELECT * WHERE {{ ?s ?p ?o }}"
    else:
        sparql = f"PREFIX ex: <{EX}> SELECT * WHERE {{ {sparql} }}"
    with pytest.raises(SparqlError, match="line 1"):
        parse_query(sparql)


# A stray '.', ',' or '}' where a term belongs: the error names the missing
# term and the character found, at that character, in both languages.
TURTLE_STRAYS = [
    ("ex:s ex:p .", "line 2, column 11: expected an object, found '.'"),
    ("ex:s ex:p , ex:o .", "line 2, column 11: expected an object, found ','"),
    ("ex:s ex:p ex:o ; , ex:q .", "line 2, column 18: expected a predicate, found ','"),
]
SPARQL_STRAYS = [
    ("{ ?s ?p ?o . . }", "line 1, column 29: expected a subject, found '.'"),
    ("{ ?s ?p . }", "line 1, column 24: expected an object, found '.'"),
    ("{ ?s ?p ?o , }", "line 1, column 29: expected an object, found '}'"),
]


@pytest.mark.parametrize("turtle,message", TURTLE_STRAYS, ids=[t for t, _ in TURTLE_STRAYS])
def test_turtle_stray_punctuation_names_the_missing_term(turtle, message):
    with pytest.raises(TurtleError) as info:
        read_turtle(f"@prefix ex: <{EX}> .\n{turtle}\n")
    assert str(info.value) == message


@pytest.mark.parametrize("group,message", SPARQL_STRAYS, ids=[g for g, _ in SPARQL_STRAYS])
def test_sparql_stray_punctuation_names_the_missing_term(group, message):
    with pytest.raises(SparqlError) as info:
        parse_query(f"SELECT * WHERE {group}")
    assert str(info.value) == message
    assert not isinstance(info.value, UnsupportedSparqlError)


def test_names_may_start_with_a_digit_or_an_escape():
    doc = read_turtle(f"@prefix ex: <{EX}> .\nex:1s ex:p ex:\\-o , ex:o.-p , _:1a , _:a-.b .\n")
    assert [t.o for t in doc.triples][:2] == [Iri(EX + "-o"), Iri(EX + "o.-p")]
    assert doc.triples[0].s == Iri(EX + "1s")
    assert len(set(t.o for t in doc.triples)) == 4


# ---------------------------------------------------------------------------
# regressions: the two parsers used to read these differently
# ---------------------------------------------------------------------------


def test_sparql_long_string_with_quote_before_the_closing_quotes():
    assert sparql_object('"""a""""') == Literal('a"')


def test_sparql_iriref_with_uchar_escape():
    query = parse_query("SELECT * WHERE { <http://ex.org/\\u0041> ?p ?o }")
    (pattern,) = collect_triple_patterns(query)
    assert pattern.s == Iri(EX + "A")


def test_local_name_ending_in_escaped_dot():
    # a bare '.' right after the escaped one still ends the statement
    doc = read_turtle(f"@prefix ex: <{EX}> .\nex:s ex:p ex:a\\. .\nex:t ex:p ex:b\\..\n")
    assert [t.o for t in doc.triples] == [Iri(EX + "a."), Iri(EX + "b.")]
    query = parse_query(f"PREFIX ex: <{EX}>\nSELECT * WHERE {{ ?s ex:p ex:a\\. . ?s ?p ?o }}")
    assert Iri(EX + "a.") in {tp.o for tp in collect_triple_patterns(query)}


@pytest.mark.parametrize("escape", ["\\U00110000", "\\uD800", "\\uDFFF"])
def test_hex_escape_outside_unicode_is_a_positioned_error(escape):
    with pytest.raises(TurtleError, match="line 2, column 15"):
        read_turtle(f'@prefix ex: <{EX}> .\nex:s ex:p "x{escape}" .\n')
    with pytest.raises(TurtleError, match="line 1"):
        read_turtle(f"<http://ex.org/{escape}> <{EX}p> <{EX}o> .\n")
    with pytest.raises(SparqlError, match="line 1"):
        parse_query(f'SELECT * WHERE {{ ?s ?p "{escape}" }}')
    with pytest.raises(SparqlError, match="line 1"):
        parse_query(f"SELECT * WHERE {{ ?s ?p <http://ex.org/{escape}> }}")


@pytest.mark.parametrize("escape", ["\\u+041", "\\u 041", "\\u0_41", "\\u\u0966\u0966\u096a\u0967"])
def test_uchar_takes_exactly_its_hex_digits(escape):
    # int(digits, 16) alone reads each of these as "A"
    with pytest.raises(TurtleError, match="line 2, column 15"):
        read_turtle(f'@prefix ex: <{EX}> .\nex:s ex:p "x{escape}" .\n')
    with pytest.raises(TurtleError, match="line 1"):
        read_turtle(f"<http://ex.org/{escape}> <{EX}p> <{EX}o> .\n")
    with pytest.raises(SparqlError, match="line 1"):
        parse_query(f'SELECT * WHERE {{ ?s ?p "{escape}" }}')


@pytest.mark.parametrize("verb", ["?p", "a", f"<{EX}p>"])
def test_sparql_query_cut_off_after_the_verb_is_a_syntax_error(verb):
    with pytest.raises(SparqlError, match="expected an object") as info:
        parse_query(f"SELECT * WHERE {{ ?s {verb}")
    assert not isinstance(info.value, UnsupportedSparqlError)


# ---------------------------------------------------------------------------
# nesting: both parsers stop at one depth, with a position
# ---------------------------------------------------------------------------

NESTINGS = {
    "group": ("{", lambda n: "SELECT * WHERE " + "{ " * n + "?s ?p ?o" + " }" * n),
    "optional": (
        "{",
        lambda n: "SELECT * WHERE { " + "OPTIONAL { " * (n - 1) + "?s ?p ?o" + " }" * n,
    ),
    "bnode": ("[", lambda n: f"<{EX}s> <{EX}p> " + f"[ <{EX}p> " * n + "1" + " ]" * n + " ."),
    "collection": ("(", lambda n: f"<{EX}s> <{EX}p> " + "( " * n + "1" + " )" * n + " ."),
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_deeper_than_the_cap_is_a_positioned_error(kind):
    opener, build = NESTINGS[kind]
    parse, error = (parse_query, SparqlError) if opener == "{" else (read_turtle, TurtleError)
    parse(build(MAX_NESTING))
    for depth in (MAX_NESTING + 1, 3000):
        text = build(depth)
        # the opener one level too deep
        column = 1 + [i for i, ch in enumerate(text) if ch == opener][MAX_NESTING]
        with pytest.raises(error, match=f"line 1, column {column}: nesting deeper"):
            parse(text)


def test_pattern_walk_survives_a_long_filter_chain():
    # every FILTER wraps its group once more, so this tree is 3,000 deep
    query = parse_query("SELECT * WHERE { ?s ?p ?o " + "FILTER(?o) " * 3000 + "}")
    assert len(collect_triple_patterns(query)) == 1
