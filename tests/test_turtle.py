"""Turtle parsing: directives, abbreviations, strings, collections, errors."""

import hashlib

import pytest

from rmlprune.errors import TurtleError
from rmlprune.ntriples import format_term
from rmlprune.rdf import XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, BlankNode, Iri, Literal, Triple
from rmlprune.turtle import TurtleParser

from .helpers import TripleCollector, read_turtle, wide_mapping_text

EX = "http://example.com/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


def triples(text: str, base=None) -> set[Triple]:
    return set(read_turtle(text, base=base).triples)


def test_simple_statement_with_prefixes():
    text = "@prefix ex: <http://example.com/> .\nex:s ex:p ex:o ."
    assert triples(text) == {Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"))}


def test_sparql_style_directives_case_insensitive():
    text = "PREFIX ex: <http://example.com/>\nprefix other: <http://o.example/>\nex:s ex:p other:o ."
    assert triples(text) == {
        Triple(Iri(EX + "s"), Iri(EX + "p"), Iri("http://o.example/o"))
    }


def test_base_resolution_is_verbatim_prefixing():
    text = "@base <http://example.com/dir/> .\n<s> <p> <o> ."
    assert triples(text) == {
        Triple(
            Iri("http://example.com/dir/s"),
            Iri("http://example.com/dir/p"),
            Iri("http://example.com/dir/o"),
        )
    }


def test_prefix_named_like_directives():
    # "base:" and "prefix:" are legitimate prefix names, "a:" too
    text = (
        "@prefix base: <http://example.com/> .\n"
        "@prefix a: <http://a.example/> .\n"
        "base:x a:y base:z ."
    )
    assert triples(text) == {
        Triple(Iri(EX + "x"), Iri("http://a.example/y"), Iri(EX + "z"))
    }
    for name in ("prefix", "PREFIX", "base", "BASE"):
        text = f"@prefix {name}: <http://e/> .\n{name}:s <http://e/p> {name}:o ."
        assert triples(text) == {Triple(Iri("http://e/s"), Iri("http://e/p"), Iri("http://e/o"))}


def test_sparql_prefix_directive_needs_a_space_before_its_name():
    # "PREFIX:<iri>" is a prefixed name of the prefix "PREFIX", not a directive
    with pytest.raises(TurtleError, match="undeclared prefix: 'PREFIX'"):
        read_turtle("PREFIX:<http://e/>\n")
    assert triples("PREFIX : <http://e/>\n:s :p :o .") == {
        Triple(Iri("http://e/s"), Iri("http://e/p"), Iri("http://e/o"))
    }


def test_a_keyword_is_rdf_type():
    text = "@prefix ex: <http://example.com/> .\nex:s a ex:T ."
    assert triples(text) == {Triple(Iri(EX + "s"), Iri(RDF + "type"), Iri(EX + "T"))}


def test_predicate_object_and_object_lists():
    text = (
        "@prefix ex: <http://example.com/> .\n"
        "ex:s ex:p ex:a , ex:b ; ex:q ex:c ."
    )
    assert triples(text) == {
        Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "a")),
        Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "b")),
        Triple(Iri(EX + "s"), Iri(EX + "q"), Iri(EX + "c")),
    }


def test_trailing_semicolon_is_tolerated():
    text = "@prefix ex: <http://example.com/> .\nex:s ex:p ex:o ; ."
    assert len(triples(text)) == 1


def test_string_forms():
    text = (
        '@prefix ex: <http://example.com/> .\n'
        'ex:s ex:p "double", \'single\', """long\n"quoted"""", \'\'\'other\'\'\' .'
    )
    objects = {t.o for t in triples(text)}
    assert objects == {
        Literal("double"),
        Literal("single"),
        Literal('long\n"quoted"'),
        Literal("other"),
    }


def test_string_escapes():
    text = '@prefix ex: <http://e/> .\nex:s ex:p "tab\\tnl\\nq\\"u\\u00e9" .'
    (t,) = triples(text)
    assert t.o == Literal('tab\tnl\nq"ué')


def test_typed_literal_and_numbers():
    text = (
        "@prefix ex: <http://example.com/> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        'ex:s ex:p "5"^^xsd:integer, 7, -3.14, 2e10, true, false .'
    )
    objects = {t.o for t in triples(text)}
    assert objects == {
        Literal("5", XSD_INTEGER),
        Literal("7", XSD_INTEGER),
        Literal("-3.14", XSD_DECIMAL),
        Literal("2e10", XSD_DOUBLE),
        Literal("true", XSD_BOOLEAN),
        Literal("false", XSD_BOOLEAN),
    }


def test_language_tags_are_rejected():
    text = '@prefix ex: <http://e/> .\nex:s ex:p "hi"@en .'
    with pytest.raises(TurtleError, match="[Ll]anguage"):
        read_turtle(text)


def test_labeled_bnodes_are_renamed_consistently():
    text = "@prefix ex: <http://e/> .\n_:x ex:p _:y . _:x ex:q _:x ."
    ts = triples(text)
    subjects = {t.s for t in ts}
    assert len(subjects) == 1
    (s,) = subjects
    assert isinstance(s, BlankNode)
    objects = {t.o for t in ts if t.p == Iri("http://e/q")}
    assert objects == {s}


def test_bnode_property_lists():
    text = "@prefix ex: <http://e/> .\nex:s ex:p [ ex:q ex:o ] ."
    ts = triples(text)
    assert len(ts) == 2
    inner = next(t for t in ts if t.p == Iri("http://e/q"))
    outer = next(t for t in ts if t.p == Iri("http://e/p"))
    assert outer.o == inner.s
    assert isinstance(inner.s, BlankNode)


def test_bnode_property_list_as_subject():
    text = "@prefix ex: <http://e/> .\n[ ex:p ex:o ] ex:q ex:r ."
    ts = triples(text)
    assert len(ts) == 2
    subjects = {t.s for t in ts}
    assert len(subjects) == 1


def test_collections():
    text = "@prefix ex: <http://e/> .\nex:s ex:p (ex:a ex:b) . ex:t ex:q () ."
    ts = triples(text)
    nil = Iri(RDF + "nil")
    assert Triple(Iri("http://e/t"), Iri("http://e/q"), nil) in ts
    firsts = [t for t in ts if t.p == Iri(RDF + "first")]
    rests = [t for t in ts if t.p == Iri(RDF + "rest")]
    assert {t.o for t in firsts} == {Iri("http://e/a"), Iri("http://e/b")}
    assert len(rests) == 2
    assert nil in {t.o for t in rests}


def test_local_name_escapes_and_dots():
    text = "@prefix ex: <http://example.com/> .\nex:a.b ex:p ex:c\\#d ."
    assert triples(text) == {
        Triple(Iri(EX + "a.b"), Iri(EX + "p"), Iri(EX + "c#d"))
    }


def test_comments_anywhere():
    text = (
        "# leading\n"
        "@prefix ex: <http://e/> . # after directive\n"
        "ex:s # subject\n  ex:p ex:o . # end\n"
    )
    assert len(triples(text)) == 1


def test_unknown_prefix_is_an_error():
    with pytest.raises(TurtleError, match="prefix"):
        read_turtle("nope:s <http://e/p> <http://e/o> .")


def test_error_carries_line_and_column():
    text = "@prefix ex: <http://e/> .\nex:s ex:p .\n"
    with pytest.raises(TurtleError) as exc:
        read_turtle(text)
    assert "line 2" in str(exc.value)


def test_missing_final_dot():
    with pytest.raises(TurtleError):
        read_turtle("<http://e/s> <http://e/p> <http://e/o>")


def test_iriref_rejects_forbidden_characters():
    with pytest.raises(TurtleError):
        read_turtle("<http://e/a b> <http://e/p> <http://e/o> .")


def test_relative_iri_without_base_fails():
    with pytest.raises(TurtleError):
        read_turtle("<s> <http://e/p> <http://e/o> .")


def test_explicit_base_parameter():
    ts = triples("<s> <p> <o> .", base="http://alt.example/")
    assert ts == {
        Triple(
            Iri("http://alt.example/s"),
            Iri("http://alt.example/p"),
            Iri("http://alt.example/o"),
        )
    }


def test_document_base_is_reported():
    assert TripleCollector("@base <http://doc.example/> .\n<s> <p> <o> .").parse() == "http://doc.example/"
    assert TripleCollector("<http://e/s> <http://e/p> <http://e/o> .").parse() is None


# ---------------------------------------------------------------------------
# the lexer's one-match token read and the per-document IRI table
# ---------------------------------------------------------------------------


def formatted(text: str) -> list[str]:
    return [" ".join(format_term(x) for x in (t.s, t.p, t.o)) for t in read_turtle(text).triples]


# sha256 of the wide mapping's triples, one formatted triple a line in
# document order, and their count
WIDE_TRIPLES = ("7237efe49213ab72ded250f09e91d03d214af263deb89fa83560c234e6bee042", 3080)


def test_wide_mapping_triples_are_pinned():
    lines = formatted(wide_mapping_text())
    text = "".join(line + " .\n" for line in lines)
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest(), len(lines)) == WIDE_TRIPLES


def test_equal_iris_of_a_document_are_one_object():
    doc = read_turtle(
        "@prefix ex: <http://example.com/> .\n"
        "ex:a ex:p ex:a .\n<http://example.com/a> ex:p [ ex:p <http://example.com/a> ] ."
    )
    a, p = doc.triples[0].s, doc.triples[0].p
    assert a == Iri(EX + "a")
    assert all(t.s is a or t.o is a for t in doc.triples)
    assert all(t.p is p for t in doc.triples)


def test_iris_after_a_base_or_prefix_change_use_the_new_value():
    text = (
        "@base <http://one/> .\n@prefix ex: <http://one/ns#> .\n"
        "<a> ex:p <b> .\n"
        "@base <http://two/> .\nPREFIX ex: <http://two/ns#>\n"
        "<a> ex:p <b> .\n"
    )
    assert formatted(text) == [
        "<http://one/a> <http://one/ns#p> <http://one/b>",
        "<http://two/a> <http://two/ns#p> <http://two/b>",
    ]


def test_a_failed_iri_is_not_remembered():
    parser = TurtleParser("")
    for _ in range(2):
        with pytest.raises(TurtleError, match="without a base"):
            parser.resolve("rel")
        with pytest.raises(TurtleError, match="not a valid IRI"):
            parser.resolve("http://e/a b")
    parser.base = "http://b/"
    assert parser.resolve("rel") == Iri("http://b/rel")


FALL_THROUGH_HEADER = "@prefix ex: <http://ex.org/> .\n@prefix true: <http://t/> .\n"
# Spellings the one-match token read leaves to the readers, each with what
# the parser gave for it before that read existed: the formatted triples,
# or the error with its line and column.  A 'true:' prefixed name is an
# IRI as a subject or verb, but the keyword true where an object stands.
FALL_THROUGH = [
    ('ex:s ex:p ex:a\\. .', ['<http://ex.org/s> <http://ex.org/p> <http://ex.org/a.>']),
    ('ex:s ex:p ex:a.', ['<http://ex.org/s> <http://ex.org/p> <http://ex.org/a>']),
    ('ex:s ex:p ex:a.b .', ['<http://ex.org/s> <http://ex.org/p> <http://ex.org/a.b>']),
    ('ex:s ex:p "x"^^ex:int .', ['<http://ex.org/s> <http://ex.org/p> "x"^^<http://ex.org/int>']),
    ('ex:s ex:p """a"b""" .', ['<http://ex.org/s> <http://ex.org/p> "a\\"b"']),
    ("ex:s ex:p 'x' .", ['<http://ex.org/s> <http://ex.org/p> "x"']),
    ('ex:s ex:p <http://x/\\u0041> .', ['<http://ex.org/s> <http://ex.org/p> <http://x/A>']),
    ('_:b1 ex:p _:b1 .', ['_:b1 <http://ex.org/p> _:b1']),
    (
        'ex:s ex:p ( ex:a ( ) ) .',
        [
            '_:b1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://ex.org/a>',
            '_:b1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> _:b2',
            '_:b2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil>',
            '_:b2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil>',
            '<http://ex.org/s> <http://ex.org/p> _:b1',
        ],
    ),
    (
        'ex:s a ex:C .',
        [
            '<http://ex.org/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/C>',
        ],
    ),
    (
        'ex:s ex:p 1, -2.5, .5e1, true .',
        [
            '<http://ex.org/s> <http://ex.org/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer>',
            '<http://ex.org/s> <http://ex.org/p> "-2.5"^^<http://www.w3.org/2001/XMLSchema#decimal>',
            '<http://ex.org/s> <http://ex.org/p> ".5e1"^^<http://www.w3.org/2001/XMLSchema#double>',
            '<http://ex.org/s> <http://ex.org/p> "true"^^<http://www.w3.org/2001/XMLSchema#boolean>',
        ],
    ),
    ('true:s true:p ex:o .', ['<http://t/s> <http://t/p> <http://ex.org/o>']),
    ('ex:s ex:p true:o .', ("line 3, column 15: expected '.'", 3, 15)),
    (
        'ex:s ex:p "x"@en .',
        ('line 3, column 14: language-tagged literals are not supported', 3, 14),
    ),
    ('ex:s ex:p nope:o .', ("line 3, column 17: undeclared prefix: 'nope'", 3, 17)),
]


@pytest.mark.parametrize("body,expected", FALL_THROUGH, ids=[b for b, _ in FALL_THROUGH])
def test_spellings_left_to_the_readers_parse_as_before(body, expected):
    try:
        got = formatted(FALL_THROUGH_HEADER + body)
    except TurtleError as exc:
        got = (str(exc), exc.line, exc.column)
    assert got == expected
