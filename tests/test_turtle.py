"""Turtle parsing: directives, abbreviations, strings, collections, errors."""

import hashlib
import sys
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rmlprune import _lexer
from rmlprune.errors import TurtleError
from rmlprune.ntriples import format_term
from rmlprune.rdf import XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, Term, Triple
from rmlprune.turtle import TurtleParser

from .helpers import (
    BlankNode,
    Iri,
    Literal,
    TripleCollector,
    iri_value,
    is_bnode,
    is_literal,
    read_turtle,
    wide_mapping_text,
)

EX = "http://example.com/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


def triples(text: str) -> set[Triple]:
    return set(read_turtle(text).triples)


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


def test_a_comment_may_follow_a_sparql_style_directive_keyword():
    assert triples("PREFIX# the empty prefix\n : <http://e/>\nBASE#\n<http://e/>\n:s :p <o> .") == {
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


# A string is remembered by its text and by its lexical form escaped in
# double quotes, which the text of no other form spells: '""x""' must not
# read as the long string """x""", in either order.
STRING_SPELLINGS = [
    ("'\"\"x\"\"'", '""x""'),
    ('"""x"""', "x"),
    ("'x'", "x"),
    ('"\\"\\"x\\"\\""', '""x""'),
    ("'''\"\"x\"\"'''", '""x""'),
    ('""""x""""', '"x"'),
    ("'\"x\"'", '"x"'),
    ('"a\\tb"', "a\tb"),
    ("'a\tb'", "a\tb"),
]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_each_string_reads_its_own_lexical_form_whatever_was_read_before(order):
    spellings = STRING_SPELLINGS[::order]
    text = "".join(f"<http://e/s{k}> <http://e/p> {spelling} .\n" for k, (spelling, _) in enumerate(spellings))
    objects = {int(iri_value(t.s)[len("http://e/s") :]): t.o for t in read_turtle(text).triples}
    for k, (spelling, lex) in enumerate(spellings):
        assert objects[k] == Literal(lex), spelling
    # one object per lexical form, however it is spelt
    firsts = {}
    for k, (_, lex) in enumerate(spellings):
        assert objects[k] is firsts.setdefault(lex, objects[k])


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
    assert is_bnode(s)
    objects = {t.o for t in ts if t.p == Iri("http://e/q")}
    assert objects == {s}


def test_a_subject_label_is_checked_where_it_starts():
    with pytest.raises(TurtleError) as info:
        read_turtle("_:-a <http://e/p> <http://e/o> .")
    assert str(info.value) == "line 1, column 3: blank node label may not start with '-': '-a'"


def test_bnode_property_lists():
    text = "@prefix ex: <http://e/> .\nex:s ex:p [ ex:q ex:o ] ."
    ts = triples(text)
    assert len(ts) == 2
    inner = next(t for t in ts if t.p == Iri("http://e/q"))
    outer = next(t for t in ts if t.p == Iri("http://e/p"))
    assert outer.o == inner.s
    assert is_bnode(inner.s)


def test_bnode_property_list_as_subject():
    text = "@prefix ex: <http://e/> .\n[ ex:p ex:o ] ex:q ex:r ."
    ts = triples(text)
    assert len(ts) == 2
    subjects = {t.s for t in ts}
    assert len(subjects) == 1


@pytest.mark.parametrize("anon", ["[]", "[ ]", "[ # a comment ]\n]"])
def test_an_empty_bnode_subject_needs_a_predicate_object_list(anon):
    # triples ::= subject predicateObjectList
    #           | blankNodePropertyList predicateObjectList?
    # and a blank node property list is never empty
    with pytest.raises(TurtleError, match="expected a predicate, found '.'") as info:
        read_turtle(f"{anon} .")
    assert info.value.column == len(anon.rpartition("\n")[2]) + 2
    (triple,) = triples(f"{anon} <http://e/p> <http://e/o> .")
    assert is_bnode(triple.s)


def test_a_bnode_property_list_may_stand_alone():
    # the comment holds a ']' that does not close the list
    for text in ("[ <http://e/p> <http://e/o> ] .", "[ # ]\n<http://e/p> <http://e/o> ] ."):
        (triple,) = triples(text)
        assert is_bnode(triple.s)


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


def spelled(term) -> str:
    """*term* short: a blank node's label, a literal's form, an IRI's last segment."""
    if is_bnode(term):
        return term[0]
    if is_literal(term):
        return term[0]
    return iri_value(term).rsplit("/", 1)[-1].rsplit("#", 1)[-1]


# A collection and a label, where a subject, an object, or an object after
# ',' stands: one node reader reads every place, so each files alike, and
# its blank node opens at its '(' or just past its label.
@pytest.mark.parametrize(
    "group, filed, opened",
    [
        ("( ) ex:p ex:o", ["nil p o"], []),
        ("ex:s ex:p ( )", ["s p nil"], []),
        ("ex:s ex:p ex:o , ( )", ["s p o", "s p nil"], []),
        ("(1) ex:p ex:o", ["_:b1 first 1", "_:b1 rest nil", "_:b1 p o"], [0]),
        ("ex:s ex:p (1)", ["_:b1 first 1", "_:b1 rest nil", "s p _:b1"], [10]),
        ("ex:s ex:p ex:o , (1)", ["s p o", "_:b1 first 1", "_:b1 rest nil", "s p _:b1"], [17]),
        ("_:x ex:p ex:o", ["_:b1 p o"], [3]),
        ("ex:s ex:p _:x", ["s p _:b1"], [13]),
        ("ex:s ex:p ex:o , _:x", ["s p o", "s p _:b1"], [20]),
    ],
)
def test_a_collection_or_a_label_is_read_alike_in_every_place(group, filed, opened):
    prefix = f"@prefix ex: <{EX}> .\n"
    reader = read_turtle(f"{prefix}{group} .")
    assert [" ".join(spelled(x) for x in (t.s, t.p, t.o)) for t in reader.triples] == filed
    assert [at - len(prefix) for at in reader.bnode_offsets] == opened


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


@pytest.mark.parametrize(
    "number, column, message",
    [
        ("١٢", 27, "expected an object, found '١'"),
        ("١.٥", 27, "expected an object, found '١'"),
        ("١e5", 27, "expected an object, found '١'"),
        ("1٢", 28, "expected '.'"),
    ],
)
def test_a_number_is_spelled_with_ascii_digits(number, column, message):
    # INTEGER, DECIMAL and DOUBLE take [0-9] (Turtle 1.1 §6.5), not every Unicode digit
    with pytest.raises(TurtleError, match=f"^line 1, column {column}: {message}$"):
        read_turtle(f"<http://e/s> <http://e/p> {number} .")


def test_iriref_rejects_forbidden_characters():
    with pytest.raises(TurtleError):
        read_turtle("<http://e/a b> <http://e/p> <http://e/o> .")


def test_relative_iri_without_base_fails():
    with pytest.raises(TurtleError):
        read_turtle("<s> <http://e/p> <http://e/o> .")


def test_explicit_base_parameter():
    ts = triples("@base <http://alt.example/> .\n<s> <p> <o> .")
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
    assert parser.resolve("rel") == "http://b/rel"


FALL_THROUGH_HEADER = "@prefix ex: <http://ex.org/> .\n@prefix true: <http://t/> .\n"
# Spellings the one-match token read leaves to the readers, each with what
# the parser gave for it before that read existed: the formatted triples,
# or the error with its line and column.  A 'true:' prefixed name is an
# IRI wherever it stands: by longest match it is one PNAME_LN token, never
# the keyword true (this row used to pin "line 3, column 15: expected '.'").
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
    ('ex:s ex:p true:o .', ['<http://ex.org/s> <http://ex.org/p> <http://t/o>']),
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


# ---------------------------------------------------------------------------
# runs: the token texts read ahead, and where the readers take over
# ---------------------------------------------------------------------------

# Statements that put 'a', a number, 'true', a label and a typed literal,
# which runs read, and a reader's spelling between tokens that runs read: a
# long string, an escaped string, a mid-document @base with a relative
# IRIREF, and a comment last.
RUN_BOUNDARY_TOKENS = [
    *"@prefix ex: <http://e/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .".split(),
    *"ex:s a ex:C ; ex:n 42 , ex:m ; ex:b true ; ex:k _:x .".split(),
    *"_:x ex:q [ ex:r ex:o ] . ex:s ex:l".split(),
    "'''a long string'''",
    *r'; ex:e "esc\"aped" , "plain" ; ex:t "5"^^xsd:int .'.split(),
    *"@base <http://b/> . <rel> ex:p ( ex:a 1 _:x ) , [ ] .".split(),
    "# a comment",
]


def filed(tokens: list[str], separator: str) -> tuple[list[str], list[tuple[int, int]]]:
    """The triples that *tokens* joined by *separator* state, and where each
    blank node opens: its token's index and the offset into that token."""
    text = separator.join(tokens)
    starts = [0]
    for token in tokens[:-1]:
        starts.append(starts[-1] + len(token) + len(separator))
    doc = read_turtle(text)
    opened = []
    for offset in doc.bnode_offsets:
        k = max(i for i, start in enumerate(starts) if start <= offset)
        opened.append((k, offset - starts[k]))
    return [f"{format_term(t.s)} {format_term(t.p)} {format_term(t.o)}" for t in doc.triples], opened


def test_reader_spellings_between_run_tokens_read_as_one_token_per_line():
    expected = filed(RUN_BOUNDARY_TOKENS, "\n")
    assert filed(RUN_BOUNDARY_TOKENS, " ") == expected
    triples, opened = expected
    assert len(triples) == 19
    assert '<http://b/rel> <http://e/p> _:b3' in triples
    # a blank node opens after its label, after '[' and at '('
    assert [(RUN_BOUNDARY_TOKENS[k], shift) for k, shift in opened] == [
        ("_:x", 3), ("[", 1), ("(", 0), ("(", 0), ("(", 0), ("[", 1)
    ]


@pytest.mark.parametrize(
    "statement,error",
    [
        # a long string, then a name where '.' belongs
        ("ex:s ex:p '''x''' ex:q .", "line 2, column 19: expected '.'"),
        # an escaped string, then a name where '.' belongs
        ('ex:s ex:p "a\\nb" ex:q .', "line 2, column 18: expected '.'"),
        # the same after a single-quoted string, a typed literal, a number,
        # 'a' and a label, which runs read
        ("ex:s ex:p 'x' ex:q .", "line 2, column 15: expected '.'"),
        ('ex:s ex:p "5"^^ex:t ex:q .', "line 2, column 21: expected '.'"),
        ("ex:s ex:p 42 ex:q .", "line 2, column 14: expected '.'"),
        ("ex:s a ex:C ;\n  ex:p _:x ex:o .", "line 3, column 12: expected '.'"),
    ],
)
def test_an_error_directly_after_a_reader_spelling_keeps_its_position(statement, error):
    with pytest.raises(TurtleError, match=f"^{error}$"):
        read_turtle(f"@prefix ex: <http://e/> .\n{statement}\n")


class Counting:
    """A pattern of the run, counting the characters it scans: the run
    reads up to the first character of the spelling it leaves to a reader
    (its last match moves to the text's end without reading it) or to the
    text's end, and a step through the run again reads each match."""

    def __init__(self, regex, scanned: list[int]):
        self.regex, self.scanned = regex, scanned

    def findall(self, text, pos=0, endpos=sys.maxsize):
        run = self.regex.findall(text, pos, endpos)
        endpos = min(endpos, len(text))
        if run and not run[-1]:
            *_, last = self.regex.finditer(text, pos, endpos)
            endpos = _lexer._WS_RE.match(text, last.start()).end() + 1
        self.scanned[0] += endpos - pos
        return run

    def match(self, text, pos, *endpos):
        match = self.regex.match(text, pos, *endpos)
        self.scanned[0] += match.end() - pos
        return match


@pytest.mark.parametrize("statements", [1_000, 10_000])
@pytest.mark.parametrize(
    "statement,triples",
    [
        # a long string that holds a newline, and a short one a space
        ("ex:s{0} ex:b '''x\n y''' ; ex:p \"{0} z\\n\" . ", 2),
        # a number that starts with '.'
        ("ex:s{0} ex:p .5 . ", 1),
    ],
)
def test_runs_scan_a_line_of_reader_spellings_in_linear_time(monkeypatch, statement, triples, statements):
    text = "@prefix ex: <http://e/> . " + "".join(statement.format(i) for i in range(statements))
    scanned = [0]
    monkeypatch.setattr(_lexer, "_RUN_RE", Counting(_lexer._RUN_RE, scanned))
    assert len(read_turtle(text).triples) == triples * statements
    assert scanned[0] <= 3 * len(text)


def runs_read(text: str, monkeypatch) -> tuple[list[Triple], list[list[str]]]:
    """The triples of *text*, and each run read from it; no run may end at
    text that no token spells."""
    runs = []

    class Recording:
        def findall(self, text, *args):
            run = regex.findall(text, *args)
            assert run and run[-1]
            runs.append(run)
            return run

    regex = _lexer._RUN_RE
    monkeypatch.setattr(_lexer, "_RUN_RE", Recording())
    return read_turtle(text).triples, runs


# A long string, or an escape, in every statement is a run token: one run
# reads the whole text, however long.
@pytest.mark.parametrize("statement", ['<http://e/s{0}> <http://e/p> """v{0}""" .\n', '<http://e/s{0}> <http://e/p> "v\\n{0}" .\n'])
def test_runs_of_long_or_escaped_strings_read_the_whole_text(monkeypatch, statement):
    text = "".join(statement.format(i) for i in range(5_000))
    triples, runs = runs_read(text, monkeypatch)
    assert [t.o for t in triples[::1000]] == [Literal(("v{0}" if '"""' in statement else "v\n{0}").format(i)) for i in range(0, 5_000, 1000)]
    assert len(runs) == 1 and len(runs[0]) == 4 * 5_000 + 1


def test_a_long_string_of_many_lines_is_one_token(monkeypatch):
    before = "".join(f"<http://e/s{i}> <http://e/p> <http://e/o> .\n" for i in range(90))
    lines = "".join(f"line {i}\n" for i in range(100))
    text = f'{before}<http://e/s> <http://e/p> """{lines}""" .\n<http://e/t> <http://e/p> 1 .\n'
    # the string runs from before the 4 KB mark to after it
    assert text.index('"""') < 4096 < text.rindex('"""')
    triples, runs = runs_read(text, monkeypatch)
    assert triples[90].o == Literal(lines)
    assert triples[91] == Triple(Iri("http://e/t"), Iri("http://e/p"), Literal("1", XSD_INTEGER))
    assert len(runs) == 1 and f'"""{lines}"""' in runs[0]


# ---------------------------------------------------------------------------
# round trip: random graphs written in random styles read back the same
# ---------------------------------------------------------------------------

# prefix -> namespace; 'true' and 'false' are ordinary prefixes
NAMESPACES = {"ex": "http://e/", "true": "http://t/", "false": "http://f/", "": "http://d/"}
RDF_NIL = Iri(RDF + "nil")


class Writer:
    """Writes statements as Turtle in styles drawn by hypothesis, and keeps
    the triples the text states, blank nodes labeled by the writer."""

    def __init__(self, draw):
        self.draw, self.parts, self.triples, self.fresh = draw, [], [], 0

    def gap(self):
        """Whitespace, or a comment, between two tokens."""
        return self.draw(st.sampled_from([" ", "\n  ", "\t", " # a comment, with ; , . ] [\n"]))

    def iri(self) -> tuple[Term, str]:
        prefix = self.draw(st.sampled_from(sorted(NAMESPACES)))
        local = self.draw(st.sampled_from(["s", "p", "o1", "a_b", "x.y", "v.2", "t.u.w"]))
        iri = Iri(NAMESPACES[prefix] + local)
        return iri, self.draw(st.sampled_from([f"<{iri_value(iri)}>", f"{prefix}:{local}"]))

    def string(self) -> tuple[Term, str]:
        lex = self.draw(st.text(alphabet="ab é\"'\\\n\t\U0001F600", max_size=6))
        quote = self.draw(st.sampled_from(['"', "'", '"""', "'''"]))
        body = "".join(self.escape(ch, quote) for ch in lex)
        datatype = self.draw(st.sampled_from([None, "<http://e/dt>", "ex:dt"]))
        if datatype is None:
            return Literal(lex), f"{quote}{body}{quote}"
        return Literal(lex, "http://e/dt"), f"{quote}{body}{quote}^^{datatype}"

    def escape(self, ch: str, quote: str) -> str:
        if ch == "\\" or ch in quote or (len(quote) == 1 and ch == "\n"):
            return {"\\": "\\\\", "\n": "\\n", '"': '\\"', "'": "\\'"}[ch]
        if ch == "\t" or not ch.isascii():
            return self.draw(st.sampled_from([ch, f"\\u{ord(ch):04X}" if ord(ch) < 0x10000 else f"\\U{ord(ch):08X}"]))
        return ch

    def number_or_boolean(self) -> tuple[Term, str]:
        spelling, datatype = self.draw(
            st.sampled_from(
                [
                    ("42", XSD_INTEGER),
                    ("-7", XSD_INTEGER),
                    ("+3", XSD_INTEGER),
                    ("3.25", XSD_DECIMAL),
                    ("-.5", XSD_DECIMAL),
                    ("1e10", XSD_DOUBLE),
                    ("1.5E-3", XSD_DOUBLE),
                    ("true", XSD_BOOLEAN),
                    ("false", XSD_BOOLEAN),
                ]
            )
        )
        return Literal(spelling, datatype), spelling

    def bnode(self) -> Term:
        self.fresh += 1
        return BlankNode(f"w{self.fresh}")

    def obj(self, depth: int) -> tuple[object, str]:
        kinds = ["iri", "string", "number", "label"] + (["list", "collection"] if depth < 3 else [])
        kind = self.draw(st.sampled_from(kinds))
        if kind == "iri":
            return self.iri()
        if kind == "string":
            return self.string()
        if kind == "number":
            return self.number_or_boolean()
        if kind == "label":
            label = self.draw(st.sampled_from(["x", "y", "z1"]))
            return BlankNode("l" + label), f"_:{label}"
        if kind == "list":
            node = self.bnode()
            if self.draw(st.booleans()):
                return node, "[" + self.gap() + "]"
            return node, "[" + self.gap() + self.predicate_objects(node, depth + 1) + self.gap() + "]"
        items = [self.obj(depth + 1) for _ in range(self.draw(st.integers(0, 3)))]
        if not items:
            return RDF_NIL, "(" + self.gap() + ")"
        nodes = [self.bnode() for _ in items]
        for node, (item, _), rest in zip(nodes, items, [*nodes[1:], RDF_NIL]):
            self.triples += [Triple(node, Iri(RDF + "first"), item), Triple(node, Iri(RDF + "rest"), rest)]
        return nodes[0], "(" + self.gap() + self.gap().join(text for _, text in items) + self.gap() + ")"

    def predicate_objects(self, subject, depth: int) -> str:
        """A predicate-object list with ';' and ',' lists, maybe a dangling ';'."""
        verbs = []
        for _ in range(self.draw(st.integers(1, 3))):
            if self.draw(st.integers(0, 4)) == 0:
                predicate, spelling = Iri(RDF + "type"), "a"
            else:
                predicate, spelling = self.iri()
            objects = []
            for _ in range(self.draw(st.integers(1, 3))):
                obj, text = self.obj(depth)
                self.triples.append(Triple(subject, predicate, obj))
                objects.append(text)
            verbs.append(spelling + self.gap() + ("," + self.gap()).join(objects))
        dangling = self.draw(st.sampled_from(["", " ;", " ; ;"]))
        return (self.gap() + ";" + self.gap()).join(verbs) + dangling

    def statement(self):
        if self.draw(st.booleans()):
            subject, spelling = self.iri()
        else:
            label = self.draw(st.sampled_from(["x", "y", "z1"]))
            subject, spelling = BlankNode("l" + label), f"_:{label}"
        self.parts.append(spelling + self.gap() + self.predicate_objects(subject, 0) + self.gap() + ".")

    def text(self) -> str:
        directives = [
            self.draw(st.sampled_from([f"@prefix {p}: <{ns}> .", f"PREFIX {p}: <{ns}>", f"prefix {p}: <{ns}>"]))
            for p, ns in NAMESPACES.items()
        ]
        return "\n".join(directives + self.parts) + self.draw(st.sampled_from(["", "\n", "\n# the end"]))


def blank_node_free(triples) -> Counter:
    """The triples with each blank node replaced by a digest of what
    surrounds it, refined over a few rounds: equal for graphs that differ
    only in their blank-node labels."""
    names = {t for triple in triples for t in (triple.s, triple.o) if is_bnode(t)}
    sig = dict.fromkeys(names, "")
    key = lambda t: sig[t] if is_bnode(t) else format_term(t)  # noqa: E731
    for _ in range(4):
        sig = {
            node: hashlib.sha256(
                repr(
                    (
                        sorted((t.p[0], key(t.o)) for t in triples if t.s == node),
                        sorted((key(t.s), t.p[0]) for t in triples if t.o == node),
                    )
                ).encode()
            ).hexdigest()
            for node in names
        }
    return Counter((key(t.s), t.p[0], key(t.o)) for t in triples)


@st.composite
def documents(draw):
    writer = Writer(draw)
    for _ in range(draw(st.integers(1, 4))):
        writer.statement()
    return writer.text(), writer.triples


@seed(20)
@settings(max_examples=120)
@given(documents())
def test_random_graphs_in_random_styles_read_back_the_same(document):
    text, expected = document
    assert blank_node_free(read_turtle(text).triples) == blank_node_free(expected)
