"""The lexer shared by the Turtle and SPARQL parsers: both parsers must
read every term spelling alike."""

import importlib
import re
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from rmlprune import _lexer, gendata
from rmlprune._lexer import MAX_NESTING
from rmlprune.algebra import dump_plan
from rmlprune.errors import MappingModelError, SparqlError, TurtleError, UnsupportedSparqlError
from rmlprune.rdf import XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, Variable
from rmlprune.rml import parse_rml
from rmlprune.sparql import collect_triple_patterns, parse_query
from rmlprune.turtle import TurtleParser

from .helpers import Iri, Literal, read_turtle
from .test_diff import load_diff

EX = "http://ex.org/"
ROOT = Path(__file__).resolve().parents[1]


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



# By longest match 'true:x' is one PNAME_LN token, in either language and in
# every position, never the keyword true followed by ':x'.
@pytest.mark.parametrize("word", ["true", "false"])
def test_a_true_or_false_prefix_names_an_iri_where_an_object_stands(word):
    turtle = read_turtle(f"@prefix {word}: <http://t/> . <http://e/s> <http://e/p> {word}:x .")
    assert [triple.o for triple in turtle.triples] == [Iri("http://t/x")]
    query = parse_query(f"PREFIX {word}: <http://t/> SELECT * WHERE {{ ?s ?p {word}:x }}")
    assert [pattern.o for pattern in collect_triple_patterns(query)] == [Iri("http://t/x")]


@pytest.mark.parametrize("word", ["true", "false"])
def test_an_undeclared_true_or_false_prefix_is_an_error_not_a_boolean(word):
    # the error stands after the name, as for any other undeclared prefix
    column = 27 + len(word) + 2
    with pytest.raises(TurtleError, match=f"line 1, column {column}: undeclared prefix: '{word}'"):
        read_turtle(f"<http://e/s> <http://e/p> {word}:x .")
    with pytest.raises(SparqlError, match=f"undeclared prefix: '{word}'"):
        parse_query(f"SELECT * WHERE {{ ?s ?p {word}:x }}")


def test_turtle_booleans_are_case_sensitive_and_sparql_booleans_are_not():
    # Turtle's grammar spells them 'true' and 'false'; in SPARQL they are
    # keywords, which match in any case
    with pytest.raises(TurtleError, match="line 1, column 31: expected ':'"):
        read_turtle("<http://e/s> <http://e/p> TRUE .")
    assert sparql_object("TRUE") == Literal("true", XSD_BOOLEAN)
    assert sparql_object("False") == Literal("false", XSD_BOOLEAN)
    # a '.' right after the keyword ends the statement
    (triple,) = read_turtle("<http://e/s> <http://e/p> true.").triples
    assert triple.o == Literal("true", XSD_BOOLEAN)


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


# Runs read a prefixed name of ASCII letters, digits, '_' and '-' in a
# cheaper form first; it must read every text as the full form alone does.
NAME_PIECES = [
    "a", "b1", "_", "-", ".", ":", "%", "\\", "\\.", "\u00e9", " ", "\n", "# c", "<x>", '"', "?v", "[", ";", "ex:",
    "'", "<", ">", "^^", "@en", "\\u0041", "\\n",
]


@seed(3)
@settings(max_examples=400)
@given(st.lists(st.sampled_from(NAME_PIECES), max_size=12).map("".join))
def test_the_cheaper_prefixed_name_reads_as_the_full_one(text):
    full = re.compile(_lexer._RUN_RE.pattern.replace(f"|{_lexer._ASCII_PNAME}", "", 1))
    assert full.pattern != _lexer._RUN_RE.pattern
    for start in range(len(text) + 1):
        assert _lexer._RUN_RE.findall(text, start) == full.findall(text, start)


# Every valid spelling is a run token: a token must be exactly what the
# reader at the cursor takes, and spell the same term.  A token that spells
# no term there (a bare word, an operator) or an error (a language tag, an
# escaped forbidden character, an undeclared prefix) is given back, and the
# reader reports it; a hex escape outside Unicode is no token.
CONSTANT_PIECES = [
    "1", "0", "\u0661", "+", "-", ".", "e", "E", "true", "false", "TRUE", "_:", "a", "_", ":", "x", " ", "\n",
    "\\", "%", '"', "'", '"""', "'''", "^^", "<http://e/t>", "<r>", "<\\u0041>", "ex:t", "ex:", "@en", "-GB",
    "\\u0041", "\\U00110000", "\\n", "\\.",
]


def given_back(text: str, start: int, token: str) -> tuple[str, int]:
    """The message the reader reports at a *token* at *start* of *text*
    that spells no constant or an error, and where it reports it."""
    end = start + len(token)
    if token in _lexer.OPERATORS:
        return f"expected an object, found {re.escape(repr(token[0]))}", start
    string = _lexer._STRING_RE.match(token)
    if string and token[string.end() : string.end() + 1] == "@":
        return "language-tagged literals are not supported", start + string.end()
    if token[-1] == ">":  # an IRIREF, alone or a datatype
        return "not a valid IRI", end
    if ":" in token:
        return "undeclared prefix", end
    # a bare word, which the reader reads as a prefix name, with what follows
    name = _lexer._PREFIX_RE.match(text, start).end()
    return ("prefix name may not end with '.'" if text[name - 1] == "." else "expected ':'"), name


def parser_at(text: str, pos: int) -> TurtleParser:
    parser = TurtleParser(text)
    parser.declare_prefix("ex", "http://e/")
    parser.base = "http://b/"
    parser.pos = pos
    return parser


@seed(5)
@settings(max_examples=800)
@given(st.lists(st.sampled_from(CONSTANT_PIECES), min_size=1, max_size=8).map("".join))
@example("_:x1.")
@example("_:a..b. ")
@example("_:-x")
@example("1.e")
@example("-.5E1.")
@example("false.")
@example('"a"^^ex:t.')
@example('"a"^^x:t')
@example("'a'^^<http://e/t>")
@example('"a"^^<r>')
@example('"""a"""')
@example('"a" ^^ex:t')
@example("'a'^^ ex:t")
# the spellings that were the readers' alone before every valid one was a
# token, and the errors that such a token spells
@example('"a\\u0041"')
@example("'it\\'s'^^ex:t")
@example("'x'^^ex:t\\'")
@example('"a\\\\"')
@example("'''x\ny'''")
@example('"""a""""')
@example('"""say "hi" """@en')
@example("<http://e/\\u0041>")
@example("<\\u0041>")
@example("<http://e/\\u0020>")
@example("ex:a\\.b")
@example("ex:a\\..")
@example('"x"^^<rel>')
@example('"x"@en-GB')
@example('"\\U00110000"')
@example('"\\uD800"')
@example("TRUE")
@example("SHA1(?s)")
@example("ENCODE_FOR_URI(?s)")
def test_a_run_token_is_what_the_reader_takes(text):
    match = _lexer._RUN_RE.match(text)
    token = match[1] if match else None
    if not token or not token.strip() or token in ("a", ".") or token[0] == "@":
        return  # text no token spells, whitespace, 'a', '.' or a directive
    reader = parser_at(text, match.start(1))
    if token.startswith("_:"):
        term = reader._read_bnode_label()
        assert term[0][2:] == reader.bnode_labels[token[2:]]
    else:
        term = parser_at(text, 0).term(token, constant=True)
        if term is None:  # no term, or an error: the reader reports it
            message, at = given_back(text, match.start(1), token)
            with pytest.raises(TurtleError, match=message):
                reader.read_constant()
            assert reader.pos == at
            return
        assert reader.read_constant() == term
    assert reader.pos == match.end(1)


def run_tokens(text: str) -> list[str]:
    """The tokens runs read from *text*, stepping one character past each
    hand-over to a reader."""
    tokens, pos = [], 0
    while pos < len(text):
        match = _lexer._RUN_RE.match(text, pos)
        if match[1] is None:
            pos = _lexer._WS_RE.match(text, pos).end() + 1
        else:
            tokens.append(match[1])
            pos = match.end()
    return [token for token in tokens if token.strip()]


def readers_run(monkeypatch) -> list[str]:
    """Record, from now on, each place where a reader runs: a hand-over (a
    run that ends before the end of the text, at text that no token
    spells) and a give-back (a token given back during a run), as the text
    from there to the next space, or the token."""
    found = []
    next_run, back = _lexer.Lexer._next_run, _lexer.Lexer.back

    def recording_next_run(lexer):
        token = next_run(lexer)
        if not token and not lexer.at_end():
            found.append(lexer.text[lexer.pos :].split(None, 1)[0])
        return token

    def recording_back(lexer, token):
        if lexer._count:
            found.append(token)
        back(lexer, token)

    monkeypatch.setattr(_lexer.Lexer, "_next_run", recording_next_run)
    monkeypatch.setattr(_lexer.Lexer, "back", recording_back)
    return found


# Every keyword is a bare word, every operator a token of its own, and
# every valid spelling a token: a query is read from runs, its expressions
# too, with the escaped string, the language tag and SHA1 of the operators
# query, and no reader runs.
@pytest.mark.parametrize("name", [*(f"q{i:02d}" for i in range(1, 9)), "optional", "aggregate", "operators"])
def test_a_query_is_read_in_runs_up_to_its_expressions(name, monkeypatch):
    text = {**gendata.QUERIES, **load_diff().EXTRA_QUERIES}[name]
    found = readers_run(monkeypatch)
    parse_query(text)
    assert found == []
    tokens = run_tokens(text)
    assert tokens[:3] == ["PREFIX", "ex:", "<http://example.com/ns#>"]
    select, where = tokens.index("SELECT"), tokens.index("WHERE")
    projection = text[text.index("SELECT") + 6 : text.index("WHERE")]
    assert "".join(tokens[select + 1 : where]) == "".join(projection.split())
    assert tokens[where + 1] == "{"
    if name == "optional":
        assert {"OPTIONAL", "FILTER", "!="} <= set(tokens)
        assert tokens[-6:] == ["}", "ORDER", "BY", "?n", "LIMIT", "10"]


def test_a_sparql_boolean_in_any_case_is_read_from_its_token(monkeypatch):
    found = readers_run(monkeypatch)
    for spelling in ("TRUE", "False", "true", "FALSE."):
        assert sparql_object(spelling) == Literal(spelling.lower().rstrip("."), XSD_BOOLEAN)
    assert found == []


# Turtle 1.1 §6.4 and SPARQL 1.1 §19.8 read the longest token: '.5' is a
# DECIMAL, and '.5e1' a DOUBLE, not the '.' that ends a statement and then
# '5'.  So no reader reads them, and a '.5' where a '.' belongs is no '.'.
def test_a_number_that_starts_with_a_dot_is_read_from_its_token(monkeypatch):
    found = readers_run(monkeypatch)
    doc = read_turtle("<http://e/s> <http://e/p> .5 , ( .5e1 ) .")
    assert found == []
    objects = [triple.o for triple in doc.triples]
    assert objects[0] == Literal(".5", XSD_DECIMAL)
    assert Literal(".5e1", XSD_DOUBLE) in objects
    query = parse_query("SELECT * WHERE { ?s ?p .5 FILTER(?s > -.5e1) }")
    assert found == []
    assert [pattern.o for pattern in query.patterns] == [Literal(".5", XSD_DECIMAL)]


def test_a_dot_before_a_digit_does_not_end_a_statement():
    with pytest.raises(TurtleError, match=re.escape("line 2, column 16: expected '.'")):
        read_turtle("@prefix ex: <http://e/> .\nex:s ex:p ex:o .5 .")
    with pytest.raises(SparqlError, match=re.escape("line 1, column 27: expected '.' or '}' after a triple pattern")):
        parse_query("SELECT * WHERE { ?s ?p ?o .5 ?p ?o }")


# Only '@' and a LANGTAG is a language tag: a '@' after a string with none
# is a syntax error, where the '@' stands, in an expression too.
@pytest.mark.parametrize("spelling", ['"x"@', '"x"@1', '"x"@-en'])
def test_a_lone_at_after_a_string_is_a_syntax_error(spelling):
    for parse, text, error in [
        (parse_query, f"SELECT * WHERE {{ ?s ?p ?o FILTER(?o = {spelling}) }}", SparqlError),
        (parse_query, f"SELECT * WHERE {{ ?s ?p {spelling} }}", SparqlError),
        (read_turtle, f"<http://e/s> <http://e/p> {spelling} .", TurtleError),
    ]:
        with pytest.raises(error) as raised:
            parse(text)
        assert type(raised.value) is error
        assert str(raised.value) == f"line 1, column {text.index('@') + 1}: expected a language tag after '@'"


# No reader runs on valid text: not on the queries and mappings of the
# benchmark, the Turtle text of tools/diff.py, nor on any input that
# tools/diff.py accepts at seed 42 on a surface.
@pytest.mark.parametrize("surface", ["sparql", "turtle", "mapping"])
def test_no_reader_runs_on_valid_text(surface, monkeypatch, tmp_path):
    diff = load_diff()
    side = diff.Side(importlib.import_module("rmlprune"))
    record = getattr(side, f"{surface}_record")
    inputs = diff.surface_inputs(surface, gendata, ROOT, tmp_path, 42)
    texts = [(name, text, queries) for name, (text, queries) in inputs.items()]
    texts += [(name, mutated, queries) for name, _, mutated, _, queries in diff.mutations(surface, inputs, 20, 42)]
    accepted, where = 0, {}
    for name, text, queries in texts:
        found = readers_run(monkeypatch)
        ok = record(text, queries)[0] == "ok"
        monkeypatch.undo()
        accepted += ok
        if ok and found:
            where[f"{name}: {text}"] = found
    assert where == {}
    assert accepted > len(inputs)


# A path operator counts only right after a verb: after ',' it is no
# object.  The token before it is read again from the run's start, across
# a long verb too.
@pytest.mark.parametrize(
    "between, message",
    [(" ?o ,", "expected an object, found '*'"), ("", "property paths are not supported ('*')")],
)
def test_the_token_before_a_path_operator_is_known_after_a_long_verb(between, message):
    verb = "<http://e/" + "a" * 4096 + ">"
    text = f"SELECT * WHERE {{ ?s {verb}{between}\n* }}"
    with pytest.raises(SparqlError, match=re.escape(f"line 2, column 1: {message}")):
        parse_query(text)


# A comment ends at CR or LF (Turtle 1.1 §6.2, SPARQL 1.1 §19.4), and a
# line at CR, LF or CR LF: a text reads alike with any of them.
LINE_ENDS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=list(LINE_ENDS))
def test_a_mapping_reads_alike_with_any_line_end(end):
    text = gendata.MAPPING_TTL
    for name in ("stops", "routes"):
        subject = f"<http://example.com/tm/{name}>\n"
        assert text.count(subject) == 1
        text = text.replace(subject, f"# {name} follow\n{subject}")
    mapping = parse_rml(text.replace("\n", end))
    assert len(mapping.trmaps) == 14
    assert dump_plan(mapping) == dump_plan(parse_rml(gendata.MAPPING_TTL))


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=list(LINE_ENDS))
def test_a_query_reads_alike_with_any_line_end(end):
    query = parse_query(f"PREFIX ex: <{EX}>{end}# names{end}SELECT ?s WHERE {{ ?s ex:name ?n }}")
    assert [(tp.s, tp.p, tp.o) for tp in collect_triple_patterns(query)] == [
        (Variable("s"), Iri(EX + "name"), Variable("n"))
    ]


# a text with LF line ends, what reads it, and its error
LINE_ERRORS = {
    "Turtle": (
        f"@prefix ex: <{EX}> .\n# a comment\nex:s ex:p ex:o ;\n  ex:q .\n",
        read_turtle,
        TurtleError,
        "line 4, column 8: expected an object, found '.'",
    ),
    "SPARQL": (
        f"PREFIX ex: <{EX}>\n# a comment\nSELECT ?s WHERE {{\n  ?s ex:p }}",
        parse_query,
        SparqlError,
        "line 4, column 11: expected an object, found '}'",
    ),
    "RML": (
        "@prefix rml: <http://w3id.org/rml/> .\n\n"
        '<http://e/tm> rml:logicalSource [ rml:source "f.csv" ] ;\n'
        '  rml:subjectMap [ rml:reference "a" ; rml:iterator "x" ] .\n',
        parse_rml,
        MappingModelError,
        "triples map <http://e/tm>: property 'iterator' does not belong on subject map [ ] at line 4",
    ),
}


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=list(LINE_ENDS))
@pytest.mark.parametrize("text, read, error, message", LINE_ERRORS.values(), ids=list(LINE_ERRORS))
def test_an_error_has_one_line_and_column_with_any_line_end(text, read, error, message, end):
    with pytest.raises(error) as info:
        read(text.replace("\n", end))
    assert str(info.value) == message


# A text that ends in a comment with no line end after it is read in one
# run, as it is with one: the run's end takes the comment, so no reader
# runs and no token is stepped through again to place the cursor.
@pytest.mark.parametrize(
    "text, read",
    [
        (gendata.MAPPING_TTL, lambda text: dump_plan(parse_rml(text))),
        (gendata.QUERIES["q01"], parse_query),
    ],
    ids=["mapping", "query"],
)
def test_a_text_ending_in_a_comment_reads_in_one_run(text, read, monkeypatch):
    expected = read(text + "# end\n")
    stepped = []
    past = _lexer._past
    monkeypatch.setattr(_lexer, "_past", lambda text, pos, n: stepped.append(n) or past(text, pos, n))
    found = readers_run(monkeypatch)
    assert read(text + "# end") == expected
    assert (found, stepped) == ([], [])


# A declaration whose IRI no IRIREF token spells, or that needs a base it
# lacks, is read again at the cursor, which reports it.
@pytest.mark.parametrize(
    "text, read, error, message",
    [
        ("@prefix ex: <rel> .", read_turtle, TurtleError, "line 1, column 18: relative IRI 'rel' without a base"),
        ("@prefix ex: foo .", read_turtle, TurtleError, "line 1, column 13: expected '<'"),
        ("@base foo .", read_turtle, TurtleError, "line 1, column 7: expected '<'"),
        ("BASE foo", read_turtle, TurtleError, "line 1, column 6: expected '<'"),
        ("PREFIX ex: foo SELECT * WHERE { ?s ?p ?o }", parse_query, SparqlError, "line 1, column 12: expected '<'"),
        (
            "PREFIX ex: <rel> SELECT * WHERE { ?s ?p ?o }",
            parse_query,
            SparqlError,
            "line 1, column 17: relative IRI 'rel' without a base",
        ),
    ],
)
def test_a_declared_iri_that_no_token_reads_is_reported_at_the_cursor(text, read, error, message):
    with pytest.raises(error) as info:
        read(text)
    assert type(info.value) is error
    assert str(info.value) == message
