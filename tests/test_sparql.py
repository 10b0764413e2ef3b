"""SPARQL SELECT parsing: the supported subset and its explicit limits."""

import re

import pytest

from rmlprune.errors import SparqlError, UnsupportedSparqlError
from rmlprune.rdf import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    TriplePattern,
    Variable,
)
from rmlprune.sparql import collect_triple_patterns, flatten_bgp, parse_query

from .helpers import Iri, Literal, iri_value

EX = "http://example.com/ns#"


def tp(s, p, o) -> TriplePattern:
    return TriplePattern(s, p, o)


def patterns(text: str) -> set[TriplePattern]:
    return collect_triple_patterns(parse_query(text))


def test_a_query_may_be_bytes_as_a_mapping_may(airports_query_text):
    data = airports_query_text.encode()
    assert parse_query(data) == parse_query(airports_query_text)
    assert parse_query(b"\xef\xbb\xbf" + data) == parse_query(airports_query_text)
    with pytest.raises(SparqlError, match="^not valid UTF-8: "):
        parse_query('SELECT * WHERE { ?s ?p "caf\u00e9" }'.encode("latin-1"))


def test_parse_airports_query(airports_query_text):
    q = parse_query(airports_query_text)
    assert q.variables == (Variable("airportId"),)
    a = Variable("airportId")
    assert collect_triple_patterns(q) == {
        tp(a, Iri(EX + "route"), Iri("http://transit.api/route/43")),
        tp(a, Iri("http://vocab.gtfs.org/terms#long"), Literal("23.0", XSD_DOUBLE)),
    }


def test_select_star_and_explicit_vars():
    q = parse_query("SELECT * WHERE { ?s ?p ?o }")
    assert q.variables == (Variable("s"), Variable("p"), Variable("o"))
    q2 = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
    assert q2.variables == (Variable("s"), Variable("o"))
    # in order of first appearance, without the stand-ins of []
    q3 = parse_query("SELECT * WHERE { [] ?p ?o . ?o ?q [] . ?s ?p ?o }")
    assert q3.variables == (Variable("p"), Variable("o"), Variable("q"), Variable("s"))


def test_predicate_object_lists_and_a():
    got = patterns(
        f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s a ex:T ; ex:p ?x , ?y . }}"
    )
    assert got == {
        tp(Variable("s"), Iri(RDF_TYPE), Iri(EX + "T")),
        tp(Variable("s"), Iri(EX + "p"), Variable("x")),
        tp(Variable("s"), Iri(EX + "p"), Variable("y")),
    }


def test_numeric_and_boolean_literals():
    got = patterns(
        "SELECT * WHERE { ?s <http://e/p> 5 . ?s <http://e/q> 2.5 . "
        "?s <http://e/r> 1e3 . ?s <http://e/b> true . }"
    )
    objects = {p.o for p in got}
    assert objects == {
        Literal("5", XSD_INTEGER),
        Literal("2.5", XSD_DECIMAL),
        Literal("1e3", XSD_DOUBLE),
        Literal("true", XSD_BOOLEAN),
    }


@pytest.mark.parametrize("first, second", [("'\"\"x\"\"'", '"""x"""'), ('"""x"""', "'\"\"x\"\"'")])
def test_each_string_object_reads_its_own_lexical_form(first, second):
    got = patterns(f"SELECT * WHERE {{ ?s <http://e/p> {first} . ?s <http://e/q> {second} }}")
    objects = {iri_value(p.p): p.o[0] for p in got}
    lexes = {"'\"\"x\"\"'": '""x""', '"""x"""': "x"}
    assert objects == {"http://e/p": lexes[first], "http://e/q": lexes[second]}


def test_anonymous_bnode_becomes_fresh_variable():
    q = parse_query("SELECT * WHERE { [] <http://e/p> ?o . [] <http://e/p> ?o2 . }")
    pats = sorted(collect_triple_patterns(q), key=repr)
    subjects = {p.s for p in pats}
    assert len(subjects) == 2
    assert all(isinstance(s, Variable) and s.anonymous for s in subjects)


@pytest.mark.parametrize("name", ["b1", "_bnode1"])
def test_anonymous_bnode_stand_ins_never_equal_user_variables(name):
    q = parse_query(f"SELECT * WHERE {{ ?{name} <http://e/p> ?o . [] <http://e/q> ?o2 . }}")
    (user,) = patterns(f"SELECT * WHERE {{ ?{name} <http://e/p> ?o }}")
    (stand_in,) = {tp.s for tp in collect_triple_patterns(q)} - {user.s}
    assert stand_in.anonymous and stand_in != Variable(stand_in.name)


def test_optional_and_filter_structure():
    q = parse_query(
        "SELECT * WHERE { ?s <http://e/p> ?o . "
        "OPTIONAL { ?s <http://e/q> ?x } FILTER (?o > 3) }"
    )
    assert q.unevaluable == {"OPTIONAL", "FILTER"}
    assert q.patterns == (
        tp(Variable("s"), Iri("http://e/p"), Variable("o")),
        tp(Variable("s"), Iri("http://e/q"), Variable("x")),
    )


def test_required_patterns_are_those_no_optional_encloses():
    p = [tp(Variable("s"), Iri(f"http://e/p{i}"), Variable(f"o{i}")) for i in range(6)]
    q = parse_query(
        "SELECT * WHERE { ?s <http://e/p0> ?o0 "
        "OPTIONAL { ?s <http://e/p1> ?o1 OPTIONAL { ?s <http://e/p2> ?o2 } { ?s <http://e/p3> ?o3 } } "
        "{ ?s <http://e/p4> ?o4 FILTER (?o4 > 1) } { { ?s <http://e/p5> ?o5 } } }"
    )
    assert q.patterns == tuple(p)
    assert q.required == (p[0], p[4], p[5])


def test_filter_with_builtin_call():
    q = parse_query(
        'SELECT * WHERE { ?s <http://e/p> ?o . FILTER regex(?o, "^a(b)c$") }'
    )
    assert q.unevaluable == {"FILTER"}
    assert q.patterns == (tp(Variable("s"), Iri("http://e/p"), Variable("o")),)


def test_select_expression_is_recorded_by_name():
    for text in (
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }",
        # an IRIREF is read whole, parentheses and all
        "SELECT (<http://e/f)>(?o) AS ?x) WHERE { ?s ?p ?o }",
    ):
        q = parse_query(text)
        assert (q.variables, q.unevaluable) == ((), {"AS"})
        assert q.patterns == (tp(Variable("s"), Variable("p"), Variable("o")),)


@pytest.mark.parametrize(
    "literal",
    ['"""a"b"""', "'''it's'''", r'"a\"b)"', "'('", "'''x\n)y'''", r'""""a"" \""""'],
)
def test_filter_reads_every_string_form_whole(literal):
    # quotes and parentheses inside a string neither end it nor count, so
    # the FILTER ends where the pattern after it starts
    q = parse_query(f"SELECT * WHERE {{ ?s ?p ?o FILTER(?o = {literal}) ?o ?q ?r }}")
    assert q.patterns == (
        tp(Variable("s"), Variable("p"), Variable("o")),
        tp(Variable("o"), Variable("q"), Variable("r")),
    )


def test_select_expression_holds_a_long_string():
    q = parse_query('SELECT (CONCAT("""a"b""", ?o) AS ?x) WHERE { ?s ?p ?o }')
    assert (q.variables, q.unevaluable) == ((), {"AS"})
    assert q.patterns == (tp(Variable("s"), Variable("p"), Variable("o")),)


def test_a_long_string_in_a_condition_leaves_the_next_modifier():
    for modifiers, names in (
        ('ORDER BY (STR("""x"y""")) LIMIT 5', {"ORDER BY", "LIMIT"}),
        ('ORDER BY ?o "LIMIT 3" OFFSET 2', {"ORDER BY", "OFFSET"}),
        # an IRIREF is read whole, and a comment runs to the end of its line
        ("ORDER BY <http://e/LIMIT> ?s", {"ORDER BY"}),
        ("ORDER BY ?s # LIMIT 3\n", {"ORDER BY"}),
        ("GROUP BY ?p # HAVING\n", {"GROUP BY"}),
    ):
        q = parse_query("SELECT * WHERE { ?s ?p ?o } " + modifiers)
        assert q.unevaluable == names, modifiers


@pytest.mark.parametrize(
    "text",
    [
        'SELECT * WHERE { ?s ?p ?o FILTER(?o = "a) }',
        "SELECT * WHERE { ?s ?p ?o } ORDER BY '''x",
    ],
)
def test_an_unterminated_string_in_an_expression_is_a_syntax_error(text):
    with pytest.raises(SparqlError, match="unterminated string"):
        parse_query(text)


def test_modifiers_are_recorded():
    q = parse_query(
        "SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 10 OFFSET 5"
    )
    assert q.distinct
    assert q.unevaluable == {"ORDER BY", "LIMIT", "OFFSET"}
    plain = parse_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
    assert (plain.distinct, plain.unevaluable) == (True, set())
    reduced = parse_query("SELECT REDUCED ?s WHERE { ?s ?p ?o }")
    assert (reduced.distinct, reduced.unevaluable) == (False, {"REDUCED"})


def test_group_by_and_having_recorded():
    q = parse_query(
        "SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(?o) > 1)"
    )
    assert q.unevaluable == {"GROUP BY", "HAVING"}


@pytest.mark.parametrize(
    "text,needle",
    [
        ("SELECT * WHERE { { ?s ?p ?o } UNION { ?s ?q ?o } }", "UNION"),
        ("SELECT * WHERE { ?s ?p ?o MINUS { ?s ?q ?o } }", "MINUS"),
        ("SELECT * WHERE { GRAPH <http://g> { ?s ?p ?o } }", "GRAPH"),
        ("SELECT * WHERE { SERVICE <http://s> { ?s ?p ?o } }", "SERVICE"),
        ("SELECT * WHERE { BIND(1 AS ?x) ?s ?p ?x }", "BIND"),
        ("SELECT * WHERE { VALUES ?x { 1 2 } ?s ?p ?x }", "VALUES"),
        ("SELECT * WHERE { { SELECT ?s WHERE { ?s ?p ?o } } }", "subqueries"),
        ("SELECT * WHERE { ?s <http://e/p>/<http://e/q> ?o }", "property path"),
        ("SELECT * WHERE { ?s <http://e/p>+ ?o }", "property path"),
        ("SELECT * WHERE { ?s ^<http://e/p> ?o }", "property path"),
        # a path operator after any verb: 'a', a variable, an IRIREF
        ("SELECT * WHERE { ?s a/<http://e/q> ?o }", "property path"),
        ("SELECT * WHERE { ?s ?p* ?o }", "property path"),
        ("SELECT * WHERE { ?s <http://e/p> ? }", "property path"),
        ("SELECT * WHERE { ?s ?p ?o FILTER EXISTS { ?s ?q ?o } }", "EXISTS"),
        ("SELECT * WHERE { [ <http://e/p> ?o ] <http://e/q> ?x }", "property list"),
        ('SELECT * WHERE { ?s ?p "x"@en }', "language"),
        ("SELECT * WHERE { ?s ?p (1 2) }", "collection"),
        ("SELECT * WHERE { _:b ?p ?o }", "blank node labels"),
        ("SELECT * WHERE { ?s ?p _:b }", "blank node labels"),
        ("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }", "CONSTRUCT"),
        ("ASK { ?s ?p ?o }", "ASK"),
    ],
)
def test_unsupported_forms_are_rejected_with_position(text, needle):
    with pytest.raises(UnsupportedSparqlError) as exc:
        parse_query(text)
    message = str(exc.value)
    assert needle.lower() in message.lower()
    assert "line" in message


@pytest.mark.parametrize(
    "text, column",
    [
        ("SELECT * FROM <http://g/> WHERE { ?s ?p ?o }", 10),
        ("SELECT ?s from named <http://g/> { ?s ?p ?o }", 11),
        ("SELECT * WHERE { ?s ?p ?o } VALUES ?s { <http://e/s> }", 29),
        ("SELECT * WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 1 values ?s { }", 49),
        # a trailing VALUES ends a condition, as a modifier does
        ("SELECT * WHERE { ?s ?p ?o } ORDER BY ?s VALUES ?s { }", 41),
    ],
)
def test_a_dataset_clause_or_a_trailing_values_clause_is_named_where_it_stands(text, column):
    with pytest.raises(UnsupportedSparqlError, match="(FROM|VALUES) is not supported") as info:
        parse_query(text)
    assert (info.value.line, info.value.column) == (1, column)


# A keyword is a bare word: SPARQL reads the longest token, so a prefixed
# name whose prefix spells a keyword is a name wherever a term may stand.
@pytest.mark.parametrize(
    "group",
    [
        *(f"{{ {word}:x ?p ?o }}" for word in ("filter", "optional", "minus", "graph", "service", "bind", "values")),
        "{ ?s ?p ?o . OPTIONAL:x ?p ?o }",
        "{ { select:x ?p ?o } }",
        "{ { ?s ?p ?o } union:x ?p ?o }",
        "{ ?s ?p ?o FILTER not:f(?o) FILTER exists:f(?o) not:x ?p ?o }",
    ],
)
def test_a_prefix_that_spells_a_keyword_names_an_iri(group):
    prefixes = "".join(f"PREFIX {word}: <http://e/> " for word in re.findall(r"(\w+):", group))
    q = parse_query(f"{prefixes}SELECT * WHERE {group}")
    assert tp(Iri("http://e/x"), Variable("p"), Variable("o")) in q.patterns


@pytest.mark.parametrize("modifiers", ["ORDER BY order:f(?s)", "ORDER BY limit:f(?s)", "GROUP BY having:g(?s)"])
def test_a_condition_reads_a_prefixed_name_that_spells_a_modifier(modifiers):
    # a FunctionCall whose prefix spells a modifier keyword is part of the
    # condition, so the condition does not end before it
    q = parse_query(f"SELECT * WHERE {{ ?s ?p ?o }} {modifiers} LIMIT 1")
    assert q.unevaluable == {modifiers.rsplit(" ", 1)[0], "LIMIT"}


@pytest.mark.parametrize(
    "modifiers, names",
    [
        ("ORDER BY ex:limit", {"ORDER BY"}),
        ("ORDER BY ex:offset(?s) LIMIT 1", {"ORDER BY", "LIMIT"}),
        ("GROUP BY ex:having HAVING (?s) ORDER BY ex:order-by", {"GROUP BY", "HAVING", "ORDER BY"}),
    ],
)
def test_a_condition_reads_a_prefixed_name_whose_local_name_spells_a_modifier(modifiers, names):
    # ex:limit is one prefixed-name token, so the condition does not end
    # at its local name
    q = parse_query(f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s ?p ?o }} {modifiers}")
    assert q.unevaluable == names


def test_a_modifier_keyword_right_after_a_number_ends_a_condition():
    # '42ORDER' is the number 42 and the keyword ORDER, as SPARQL's
    # longest-match tokenizer reads it
    q = parse_query("SELECT * WHERE { ?s ?p ?o } GROUP BY ?s 42ORDER BY ?o 1LIMIT 3")
    assert q.unevaluable == {"GROUP BY", "ORDER BY", "LIMIT"}


# Every operator is a token: each one where a term stands gets the message
# it got when it was handed to a reader.
@pytest.mark.parametrize(
    "query, message",
    [
        ("SELECT * WHERE { ?s ?p || ?o }", "line 1, column 24: property paths are not supported ('|')"),
        ("SELECT * WHERE { ?s ?p ? }", "line 1, column 24: property paths are not supported ('?')"),
        ("SELECT * WHERE { ?s ?p + }", "line 1, column 24: property paths are not supported ('+')"),
        ("SELECT * WHERE { ?s != ?o }", "line 1, column 21: property paths are not supported (negated set '!')"),
        ("SELECT * WHERE { ?s ?p ?o , * }", "line 1, column 29: expected an object, found '*'"),
        ("SELECT * WHERE { ?s ?p ?o , || }", "line 1, column 29: expected an object, found '|'"),
        ("SELECT * WHERE { ?s ?p ?o , ? }", "line 1, column 29: expected a variable"),
        ("SELECT * WHERE { ?s ?p - }", "line 1, column 24: expected an object, found '-'"),
        ("SELECT * WHERE { ?s >= ?o }", "line 1, column 21: expected a predicate, found '>'"),
        ("SELECT * WHERE { $ ?p ?o }", "line 1, column 18: expected a variable"),
        ("SELECT ? WHERE { ?s ?p ?o }", "line 1, column 8: expected a variable"),
        # a lone '<' is no IRIREF, even where a base would resolve one
        ("BASE <http://b/> SELECT * WHERE { ?s ?p < }", "line 1, column 43: forbidden character in IRI: ' '"),
        ("BASE <http://b/> SELECT * WHERE { ?s <= ?o }", "line 1, column 41: forbidden character in IRI: ' '"),
    ],
)
def test_an_operator_where_a_term_stands_is_named_as_before(query, message):
    with pytest.raises(SparqlError) as info:
        parse_query(query)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "group, column",
    [("{ SELECT * WHERE { ?s ?p ?o } }", 18), ("{ ?s ?p ?o OPTIONAL { select * { ?s ?p ?o } } }", 38)],
)
def test_a_subquery_that_fills_a_group_is_named(group, column):
    with pytest.raises(UnsupportedSparqlError, match="subqueries are not supported") as info:
        parse_query(f"SELECT * WHERE {group}")
    assert (info.value.line, info.value.column) == (1, column)


def test_a_second_triples_block_needs_a_dot():
    # TriplesBlock ::= TriplesSameSubjectPath ( '.' TriplesBlock? )?
    with pytest.raises(SparqlError, match="expected '.' or '}'") as info:
        parse_query("SELECT * WHERE { ?s <http://e/p> ?o ?x <http://e/p> ?y }")
    assert (info.value.line, info.value.column) == (1, 37)
    assert not isinstance(info.value, UnsupportedSparqlError)


@pytest.mark.parametrize(
    "between",
    [
        " . ",
        " OPTIONAL { ?a ?b ?c } ",
        " FILTER(?o) ",
        " { ?a ?b ?c } ",
        # an IRIREF in an expression is read whole, and a comment runs to
        # the end of its line
        " FILTER(?o != <http://e/a(b>) ",
        " FILTER(?o != <http://e/it's>) ",
        " FILTER(?o > 1 # a ) comment\n) ",
        # an escaped character belongs to its local name
        r" FILTER(?o = ex:a\#b) ",
        r" FILTER(?o = ex:a\)b) ",
        # a function's name is read as the lexer reads an IRIREF or a
        # prefixed name, whose prefix is not resolved
        " FILTER <http://e/a(b>(?o) ",
        r" FILTER ex:f\((?o) ",
        # builtin and function names
        ' FILTER regex(?o, "a") ',
        " FILTER bound(?o) ",
        " FILTER <http://e/f>(?o) ",
        " FILTER ex:f(?o) ",
        " FILTER :f(?o) ",
        " FILTER ex:(?o) ",
        # operators are tokens, and so are an escaped string, a language tag
        # and a builtin's name with a digit or '_'
        ' FILTER(?o <= 5 && ?o != "a\\"b" || LANG(?o) = "x"@en || !BOUND(?o) || -?o >= +1) ',
        " FILTER(?o = ex:a\\.b / 2 * 3) ",
        " FILTER SHA1(?o) ",
        " FILTER ENCODE_FOR_URI(?o) ",
    ],
)
def test_a_triples_block_may_end_before_a_group_optional_or_filter(between):
    query = parse_query("SELECT * WHERE { ?s ?p ?o" + between + "?x ?y ?z }")
    assert Variable("x") in {tp.s for tp in collect_triple_patterns(query)}


@pytest.mark.parametrize("name", ["1", "_"])
def test_a_filter_function_name_starts_with_a_letter(name):
    # no SPARQL builtin or function name starts with a digit or "_"
    with pytest.raises(SparqlError, match="unsupported FILTER constraint form") as info:
        parse_query(f"SELECT * WHERE {{ ?s ?p ?o FILTER {name}(?o) }}")
    assert (info.value.line, info.value.column) == (1, 34)
    assert not isinstance(info.value, UnsupportedSparqlError)


# Text that no token spells is invalid, in an expression too: where a
# FILTER call's name stands, a prefixed name's reader reports it, and any
# other name is unsupported where a builtin's name ends; elsewhere the
# reader of a term reports it.
@pytest.mark.parametrize(
    "after, message",
    [
        ("FILTER ex:-f(?o) }", "line 1, column 78: local name may not start with '-': '-f'"),
        ("FILTER ex.:f(?o) }", "line 1, column 78: prefix name may not end with '.': 'ex.'"),
        ("FILTER ex:f\\q(?o) }", "line 1, column 79: invalid local name escape: \\q"),
        ("FILTER \u00e9(?o) }", "line 1, column 75: unsupported FILTER constraint form"),
        ("FILTER ab-(?o) }", "line 1, column 77: unsupported FILTER constraint form"),
        ("} ORDER BY ex:-limit 5", "line 1, column 82: local name may not start with '-': '-limit'"),
        ("FILTER(?o = ~) }", "line 1, column 80: expected a term, found '~'"),
    ],
)
def test_text_that_no_token_spells_is_an_error_in_an_expression(after, message):
    with pytest.raises(SparqlError) as info:
        parse_query(f"PREFIX ex: <http://example.com/ns#> SELECT * WHERE {{ ?s ex:name ?o {after}")
    assert str(info.value) == message


@pytest.mark.parametrize("group, column", [("{ [] . }", 21), ("{ [ ] . }", 22), ("{ [] }", 21)])
def test_an_empty_bnode_subject_needs_a_predicate(group, column):
    # as in Turtle, a subject [] needs a predicate-object list
    with pytest.raises(SparqlError, match="expected a predicate") as info:
        parse_query(f"SELECT * WHERE {group}")
    assert (info.value.line, info.value.column) == (1, column)
    assert not isinstance(info.value, UnsupportedSparqlError)


def test_a_dangling_semicolon_may_end_before_the_group_closes():
    q = parse_query(f"PREFIX ex: <{EX}> SELECT * WHERE {{ [] ex:name ?n ; }}")
    (pattern,) = q.patterns
    assert pattern.s.anonymous and (pattern.p, pattern.o) == (Iri(EX + "name"), Variable("n"))
    assert q.variables == (Variable("n"),)


def test_a_dangling_semicolon_before_a_bracket_ends_the_triples_block():
    with pytest.raises(SparqlError, match="expected '.' or '}'") as info:
        parse_query("SELECT * WHERE { ?s ?p ?o ; ] }")
    assert (info.value.line, info.value.column) == (1, 29)
    assert not isinstance(info.value, UnsupportedSparqlError)


def test_a_path_operator_counts_only_directly_after_a_verb():
    # after ',' an object belongs, and '/' starts none
    with pytest.raises(SparqlError, match="expected an object, found '/'") as info:
        parse_query(f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s ex:p ?o , /x }}")
    assert not isinstance(info.value, UnsupportedSparqlError)
    with pytest.raises(UnsupportedSparqlError, match="property path"):
        parse_query(f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s ex:p/ex:q ?o }}")


def test_literal_subject_rejected():
    with pytest.raises(SparqlError):
        parse_query('SELECT * WHERE { "x" ?p ?o }')


COLLECTIONS = "collections in patterns are not supported"
LABELS = "blank node labels (_:b) in patterns are not supported"
PROPERTY_LISTS = "blank node property lists in patterns are not supported"


# Each node that patterns reject, where a subject, an object, or an object
# after ',' stands, and a path where a verb does: Turtle's node reader reads
# every place, and the parser rejects the construct at its first character.
@pytest.mark.parametrize(
    "group, unsupported, column, message",
    [
        *(
            (group, True, column, message)
            for node, message in (("( )", COLLECTIONS), ("(1)", COLLECTIONS), ("_:b", LABELS), ("_:-b", LABELS))
            for group, column in ((f"{node} ?p ?o", 18), (f"?s ?p {node}", 24), (f"?s ?p ?o , {node}", 29))
        ),
        *((group, False, column, "expected '_:'") for group, column in (("_x ?p ?o", 18), ("?s ?p _x", 24))),
        ('"a" ?p ?o', True, 18, "literal subjects are not supported"),
        ('"a"@en ?p ?o', True, 18, "literal subjects are not supported"),
        # a subject string that no token spells is read as an object's is
        ('"abc ?p ?o', False, 30, "unterminated string"),
        ('"a\\q" ?p ?o', False, 22, "invalid string escape: \\q"),
        ("'abc\n' ?p ?o", False, 22, "newline in single-line string"),
        ('"abc"@ ?p ?o', False, 23, "expected a language tag after '@'"),
        *(
            (f"{literal} ?p ?o", True, 18, "literal subjects are not supported")
            for literal in ("1", "+1", "-1", ".5", "1e3", "true", "false")
        ),
        ("truex ?p ?o", False, 23, "expected ':'"),
        ("[ ?p ?o ] ?p ?o", True, 20, PROPERTY_LISTS),
        ("?s ?p [ ?p ?o ]", True, 26, PROPERTY_LISTS),
        ("?s ?p ?o , [ ?p ?o ]", True, 31, PROPERTY_LISTS),
        ("^ex:p ?p ?o", False, 18, "expected a subject, found '^'"),
        ("?s ?p ^ex:p", False, 24, "expected an object, found '^'"),
        ("?s ^ex:p ?o", True, 21, "property paths are not supported (inverse '^')"),
        ("?s ex:p/ex:q ?o", True, 25, "property paths are not supported ('/')"),
        ("?s ex:p ?", True, 26, "property paths are not supported ('?')"),
        ("?s ex:p ?o , ?", False, 31, "expected a variable"),
    ],
)
def test_a_rejected_node_is_named_at_its_place(group, unsupported, column, message):
    with pytest.raises(SparqlError) as info:
        parse_query(f"PREFIX ex: <{EX}>\nSELECT * WHERE {{ {group} }}")
    assert isinstance(info.value, UnsupportedSparqlError) is unsupported
    assert str(info.value) == f"line 2, column {column}: {message}"


@pytest.mark.parametrize(
    "query, message",
    [
        ("SELECT", "SELECT needs \\* or at least one projection"),
        ("SELECT ", "SELECT needs \\* or at least one projection"),
        ("SELECT * WHERE { ?s", "expected a predicate"),
        ("SELECT * WHERE { ?s ", "expected a predicate"),
    ],
)
def test_end_of_input_names_what_is_missing(query, message):
    with pytest.raises(SparqlError, match=message) as info:
        parse_query("PREFIX ex: <http://example.com/ns#> " + query)
    assert not isinstance(info.value, UnsupportedSparqlError)


@pytest.mark.parametrize(
    "modifiers, column, message",
    [
        ("ORDER BY", 37, "expected a condition after ORDER BY"),
        ("ORDER BY LIMIT 3", 38, "expected a condition after ORDER BY"),
        ("GROUP BY ORDER BY ?s", 38, "expected a condition after GROUP BY"),
        ("HAVING", 35, "expected a condition after HAVING"),
        ("LIMIT 3 LIMIT 4", 37, "LIMIT is repeated or out of order"),
        ("OFFSET 1 LIMIT 3 OFFSET 2", 46, "OFFSET is repeated or out of order"),
        ("LIMIT 3 ORDER BY ?s", 37, "ORDER BY is repeated or out of order"),
        ("ORDER BY ?s GROUP BY ?s", 41, "GROUP BY is repeated or out of order"),
        ("ORDER BY ?s HAVING (?s)", 41, "HAVING is repeated or out of order"),
        ("OFFSET -1", 36, "expected an unsigned integer"),
        ("LIMIT +3", 35, "expected an unsigned integer"),
    ],
)
def test_solution_modifiers_follow_the_grammar(modifiers, column, message):
    # GroupClause? HavingClause? OrderClause? LimitOffsetClauses?
    with pytest.raises(SparqlError, match=message) as info:
        parse_query("SELECT * WHERE { ?s ?p ?o } " + modifiers)
    assert (info.value.line, info.value.column) == (1, column)
    assert not isinstance(info.value, UnsupportedSparqlError)


@pytest.mark.parametrize(
    "query, column, message",
    [
        ("SELECT * WHERE { ?s ?p ١٢ }", 24, "expected an object, found '١'"),
        ("SELECT * WHERE { ?s ?p ١.٥ }", 24, "expected an object, found '١'"),
        ("SELECT * WHERE { ?s ?p ?o } LIMIT ١٢", 35, "expected an unsigned integer"),
        ("SELECT * WHERE { ?s ?p ?o } OFFSET ٣", 36, "expected an unsigned integer"),
        ("SELECT * WHERE { ١٢ ?p ?o }", 18, "expected a subject, found '١'"),
    ],
)
def test_a_number_is_spelled_with_ascii_digits(query, column, message):
    # SPARQL 1.1 §19.8 spells INTEGER, DECIMAL and DOUBLE with [0-9]
    with pytest.raises(SparqlError, match=f"^line 1, column {column}: {message}$") as info:
        parse_query(query)
    assert not isinstance(info.value, UnsupportedSparqlError)


def test_limit_and_offset_come_in_either_order():
    for text in ("LIMIT 3 OFFSET 2", "OFFSET 2 LIMIT 3"):
        q = parse_query("SELECT * WHERE { ?s ?p ?o } " + text)
        assert q.unevaluable == {"LIMIT", "OFFSET"}


def test_syntax_error_has_position():
    with pytest.raises(SparqlError) as exc:
        parse_query("SELECT ?s WHERE { ?s ?p }")
    assert "line 1" in str(exc.value)


def test_default_prefix_and_base():
    q = parse_query(
        "BASE <http://b.example/>\nPREFIX : <http://d.example/>\n"
        "SELECT * WHERE { :s :p <rel> }"
    )
    got = collect_triple_patterns(q)
    assert got == {
        tp(
            Iri("http://d.example/s"),
            Iri("http://d.example/p"),
            Iri("http://b.example/rel"),
        )
    }


def test_prefix_keyword_needs_whitespace_or_a_comment_after_it():
    # "PREFIX:" is one PNAME_NS token, so this is no prologue but a bad query
    with pytest.raises(SparqlError, match=r"^line 1, column 1: expected SELECT$"):
        parse_query("PREFIX:<http://e/> SELECT * WHERE { :s ?p ?o }")
    for prologue, name in (
        ("PREFIX : <http://e/>", ""),
        ("PREFIX\t:<http://e/>", ""),
        ("PREFIX# a comment\n:<http://e/>", ""),
        ("prefix ex:<http://e/>", "ex"),
    ):
        q = parse_query(f"{prologue} SELECT * WHERE {{ {name}:s ?p ?o }}")
        assert collect_triple_patterns(q) == {tp(Iri("http://e/s"), Variable("p"), Variable("o"))}


def test_flatten_bgp():
    q = parse_query("SELECT * WHERE { ?s ?p ?o . ?o ?q ?r }")
    flat = flatten_bgp(q)
    assert flat is not None and len(flat) == 2
    q2 = parse_query("SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s ?q ?x } }")
    assert flatten_bgp(q2) is None
    q3 = parse_query("SELECT * WHERE { ?s ?p ?o FILTER (?o > 1) }")
    assert flatten_bgp(q3) is None
    q4 = parse_query("SELECT * WHERE { { ?s ?p ?o . } ?o ?q ?r }")
    flat4 = flatten_bgp(q4)
    assert flat4 is not None and len(flat4) == 2


def test_patterns_are_read_in_document_order(airports_query_text):
    a, s = Variable("airportId"), Variable("s")
    for text, patterns, names in (
        (
            airports_query_text,
            (
                tp(a, Iri(EX + "route"), Iri("http://transit.api/route/43")),
                tp(a, Iri("http://vocab.gtfs.org/terms#long"), Literal("23.0", XSD_DOUBLE)),
            ),
            set(),
        ),
        (
            "SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <http://e/q> ?x } }",
            (tp(s, Variable("p"), Variable("o")), tp(s, Iri("http://e/q"), Variable("x"))),
            {"OPTIONAL"},
        ),
        (
            "SELECT DISTINCT ?s WHERE { ?s <http://e/p> 5 . FILTER (?s != <http://e/x>) } LIMIT 3",
            (tp(s, Iri("http://e/p"), Literal("5", XSD_INTEGER)),),
            {"FILTER", "LIMIT"},
        ),
    ):
        q = parse_query(text)
        assert (q.patterns, q.unevaluable) == (patterns, names)
