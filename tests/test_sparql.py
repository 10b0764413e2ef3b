"""SPARQL SELECT parsing: the supported subset and its explicit limits."""

import pytest

from rmlprune.errors import SparqlError, UnsupportedSparqlError
from rmlprune.rdf import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    Iri,
    Literal,
    TriplePattern,
    Variable,
)
from rmlprune.sparql import (
    FilterNode,
    GroupNode,
    OptionalNode,
    collect_triple_patterns,
    flatten_bgp,
    parse_query,
)

from .helpers import format_query

EX = "http://example.com/ns#"


def tp(s, p, o) -> TriplePattern:
    return TriplePattern(s, p, o)


def patterns(text: str) -> set[TriplePattern]:
    return collect_triple_patterns(parse_query(text))


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
    assert q.variables is None
    q2 = parse_query("SELECT ?s ?o WHERE { ?s ?p ?o }")
    assert q2.variables == (Variable("s"), Variable("o"))


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


def test_anonymous_bnode_becomes_fresh_variable():
    q = parse_query("SELECT * WHERE { [] <http://e/p> ?o . [] <http://e/p> ?o2 . }")
    pats = sorted(collect_triple_patterns(q), key=repr)
    subjects = {p.s for p in pats}
    assert len(subjects) == 2
    assert all(isinstance(s, Variable) and s.name.startswith("_bnode") for s in subjects)


def test_optional_and_filter_structure():
    q = parse_query(
        "SELECT * WHERE { ?s <http://e/p> ?o . "
        "OPTIONAL { ?s <http://e/q> ?x } FILTER (?o > 3) }"
    )
    assert isinstance(q.where, FilterNode)
    assert "?o > 3" in q.where.expression
    inner = q.where.inner
    assert isinstance(inner, GroupNode)
    assert any(isinstance(c, OptionalNode) for c in inner.children)
    assert collect_triple_patterns(q) == {
        tp(Variable("s"), Iri("http://e/p"), Variable("o")),
        tp(Variable("s"), Iri("http://e/q"), Variable("x")),
    }


def test_filter_with_builtin_call():
    q = parse_query(
        'SELECT * WHERE { ?s <http://e/p> ?o . FILTER regex(?o, "^a(b)c$") }'
    )
    assert isinstance(q.where, FilterNode)
    assert 'regex(?o, "^a(b)c$")' in q.where.expression


def test_select_expression_is_recorded_raw():
    q = parse_query("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }")
    assert q.select_expressions
    assert "COUNT(?s)" in q.select_expressions[0]


@pytest.mark.parametrize(
    "literal",
    ['"""a"b"""', "'''it's'''", r'"a\"b)"', "'('", "'''x\n)y'''", r'""""a"" \""""'],
)
def test_filter_reads_every_string_form_whole(literal):
    # quotes and parentheses inside a string neither end it nor count
    q = parse_query(f"SELECT * WHERE {{ ?s ?p ?o FILTER(?o = {literal}) }}")
    assert q.where.expression == f"(?o = {literal})"


def test_select_expression_holds_a_long_string():
    q = parse_query('SELECT (CONCAT("""a"b""", ?o) AS ?x) WHERE { ?s ?p ?o }')
    assert q.select_expressions == ('(CONCAT("""a"b""", ?o) AS ?x)',)


def test_a_long_string_in_a_condition_leaves_the_next_modifier():
    q = parse_query('SELECT * WHERE { ?s ?p ?o } ORDER BY (STR("""x"y""")) LIMIT 5')
    assert (q.modifiers.order_by, q.modifiers.limit) == ('(STR("""x"y"""))', 5)
    q = parse_query('SELECT * WHERE { ?s ?p ?o } ORDER BY ?o "LIMIT 3" OFFSET 2')
    assert (q.modifiers.order_by, q.modifiers.limit, q.modifiers.offset) == ('?o "LIMIT 3"', None, 2)


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
    assert q.modifiers.distinct
    assert q.modifiers.order_by == "?s"
    assert q.modifiers.limit == 10
    assert q.modifiers.offset == 5
    assert set(q.modifiers.beyond_distinct()) == {"ORDER BY", "LIMIT", "OFFSET"}
    plain = parse_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
    assert plain.modifiers.beyond_distinct() == []


def test_group_by_and_having_recorded():
    q = parse_query(
        "SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(?o) > 1)"
    )
    assert q.modifiers.group_by == "?s"
    assert "COUNT(?o) > 1" in q.modifiers.having


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
        ("SELECT * WHERE { ?s ?p ?o FILTER EXISTS { ?s ?q ?o } }", "EXISTS"),
        ("SELECT * WHERE { [ <http://e/p> ?o ] <http://e/q> ?x }", "property list"),
        ('SELECT * WHERE { ?s ?p "x"@en }', "language"),
        ("SELECT * WHERE { ?s ?p (1 2) }", "collection"),
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


def test_literal_subject_rejected():
    with pytest.raises(SparqlError):
        parse_query('SELECT * WHERE { "x" ?p ?o }')


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


def test_limit_and_offset_come_in_either_order():
    for text in ("LIMIT 3 OFFSET 2", "OFFSET 2 LIMIT 3"):
        q = parse_query("SELECT * WHERE { ?s ?p ?o } " + text)
        assert (q.modifiers.limit, q.modifiers.offset) == (3, 2)


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


def test_format_query_reparses_to_same_patterns(airports_query_text):
    for text in (
        airports_query_text,
        "SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <http://e/q> ?x } }",
        "SELECT DISTINCT ?s WHERE { ?s <http://e/p> 5 . FILTER (?s != <http://e/x>) } LIMIT 3",
    ):
        q = parse_query(text)
        rendered = format_query(q)
        q2 = parse_query(rendered)
        assert collect_triple_patterns(q2) == collect_triple_patterns(q)
        assert q2.variables == q.variables
        assert q2.modifiers == q.modifiers
