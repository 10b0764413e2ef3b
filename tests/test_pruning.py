"""Incompatibility checks and mapping pruning."""

import re

import pytest

from rmlprune.algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    RmlMappingExpr,
    Template,
)
from rmlprune.pruning import (
    FullyPruned,
    escape_regex_text,
    incompatibility_trace,
    iri_incompatible,
    prune,
    regex_fullmatch,
    template_regex,
    tp_incompatible,
)
from rmlprune.rdf import (
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    TriplePattern,
    Variable,
)
from rmlprune.sparql import collect_triple_patterns, parse_query

from .helpers import ref
from .test_algebra import BASE, joined_trmap, simple_trmap

V = Variable


# ---------------------------------------------------------------------------
# regex construction
# ---------------------------------------------------------------------------


def test_escape_regex_text_escapes_all_metacharacters():
    specials = ".[]\\()*+?{}|^$"
    escaped = escape_regex_text(specials)
    assert escaped == "".join("\\" + c for c in specials)
    assert re.fullmatch(escaped, specials)
    assert escape_regex_text("plain-text_123") == "plain-text_123"


def test_template_regex_parts():
    assert template_regex(Template(("a.b",))) == "a\\.b"
    assert template_regex(ref("x")) == ".+"
    assert template_regex(ref("x"), False) == ".*"
    assert template_regex(Template(("http://e/", "x", "?q=1"))) == "http://e/.+\\?q=1"
    assert template_regex(Template(("", "x", "", "y", "."))) == ".+.+\\."


def test_regex_fullmatch_is_anchored_and_dotall():
    assert regex_fullmatch("a.+c", "abc")
    assert regex_fullmatch("a.+c", "a\nc")  # wildcard spans newlines
    assert not regex_fullmatch("a.+c", "abcd")
    assert not regex_fullmatch("a.+c", "xabc")
    assert not regex_fullmatch(".+", "")
    assert regex_fullmatch(".*", "")


# ---------------------------------------------------------------------------
# per-constructor checks
# ---------------------------------------------------------------------------


IRI_U = Iri("http://e.com/s/41")


def test_iri_incompatible_against_literal_and_bnode_builders():
    assert iri_incompatible(BuildLiteral(ref("a"), XSD_INTEGER), IRI_U)
    assert iri_incompatible(BuildBlank(ref("a")), IRI_U)
    assert iri_incompatible(ConstantTerm(BlankNode("b")), IRI_U)


def test_iri_incompatible_constants():
    assert iri_incompatible(ConstantTerm(IRI_U), IRI_U) is None
    assert iri_incompatible(ConstantTerm(Iri("http://e.com/other")), IRI_U)
    assert iri_incompatible(ConstantTerm(Literal("x")), IRI_U)


def test_iri_incompatible_templates():
    expr = BuildIri(Template(("http://e.com/s/", "id", "")), BASE)
    assert iri_incompatible(expr, Iri("http://e.com/s/41")) is None
    assert iri_incompatible(expr, Iri("http://e.com/other/41"))
    # the empty-remainder case depends on the nonempty assumption
    assert iri_incompatible(expr, Iri("http://e.com/s/"))
    assert iri_incompatible(expr, Iri("http://e.com/s/"), assume_nonempty=False) is None


def test_iri_incompatible_considers_base_prefixed_form():
    expr = BuildIri(ref("id"), BASE)
    # the raw body .+ matches any IRI, so nothing is incompatible
    assert iri_incompatible(expr, IRI_U) is None
    rooted = BuildIri(Template(("x/", "id", "")), BASE)
    assert iri_incompatible(rooted, Iri(BASE + "x/7")) is None
    assert iri_incompatible(rooted, Iri("http://other.example/x/7"))


def test_iri_incompatible_regex_specials_in_text_are_literal():
    expr = BuildIri(Template(("http://e.com/a+b/", "id", "")), BASE)
    assert iri_incompatible(expr, Iri("http://e.com/a+b/1")) is None
    assert iri_incompatible(expr, Iri("http://e.com/aab/1"))


# ---------------------------------------------------------------------------
# triple-pattern checks
# ---------------------------------------------------------------------------


def test_tp_incompatible_subject_predicate_object_positions():
    tm = simple_trmap()  # subject http://e.com/s/{id}, predicate e.com/name, object string literal
    ok = TriplePattern(Iri("http://e.com/s/7"), Iri("http://e.com/name"), V("o"))
    assert tp_incompatible(ok, tm) is None
    bad_s = TriplePattern(Iri("http://other/7"), V("p"), V("o"))
    assert "subject" in tp_incompatible(bad_s, tm)
    bad_p = TriplePattern(V("s"), Iri("http://e.com/other"), V("o"))
    assert "predicate" in tp_incompatible(bad_p, tm)
    bad_o = TriplePattern(V("s"), V("p"), Iri("http://e.com/x"))
    assert "object" in tp_incompatible(bad_o, tm)  # literal-building object vs IRI


def test_tp_incompatible_literal_objects():
    tm = simple_trmap()
    match = TriplePattern(V("s"), V("p"), Literal("anything"))
    assert tp_incompatible(match, tm) is None
    wrong_dt = TriplePattern(V("s"), V("p"), Literal("anything", XSD_INTEGER))
    assert "datatype" in tp_incompatible(wrong_dt, tm)


def test_tp_incompatible_literal_lexical_space():
    from rmlprune.algebra import ExtractSpec, TriplesMapExpr

    tm = TriplesMapExpr(
        subject_expr=BuildIri(ref("id"), BASE),
        predicate_expr=ConstantTerm(Iri("http://e.com/code")),
        object_expr=BuildLiteral(Template(("ID-", "id", "")), XSD_INTEGER),
        extract=ExtractSpec("t.csv", {"id": "id"}),
    )
    hit = TriplePattern(V("s"), V("p"), Literal("ID-7", XSD_INTEGER))
    miss = TriplePattern(V("s"), V("p"), Literal("XX-7", XSD_INTEGER))
    assert tp_incompatible(hit, tm) is None
    assert "match" in tp_incompatible(miss, tm)


def test_tp_incompatible_joined_object_never_literal():
    tm = joined_trmap()
    lit = TriplePattern(V("s"), V("p"), Literal("v"))
    assert "joined" in tp_incompatible(lit, tm)
    iri_ok = TriplePattern(V("s"), V("p"), Iri("http://e.com/o/P1"))
    assert tp_incompatible(iri_ok, tm) is None
    iri_bad = TriplePattern(V("s"), V("p"), Iri("http://other/o"))
    assert tp_incompatible(iri_bad, tm)


def test_all_variable_pattern_is_never_incompatible():
    pattern = TriplePattern(V("s"), V("p"), V("o"))
    for tm in (simple_trmap(), joined_trmap()):
        assert tp_incompatible(pattern, tm) is None


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def test_prune_keeps_expressions_compatible_with_some_pattern():
    simple = simple_trmap(provenance="simple")
    joined = joined_trmap()
    m = RmlMappingExpr((simple, joined))
    keep_simple = [TriplePattern(V("s"), Iri("http://e.com/name"), V("o"))]
    result = prune(keep_simple, m)
    assert isinstance(result, RmlMappingExpr)
    assert result.trmaps == (simple,)
    keep_both = keep_simple + [TriplePattern(V("s"), Iri("http://e.com/link"), V("o"))]
    assert prune(keep_both, m).trmaps == (simple, joined)


def test_prune_preserves_input_order():
    tms = tuple(simple_trmap(provenance=f"p{i}") for i in range(4))
    m = RmlMappingExpr(tms)
    result = prune([TriplePattern(V("s"), V("p"), V("o"))], m)
    assert result.trmaps == tms


def test_prune_fully_pruned_marker():
    m = RmlMappingExpr((simple_trmap(),))
    nothing = [TriplePattern(V("s"), Iri("http://nowhere/p"), V("o"))]
    result = prune(nothing, m)
    assert result == FullyPruned(original_count=1)


def test_prune_golden_airports(airports_mapping, airports_query_text):
    patterns = collect_triple_patterns(parse_query(airports_query_text))
    result = prune(patterns, airports_mapping)
    assert isinstance(result, RmlMappingExpr)
    assert len(result.trmaps) == 1
    (kept,) = result.trmaps
    assert kept.predicate_expr == ConstantTerm(Iri("http://vocab.gtfs.org/terms#long"))
    assert kept.provenance.endswith("#pom1")


def test_prune_airports_route_pattern_alone_keeps_route(airports_mapping):
    q = parse_query(
        "PREFIX ex: <http://example.com/ns#>\n"
        "SELECT * WHERE { ?a ex:route <http://example.com/route/43> . }"
    )
    result = prune(collect_triple_patterns(q), airports_mapping)
    assert len(result.trmaps) == 1
    assert result.trmaps[0].provenance.endswith("#pom0")


def test_assume_nonempty_toggle_changes_outcomes():
    tm = simple_trmap()
    boundary = TriplePattern(Iri("http://e.com/s/"), V("p"), V("o"))
    assert tp_incompatible(boundary, tm) is not None
    assert tp_incompatible(boundary, tm, assume_nonempty=False) is None
    m = RmlMappingExpr((tm,))
    assert isinstance(prune([boundary], m), FullyPruned)
    assert isinstance(prune([boundary], m, assume_nonempty=False), RmlMappingExpr)


def test_incompatibility_trace_mentions_every_pair():
    m = RmlMappingExpr((simple_trmap(provenance="keep"), joined_trmap()))
    patterns = [TriplePattern(V("s"), Iri("http://e.com/name"), V("o"))]
    trace = incompatibility_trace(patterns, m)
    assert "keep: retained" in trace
    assert "tm#pom1: pruned" in trace
    assert "compatible" in trace
    assert "<http://e.com/name>" in trace


def test_incompatibility_trace_escapes_literals():
    m = RmlMappingExpr((simple_trmap(),))
    pattern = TriplePattern(V("s"), V("p"), Literal('say "hi"\n\x01'))
    trace = incompatibility_trace([pattern], m)
    assert '"say \\"hi\\"\\n\\u0001"' in trace
    assert len(trace.splitlines()) == 2
