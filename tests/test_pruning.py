"""Incompatibility checks and mapping pruning."""

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import rmlprune
from rmlprune import pruning
from rmlprune.algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    ExtractSpec,
    RmlMappingExpr,
    Template,
    TriplesMapExpr,
    materialize,
)
from rmlprune.gendata import MAPPING_TTL, QUERIES
from rmlprune.pruning import CACHE_SIZE, FullyPruned, incompatibility_trace, prune
from rmlprune.rdf import XSD_DOUBLE, XSD_INTEGER, XSD_STRING, Term, TriplePattern, Variable
from rmlprune.rml import parse_rml
from rmlprune.sparql import collect_triple_patterns, parse_query

from . import randgen
from .helpers import BlankNode, Iri, Literal, reason, ref, wide_mapping_text
from .test_algebra import BASE, joined_trmap, simple_trmap

V = Variable


# ---------------------------------------------------------------------------
# per-constructor checks
# ---------------------------------------------------------------------------


IRI_U = Iri("http://e.com/s/41")


def object_reason(expr, term: Term) -> str | None:
    """The trace's reason that *expr*, as an object constructor, can never
    build the pattern's object *term*, or ``None``."""
    tm = TriplesMapExpr(
        ConstantTerm(IRI_U), ConstantTerm(IRI_U), expr, ExtractSpec("t.csv", {a: a for a in expr.attrs})
    )
    return reason(TriplePattern(V("s"), V("p"), term), tm)


def builds(text: str, parts: tuple[str, ...]) -> bool:
    """Whether a string literal constructor over *parts* can build *text*."""
    return object_reason(BuildLiteral(Template(parts), XSD_STRING), Literal(text)) is None


def test_escape_regex_text_escapes_all_metacharacters():
    specials = ".[]\\()*+?{}|^$"
    assert builds(specials, (specials,))
    assert not builds("x" * len(specials), (specials,))
    assert builds("plain-text_123", ("plain-text_123",))


def test_template_regex_parts():
    assert builds("a.b", ("a.b",))
    assert not builds("axb", ("a.b",))
    assert builds("anything", ref("x").parts)
    # an empty cell builds no term, so a reference never matches ""
    assert not builds("", ref("x").parts)
    assert builds("http://e/1?q=1", ("http://e/", "x", "?q=1"))
    assert not builds("http://e/1xq=1", ("http://e/", "x", "?q=1"))
    assert builds("ab.", ("", "x", "", "y", "."))
    assert not builds("a.", ("", "x", "", "y", "."))


def test_regex_fullmatch_is_anchored_and_dotall():
    template = ("a", "x", "c")
    assert builds("abc", template)
    assert builds("a\nc", template)  # wildcard spans newlines
    assert not builds("abcd", template)
    assert not builds("xabc", template)
    assert not builds("", ("", "x", ""))
    assert builds("", ("",))


def test_iri_incompatible_against_literal_and_bnode_builders():
    assert object_reason(BuildLiteral(ref("a"), XSD_INTEGER), IRI_U) == "object: builds literals, not IRIs"
    assert object_reason(BuildBlank(ref("a")), IRI_U) == "object: builds blank nodes, not IRIs"
    assert object_reason(ConstantTerm(BlankNode("b")), IRI_U)


def test_iri_incompatible_constants():
    assert object_reason(ConstantTerm(IRI_U), IRI_U) is None
    assert object_reason(ConstantTerm(Iri("http://e.com/other")), IRI_U)
    assert object_reason(ConstantTerm(Literal("x")), IRI_U)


def test_iri_incompatible_templates():
    expr = BuildIri(Template(("http://e.com/s/", "id", "")), BASE)
    assert object_reason(expr, Iri("http://e.com/s/41")) is None
    assert object_reason(expr, Iri("http://e.com/other/41"))
    # the bare prefix needs an empty id, which is NULL and builds no IRI
    assert object_reason(expr, Iri("http://e.com/s/"))


def test_iri_incompatible_considers_base_prefixed_form():
    expr = BuildIri(ref("id"), BASE)
    # the raw body .+ matches any IRI, so nothing is incompatible
    assert object_reason(expr, IRI_U) is None
    rooted = BuildIri(Template(("x/", "id", "")), BASE)
    assert object_reason(rooted, Iri(BASE + "x/7")) is None
    assert object_reason(rooted, Iri("http://other.example/x/7"))


def test_iri_incompatible_regex_specials_in_text_are_literal():
    expr = BuildIri(Template(("http://e.com/a+b/", "id", "")), BASE)
    assert object_reason(expr, Iri("http://e.com/a+b/1")) is None
    assert object_reason(expr, Iri("http://e.com/aab/1"))


# ---------------------------------------------------------------------------
# triple-pattern checks
# ---------------------------------------------------------------------------


def test_reason_subject_predicate_object_positions():
    tm = simple_trmap()  # subject http://e.com/s/{id}, predicate e.com/name, object string literal
    ok = TriplePattern(Iri("http://e.com/s/7"), Iri("http://e.com/name"), V("o"))
    assert reason(ok, tm) is None
    bad_s = TriplePattern(Iri("http://other/7"), V("p"), V("o"))
    assert "subject" in reason(bad_s, tm)
    bad_p = TriplePattern(V("s"), Iri("http://e.com/other"), V("o"))
    assert "predicate" in reason(bad_p, tm)
    bad_o = TriplePattern(V("s"), V("p"), Iri("http://e.com/x"))
    assert "object" in reason(bad_o, tm)  # literal-building object vs IRI


def test_reason_literal_objects():
    tm = simple_trmap()
    match = TriplePattern(V("s"), V("p"), Literal("anything"))
    assert reason(match, tm) is None
    wrong_dt = TriplePattern(V("s"), V("p"), Literal("anything", XSD_INTEGER))
    assert "datatype" in reason(wrong_dt, tm)


def test_reason_literal_lexical_space():
    tm = TriplesMapExpr(
        subject_expr=BuildIri(ref("id"), BASE),
        predicate_expr=ConstantTerm(Iri("http://e.com/code")),
        object_expr=BuildLiteral(Template(("ID-", "id", "")), XSD_INTEGER),
        extract=ExtractSpec("t.csv", {"id": "id"}),
    )
    hit = TriplePattern(V("s"), V("p"), Literal("ID-7", XSD_INTEGER))
    miss = TriplePattern(V("s"), V("p"), Literal("XX-7", XSD_INTEGER))
    assert reason(hit, tm) is None
    assert "match" in reason(miss, tm)


def test_reason_joined_object_never_literal():
    tm = joined_trmap()
    lit = TriplePattern(V("s"), V("p"), Literal("v"))
    # the kind check rules it out: a joined object's constructor builds no literal
    assert reason(lit, tm) == "object: builds IRIs, not literals"
    iri_ok = TriplePattern(V("s"), V("p"), Iri("http://e.com/o/P1"))
    assert reason(iri_ok, tm) is None
    iri_bad = TriplePattern(V("s"), V("p"), Iri("http://other/o"))
    assert reason(iri_bad, tm)


def test_all_variable_pattern_is_never_incompatible():
    pattern = TriplePattern(V("s"), V("p"), V("o"))
    for tm in (simple_trmap(), joined_trmap()):
        assert reason(pattern, tm) is None


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


def test_prune_drops_a_template_at_its_boundary_iri():
    # <http://e.com/s/> would need an empty id, and an empty cell builds nothing
    tm = simple_trmap()
    boundary = TriplePattern(Iri("http://e.com/s/"), V("p"), V("o"))
    assert reason(boundary, tm) is not None
    assert isinstance(prune([boundary], RmlMappingExpr((tm,))), FullyPruned)


# A required pattern that no expression builds leaves the query no solution
# (SPARQL 1.1 §18.5), so nothing is kept; one in an OPTIONAL body does not.
@pytest.mark.parametrize(
    "where, kept",
    [
        ("?s ex:name ?n . ?s ex:nope ?m", 0),
        ("?s ex:nope ?m OPTIONAL { ?s ex:name ?n }", 0),
        ("{ ?s ex:nope ?m } FILTER(?m) ?s ex:name ?n", 0),
        ("?s ex:name ?n OPTIONAL { ?s ex:nope ?m }", 1),
    ],
)
def test_a_required_pattern_that_no_expression_builds_empties_the_query(where, kept):
    query = parse_query(f"PREFIX ex: <http://example.com/ns#> SELECT * WHERE {{ {where} }}")
    mapping, patterns = parse_rml(MAPPING_TTL), collect_triple_patterns(query)
    assert len(prune(patterns, mapping).trmaps) == 1  # ex:name's, compatible with its pattern
    result = prune(patterns, mapping, query.required)
    assert (0 if isinstance(result, FullyPruned) else len(result.trmaps)) == kept
    trace = incompatibility_trace(patterns, mapping, query.required)
    assert trace.count(": retained") == kept
    unmatched = "no solution: required pattern ?s <http://example.com/ns#nope> ?m . is compatible with no expression"
    assert (trace.splitlines()[-1] == unmatched) == (kept == 0)
    assert incompatibility_trace(patterns, mapping).count(": retained") == 1


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


def test_prune_caches_stay_within_their_bound():
    # a long-lived caller pruning ever new mappings: each mapping compiles
    # the regexes of its subject and object constructors
    (cache,) = [fn for fn in vars(pruning).values() if hasattr(fn, "cache_info")]
    cache.cache_clear()
    patterns = [
        TriplePattern(V("s"), V("p"), Literal("none")),  # no object matches
        TriplePattern(Iri("http://e.com/0/1"), V("p"), V("o")),
    ]
    for i in range(CACHE_SIZE + CACHE_SIZE // 4):
        tm = replace(
            simple_trmap(),
            subject_expr=BuildIri(Template((f"http://e.com/{i}/", "id", "")), BASE),
            object_expr=BuildLiteral(Template((f"v{i}-", "name", "")), XSD_STRING),
        )
        kept = prune(patterns, RmlMappingExpr((tm,)))
        assert isinstance(kept, FullyPruned) == (i != 0)
    assert cache.cache_info().currsize == CACHE_SIZE


def test_incompatibility_trace_pins_every_outcome():
    note = replace(
        simple_trmap(provenance="tm#note"),
        predicate_expr=ConstantTerm(Iri("http://e.com/note")),
        object_expr=ConstantTerm(Literal("a\nb")),
    )
    m = RmlMappingExpr((note, simple_trmap(provenance="tm#name")))
    patterns = [
        TriplePattern(V("s"), V("p"), Iri("http://e.com/x")),
        TriplePattern(V("s"), V("p"), Literal("7", XSD_INTEGER)),
        TriplePattern(Iri("http://other/7"), V("p"), V("o")),
        TriplePattern(V("s"), Iri("http://e.com/name"), Literal("a\nb")),
    ]
    subject_regex = "/(?:http://example\\.com/base/)?http://e\\.com/s/.+/"
    assert incompatibility_trace(patterns, m) == "\n".join([
        "tm#note: pruned",
        '  ?s ?p <http://e.com/x> . -> object: constant "a\\nb" differs from <http://e.com/x>',
        '  ?s ?p "7"^^<http://www.w3.org/2001/XMLSchema#integer> . -> object: constant "a\\nb"'
        ' differs from "7"^^<http://www.w3.org/2001/XMLSchema#integer>',
        f"  <http://other/7> ?p ?o . -> subject: <http://other/7> does not match {subject_regex}",
        '  ?s <http://e.com/name> "a\\nb" . -> predicate: constant <http://e.com/note>'
        " differs from <http://e.com/name>",
        "tm#name: retained",
        "  ?s ?p <http://e.com/x> . -> object: builds literals, not IRIs",
        '  ?s ?p "7"^^<http://www.w3.org/2001/XMLSchema#integer> . -> object: datatype'
        " <http://www.w3.org/2001/XMLSchema#string> differs from"
        " <http://www.w3.org/2001/XMLSchema#integer>",
        f"  <http://other/7> ?p ?o . -> subject: <http://other/7> does not match {subject_regex}",
        '  ?s <http://e.com/name> "a\\nb" . -> compatible',
    ])
    # a control character of a template text is a regex escape, so the
    # reason stays on one line
    newline = replace(
        simple_trmap(provenance="tm#newline"),
        object_expr=BuildLiteral(Template(("a\nb-", "name", "")), XSD_STRING),
    )
    zz = [TriplePattern(V("s"), V("p"), Literal("zz"))]
    assert incompatibility_trace(zz, RmlMappingExpr((newline,))) == "\n".join([
        "tm#newline: pruned",
        '  ?s ?p "zz" . -> object: "zz" does not match /a\\x0ab\\-.+/',
    ])
    kept = prune([TriplePattern(V("s"), V("p"), Literal("a\nb-7"))], RmlMappingExpr((newline,)))
    assert not isinstance(kept, FullyPruned)


def test_the_trace_of_the_benchmark_queries_is_pinned():
    # q01-q08, each pattern in query order, over the corpus mapping, then
    # over the wide one
    traces = [
        incompatibility_trace(parse_query(text).patterns, mapping)
        for mapping in (parse_rml(MAPPING_TTL), parse_rml(wide_mapping_text()))
        for text in QUERIES.values()
    ]
    digest = hashlib.sha256("\n".join(traces).encode()).hexdigest()
    assert digest == "cb517115df9c68bea53380eb59ab5b40b8c663c91af0276fa22955c85131bbd3"


# the trace of q01-q08 over the corpus mapping, patterns as collected
TRACE_OF_COLLECTED = """\
import hashlib
from rmlprune.gendata import MAPPING_TTL, QUERIES
from rmlprune.pruning import incompatibility_trace
from rmlprune.rml import parse_rml
from rmlprune.sparql import collect_triple_patterns, parse_query
mapping = parse_rml(MAPPING_TTL)
traces = [incompatibility_trace(collect_triple_patterns(parse_query(q)), mapping) for q in QUERIES.values()]
print(hashlib.sha256("\\n".join(traces).encode()).hexdigest())
"""


def test_collected_patterns_trace_alike_under_every_hash_seed():
    src = str(Path(rmlprune.__file__).parent.parent)
    digests = []
    for seed in (1, 2):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", TRACE_OF_COLLECTED], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_collected_patterns_are_distinct_and_in_query_order():
    query = parse_query("SELECT * WHERE { ?s <http://e/q> ?o . ?s <http://e/p> ?o . ?s <http://e/q> ?o }")
    assert list(collect_triple_patterns(query)) == list(query.patterns[:2])


def test_prune_spells_no_reason(monkeypatch):
    # prune decides by the checks the trace prints, and spells nothing
    spelled = []
    format_term = pruning.format_term
    monkeypatch.setattr(pruning, "format_term", lambda term: spelled.append(term) or format_term(term))
    note = replace(simple_trmap(provenance="tm#note"), object_expr=ConstantTerm(Literal("a\nb")))
    m = RmlMappingExpr((note, simple_trmap(provenance="tm#name")))
    patterns = [
        TriplePattern(V("s"), V("p"), Iri("http://e.com/x")),  # constant, kind
        TriplePattern(V("s"), V("p"), Literal("7", XSD_INTEGER)),  # constant, datatype
        TriplePattern(Iri("http://other/7"), V("p"), V("o")),  # regex
    ]
    assert isinstance(prune(patterns, m), FullyPruned)
    assert spelled == []
    assert incompatibility_trace(patterns, m).count(" does not match ") == 2
    assert spelled  # the probe sees the trace's spellings


# ---------------------------------------------------------------------------
# one decision: prune and the trace read one table of rulings
# ---------------------------------------------------------------------------


def headers(trace: str) -> list[str]:
    """The trace's line for each expression, ``<provenance>: <verdict>``."""
    return [line for line in trace.splitlines() if not line.startswith(("  ", "no solution: "))]


def test_the_trace_retains_exactly_what_prune_keeps_on_random_instances():
    bgps = unmatched = emptied = 0
    for seed in range(150):
        inst = randgen.make_instance(seed, allow_empty=seed % 5 == 4)
        rng = random.Random(seed * 17 + 3)
        drawn = randgen.random_patterns(rng, materialize(inst.mapping, inst.sigma), max_patterns=4)
        for patterns in (drawn, randgen.with_unbuilt_predicate(rng, drawn)):
            for required in ((), patterns):
                bgps += 1
                result = prune(patterns, inst.mapping, required)
                kept = () if isinstance(result, FullyPruned) else result.trmaps
                trace = incompatibility_trace(patterns, inst.mapping, required)
                assert headers(trace) == [
                    f"{tm.provenance}: {'retained' if any(tm is k for k in kept) else 'pruned'}"
                    for tm in inst.mapping.trmaps
                ]
                # the no-solution line iff a required pattern rules out every expression
                ruled_out = any(all(reason(tp, tm) for tm in inst.mapping.trmaps) for tp in required)
                assert trace.splitlines()[-1].startswith("no solution: ") == ruled_out
                unmatched += ruled_out
                emptied += isinstance(result, FullyPruned)
    # both verdicts, and both ways of emptying a query, are reached
    assert bgps == 600 and 0 < unmatched < emptied < bgps


def test_a_required_pattern_outside_the_patterns_is_ruled_on_the_retained_expressions():
    # a required pattern is ruled on the retained expressions only: the
    # ex:routeName expression is compatible with the required pattern but
    # with no pattern, so it is pruned and the query is emptied
    mapping = parse_rml(MAPPING_TTL)
    name, route_name = parse_query(
        "PREFIX ex: <http://example.com/ns#> SELECT * WHERE { ?s ex:name ?n . ?s ex:routeName ?m }"
    ).patterns
    assert prune([name], mapping, [route_name]) == FullyPruned(original_count=len(mapping.trmaps))
    trace = incompatibility_trace([name], mapping, [route_name])
    assert headers(trace) == [f"{tm.provenance}: pruned" for tm in mapping.trmaps]
    assert trace.endswith(
        "\nno solution: required pattern ?s <http://example.com/ns#routeName> ?m . is compatible with no expression"
    )
    # one that a retained expression is compatible with empties nothing
    other_name = TriplePattern(V("x"), Iri("http://example.com/ns#name"), V("y"))
    kept = prune([name], mapping).trmaps
    assert prune([name], mapping, [other_name]).trmaps == prune([name], mapping, [name]).trmaps == kept
    assert incompatibility_trace([name], mapping, [other_name]) == incompatibility_trace([name], mapping)


def test_a_duplicated_pattern_is_traced_at_each_occurrence():
    m = RmlMappingExpr((simple_trmap(provenance="keep"), joined_trmap()))
    pattern = TriplePattern(V("s"), Iri("http://e.com/name"), V("o"))
    assert prune([pattern, pattern], m).trmaps == prune([pattern], m).trmaps
    once = incompatibility_trace([pattern], m).splitlines()
    twice = incompatibility_trace([pattern, pattern], m, [pattern, pattern]).splitlines()
    # each expression's verdict, then its line for the pattern once per occurrence
    assert twice == [once[0], once[1], once[1], once[2], once[3], once[3]]
