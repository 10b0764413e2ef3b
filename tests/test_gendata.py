"""The deterministic benchmark corpus generator."""

import hashlib
from pathlib import Path

import pytest

from rmlprune.algebra import BuildBlank, DataObject, materialize
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.gendata import MAPPING_TTL, QUERIES, generate
from rmlprune.ntriples import serialize_graph
from rmlprune.pruning import FullyPruned, prune
from rmlprune.rdf import eval_bgp
from rmlprune.rml import parse_rml
from rmlprune.sparql import collect_triple_patterns, flatten_bgp, parse_query

EXPECTED_RETAINED = {
    "q01": 14,
    "q02": 1,
    "q03": 3,
    "q04": 1,
    "q05": 0,  # fully pruned
    "q06": 5,
    "q07": 3,
    "q08": 2,
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    generate(out, scale=1, seed=42)
    return out


@pytest.fixture(scope="module")
def corpus_mapping():
    return parse_rml(MAPPING_TTL)


@pytest.fixture(scope="module")
def corpus_sigma(corpus):
    return {
        name: DataObject(kind=CSV_KIND, payload=parse_csv((corpus / name).read_bytes()))
        for name in ("stops.csv", "routes.csv", "shapes.csv")
    }


def test_generate_row_counts(corpus):
    counts = generate(corpus, scale=1, seed=42)
    assert counts == {"stops.csv": 100, "routes.csv": 20, "shapes.csv": 200}


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate(a, scale=1, seed=7)
    generate(b, scale=1, seed=7)
    names = ["stops.csv", "routes.csv", "shapes.csv", "mapping.ttl", "queries/q01.rq"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c"
    generate(c, scale=1, seed=8)
    assert (a / "stops.csv").read_bytes() != (c / "stops.csv").read_bytes()


def test_generate_scales_row_counts(tmp_path):
    counts = generate(tmp_path, scale=2, seed=1)
    assert counts == {"stops.csv": 200, "routes.csv": 40, "shapes.csv": 400}


def test_generate_rejects_bad_scale(tmp_path):
    with pytest.raises(ValueError):
        generate(tmp_path, scale=0)


def test_mapping_translates_to_fourteen_expressions(corpus_mapping):
    assert len(corpus_mapping.trmaps) == 14
    joined = [tm for tm in corpus_mapping.trmaps if tm.parent_extract is not None]
    assert len(joined) == 2
    self_join = [tm for tm in joined if len(tm.join_conditions) == 2]
    assert len(self_join) == 1
    assert self_join[0].extract.source_ref == "shapes.csv"
    assert self_join[0].parent_extract.source_ref == "shapes.csv"
    blanks = [
        tm for tm in corpus_mapping.trmaps if isinstance(tm.object_expr, BuildBlank)
    ]
    assert len(blanks) == 1


def test_every_query_is_a_plain_bgp():
    assert set(QUERIES) == {f"q{n:02d}" for n in range(1, 9)}
    for text in QUERIES.values():
        query = parse_query(text)
        patterns = flatten_bgp(query)
        assert patterns is not None and patterns


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_frozen_retention_counts(name, corpus_mapping):
    query = parse_query(QUERIES[name])
    patterns = collect_triple_patterns(query)
    # every pattern of each query is required, and none is left unmatched
    for result in (prune(patterns, corpus_mapping), prune(patterns, corpus_mapping, query.required)):
        if EXPECTED_RETAINED[name] == 0:
            assert result == FullyPruned(original_count=14)
        else:
            assert len(result.trmaps) == EXPECTED_RETAINED[name]


# Today's pruning precision on the corpus mapping, pinned so that a change
# meant to keep every decision keeps these.  Join-aware pruning (the first
# three) and exact single-pattern satisfiability (the last three) will
# lower them on purpose.
PRECISION_PINS = {
    "?s a ex:Stop . ?s ?p ?o": 14,
    "?s ?p ?o . ?o a ex:Stop": 14,
    "?s ex:name ?n . ?s ex:routeName ?m": 2,
    "?x ex:zone ?x": 1,
    "?x ex:name ?x": 1,
    "<http://example.com/shape/A/3> ex:prev <http://example.com/shape/B/2>": 1,
}


@pytest.mark.parametrize("bgp", list(PRECISION_PINS))
def test_pruning_precision_pins(bgp, corpus_mapping):
    query = parse_query(f"PREFIX ex: <http://example.com/ns#> SELECT * WHERE {{ {bgp} }}")
    result = prune(query.patterns, corpus_mapping)
    assert len(result.trmaps) == PRECISION_PINS[bgp]


def test_full_materialization_size(corpus_mapping, corpus_sigma):
    graph = materialize(corpus_mapping, corpus_sigma)
    # 100 stops x 5 + 20 routes x 4 + 200 shape points x 4 + 190 predecessor links
    assert len(graph.triples) == 1570


# (triples, sha256 of the N-Triples text) of the corpus at seed 42; a faster
# evaluator must keep the output byte-identical.
PINNED_SHA256 = {
    1: (1570, "ea78f3f3cfad0c2c31f2f0fe8d35b4c61ee45918187304007d4ce2845daefe3e"),
    10: (15700, "cc7f229409097d55ded958eb905c1ff84bc8730a7daf82536674096aa86889c9"),
}


def _materialize_corpus(directory: Path, scale: int):
    generate(directory, scale=scale, seed=42)
    sigma = {
        name: DataObject(kind=CSV_KIND, payload=parse_csv((directory / name).read_bytes()))
        for name in ("stops.csv", "routes.csv", "shapes.csv")
    }
    mapping = parse_rml((directory / "mapping.ttl").read_bytes())
    return materialize(mapping, sigma)


@pytest.mark.parametrize("scale", sorted(PINNED_SHA256))
def test_materialized_output_is_pinned(scale, tmp_path):
    graph = _materialize_corpus(tmp_path, scale)
    text = serialize_graph(graph)
    assert (len(graph), hashlib.sha256(text.encode("utf-8")).hexdigest()) == PINNED_SHA256[scale]


def test_materialize_shares_equal_terms(tmp_path):
    graph = _materialize_corpus(tmp_path, 1)
    # each stop's subject IRI is built by 5 expressions, but its spelling is
    # kept once; a literal object is its CSV cell, which the table shares
    subjects = [s for _, (column, _) in graph.columns() for s in column]
    assert len({id(s) for s in subjects}) == len(set(subjects))
    values = [x for (p, _), column in graph.columns() for x in (p, *column[0], *column[1])]
    assert len({id(x) for x in values}) == len(set(values))


def test_join_query_answers_survive_pruning(corpus_mapping, corpus_sigma):
    query = parse_query(QUERIES["q07"])
    patterns = flatten_bgp(query)
    pruned = prune(patterns, corpus_mapping)
    full = eval_bgp(patterns, materialize(corpus_mapping, corpus_sigma))
    reduced = eval_bgp(patterns, materialize(pruned, corpus_sigma))
    assert reduced == full
    assert full  # the corpus actually exercises the join
