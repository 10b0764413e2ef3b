"""A smoke run of ``tools/diff.py``, the differential harness of the mapping,
SPARQL and Turtle surfaces."""

import importlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from rmlprune.gendata import MAPPING_TTL, QUERIES
from rmlprune.pruning import incompatibility_trace
from rmlprune.rml import parse_rml
from rmlprune.sparql import collect_triple_patterns, parse_query

ROOT = Path(__file__).resolve().parents[1]


def load_diff():
    spec = importlib.util.spec_from_file_location("diff", ROOT / "tools" / "diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="exports HEAD with git archive")
def test_a_revision_against_itself_differs_nowhere(capsys):
    assert load_diff().main(["--base", "HEAD", "--head", "HEAD", "--rounds", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["surface"], report["rounds"], report["inputs"]) == ("mapping", 2, 4)
    assert (report["differences"], report["first"]) == (0, [])
    assert report["accepted"]["base"] == report["accepted"]["head"]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="exports HEAD with git archive")
def test_a_revision_against_itself_parses_queries_alike(capsys):
    assert load_diff().main(["--base", "HEAD", "--head", "HEAD", "--rounds", "2", "--surface", "sparql"]) == 0
    report = json.loads(capsys.readouterr().out)
    # q01-q08, the OPTIONAL/FILTER/ORDER BY query, the [] query, the
    # aggregate query and the query of operators
    assert (report["surface"], report["rounds"], report["inputs"]) == ("sparql", 2, 24)
    assert (report["differences"], report["first"]) == (0, [])
    assert report["accepted"]["base"] == report["accepted"]["head"]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="exports HEAD with git archive")
def test_a_revision_against_itself_reads_turtle_alike(capsys):
    assert load_diff().main(["--base", "HEAD", "--head", "HEAD", "--rounds", "2", "--surface", "turtle"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the corpus and wide mappings and the Turtle text
    assert (report["surface"], report["rounds"], report["inputs"]) == ("turtle", 2, 6)
    assert (report["differences"], report["first"]) == (0, [])
    assert report["accepted"]["base"] == report["accepted"]["head"]


def test_a_turtle_record_holds_what_the_reader_files_or_its_error():
    diff = load_diff()
    side = diff.Side(importlib.import_module("rmlprune"))
    ok = side.turtle_record("@base <http://e/> . <s> <p> [ <q> ( 1 ) ] .")
    # each term as format_term spells it
    iri = lambda name: f"<http://e/{name}>"  # noqa: E731
    one = '"1"^^<http://www.w3.org/2001/XMLSchema#integer>'
    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    assert ok == ("ok", [
        ["_:b2", [[f"<{rdf}first>", one], [f"<{rdf}rest>", f"<{rdf}nil>"]]],
        ["_:b1", [[iri("q"), "_:b2"]]],
        [iri("s"), [[iri("p"), "_:b1"]]],
    ], [29, 34], "http://e/")
    assert side.turtle_record("<http://e/s> <http://e/p> * .") == (
        "error", "TurtleError", "line 1, column 27: expected an object, found '*'"
    )


def test_a_mapping_record_holds_each_prune_with_its_trace():
    side = load_diff().Side(importlib.import_module("rmlprune"))
    queries = [QUERIES["q02"], QUERIES["q05"]]
    record = side.mapping_record(MAPPING_TTL, queries)
    mapping = parse_rml(MAPPING_TTL)
    traces = [incompatibility_trace(collect_triple_patterns(parse_query(q)), mapping) for q in queries]
    # the plan, the whole write-back, then each prune's write-back and trace
    assert len(record) == 3 + 2 * len(queries)
    assert record[0] == "ok" and list(record[4::2]) == traces
    assert side.mapping_record("<http://e/s> .", queries)[0] == "error"


def test_a_query_record_holds_its_fields_or_its_error():
    diff = load_diff()
    side = diff.Side(importlib.import_module("rmlprune"))
    ok = side.sparql_record(diff.EXTRA_QUERIES["anon"])
    # a variable by its repr, '_:' for the stand-in of a '[]'
    assert ok[0] == "ok" and ok[1] == ["?n", "?r"]
    assert ok[2][0] == ["_:b1", "<http://example.com/ns#name>", "?n"]
    assert side.sparql_record("SELECT * WHERE { ?s ?p }") == (
        "error", "SparqlError", "line 1, column 24: expected an object, found '}'"
    )
    # the required patterns, those no OPTIONAL encloses, where both sides
    # of a comparison parse them
    optional = side.sparql_record("SELECT * WHERE { ?s <http://e/p> ?o OPTIONAL { ?s <http://e/q> ?z } }")
    assert len(optional[2]) == 2 and optional[5] == optional[2][:1]
    side.with_required = False
    assert side.sparql_record("SELECT * WHERE { ?s <http://e/p> ?o }") == (
        "ok",
        ["?s", "?o"],
        [["?s", "<http://e/p>", "?o"]],
        False,
        [],
    )


def test_mutations_are_seeded_and_replayable():
    diff = load_diff()
    text = '<http://e/tm> rml:subjectMap [ rml:template "{a}" ] ;\n  rml:predicate ex:p .\n'
    first = [diff.mutate(text, random.Random(7)) for _ in range(2)]
    assert first[0] == first[1]
    for seed in range(50):
        mutated, edits = diff.mutate(text, random.Random(seed))
        # the edits, applied in order to the text, give the mutation
        replayed = text
        for i, removed, inserted in edits:
            assert replayed[i:i + len(removed)] == removed
            replayed = replayed[:i] + inserted + replayed[i + len(removed):]
        assert replayed == mutated


@pytest.mark.parametrize("text", ["SELECT * WHERE { ?s ?p ?o }", ""])
def test_query_mutations_replay_and_need_no_keyword_to_swap(text):
    # a text without a mapping keyword gets a replacement for a swap, and
    # a copy from an empty text copies nothing
    diff = load_diff()
    for seed in range(50):
        mutated, edits = diff.mutate(text, random.Random(seed), diff.QUERY_SNIPPETS)
        assert 1 <= len(edits) <= 3
        replayed = text
        for i, removed, inserted in edits:
            assert replayed[i:i + len(removed)] == removed
            replayed = replayed[:i] + inserted + replayed[i + len(removed):]
        assert replayed == mutated


def test_query_mutations_leave_the_prologue():
    diff = load_diff()
    text = "PREFIX ex: <http://e/>\nSELECT ?s WHERE { ?s ex:p ?o . ?o ex:q ?z }\n"
    start = text.index("SELECT")
    for seed in range(50):
        mutated, edits = diff.mutate(text, random.Random(seed), diff.QUERY_SNIPPETS, start)
        assert mutated.startswith(text[:start])
        assert all(i >= start for i, _, _ in edits)
