"""The benchmark harness."""

import pytest

from rmlprune.answer import BENCH_HEADER, BenchRow, answer, format_csv, run_benchmark
from rmlprune.gendata import QUERIES
from rmlprune.sparql import parse_query

from .test_gendata import corpus, corpus_mapping, corpus_sigma  # noqa: F401


def test_run_benchmark_rows(corpus_mapping, corpus_sigma):
    queries = [(name, parse_query(QUERIES[name])) for name in ("q01", "q05", "q07")]
    rows, full_triples = run_benchmark(
        corpus_mapping, queries, corpus_sigma.__getitem__, repetitions=1
    )
    assert full_triples == 1570
    assert [r.query for r in rows] == ["q01", "q05", "q07"]

    q01, q05, q07 = rows
    assert (q01.trmaps_before, q01.trmaps_after) == (14, 14)
    assert q01.triples == 1570
    assert q01.equal == "PASS"
    assert q01.result_rows == 1570  # ?s ?p ?o: one row per triple

    assert (q05.trmaps_before, q05.trmaps_after) == (14, 0)
    assert q05.triples == 0
    assert q05.materialize_ms == 0.0
    assert q05.equal == "PASS"  # empty on both sides
    assert q05.result_rows == 0

    assert q07.trmaps_after == 3
    assert q07.equal == "PASS"
    assert q07.result_rows == 20  # every route has a first stop
    assert all(r.prune_ms >= 0.0 and r.query_ms >= 0.0 for r in rows)


def test_answer_prunes_the_boundary_iri_of_a_template(corpus_mapping, corpus_sigma):
    # <http://example.com/stop/> needs an empty stop id, which builds no IRI
    query = parse_query("SELECT * WHERE { <http://example.com/stop/> ?p ?o }")
    result = answer(query, corpus_mapping, corpus_sigma.__getitem__)
    assert (result.trmaps_after, result.triples, result.solutions) == (0, 0, set())


def test_run_benchmark_rejects_zero_repetitions(corpus_mapping, corpus_sigma):
    with pytest.raises(ValueError):
        run_benchmark(corpus_mapping, [], corpus_sigma.__getitem__, repetitions=0)


def test_format_csv_layout():
    row = BenchRow(
        query="qx",
        trmaps_before=5,
        trmaps_after=2,
        prune_ms=1.234,
        materialize_ms=10.0,
        triples=42,
        query_ms=0.055,
        equal="PASS",
        result_rows=7,
    )
    text = format_csv([row])
    lines = text.splitlines()
    assert lines[0] == BENCH_HEADER
    assert lines[1] == "qx,5,2,1.23,10.00,42,0.06,PASS"
    assert text.endswith("\n")
