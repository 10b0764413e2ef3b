"""The benchmark harness, and the names ``perfbench/`` takes from the
package."""

import importlib
import sys
from pathlib import Path

import pytest

from rmlprune.answer import BENCH_HEADER, BenchRow, answer, format_csv, run_benchmark
from rmlprune.gendata import MAPPING_TTL, QUERIES
from rmlprune.rdf import Bgp, eval_bgp
from rmlprune.sparql import flatten_bgp, parse_query

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


PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, imported the way ``perfbench/run.py``
    imports it; its modules are dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "corpus", "tracing"):
            sys.modules.pop(name, None)


def test_perfbench_finds_every_name_it_uses(workloads, corpus):
    # the import resolves every name perfbench takes from the package; the
    # calls below reach what it uses of them
    _, mapping = workloads.load_mapping(MAPPING_TTL.encode("utf-8"), workloads.NULL)
    files = {name: (corpus / name).read_bytes() for name in ("stops.csv", "routes.csv", "shapes.csv")}
    graph = workloads.ExpressionGraphs(files).union(mapping.trmaps)
    assert len(graph) == len(list(graph)) == 1570
    assert len(workloads.load_sources(mapping, files, workloads.NULL)) == 3
    query = parse_query(QUERIES["q07"])
    patterns = flatten_bgp(query)
    rows = workloads.project(query, eval_bgp(Bgp(tuple(patterns)), graph))
    assert len(rows) == 20 == len(workloads.TripleIndex(graph).solutions(patterns))
