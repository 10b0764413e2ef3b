"""One answer pipeline: prune, load the referenced sources, materialize,
evaluate.  ``rmlprune query`` runs :func:`answer` once; :func:`run_benchmark`
times it pruned and checks it against the full mapping's solutions.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import DataObject, RmlMappingExpr, materialize
from .errors import RmlPruneError
from .pruning import FullyPruned, prune as prune_mapping
from .rdf import Bgp, RdfGraph, SolutionMapping, Variable, eval_bgp
from .sparql import SelectQuery, flatten_bgp

SourceLoader = Callable[[str], DataObject]
# the solution modifiers evaluation cannot run, in the grammar's order
_MODIFIERS = ("REDUCED", "GROUP BY", "HAVING", "ORDER BY", "LIMIT", "OFFSET")


def evaluable_bgp(query: SelectQuery) -> Bgp:
    """The query's patterns as one basic graph pattern; raises
    :class:`RmlPruneError` unless the query is a non-empty plain BGP with no
    ``AS`` projection and no modifier other than ``DISTINCT``."""
    if "AS" in query.unevaluable:
        raise RmlPruneError("expression projections (AS) are not supported in query evaluation")
    extra = [name for name in _MODIFIERS if name in query.unevaluable]
    if extra:
        raise RmlPruneError(
            "solution modifiers not supported in query evaluation: " + ", ".join(extra)
        )
    flat = flatten_bgp(query)
    if flat is None:
        raise RmlPruneError("only plain basic graph patterns can be evaluated (no OPTIONAL/FILTER)")
    if not flat:
        raise RmlPruneError("the query has an empty where clause")
    return Bgp(tuple(flat))


@dataclass
class Answer:
    """The solutions of one query, how many expressions and triples were
    materialized for it, and the milliseconds of each stage (source loading
    is in none of them)."""

    solutions: set[SolutionMapping]
    variables: tuple[Variable, ...]
    distinct: bool
    trmaps_after: int
    triples: int
    prune_ms: float
    materialize_ms: float
    query_ms: float

    def rows(self) -> list[tuple[str, ...]]:
        """The projected rows as the solutions' N-Triples spellings (""
        for unbound), sorted; each distinct row once under ``DISTINCT``."""
        rows = []
        columns, where = None, []
        for mu in self.solutions:
            if mu.columns is not columns:  # once, as the solutions share it
                columns = mu.columns
                where = [columns.get(v) for v in self.variables]
            spellings = mu.spellings
            rows.append(tuple("" if i is None else spellings[i] for i in where))
        return sorted(set(rows) if self.distinct else rows)


def format_rows(variables: Sequence[Variable], rows: Sequence[tuple[str, ...]]) -> str:
    """A header of the variables, then one line per row, tab-separated."""
    lines = ["\t".join(f"?{v.name}" for v in variables)]
    lines.extend("\t".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def answer(query: SelectQuery, mapping: RmlMappingExpr, load_source: SourceLoader, *,
           prune: bool = True) -> Answer:
    """Answer *query* over the graph of *mapping*, pruned first unless
    *prune* is false.  ``load_source(ref)`` is called once for each source
    the materialized expressions read and for no other, so a fully pruned
    query opens no source."""
    bgp = evaluable_bgp(query)
    t0 = time.perf_counter()
    kept = prune_mapping(bgp.patterns, mapping, bgp.patterns) if prune else mapping
    prune_ms = (time.perf_counter() - t0) * 1e3
    graph, materialize_ms = RdfGraph(), 0.0
    if not isinstance(kept, FullyPruned):
        sigma = {ref: load_source(ref) for ref in kept.source_refs()}
        t0 = time.perf_counter()
        graph = materialize(kept, sigma)
        materialize_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    solutions = eval_bgp(bgp, graph)
    query_ms = (time.perf_counter() - t0) * 1e3
    return Answer(
        solutions=solutions, variables=query.variables, distinct=query.distinct,
        trmaps_after=0 if isinstance(kept, FullyPruned) else len(kept.trmaps),
        triples=len(graph), prune_ms=prune_ms, materialize_ms=materialize_ms,
        query_ms=query_ms,
    )


BENCH_HEADER = "query,trmaps_before,trmaps_after,prune_ms,materialize_ms,triples,query_ms,equal"


@dataclass
class BenchRow:
    query: str
    trmaps_before: int
    trmaps_after: int
    prune_ms: float
    materialize_ms: float
    triples: int
    query_ms: float
    equal: str  # "PASS" | "FAIL"
    result_rows: int


def run_benchmark(mapping: RmlMappingExpr, queries: Sequence[tuple[str, SelectQuery]],
                  load_source: SourceLoader, repetitions: int = 4) -> tuple[list[BenchRow], int]:
    """Run :func:`answer` pruned once as a warm-up, then *repetitions* times
    (each stage's milliseconds are the average), then once in full; a row is
    ``PASS`` when both give the same solution set.  Each source is loaded
    once, so parsing stays out of the timings.  Returns the rows and the
    full output's triple count (0 when there are no queries)."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    load_source = functools.cache(load_source)
    rows: list[BenchRow] = []
    full_triples = 0
    for name, query in queries:
        run = functools.partial(answer, query, mapping, load_source)
        run()
        timings = []
        for _ in range(repetitions):
            last = run()
            timings.append((last.prune_ms, last.materialize_ms, last.query_ms))
        prune_ms, materialize_ms, query_ms = (sum(ms) / repetitions for ms in zip(*timings))
        full = run(prune=False)
        full_triples = full.triples
        rows.append(BenchRow(
            query=name, trmaps_before=len(mapping.trmaps), trmaps_after=last.trmaps_after,
            prune_ms=prune_ms, materialize_ms=materialize_ms, triples=last.triples,
            query_ms=query_ms, equal="PASS" if last.solutions == full.solutions else "FAIL",
            result_rows=len(last.rows()),
        ))
    return rows, full_triples


def format_csv(rows: Sequence[BenchRow]) -> str:
    lines = [BENCH_HEADER]
    for r in rows:
        lines.append(
            f"{r.query},{r.trmaps_before},{r.trmaps_after},{r.prune_ms:.2f},"
            f"{r.materialize_ms:.2f},{r.triples},{r.query_ms:.2f},{r.equal}"
        )
    return "\n".join(lines) + "\n"
