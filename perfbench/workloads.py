"""The benchmark workloads.

Each workload writes its inputs from the seed in ``generate``, loads them
in ``setup``, yields its ops in a seeded order, runs one op with calls into
the public functions of each ``rmlprune`` layer (wrapped in tracer spans),
and checks the outputs of every op afterwards, outside the timed region.

Why each workload exists:

* ``answer-s10`` is the paper's use case: answer q01-q08 over the scale-10
  corpus with and without pruning.  BGP evaluation sets its throughput and
  materialization its median op.
* ``materialize-s50`` is ``rmlprune materialize`` at scale 50, where the
  per-triple cost and GC of the algebra dominate and pruning and BGP do no
  work, so their changes should show no effect here.
* ``prune-wide`` is a long-lived library caller pruning a 560-expression
  mapping and writing the result back as RML, so pruning and RML reading
  and writing do all the work and materialization and BGP do none.  A
  second phase reloads the mapping, which gives ``mapping_load_ms``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from rmlprune.algebra import DataObject, dump_plan, materialize, materialize_trmap
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.errors import MappingModelError
from rmlprune.gendata import QUERIES, generate
from rmlprune.ntriples import format_term, serialize_graph
from rmlprune.pruning import FullyPruned, prune
from rmlprune.rdf import Bgp, RdfGraph, Variable, eval_bgp
from rmlprune.rml import normalize, parse_rml, serialize_pruned, translate
from rmlprune.sparql import collect_triple_patterns, flatten_bgp, parse_query

import corpus
from tracing import NullTracer

QUERY_NAMES = ("q01", "q02", "q03", "q04", "q05", "q06", "q07", "q08")
TRIPLES_PER_SCALE = 1570  # full output of the corpus mapping per unit of scale
NULL = NullTracer()


@dataclass
class Record:
    """One executed op: what ran, how long it took and what it returned."""

    kind: str
    label: str
    seconds: float
    traced: bool
    result: object = None
    error: str | None = None


def load_mapping(data: bytes, tr):
    """Parse, normalize and translate a mapping; returns (doc, mapping)."""
    with tr.span("rml.parse"):
        doc = parse_rml(data)
    tr.count("rml.parse.bytes_in", len(data))
    with tr.span("rml.translate"):
        mapping = translate(normalize(doc))
    tr.count("rml.translate.exprs", len(mapping.trmaps))
    return doc, mapping


def load_sources(mapping, csv_files: dict[str, bytes], tr) -> dict[str, DataObject]:
    """Parse only the CSV files that *mapping* references."""
    sigma = {}
    for ref in sorted({r for tm in mapping.trmaps for r in tm.source_refs()}):
        with tr.span("csvsource.parse_csv"):
            table = parse_csv(csv_files[ref])
        tr.count("csvsource.files", 1)
        tr.count("csvsource.rows", len(table.rows))
        sigma[ref] = DataObject(kind=CSV_KIND, payload=table)
    return sigma


def project(query, answers) -> list[tuple[str, ...]]:
    """The sorted result rows of a SELECT over *answers*, as N-Triples terms."""
    variables = query.variables
    if variables is None:
        variables = []
        for tp in flatten_bgp(query):
            for v in (tp.s, tp.p, tp.o):
                if isinstance(v, Variable) and v not in variables:
                    variables.append(v)
    return sorted(tuple(format_term(mu[v]) if v in mu else "" for v in variables) for mu in answers)


class TripleIndex:
    """Solutions of basic graph patterns over one graph, by index lookups.

    The oracle for answer equality: independent of ``rdf.eval_bgp`` and
    fast enough to check hundreds of queries over a 62,800-triple graph.
    """

    def __init__(self, graph: RdfGraph):
        self.by_key: dict[tuple, list] = {}
        for t in graph:
            for key in product((t.s, None), (t.p, None), (t.o, None)):
                self.by_key.setdefault(key, []).append(t)

    def solutions(self, patterns) -> set[frozenset]:
        partial = [{}]
        for tp in patterns:
            grown = []
            for mu in partial:
                s, p, o = (mu.get(x, x) if isinstance(x, Variable) else x for x in (tp.s, tp.p, tp.o))
                key = tuple(None if isinstance(x, Variable) else x for x in (s, p, o))
                for t in self.by_key.get(key, ()):
                    bound = dict(mu)
                    if all(_bind(bound, x, term) for x, term in ((s, t.s), (p, t.p), (o, t.o))):
                        grown.append(bound)
            partial = grown
        return {frozenset(mu.items()) for mu in partial}


def _bind(bound: dict, x, term) -> bool:
    if isinstance(x, Variable):
        return bound.setdefault(x, term) == term
    return x == term


class ExpressionGraphs:
    """Graphs of mappings built as the union of their expressions' graphs.

    Each expression is materialized on its own with ``materialize_trmap``,
    so the result does not depend on ``materialize`` of a whole mapping (a
    left-deep union over hundreds of expressions would take minutes).
    Expressions with the same algebra plan produce the same graph, so each
    plan is materialized once.
    """

    def __init__(self, csv_files: dict[str, bytes]):
        self.sigma = {name: DataObject(kind=CSV_KIND, payload=parse_csv(data)) for name, data in csv_files.items()}
        self.by_plan: dict[str, frozenset] = {}

    def union(self, trmaps) -> RdfGraph:
        triples = set()
        for tm in trmaps:
            plan = dump_plan(tm.plan())
            if plan not in self.by_plan:
                self.by_plan[plan] = materialize_trmap(tm, self.sigma).triples
            triples |= self.by_plan[plan]
        return RdfGraph(triples)


class Workload:
    """Common input handling and op bookkeeping; inputs live under *work*."""

    name = ""
    scale = 1
    unit_seconds: float | None = None  # nominal duration of one unit, when it is long
    mapping_file = "mapping.ttl"

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.data_dir: Path | None = None
        self.mapping = None

    def generate(self):
        """Write the seeded inputs to a fresh directory; not timed."""
        self.close()
        self.work.mkdir(parents=True, exist_ok=True)
        self.data_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work))
        generate(self.data_dir, scale=self.scale, seed=self.seed)

    def setup(self):
        """Read the inputs into memory and load the mapping; timed as ``setup_s``.

        The ops use what the first set-up loaded.  Later set-ups repeat the
        work and replace nothing, so whatever the program keeps on the
        mapping object lasts for the whole run, as for a long-lived caller.
        """
        csv_files = {p.name: p.read_bytes() for p in sorted(self.data_dir.glob("*.csv"))}
        mapping_bytes = (self.data_dir / self.mapping_file).read_bytes()
        doc, mapping = load_mapping(mapping_bytes, NULL)
        if self.mapping is None:
            self.csv_files, self.mapping_bytes, self.doc, self.mapping = csv_files, mapping_bytes, doc, mapping

    def close(self):
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def phases(self, seconds: float):
        """The timed phases as (units, unit limit or None, seconds).

        A workload whose units take seconds each runs a fixed number of
        them, *seconds* over its nominal unit time, so that a machine
        running faster or slower for a while does not change how much work
        a run does.
        """
        limit = None if self.unit_seconds is None else max(1, round(seconds / self.unit_seconds))
        return [(self.main_units(), limit, seconds)]

    def keep(self, result):
        """What a record keeps of an op's result; called after its clock stops."""
        return result

    def verify(self, records: list[Record]) -> list[str | None]:
        """One problem (or None) per record; ops that raised are skipped."""
        problems = [None] * len(records)
        self.verify_ops(records, problems)
        return problems

    def facts(self, records: list[Record]) -> dict:
        return {
            "exprs": len(self.mapping.trmaps),
            "mapping_bytes": len(self.mapping_bytes),
            "csv_rows": {k: v.count(b"\n") - 1 for k, v in self.csv_files.items()},
        }

    def samples(self, records: list[Record]) -> dict[str, list[float]]:
        """Op durations by role: all main ops, the op_ms set, the full_op_ms set, reloads (prune-wide)."""
        main = [r for r in records if r.kind != "reload"]
        return {
            "all": [r.seconds for r in main],
            "load": [r.seconds for r in records if r.kind == "reload"],
            **self.op_samples(main),
        }

    def query_seconds(self, records: list[Record]) -> dict[str, dict[str, list[float]]]:
        """Untraced op durations per query, pruned and full."""
        out = {"pruned": {}, "full": {}}
        for r in records:
            if r.kind in ("pruned", "full"):
                out[r.kind].setdefault(r.label, []).append(r.seconds)
        return out


class AnswerS10(Workload):
    """Every round answers each of q01-q08 once pruned and once in full."""

    name = "answer-s10"
    scale = 10
    unit_seconds = 20.0

    def setup(self):
        super().setup()
        self.queries = {  # plain strings, so replacing them changes nothing
            q: (self.data_dir / "queries" / f"{q}.rq").read_text(encoding="utf-8") for q in QUERY_NAMES
        }

    def main_units(self):
        rng = random.Random(f"answer-order-{self.seed}")
        while True:
            round_ops = [(kind, q, None) for q in QUERY_NAMES for kind in ("pruned", "full")]
            rng.shuffle(round_ops)
            yield round_ops

    def run(self, op, tr):
        kind, name, _ = op
        with tr.op(f"op.{kind}"):
            _, mapping = load_mapping(self.mapping_bytes, tr)
            with tr.span("sparql.parse"):
                query = parse_query(self.queries[name])
                patterns = collect_triple_patterns(query)
            kept = len(mapping.trmaps)
            if kind == "pruned":
                with tr.span("pruning.prune"):
                    pruned = prune(patterns, mapping)
                tr.count("pruning.exprs_in", len(mapping.trmaps))
                kept = 0 if isinstance(pruned, FullyPruned) else len(pruned.trmaps)
                tr.count("pruning.exprs_kept", kept)
                mapping = None if isinstance(pruned, FullyPruned) else pruned
            if mapping is None:
                graph = RdfGraph()
            else:
                sigma = load_sources(mapping, self.csv_files, tr)
                with tr.span("algebra.materialize"):
                    graph = materialize(mapping, sigma)
                tr.count("algebra.triples_out", len(graph))
            tr.count("rdf.graph_triples", len(graph))
            with tr.span("rdf.eval_bgp"):
                answers = eval_bgp(Bgp(tuple(flatten_bgp(query))), graph)
            tr.count("rdf.solutions", len(answers))
            rows = project(query, answers)
        return {"rows": rows, "kept": kept, "triples": len(graph)}

    def verify_ops(self, records: list[Record], problems: list):
        """Pruned rows must equal full rows; full ops must all agree."""
        full_rows = {}
        for i, r in enumerate(records):
            if r.kind == "full" and r.error is None:
                if r.result["triples"] != TRIPLES_PER_SCALE * self.scale:
                    problems[i] = f"full graph has {r.result['triples']} triples"
                elif full_rows.setdefault(r.label, r.result["rows"]) != r.result["rows"]:
                    problems[i] = "full ops disagree"
        for i, r in enumerate(records):
            if r.kind == "pruned" and r.error is None:
                if r.label not in full_rows:
                    problems[i] = "no full op to compare with"
                elif r.result["rows"] != full_rows[r.label]:
                    problems[i] = "pruned rows differ from full rows"

    def facts(self, records: list[Record]) -> dict:
        kept = {r.label: r.result["kept"] for r in records if r.kind == "pruned" and r.error is None}
        triples = {r.result["triples"] for r in records if r.kind == "full" and r.error is None}
        return {**super().facts(records), "full_triples": sorted(triples), "retained": dict(sorted(kept.items()))}

    def op_samples(self, main: list[Record]) -> dict[str, list[float]]:
        return {
            "op": [r.seconds for r in main if r.kind == "pruned"],
            "full": [r.seconds for r in main if r.kind == "full"],
        }


# sha256 of the materialize-s50 N-Triples text for --seed 42 (78,500
# triples), recorded when the benchmark was created.  Every seed is also
# checked against corpus.expected_ntriples.
SEED42_S50_SHA256 = "7055a7368a2382924846dc381657cc6d3f74838494550dc877c2b445ff524e69"


class MaterializeS50(Workload):
    """``rmlprune materialize`` on the scale-50 corpus, one op at a time."""

    name = "materialize-s50"
    scale = 50
    unit_seconds = 7.0

    def main_units(self):
        while True:
            yield [("materialize", "full", None)]

    def run(self, op, tr):
        with tr.op("op.materialize"):
            _, mapping = load_mapping(self.mapping_bytes, tr)
            sigma = load_sources(mapping, self.csv_files, tr)
            with tr.span("algebra.materialize"):
                graph = materialize(mapping, sigma)
            tr.count("algebra.triples_out", len(graph))
            with tr.span("ntriples.serialize_graph"):
                text = serialize_graph(graph)
            tr.count("ntriples.bytes_out", len(text))
        return {"text": text}

    def verify_ops(self, records: list[Record], problems: list):
        """Triple count and sha256 against the independent oracle."""
        expected = hashlib.sha256(corpus.expected_ntriples(self.data_dir).encode("utf-8")).hexdigest()
        for i, r in enumerate(records):
            if r.error is not None:
                continue
            text = r.result["text"]
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if text.count("\n") != TRIPLES_PER_SCALE * self.scale:
                problems[i] = f"{text.count(chr(10))} triples"
            elif digest != expected:
                problems[i] = "N-Triples text differs from the oracle"
            elif self.seed == 42 and digest != SEED42_S50_SHA256:
                problems[i] = "N-Triples text differs from the recorded seed-42 digest"

    def facts(self, records: list[Record]) -> dict:
        triples = {r.result["text"].count("\n") for r in records if r.error is None}
        return {**super().facts(records), "full_triples": sorted(triples)}

    def op_samples(self, main: list[Record]) -> dict[str, list[float]]:
        seconds = [r.seconds for r in main]
        return {"op": seconds, "full": seconds}


class PruneWide(Workload):
    """Prune a 40-copy mapping for seeded query instances; then reload it."""

    name = "prune-wide"
    scale = 1
    copies = 40
    mapping_file = "wide.ttl"

    def generate(self):
        super().generate()
        self.tags = corpus.copy_tags(self.copies, self.seed)
        self.outputs: dict[str, str] = {}
        (self.data_dir / self.mapping_file).write_text(corpus.wide_mapping(self.tags), encoding="utf-8")

    def phases(self, seconds: float):
        """Pruning for the first half of the run, then reloads for the second."""
        return [(self.main_units(), None, seconds / 2), (self.reload_units(), None, seconds / 2)]

    def reload_units(self):
        while True:
            yield [("reload", "mapping", None)]

    def main_units(self):
        rng = random.Random(f"wide-queries-{self.seed}")
        while True:
            shape = rng.choice(QUERY_NAMES)
            tag = rng.choice(self.tags)
            yield [("prune", shape, corpus.instantiate(QUERIES[shape], tag))]

    def run(self, op, tr):
        kind, _, text = op
        if kind == "reload":
            with tr.op("op.reload"):
                _, mapping = load_mapping(self.mapping_bytes, tr)
            return {"exprs": len(mapping.trmaps)}
        with tr.op("op.prune"):
            with tr.span("sparql.parse"):
                query = parse_query(text)
                patterns = collect_triple_patterns(query)
            with tr.span("pruning.prune"):
                pruned = prune(patterns, self.mapping)
            kept = 0 if isinstance(pruned, FullyPruned) else len(pruned.trmaps)
            tr.count("pruning.exprs_in", len(self.mapping.trmaps))
            tr.count("pruning.exprs_kept", kept)
            with tr.span("rml.serialize_pruned"):
                out = serialize_pruned(() if kept == 0 else pruned, self.doc)
            tr.count("rml.serialize_pruned.bytes_out", len(out))
        return {"query": text, "kept": kept, "rml": out}

    def keep(self, result):
        """Share one copy of each distinct document, so memory does not grow with the op mix."""
        if result is not None and "rml" in result:
            result["rml"] = self.outputs.setdefault(result["rml"], result["rml"])
        return result

    def verify_ops(self, records: list[Record], problems: list):
        """Each distinct pruned document answers its query like the full mapping.

        Every reload must also yield the whole mapping.
        """
        graphs = ExpressionGraphs(self.csv_files)
        full_graph = graphs.union(self.mapping.trmaps)
        self.full_triples = len(full_graph)
        full_index = TripleIndex(full_graph)
        pruned_indexes: dict[str, TripleIndex] = {}
        full_answers: dict[tuple, set] = {}
        checked: dict[tuple, str | None] = {}
        for i, r in enumerate(records):
            if r.error is not None:
                continue
            if r.kind == "reload":
                if r.result["exprs"] != len(self.mapping.trmaps):
                    problems[i] = f"reload gave {r.result['exprs']} expressions"
                continue
            rml = r.result["rml"]
            bgp = tuple(flatten_bgp(parse_query(r.result["query"])))
            if (rml, bgp) not in checked:
                checked[rml, bgp] = None
                try:
                    if rml not in pruned_indexes:
                        pruned_indexes[rml] = TripleIndex(self._graph_of(rml, r.result["kept"], graphs))
                    if bgp not in full_answers:
                        full_answers[bgp] = full_index.solutions(bgp)
                    if pruned_indexes[rml].solutions(bgp) != full_answers[bgp]:
                        checked[rml, bgp] = "pruned answers differ from the full mapping's"
                except Exception as exc:  # a document that cannot be read back fails its ops
                    checked[rml, bgp] = f"pruned document unusable: {type(exc).__name__}: {exc}"
            problems[i] = checked[rml, bgp]

    @staticmethod
    def _graph_of(rml: str, kept: int, graphs: ExpressionGraphs) -> RdfGraph:
        try:
            doc = parse_rml(rml)
        except MappingModelError:
            if kept == 0:  # a fully pruned document holds no triples map
                return RdfGraph()
            raise
        return graphs.union(translate(normalize(doc)).trmaps)

    def facts(self, records: list[Record]) -> dict:
        kept = {}
        for r in records:
            if r.kind == "prune" and r.error is None:
                kept.setdefault(r.label, set()).add(r.result["kept"])
        return {
            **super().facts(records),
            "full_triples": self.full_triples,
            "retained": {k: sorted(v) for k, v in sorted(kept.items())},
        }

    def op_samples(self, main: list[Record]) -> dict[str, list[float]]:
        everything = len(self.mapping.trmaps)
        return {
            "op": [r.seconds for r in main],
            "full": [r.seconds for r in main if r.error is None and r.result["kept"] == everything],
        }

    def query_seconds(self, records: list[Record]) -> dict[str, dict[str, list[float]]]:
        out = {}
        for r in records:
            if r.kind == "prune":
                out.setdefault(r.label, []).append(r.seconds)
        return {"pruned": out, "full": {}}


WORKLOADS = {w.name: w for w in (AnswerS10, MaterializeS50, PruneWide)}
