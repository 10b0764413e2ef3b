"""Helpers that only the tests use: small oracles and conveniences built on
the package's public API, kept out of the package itself."""

import importlib.util
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain
from pathlib import Path

from rmlprune.algebra import (
    EPSILON,
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    Epsilon,
    ExtendExpr,
    ExtractSpec,
    RmlMappingExpr,
    SourceAssignment,
    Template,
    TriplesMapExpr,
    Value,
    check_valid_input,
    resolve_iri,
    string_to_bnode,
)
from rmlprune.errors import SourceInputError, StructuralError
from rmlprune.ntriples import format_term
from rmlprune.pruning import format_pattern_term
from rmlprune.rdf import (
    Bgp,
    BlankNode,
    Iri,
    Literal,
    RdfGraph,
    RdfTerm,
    SolutionMapping,
    Triple,
    TriplePattern,
    Variable,
    eval_bgp,
)
from rmlprune.sparql import FilterNode, GroupNode, OptionalNode, PatternNode, SelectQuery
from rmlprune.turtle import TurtleParser

# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def ref(attr: str) -> Template:
    """The template of a bare reference to *attr*."""
    return Template(("", attr, ""))


def unique_trmaps(m: RmlMappingExpr) -> list[TriplesMapExpr]:
    """The triples-map expressions of *m*, de-duplicated by provenance id,
    in first-occurrence order."""
    seen: dict[str, TriplesMapExpr] = {}
    for tm in m.trmaps:
        seen.setdefault(tm.provenance, tm)
    return list(seen.values())


def valid_input(sigma, m: RmlMappingExpr) -> bool:
    """True when *sigma* satisfies every extraction of *m*."""
    try:
        check_valid_input(sigma, m)
    except SourceInputError:
        return False
    return True


# ---------------------------------------------------------------------------
# the reference evaluator: one extraction per expression, a dict of
# ``xsd:string`` literals per row, constructors interpreted per tuple
# ---------------------------------------------------------------------------


def evaluate_template(body: Template, tup: Mapping[str, Value]) -> str | Epsilon:
    """The string value of a template over one tuple: each text as it is,
    each attribute as its cell's lexical form, EPSILON when a cell is no
    literal or is empty (a NULL)."""
    pieces = []
    for i, part in enumerate(body.parts):
        if i % 2 == 0:
            pieces.append(part)
        elif part not in tup:
            raise StructuralError(f"tuple lacks attribute {part!r}")
        else:
            value = tup[part]
            pieces.append(value.lex if isinstance(value, Literal) and value.lex else EPSILON)
    return EPSILON if EPSILON in pieces else "".join(pieces)


def evaluate_extend(expr: ExtendExpr, tup: Mapping[str, Value]) -> Value:
    """The term value of a constructor over one tuple (EPSILON on failure)."""
    if isinstance(expr, ConstantTerm):
        return expr.term
    if not isinstance(expr, (BuildLiteral, BuildIri, BuildBlank)):
        raise TypeError(f"not a term constructor: {expr!r}")
    body = evaluate_template(expr.body, tup)
    if body is EPSILON:
        return EPSILON
    if isinstance(expr, BuildLiteral):
        return Literal(body, expr.datatype)
    if isinstance(expr, BuildIri):
        return resolve_iri(body, expr.base)
    return string_to_bnode(body)


def extract_rows(
    spec: ExtractSpec, sigma: SourceAssignment, warned: set[tuple[str, str]]
) -> Iterator[dict[str, Value]]:
    """The rows of one extraction, each a fresh dict from every attribute
    to its cell as an ``xsd:string`` literal.  A selector that names no
    column empties the extraction and adds its (source, selector) pair to
    *warned*."""
    table = sigma[spec.source_ref].payload
    columns = [(attr, table.column_index(selector)) for attr, selector in spec.selectors.items()]
    missing = {(spec.source_ref, spec.selectors[attr]) for attr, i in columns if i is None}
    warned |= missing
    if missing:
        return
    for row in table.rows:
        yield {attr: Literal(row[i]) for attr, i in columns}


def trmap_values(
    tm: TriplesMapExpr, sigma: SourceAssignment, warned: set[tuple[str, str]]
) -> Iterator[tuple[Value, Value, Value]]:
    """The (subject, predicate, object) values of one triples-map
    expression, EPSILON included, one child row at a time.  A join meets
    each child row with every parent row whose join values equal its own
    and are not empty (no conditions: every parent row)."""
    rows = list(extract_rows(tm.extract, sigma, warned))
    if tm.parent_extract is None:
        for row in rows:
            s, p = evaluate_extend(tm.subject_expr, row), evaluate_extend(tm.predicate_expr, row)
            yield s, p, evaluate_extend(tm.object_expr, row)
        return
    parents = list(extract_rows(tm.parent_extract, sigma, warned))
    for row in rows:
        for parent in parents:
            if all(row[a] == parent[b] and row[a].lex for a, b in tm.join_conditions):
                s, p = evaluate_extend(tm.subject_expr, row), evaluate_extend(tm.predicate_expr, row)
                yield s, p, evaluate_extend(tm.object_expr, parent)


def graph_from_triples(triples: Iterable[tuple[Value, Value, Value]]) -> RdfGraph:
    """The well-formed triples among *triples*: subject an IRI or blank
    node, predicate an IRI, object any RDF term.  The rest, EPSILON
    included, is dropped without error."""
    subjects, objects = (Iri, BlankNode), (Iri, BlankNode, Literal)
    return RdfGraph(
        Triple(s, p, o)
        for s, p, o in triples
        if isinstance(s, subjects) and isinstance(p, Iri) and isinstance(o, objects)
    )


def reference_materialize(
    m: RmlMappingExpr, sigma: SourceAssignment, warned: set[tuple[str, str]] | None = None
) -> RdfGraph:
    """The oracle for ``materialize``: each expression evaluated on its own
    over dict rows.  *warned* collects the (source, selector) pairs whose
    selector names no column."""
    check_valid_input(sigma, m)
    warned = set() if warned is None else warned
    return graph_from_triples(chain.from_iterable(trmap_values(tm, sigma, warned) for tm in m.trmaps))


# ---------------------------------------------------------------------------
# N-Triples
# ---------------------------------------------------------------------------


def format_triple(triple: Triple) -> str:
    return f"{format_term(triple.s)} {format_term(triple.p)} {format_term(triple.o)} ."


def reference_serialize(g: Iterable[Triple]) -> str:
    """The oracle for ``serialize_graph``: every line formatted, then all
    of them sorted."""
    lines = sorted(format_triple(t) for t in g)
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# solutions and graphs
# ---------------------------------------------------------------------------


def solution(bound: Mapping[Variable, RdfTerm] | None = None) -> SolutionMapping:
    """The solution with the bindings *bound*, its variables in the order
    ``eval_bgp`` gives them: by name, a named one before an anonymous one."""
    items = sorted((bound or {}).items(), key=lambda kv: (kv[0].name, kv[0].anonymous))
    return SolutionMapping({var: i for i, (var, _) in enumerate(items)}, tuple(term for _, term in items))


def bindings(mu: SolutionMapping) -> dict[Variable, RdfTerm]:
    """The bindings of *mu* as a dict."""
    return dict(zip(mu.columns, mu.terms))


def compatible(mu1: SolutionMapping, mu2: SolutionMapping) -> bool:
    """True when the two solutions agree on every shared variable."""
    return all(mu2[var] == term for var, term in bindings(mu1).items() if var in mu2)


def merge(mu1: SolutionMapping, mu2: SolutionMapping) -> SolutionMapping | None:
    """The union of two solutions, or None when they disagree."""
    if not compatible(mu1, mu2):
        return None
    return solution({**bindings(mu1), **bindings(mu2)})


def apply_solution(mu: SolutionMapping, tp: TriplePattern) -> Triple | TriplePattern:
    """Substitute bound variables of *tp*; unbound variables remain.

    Returns a ground :class:`Triple` when no variable is left.  Raises
    :class:`InvalidTermError` when a substitution puts a term in a position
    it cannot occupy (a literal subject, a blank node in a pattern...).
    """

    def subst(x):
        if isinstance(x, Variable) and x in mu:
            return mu[x]
        return x

    s, p, o = subst(tp.s), subst(tp.p), subst(tp.o)
    if any(isinstance(x, Variable) for x in (s, p, o)):
        return TriplePattern(s, p, o)
    return Triple(s, p, o)


def eval_triple_pattern(tp: TriplePattern, g: RdfGraph) -> set[SolutionMapping]:
    """All solutions of a single triple pattern over *g*: each binds exactly
    the variables of *tp*, and substituting it into *tp* gives a triple of
    *g*."""
    return eval_bgp(Bgp((tp,)), g)


def _match(tp: TriplePattern, triple: Triple, base: dict[Variable, RdfTerm]) -> dict[Variable, RdfTerm] | None:
    """Extend *base* so that tp matches triple, or None when impossible."""
    bindings = dict(base)
    for pat, term in ((tp.s, triple.s), (tp.p, triple.p), (tp.o, triple.o)):
        if isinstance(pat, Variable):
            bound = bindings.get(pat)
            if bound is None:
                bindings[pat] = term
            elif bound != term:
                return None
        elif pat != term:
            return None
    return bindings


def nested_loop_eval_bgp(patterns: Iterable[TriplePattern], g: RdfGraph) -> list[SolutionMapping]:
    """The oracle for ``eval_bgp``: extend every partial solution by every
    triple, pattern by pattern in query order.  Returns a list, so a
    solution found twice would show."""
    partial: list[dict[Variable, RdfTerm]] = [{}]
    for tp in patterns:
        partial = [b for base in partial for t in g.triples if (b := _match(tp, t, base)) is not None]
    return [solution(b) for b in partial]


def is_subgraph_of(g: RdfGraph, other: RdfGraph) -> bool:
    return g.triples <= other.triples


class TripleCollector(TurtleParser):
    """A Turtle reader that keeps the document's triples in a list."""

    def __init__(self, text: str, base: str | None = None):
        super().__init__(text, base)
        self.triples: list[Triple] = []

    def add(self, s, p, o):
        self.triples.append(Triple(s, p, o))


def read_turtle(text: str, base: str | None = None) -> TripleCollector:
    """The reader of *text* once it has read all of it."""
    reader = TripleCollector(text, base)
    reader.parse()
    return reader


def read_ntriples(text: str) -> RdfGraph:
    """Parse N-Triples text with the Turtle reader (N-Triples is a subset
    of Turtle), giving each blank node back its label in *text*."""
    doc = read_turtle(text)
    label_of = {internal: label for label, internal in doc.bnode_labels.items()}

    def relabel(term):
        return BlankNode(label_of[term.label]) if isinstance(term, BlankNode) else term

    return RdfGraph(Triple(relabel(t.s), t.p, relabel(t.o)) for t in doc.triples)


# ---------------------------------------------------------------------------
# SPARQL text
# ---------------------------------------------------------------------------


def _render(node: PatternNode) -> list[str]:
    if isinstance(node, Bgp):
        return [
            f"{format_pattern_term(tp.s)} {format_pattern_term(tp.p)} "
            f"{format_pattern_term(tp.o)} ."
            for tp in node.patterns
        ]
    if isinstance(node, GroupNode):
        lines: list[str] = []
        for child in node.children:
            if isinstance(child, (GroupNode, Bgp)) and len(node.children) > 1:
                lines.append("{")
                lines.extend("  " + line for line in _render(child))
                lines.append("}")
            else:
                lines.extend(_render(child))
        return lines
    if isinstance(node, OptionalNode):
        return ["OPTIONAL {"] + ["  " + line for line in _render(node.inner)] + ["}"]
    if isinstance(node, FilterNode):
        return _render(node.inner) + [f"FILTER {node.expression}"]
    raise TypeError(f"not a pattern node: {node!r}")


def format_query(query: SelectQuery) -> str:
    """Serialize a parsed query back to SPARQL text.

    The output uses full IRIs (the prologue has already been applied), so
    re-parsing yields the same triple patterns.
    """
    head = ["SELECT"]
    if query.modifiers.distinct:
        head.append("DISTINCT")
    if query.modifiers.reduced:
        head.append("REDUCED")
    if query.variables is None and not query.select_expressions:
        head.append("*")
    else:
        for var in query.variables or ():
            head.append(f"?{var.name}")
        head.extend(query.select_expressions)
    lines = [" ".join(head), "WHERE {"]
    lines.extend("  " + line for line in _render(query.where))
    lines.append("}")
    mods = query.modifiers
    if mods.group_by is not None:
        lines.append(f"GROUP BY {mods.group_by}")
    if mods.having is not None:
        lines.append(f"HAVING {mods.having}")
    if mods.order_by is not None:
        lines.append(f"ORDER BY {mods.order_by}")
    if mods.limit is not None:
        lines.append(f"LIMIT {mods.limit}")
    if mods.offset is not None:
        lines.append(f"OFFSET {mods.offset}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# benchmark inputs
# ---------------------------------------------------------------------------


def perfbench_corpus():
    """``perfbench/corpus.py``, the benchmark's input builder, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wide_mapping_text(seed: int = 42) -> str:
    """The 95 KB, 560-expression mapping the prune-wide workload loads."""
    corpus = perfbench_corpus()
    return corpus.wide_mapping(corpus.copy_tags(40, seed))
