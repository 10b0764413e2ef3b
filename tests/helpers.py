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
    ExtendExpr,
    ExtractSpec,
    RmlMappingExpr,
    SourceAssignment,
    Template,
    TriplesMapExpr,
    check_valid_input,
    resolve_iri,
    string_to_bnode,
)
from rmlprune.errors import SourceInputError, StructuralError
from rmlprune.ntriples import format_term
from rmlprune.pruning import _reason, _ruling
from rmlprune.rdf import (
    BLANK,
    IRI,
    LITERAL,
    XSD_STRING,
    Bgp,
    RdfGraph,
    SolutionMapping,
    Term,
    Triple,
    TriplePattern,
    Variable,
    check_term,
    eval_bgp,
    kind,
)
from rmlprune.turtle import TurtleParser

# ---------------------------------------------------------------------------
# terms: each built as its pair and checked, as a reader or a public
# constructor checks the terms it takes; named after the kind of term
# ---------------------------------------------------------------------------


def Iri(value: str) -> Term:  # noqa: N802
    """The IRI *value*."""
    return check_term((f"<{value}>", None))


def BlankNode(label: str) -> Term:  # noqa: N802
    """The blank node labeled *label*."""
    return check_term((f"_:{label}", None))


def Literal(lex: str, datatype: str = XSD_STRING) -> Term:  # noqa: N802
    """The literal of lexical form *lex* and *datatype*."""
    return check_term((lex, datatype))


def is_term(value) -> bool:
    return type(value) is tuple


def is_iri(term) -> bool:
    return type(term) is tuple and kind(term) == IRI


def is_bnode(term) -> bool:
    return type(term) is tuple and kind(term) == BLANK


def is_literal(term) -> bool:
    return type(term) is tuple and kind(term) == LITERAL


def iri_value(term: Term) -> str:
    """The IRI an IRI term holds between its spelling's brackets."""
    return term[0][1:-1]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def ref(attr: str) -> Template:
    """The template of a bare reference to *attr*."""
    return Template(("", attr, ""), reference=True)


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

# what the reference evaluator computes: a term, or EPSILON
Value = Term | None


def evaluate_template(body: Template, tup: Mapping[str, Value]) -> str | None:
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
            pieces.append(value[0] if is_literal(value) and value[0] else EPSILON)
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
    spelling = resolve_iri(body, expr.base) if isinstance(expr, BuildIri) else string_to_bnode(body)
    return EPSILON if spelling is EPSILON else (spelling, None)


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
            if all(row[a] == parent[b] and row[a][0] for a, b in tm.join_conditions):
                s, p = evaluate_extend(tm.subject_expr, row), evaluate_extend(tm.predicate_expr, row)
                yield s, p, evaluate_extend(tm.object_expr, parent)


def graph_from_triples(triples: Iterable[tuple[Value, Value, Value]]) -> RdfGraph:
    """The well-formed triples among *triples*: subject an IRI or blank
    node, predicate an IRI, object any RDF term.  The rest, EPSILON
    included, is dropped without error."""
    return RdfGraph(
        Triple(s, p, o)
        for s, p, o in triples
        if (is_iri(s) or is_bnode(s)) and is_iri(p) and o is not EPSILON
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
# pruning
# ---------------------------------------------------------------------------


def reason(tp: TriplePattern, tm: TriplesMapExpr) -> str | None:
    """The trace's reason that *tm* can never emit a triple matching *tp*:
    the position :func:`~rmlprune.pruning._ruling` finds, spelled by
    :func:`~rmlprune.pruning._reason`; ``None`` when the checks cannot rule
    the pair out."""
    position = _ruling(tp, tm)
    return None if position is None else _reason(tp, tm, position)


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


def solution(bound: Mapping[Variable, Term] | None = None) -> SolutionMapping:
    """The solution with the bindings *bound*, spelled, its variables in the
    order ``eval_bgp`` gives them: by name, a named one before an anonymous
    one."""
    items = sorted((bound or {}).items(), key=lambda kv: (kv[0].name, kv[0].anonymous))
    return SolutionMapping(
        {var: i for i, (var, _) in enumerate(items)}, tuple(format_term(term) for _, term in items)
    )


def bindings(mu: SolutionMapping) -> dict[Variable, Term]:
    """The bindings of *mu* as a dict of terms."""
    return {var: mu[var] for var in mu.columns}


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


def _match(tp: TriplePattern, triple: Triple, base: dict[Variable, Term]) -> dict[Variable, Term] | None:
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
    partial: list[dict[Variable, Term]] = [{}]
    for tp in patterns:
        partial = [b for base in partial for t in g.triples if (b := _match(tp, t, base)) is not None]
    return [solution(b) for b in partial]


def is_subgraph_of(g: RdfGraph, other: RdfGraph) -> bool:
    return g.triples <= other.triples


class TripleCollector(TurtleParser):
    """A Turtle reader that keeps the document's triples in a list."""

    def __init__(self, text: str):
        super().__init__(text)
        self.triples: list[Triple] = []

    def properties(self, s):
        return lambda pair: self.triples.append(Triple(s, *pair))


def read_turtle(text: str) -> TripleCollector:
    """The reader of *text* once it has read all of it."""
    reader = TripleCollector(text)
    reader.parse()
    return reader


def read_ntriples(text: str) -> RdfGraph:
    """Parse N-Triples text with the Turtle reader (N-Triples is a subset
    of Turtle), giving each blank node back its label in *text*."""
    doc = read_turtle(text)
    label_of = {internal: label for label, internal in doc.bnode_labels.items()}

    def relabel(term):
        return BlankNode(label_of[term[0][2:]]) if is_bnode(term) else term

    return RdfGraph(Triple(relabel(t.s), t.p, relabel(t.o)) for t in doc.triples)


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
