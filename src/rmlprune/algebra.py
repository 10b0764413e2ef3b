"""Mapping expressions and their evaluation semantics.

The expression language mirrors how RML builds terms from tabular data:

* *template expressions* (:class:`TextPart`, :class:`AttrRef`,
  :class:`TemplateConcat`) evaluate to strings, with the error value
  :data:`EPSILON` propagating through concatenation;
* *term constructors* (:class:`ConstantTerm`, :class:`BuildLiteral`,
  :class:`BuildIri`, :class:`BuildBlank`) turn those
  strings into RDF terms, again yielding :data:`EPSILON` on failure;
* a :class:`TriplesMapExpr` glues an extraction from one source (or a join
  of two) to one constructor per triple position; and
* an :class:`RmlMappingExpr` is the union of its triples-map expressions.

Evaluation takes a *source assignment* binding each source reference to a
parsed CSV table and turns each triples-map expression straight into
triples: every extracted row (a dict from attributes to the cells of their
columns) gives a subject, a predicate and an object, the object of a
joined expression coming from each parent row the row joins with.
:func:`materialize` feeds them into :func:`graph_from_triples`, which keeps
the well-formed ones; no intermediate relation is built.

``plan()`` spells an expression as an operator tree that only
:func:`dump_plan` reads: the printed form of ``--dump-algebra``.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Union

from .csvsource import CSV_KIND
from .errors import InvalidTermError, SourceInputError, StructuralError
from .ntriples import escape_string, format_term
from .rdf import BlankNode, Iri, Literal, RdfGraph, RdfTerm, Triple, is_absolute_iri, is_term, is_valid_iri

logger = logging.getLogger("rmlprune.algebra")

Attribute = str


class Epsilon:
    """The error value produced by failing term constructors."""

    _instance: "Epsilon | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EPSILON"


EPSILON = Epsilon()

Value = RdfTerm | Epsilon

# ---------------------------------------------------------------------------
# template expressions (string-valued)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TextPart:
    """A fixed string segment."""

    text: str


@dataclass(frozen=True)
class AttrRef:
    """A reference to an attribute; evaluates to the lexical form of its
    value when that value is a literal, and to EPSILON otherwise."""

    attr: Attribute


@dataclass(frozen=True)
class TemplateConcat:
    """Concatenation of two or more fixed segments and attribute references."""

    parts: tuple[Union[TextPart, AttrRef], ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2:
            raise StructuralError("a concatenation needs at least two parts")
        for part in self.parts:
            if not isinstance(part, (TextPart, AttrRef)):
                raise StructuralError(f"concatenation parts must be atomic: {part!r}")


TemplateExpr = Union[TextPart, AttrRef, TemplateConcat]


def template_attrs(expr: TemplateExpr) -> frozenset[Attribute]:
    if isinstance(expr, TextPart):
        return frozenset()
    if isinstance(expr, AttrRef):
        return frozenset((expr.attr,))
    if isinstance(expr, TemplateConcat):
        return frozenset(p.attr for p in expr.parts if isinstance(p, AttrRef))
    raise TypeError(f"not a template expression: {expr!r}")


def evaluate_template(expr: TemplateExpr, tup: Mapping[Attribute, Value]) -> str | Epsilon:
    """The string value of a template expression over one tuple."""
    if isinstance(expr, TextPart):
        return expr.text
    if isinstance(expr, AttrRef):
        try:
            value = tup[expr.attr]
        except KeyError:
            raise StructuralError(f"tuple lacks attribute {expr.attr!r}") from None
        return value.lex if isinstance(value, Literal) else EPSILON
    if isinstance(expr, TemplateConcat):
        pieces = [evaluate_template(part, tup) for part in expr.parts]
        return EPSILON if EPSILON in pieces else "".join(pieces)
    raise TypeError(f"not a template expression: {expr!r}")


# ---------------------------------------------------------------------------
# term constructors (term-valued)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantTerm:
    """A fixed RDF term."""

    term: RdfTerm

    def __post_init__(self):
        if not is_term(self.term):
            raise StructuralError(f"not an RDF term: {self.term!r}")


@dataclass(frozen=True)
class BuildLiteral:
    """Make a literal with a fixed datatype from a template expression."""

    body: TemplateExpr
    datatype: str

    def __post_init__(self):
        if not is_valid_iri(self.datatype):
            raise StructuralError(f"datatype is not a valid IRI: {self.datatype!r}")


@dataclass(frozen=True)
class BuildIri:
    """Make an IRI from a template expression.

    An absolute result is used as-is; anything else is prefixed with the
    base, verbatim.  A result that is no syntactically valid IRI becomes
    EPSILON.
    """

    body: TemplateExpr
    base: str

    def __post_init__(self):
        if not is_valid_iri(self.base):
            raise StructuralError(f"base is not a valid IRI: {self.base!r}")


@dataclass(frozen=True)
class BuildBlank:
    """Make a blank node whose label is a stable hash of the body string."""

    body: TemplateExpr


ExtendExpr = Union[ConstantTerm, BuildLiteral, BuildIri, BuildBlank]


def extend_attrs(expr: ExtendExpr) -> frozenset[Attribute]:
    if isinstance(expr, ConstantTerm):
        return frozenset()
    if isinstance(expr, (BuildLiteral, BuildIri, BuildBlank)):
        return template_attrs(expr.body)
    raise TypeError(f"not a term constructor: {expr!r}")


def string_to_bnode(s: str) -> BlankNode:
    """An injective, run-stable mapping from strings to blank nodes."""
    digest = hashlib.blake2b(s.encode("utf-8"), digest_size=16).hexdigest()
    return BlankNode("b" + digest)


def resolve_iri(body: str, base: str) -> Iri | Epsilon:
    """IRI construction: absolute as-is, otherwise base-prefixed; EPSILON
    when the outcome is not a valid IRI."""
    candidate = body if is_absolute_iri(body) else base + body
    try:
        return Iri(candidate)
    except InvalidTermError:
        return EPSILON


def evaluate_extend(expr: ExtendExpr, tup: Mapping[Attribute, Value]) -> Value:
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


# ---------------------------------------------------------------------------
# sources and extraction
# ---------------------------------------------------------------------------

@dataclass
class DataObject:
    """A parsed source: its kind (only :data:`CSV_KIND` exists) plus the
    parsed payload, a :class:`~rmlprune.csvsource.CsvTable`."""

    kind: str
    payload: object


SourceAssignment = Mapping[str, DataObject]


@dataclass
class ExtractSpec:
    """What to pull out of one CSV source: which source reference, and
    which column each attribute reads."""

    source_ref: str
    selectors: dict[Attribute, str]

    @property
    def attrs(self) -> frozenset[Attribute]:
        return frozenset(self.selectors)


# ---------------------------------------------------------------------------
# triples-map expressions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TriplesMapExpr:
    """One subject/predicate/object constructor triple over an extraction.

    The simple form uses a single extraction; the joined form adds a second
    extraction plus join conditions, and its object constructor describes
    the *joined* side (it must build an IRI or a blank node, never a
    literal, and may only reference the second extraction's attributes).
    """

    subject_expr: ExtendExpr
    predicate_expr: ExtendExpr
    object_expr: ExtendExpr
    extract: ExtractSpec
    parent_extract: ExtractSpec | None = None
    join_conditions: tuple[tuple[Attribute, Attribute], ...] = ()
    provenance: str = ""

    def __post_init__(self):
        self.join_conditions = tuple((a, b) for a, b in self.join_conditions)
        # the selectors' keys are the attribute sets
        child = self.extract.selectors.keys()
        if self.parent_extract is None:
            if self.join_conditions:
                raise StructuralError("join conditions require a second extraction")
            object_scope, object_where = child, "extraction"
        else:
            parent = self.parent_extract.selectors.keys()
            overlap = child & parent
            if overlap:
                raise StructuralError(f"the two extractions share attributes: {sorted(overlap)}")
            for a, b in self.join_conditions:
                if a not in child or b not in parent:
                    raise StructuralError(
                        f"join condition ({a!r}, {b!r}) is not a (child, parent) attribute pair"
                    )
            if isinstance(self.object_expr, BuildLiteral) or (
                isinstance(self.object_expr, ConstantTerm)
                and isinstance(self.object_expr.term, Literal)
            ):
                raise StructuralError("the joined object constructor cannot produce literals")
            object_scope, object_where = parent, "parent extraction"
        for name, expr, scope, where in (
            ("subject", self.subject_expr, child, "extraction"),
            ("predicate", self.predicate_expr, child, "extraction"),
            ("object", self.object_expr, object_scope, object_where),
        ):
            if type(expr) is ConstantTerm:
                continue
            missing = extend_attrs(expr) - scope
            if missing:
                raise StructuralError(
                    f"{name} constructor references attributes outside the "
                    f"{where}: {sorted(missing)}"
                )

    @property
    def is_joined(self) -> bool:
        return self.parent_extract is not None

    def plan(self) -> "PlanNode":
        """The operator tree this expression denotes, for :func:`dump_plan`."""
        inner: PlanNode = ExtractNode(self.extract)
        inner = ExtendNode(inner, "@s", self.subject_expr)
        inner = ExtendNode(inner, "@p", self.predicate_expr)
        if self.parent_extract is not None:
            inner = JoinNode(inner, ExtractNode(self.parent_extract), self.join_conditions)
        return ExtendNode(inner, "@o", self.object_expr)

    def source_refs(self) -> tuple[str, ...]:
        refs = [self.extract.source_ref]
        if self.parent_extract is not None:
            refs.append(self.parent_extract.source_ref)
        return tuple(refs)


@dataclass(eq=False)
class RmlMappingExpr:
    """The union of projected triples-map expressions, in document order."""

    trmaps: tuple[TriplesMapExpr, ...]

    def __post_init__(self):
        self.trmaps = tuple(self.trmaps)
        if not self.trmaps:
            raise StructuralError("a mapping expression needs at least one triples-map expression")

    def source_refs(self) -> list[str]:
        """Every source reference the expressions read, sorted, each once."""
        return sorted({ref for tm in self.trmaps for ref in tm.source_refs()})

    def plan(self) -> "PlanNode":
        projected = tuple(ProjectNode(tm.plan()) for tm in self.trmaps)
        return projected[0] if len(projected) == 1 else UnionNode(projected)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _source_data(spec: ExtractSpec, sigma: SourceAssignment) -> DataObject:
    data = sigma.get(spec.source_ref)
    if data is None:
        raise SourceInputError(f"source assignment lacks source reference {spec.source_ref!r}")
    if data.kind != CSV_KIND:
        raise SourceInputError(
            f"source reference {spec.source_ref!r} is bound to a {data.kind!r} "
            f"object but the mapping needs {CSV_KIND!r}"
        )
    return data


def check_valid_input(sigma: SourceAssignment, m: RmlMappingExpr) -> None:
    """Raise :class:`SourceInputError` unless *sigma* covers every source
    reference of *m* with a CSV data object."""
    for tm in m.trmaps:
        for spec in (tm.extract, tm.parent_extract):
            if spec is not None:
                _source_data(spec, sigma)


def _extract(
    spec: ExtractSpec, sigma: SourceAssignment, warned: set[tuple[str, str]]
) -> Iterator[dict[Attribute, Value]]:
    """The rows of one extraction, each a fresh dict from every attribute
    to its cell as an ``xsd:string`` literal.  A row may come out more than
    once: set semantics is the graph's.  A selector that names no column
    empties the extraction; *warned* holds the (source, selector) pairs
    whose warning this evaluation has already logged."""
    table = _source_data(spec, sigma).payload
    columns = [(attr, table.column_index(selector)) for attr, selector in spec.selectors.items()]
    missing = [spec.selectors[attr] for attr, i in columns if i is None]
    for selector in missing:
        key = (spec.source_ref, selector)
        if key not in warned:
            warned.add(key)
            logger.warning(
                "selector %r matches nothing in source %r; rows are dropped",
                selector,
                spec.source_ref,
            )
    if missing:
        return
    for row in table.rows:
        yield {attr: Literal(row[i]) for attr, i in columns}


def _triples(
    tm: TriplesMapExpr, sigma: SourceAssignment, warned: set[tuple[str, str]]
) -> Iterator[tuple[Value, Value, Value]]:
    """The (subject, predicate, object) values of one triples-map
    expression, :data:`EPSILON` included, one child row at a time.

    A join buckets the distinct parent rows by their join values (EPSILON
    matches EPSILON; no conditions make one bucket, a cross product) and
    builds the object from each parent row a child row meets.
    """
    subject, predicate, obj = tm.subject_expr, tm.predicate_expr, tm.object_expr
    rows = _extract(tm.extract, sigma, warned)
    if tm.parent_extract is None:
        for row in rows:
            s, p = evaluate_extend(subject, row), evaluate_extend(predicate, row)
            yield s, p, evaluate_extend(obj, row)
        return
    # a bucket keeps each distinct parent row once, keyed by all its values
    parent_attrs = sorted(tm.parent_extract.attrs)
    buckets: dict[tuple[Value, ...], dict[tuple[Value, ...], dict[Attribute, Value]]] = {}
    for parent in _extract(tm.parent_extract, sigma, warned):
        key = tuple(parent[b] for _, b in tm.join_conditions)
        buckets.setdefault(key, {}).setdefault(tuple(parent[a] for a in parent_attrs), parent)
    for row in rows:
        matches = buckets.get(tuple(row[a] for a, _ in tm.join_conditions))
        if matches:
            s, p = evaluate_extend(subject, row), evaluate_extend(predicate, row)
            for parent in matches.values():
                yield s, p, evaluate_extend(obj, parent)


def graph_from_triples(triples: Iterable[tuple[Value, Value, Value]]) -> RdfGraph:
    """The well-formed triples among *triples*: subject an IRI or blank
    node, predicate an IRI, object any RDF term.  The rest, :data:`EPSILON`
    included, is dropped without error.  *triples* is read once, so it may
    be a stream; equal terms end up as one object in the graph."""
    terms: dict[RdfTerm, RdfTerm] = {}
    share = terms.setdefault
    subjects, objects = (Iri, BlankNode), (Iri, BlankNode, Literal)
    return RdfGraph(
        Triple(share(s, s), share(p, p), share(o, o))
        for s, p, o in triples
        if isinstance(s, subjects) and isinstance(p, Iri) and isinstance(o, objects)
    )


def materialize(m: RmlMappingExpr, sigma: SourceAssignment) -> RdfGraph:
    """Evaluate the whole mapping and keep the well-formed triples."""
    check_valid_input(sigma, m)
    warned: set[tuple[str, str]] = set()
    return graph_from_triples(chain.from_iterable(_triples(tm, sigma, warned) for tm in m.trmaps))


def materialize_trmap(tm: TriplesMapExpr, sigma: SourceAssignment) -> RdfGraph:
    """The graph produced by a single triples-map expression."""
    return graph_from_triples(_triples(tm, sigma, set()))


# ---------------------------------------------------------------------------
# operator tree: the printed form of an expression; evaluation never reads it
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExtractNode:
    spec: ExtractSpec


@dataclass(eq=False)
class ExtendNode:
    child: "PlanNode"
    attr: Attribute
    expr: ExtendExpr


@dataclass(eq=False)
class ProjectNode:
    child: "PlanNode"


@dataclass(eq=False)
class JoinNode:
    left: "PlanNode"
    right: "PlanNode"
    conditions: tuple[tuple[Attribute, Attribute], ...]


@dataclass(eq=False)
class UnionNode:
    operands: tuple["PlanNode", ...]


PlanNode = Union[ExtractNode, ExtendNode, ProjectNode, JoinNode, UnionNode]


def _format_template(expr: TemplateExpr) -> str:
    if isinstance(expr, TextPart):
        return f'(text "{escape_string(expr.text)}")'
    if isinstance(expr, AttrRef):
        return f'(attr "{escape_string(expr.attr)}")'
    parts = " ".join(_format_template(p) for p in expr.parts)
    return f"(concat {parts})"


def _format_extend(expr: ExtendExpr) -> str:
    if isinstance(expr, ConstantTerm):
        return f"(const {format_term(expr.term)})"
    if isinstance(expr, BuildLiteral):
        return f"(to-literal {_format_template(expr.body)} <{expr.datatype}>)"
    if isinstance(expr, BuildIri):
        return f"(to-iri {_format_template(expr.body)} base=<{expr.base}>)"
    return f"(to-bnode {_format_template(expr.body)})"


def dump_plan(node: PlanNode, indent: int = 0) -> str:
    """A one-operator-per-line rendering of an operator tree.  Names and
    texts are escaped, so no value can break a line."""
    pad = "  " * indent
    if isinstance(node, ExtractNode):
        spec = node.spec
        sel = ", ".join(
            f"{escape_string(a)}<-{escape_string(q)}" for a, q in sorted(spec.selectors.items())
        )
        return f"{pad}(extract source={spec.source_ref!r} [{sel}])"
    if isinstance(node, ExtendNode):
        return (
            f"{pad}(extend {node.attr} {_format_extend(node.expr)}\n"
            f"{dump_plan(node.child, indent + 1)})"
        )
    if isinstance(node, ProjectNode):
        return f"{pad}(project [@s @p @o]\n{dump_plan(node.child, indent + 1)})"
    if isinstance(node, JoinNode):
        conds = ", ".join(f"{escape_string(a)}={escape_string(b)}" for a, b in node.conditions)
        return (
            f"{pad}(join [{conds}]\n"
            f"{dump_plan(node.left, indent + 1)}\n"
            f"{dump_plan(node.right, indent + 1)})"
        )
    if isinstance(node, UnionNode):
        operands = "\n".join(dump_plan(n, indent + 1) for n in node.operands)
        return f"{pad}(union\n{operands})"
    raise TypeError(f"not a plan node: {node!r}")
