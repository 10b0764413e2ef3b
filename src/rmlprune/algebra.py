"""Mapping expressions and their evaluation semantics.

The expression language mirrors how RML builds terms from tabular data:

* a :class:`Template` alternates fixed texts with attribute names and
  evaluates to a string: the texts with each attribute's cell between them;
* *term constructors* (:class:`ConstantTerm`, :class:`BuildLiteral`,
  :class:`BuildIri`, :class:`BuildBlank`) turn those strings into RDF
  terms; :data:`BUILDS` says which kind of term each builds;
* the error value ε, :data:`EPSILON`, is ``None``: what a constructor
  builds from a row with an empty cell, a NULL (R2RML §11), which also
  joins nothing, and what an IRI constructor builds from a row that
  spells no valid IRI;
* a :class:`TriplesMapExpr` glues an extraction from one source (or a join
  of two) to one constructor per triple position; and
* an :class:`RmlMappingExpr` is the union of its triples-map expressions.

Evaluation takes a *source assignment* binding each source reference to a
parsed CSV table.  :func:`materialize` compiles every constructor, for that
call only, into a function of a raw CSV row, then walks each source's rows
once: every expression over the source runs on each row, a subject that
several expressions share is built once per row, and a joined expression
looks its objects up in buckets of the parent table.  A term is built as
the string of its pair (:data:`~rmlprune.rdf.Term`): an IRI or blank node
is its N-Triples spelling, interned by the string it is built from and
IRI-checked once per distinct string, and a literal is its lexical form,
which for a reference is the CSV cell itself.
Each (subject, object) pair is filed, once, under its predicate's spelling
and its object's datatype (``None`` for a node), and those pairs become the
graph's typed string columns (:class:`~rmlprune.rdf.RdfGraph`).  A pair
builds no tuple unless its subject already has another object in that
column.  Which kind of term may stand where (R2RML §7.4, which
:func:`~rmlprune.rml.parse_rml` enforces) is checked once per expression,
before it is compiled: one whose subject builds literals, or whose
predicate builds anything but IRIs, is skipped, so no row checks a kind.

:func:`dump_plan` prints an expression as nested operators (extract,
extend, join, project, union), the form of ``--dump-algebra``.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import ClassVar, Union

from .csvsource import CSV_KIND, CsvTable, Row
from .errors import SourceInputError, StructuralError
from .rdf import (
    BLANK,
    IRI,
    LITERAL,
    XSD_STRING,
    Pairs,
    RdfGraph,
    Term,
    check_term,
    escape_string,
    format_term,
    is_absolute_iri,
    is_valid_iri,
    kind,
)

logger = logging.getLogger("rmlprune.algebra")

Attribute = str


EPSILON = None  # the error value ε, as the module docstring says

# what a constructor builds from a row: a node's spelling or a literal's
# lexical form, or EPSILON
Value = str | None

# ---------------------------------------------------------------------------
# templates (string-valued)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Template:
    """Texts alternating with attribute names, text first and last; a text
    may be empty.  ``http://ex/{a}/{b}`` is ``("http://ex/", "a", "/", "b",
    "")``.  A bare reference to ``a`` is ``("", "a", "")`` with *reference*
    set, which tells it apart from the template ``{a}``; evaluation treats
    the two alike."""

    parts: tuple[str, ...]
    reference: bool = False

    def __post_init__(self):
        if type(self.parts) is not tuple:
            object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) % 2 == 0:
            raise StructuralError(
                f"a template alternates texts and attributes, text first and last: {self.parts!r}"
            )
        if self.reference and self.parts[::2] != ("", ""):
            raise StructuralError(f"a reference is one attribute alone: {self.parts!r}")
        for part in self.parts:
            if not isinstance(part, str):
                raise StructuralError(f"template parts must be strings: {part!r}")

    @property
    def attrs(self) -> frozenset[Attribute]:
        return frozenset(self.parts[1::2])


# ---------------------------------------------------------------------------
# term constructors (term-valued)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConstantTerm:
    """A fixed RDF term."""

    term: Term
    attrs: ClassVar[frozenset[Attribute]] = frozenset()

    def __post_init__(self):
        if type(self.term) is not tuple:
            raise StructuralError(f"not an RDF term: {self.term!r}")
        check_term(self.term)


class _FromTemplate:
    """A constructor built from ``body``; ``attrs`` is what it reads."""

    __slots__ = ()

    @property
    def attrs(self) -> frozenset[Attribute]:
        return self.body.attrs


@dataclass(frozen=True, slots=True)
class BuildLiteral(_FromTemplate):
    """Make a literal with a fixed datatype from a template."""

    body: Template
    datatype: str

    def __post_init__(self):
        if self.datatype != XSD_STRING and not is_valid_iri(self.datatype):
            raise StructuralError(f"datatype is not a valid IRI: {self.datatype!r}")


@dataclass(frozen=True, slots=True)
class BuildIri(_FromTemplate):
    """Make an IRI from a template.

    An absolute result is used as-is; anything else is prefixed with the
    base, verbatim.  A result that is no syntactically valid IRI becomes
    EPSILON.
    """

    body: Template
    base: str

    def __post_init__(self):
        if not is_valid_iri(self.base):
            raise StructuralError(f"base is not a valid IRI: {self.base!r}")


@dataclass(frozen=True, slots=True)
class BuildBlank(_FromTemplate):
    """Make a blank node whose label is a stable hash of the body string."""

    body: Template


ExtendExpr = Union[ConstantTerm, BuildLiteral, BuildIri, BuildBlank]

# the kind of term (see rdf.kind) each template constructor builds; a
# constant builds the kind of its term
BUILDS: dict[type, str] = {BuildIri: IRI, BuildLiteral: LITERAL, BuildBlank: BLANK}


def builds(expr: ExtendExpr) -> tuple[str, str | None]:
    """The kind of term *expr* builds, and a literal's datatype (``None``
    for a node)."""
    if isinstance(expr, ConstantTerm):
        return kind(expr.term), expr.term[1]
    return BUILDS[type(expr)], expr.datatype if type(expr) is BuildLiteral else None


def string_to_bnode(s: str) -> str:
    """The spelling of a blank node: an injective, run-stable mapping from
    strings to blank nodes."""
    return "_:b" + hashlib.blake2b(s.encode("utf-8"), digest_size=16).hexdigest()


def resolve_iri(body: str, base: str) -> str | None:
    """The spelling of a constructed IRI: absolute as-is, otherwise
    base-prefixed; EPSILON when the outcome is not a valid IRI."""
    candidate = body if is_absolute_iri(body) else base + body
    return f"<{candidate}>" if is_valid_iri(candidate) else EPSILON


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
    """What to pull out of one CSV source: which source reference, which
    column each attribute reads, and, in a parsed mapping, the key of the
    triples map whose logical source it reads."""

    source_ref: str
    selectors: dict[Attribute, str]
    triples_map: str = ""


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
            if builds(self.object_expr)[0] == LITERAL:
                raise StructuralError("the joined object constructor cannot produce literals")
            object_scope, object_where = parent, "parent extraction"
        for name, expr, scope, where in (
            ("subject", self.subject_expr, child, "extraction"),
            ("predicate", self.predicate_expr, child, "extraction"),
            ("object", self.object_expr, object_scope, object_where),
        ):
            missing = expr.attrs - scope
            if missing:
                raise StructuralError(
                    f"{name} constructor references attributes outside the "
                    f"{where}: {sorted(missing)}"
                )

    def plan(self) -> "TriplesMapExpr":
        """The expression itself, which :func:`dump_plan` prints;
        ``perfbench/workloads.py`` still calls it."""
        return self

    def source_refs(self) -> tuple[str, ...]:
        specs = (self.extract,) if self.parent_extract is None else (self.extract, self.parent_extract)
        return tuple(spec.source_ref for spec in specs)


@dataclass(eq=False)
class RmlMappingExpr:
    """The union of projected triples-map expressions, in document order.

    A parsed mapping also keeps its document's base and the key, source and
    subject constructor of each of its triples maps, in document order,
    which writing it back needs beyond the expressions: a parent that a
    join names may have no expression of its own."""

    trmaps: tuple[TriplesMapExpr, ...]
    base: str = ""
    triples_maps: tuple[tuple[str, str, ExtendExpr], ...] = ()

    def __post_init__(self):
        self.trmaps = tuple(self.trmaps)
        if not self.trmaps:
            raise StructuralError("a mapping expression needs at least one triples-map expression")

    def source_refs(self) -> list[str]:
        """Every source reference the expressions read, sorted, each once."""
        return sorted({ref for tm in self.trmaps for ref in tm.source_refs()})


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def check_valid_input(sigma: SourceAssignment, m: RmlMappingExpr) -> None:
    """Raise :class:`SourceInputError` unless *sigma* covers every source
    reference of *m* with a CSV data object."""
    for ref in m.source_refs():
        data = sigma.get(ref)
        if data is None:
            raise SourceInputError(f"source assignment lacks source reference {ref!r}")
        if data.kind != CSV_KIND:
            raise SourceInputError(
                f"source reference {ref!r} is bound to a {data.kind!r} "
                f"object but the mapping needs {CSV_KIND!r}"
            )


def _columns(
    spec: ExtractSpec, sigma: SourceAssignment, warned: set[tuple[str, str]]
) -> dict[Attribute, int] | None:
    """Each attribute's column index in the extraction's table, or None when
    a selector names no column and the expression drops its rows.  *warned*
    holds the (source, selector) pairs this call has warned about."""
    table: CsvTable = sigma[spec.source_ref].payload
    column = {attr: table.column_index(selector) for attr, selector in spec.selectors.items()}
    missing = [spec.selectors[attr] for attr, i in column.items() if i is None]
    for selector in missing:
        if (spec.source_ref, selector) not in warned:
            warned.add((spec.source_ref, selector))
            logger.warning(
                "selector %r matches nothing in source %r; rows are dropped", selector, spec.source_ref
            )
    return None if missing else column


def _cells(indices: list[int]) -> Callable[[Row], object]:
    """The cells of a row at *indices*, as a hashable key."""
    return itemgetter(*indices) if indices else lambda row: ()


def _template(body: Template, column: Mapping[Attribute, int]) -> Callable[[Row], str]:
    """A template as a function of a raw row: a column read, a fixed text,
    or a format string whose texts have braces doubled."""
    parts = body.parts
    if parts[::2] == ("", ""):
        return itemgetter(column[parts[1]])
    if len(parts) == 1:
        return lambda row, text=parts[0]: text
    return "".join(
        f"{{0[{column[p]}]}}" if i % 2 else p.replace("{", "{{").replace("}", "}}")
        for i, p in enumerate(parts)
    ).format


def _resolve_spelled(spelled: str, base: str) -> str | None:
    """:func:`resolve_iri` of the body between the angle brackets of
    *spelled*; *spelled* itself when that is the spelling."""
    spelling = resolve_iri(spelled[1:-1], base)
    return spelled if spelling == spelled else spelling


class _Interned(dict):
    """Node spellings by the string they are built from, each built once: an
    IRI's by its template's spelling, a blank node's by its template's value."""

    def __init__(self, build: Callable[[str], Value]):
        self.build = build

    def __missing__(self, body: str) -> Value:
        spelling = self[body] = self.build(body)
        return spelling


def _compile(
    expr: ExtendExpr, column: Mapping[Attribute, int], interned: dict[tuple, _Interned]
) -> Callable[[Row], Value]:
    """A constructor as a function of a raw row whose cells *column*
    locates: a node's spelling or a literal's lexical form; EPSILON for a
    row with an empty cell among those it reads, or that spells no valid
    IRI.  Node spellings come from the call's *interned* tables, one per
    constructor kind and base."""
    if isinstance(expr, ConstantTerm):
        value = expr.term[0]
        return lambda row: value
    template = expr.body
    if isinstance(expr, BuildIri):
        key, build = (BuildIri, expr.base), partial(_resolve_spelled, base=expr.base)
        # the template spells the IRI, which is then its own key when absolute
        parts = list(template.parts)
        parts[0], parts[-1] = "<" + parts[0], parts[-1] + ">"
        template = Template(parts)
    elif isinstance(expr, BuildLiteral):
        key = build = None
    else:
        key, build = (BuildBlank,), string_to_bnode
    body = _template(template, column)
    refs = sorted({column[a] for a in expr.attrs})
    cells = _cells(refs)  # a tuple when there are none or several
    if build is None:  # a literal is its lexical form, a reference's the cell
        if len(refs) == 1:
            return lambda row, i=refs[0]: body(row) if row[i] else EPSILON
        return lambda row: EPSILON if "" in cells(row) else body(row)
    table = interned.setdefault(key, _Interned(build))
    if len(refs) == 1:
        return lambda row, i=refs[0]: table[body(row)] if row[i] else EPSILON
    return lambda row: EPSILON if "" in cells(row) else table[body(row)]


def _joined_objects(
    tm: TriplesMapExpr,
    sigma: SourceAssignment,
    child: Mapping[Attribute, int],
    parent: Mapping[Attribute, int],
    interned: dict[tuple, _Interned],
) -> Callable[[Row], tuple[Value, ...]]:
    """The objects a child row of a joined expression meets, EPSILON left
    out.  The parent table is bucketed once by its join cells (no conditions
    make one bucket, a cross product); each distinct parent row builds its
    object once.  A bucket keyed by an empty join cell, a NULL, is dropped:
    its rows join nothing."""
    joins = [parent[b] for _, b in tm.join_conditions]
    key = _cells(joins)
    null = (lambda k: not k) if len(joins) == 1 else (lambda k: "" in k)
    cells = _cells([parent[a] for a in sorted(tm.object_expr.attrs)])
    obj = _compile(tm.object_expr, parent, interned)
    built: dict[object, dict[object, Value]] = {}
    for row in sigma[tm.parent_extract.source_ref].payload.rows:
        bucket = built.setdefault(key(row), {})
        c = cells(row)
        if c not in bucket:
            bucket[c] = obj(row)
    buckets = {
        k: tuple(o for o in bucket.values() if o is not EPSILON) for k, bucket in built.items() if not null(k)
    }
    child_key = _cells([child[a] for a, _ in tm.join_conditions])
    return lambda row: buckets.get(child_key(row), ())


def _pairs(m: RmlMappingExpr, sigma: SourceAssignment) -> Pairs:
    """The well-formed triples of *m*, in one pass over each source's rows,
    as each column's distinct (subject, object) pairs, filed as
    :data:`~rmlprune.rdf.Pairs` describes.

    Every expression is compiled first; one whose selector names no column
    drops its rows, and so does one whose subject builds literals or whose
    predicate builds anything but IRIs (R2RML §7.4).  A triple is dropped
    without error when a term is :data:`EPSILON`.
    """
    interned: dict[tuple, _Interned] = {}
    warned: set[tuple[str, str]] = set()
    pairs: Pairs = {}
    # source -> shared subject (constructor, its columns) -> (subject,
    # [(predicate, datatype, filed, obj, joined)]): a constant predicate's
    # column is filed up front, another's per row; obj gives a row's object,
    # or a joined expression's objects
    passes: dict[str, dict[tuple, tuple[Callable, list]]] = {}
    for tm in m.trmaps:
        column = _columns(tm.extract, sigma, warned)
        parent = None if tm.parent_extract is None else _columns(tm.parent_extract, sigma, warned)
        if column is None or (tm.parent_extract is not None and parent is None):
            continue
        if builds(tm.subject_expr)[0] == LITERAL or builds(tm.predicate_expr)[0] != IRI:
            continue
        predicate = _compile(tm.predicate_expr, column, interned)
        datatype, filed = builds(tm.object_expr)[1], None
        if isinstance(tm.predicate_expr, ConstantTerm):
            filed = pairs.setdefault((predicate(()), datatype), ({}, {}))
        subject = tm.subject_expr
        groups = passes.setdefault(tm.extract.source_ref, {})
        key = (subject, tuple(column[a] for a in sorted(subject.attrs)))
        if key not in groups:
            groups[key] = (_compile(subject, column, interned), [])
        if parent is None:
            obj = _compile(tm.object_expr, column, interned)
        else:
            obj = _joined_objects(tm, sigma, column, parent, interned)
        groups[key][1].append((predicate, datatype, filed, obj, parent is not None))
    for ref, by_subject in passes.items():
        groups = list(by_subject.values())
        for row in sigma[ref].payload.rows:
            for subject, predicates in groups:
                s = subject(row)
                if s is EPSILON:
                    continue
                for predicate, datatype, filed, obj, joined in predicates:
                    if filed is None:
                        p = predicate(row)
                        if p is EPSILON:
                            continue
                        column_key = (p, datatype)
                        filed = pairs.get(column_key) or pairs.setdefault(column_key, ({}, {}))
                    first, others = filed
                    if joined:
                        for o in obj(row):
                            if first.setdefault(s, o) != o:
                                others[s, o] = None
                    else:
                        o = obj(row)
                        if o is not EPSILON and first.setdefault(s, o) != o:
                            others[s, o] = None
    return pairs


def materialize(m: RmlMappingExpr, sigma: SourceAssignment) -> RdfGraph:
    """Evaluate the whole mapping and keep the well-formed triples."""
    check_valid_input(sigma, m)
    return RdfGraph.from_pairs(_pairs(m, sigma))


def materialize_trmap(tm: TriplesMapExpr, sigma: SourceAssignment) -> RdfGraph:
    """The graph produced by a single triples-map expression."""
    return materialize(RmlMappingExpr((tm,)), sigma)


# ---------------------------------------------------------------------------
# the printed form of ``--dump-algebra``
# ---------------------------------------------------------------------------


def _format_template(body: Template) -> str:
    """One attribute or non-empty text alone, else their concatenation."""
    printed = [
        f'(attr "{escape_string(p)}")' if i % 2 else f'(text "{escape_string(p)}")'
        for i, p in enumerate(body.parts)
        if i % 2 or p
    ] or ['(text "")']
    return printed[0] if len(printed) == 1 else f"(concat {' '.join(printed)})"


def _format_extend(expr: ExtendExpr) -> str:
    if isinstance(expr, ConstantTerm):
        return f"(const {format_term(expr.term)})"
    if isinstance(expr, BuildLiteral):
        return f"(to-literal {_format_template(expr.body)} <{expr.datatype}>)"
    if isinstance(expr, BuildIri):
        return f"(to-iri {_format_template(expr.body)} base=<{expr.base}>)"
    return f"(to-bnode {_format_template(expr.body)})"


def _format_extract(spec: ExtractSpec, depth: int) -> str:
    sel = ", ".join(f"{escape_string(a)}<-{escape_string(q)}" for a, q in sorted(spec.selectors.items()))
    return f"{'  ' * depth}(extract source={spec.source_ref!r} [{sel}])"


def _dump_trmap(tm: TriplesMapExpr, depth: int) -> str:
    """The expression as nested operators: the object extends a join of the
    subject and predicate extensions with the parent extraction, or extends
    those extensions directly."""
    pad = "  " * depth
    joined = tm.parent_extract is not None
    lines = [f"{pad}(extend @o {_format_extend(tm.object_expr)}"]
    if joined:
        conds = ", ".join(f"{escape_string(a)}={escape_string(b)}" for a, b in tm.join_conditions)
        lines.append(f"{pad}  (join [{conds}]")
    inner = depth + joined + 1
    lines.append(f"{'  ' * inner}(extend @p {_format_extend(tm.predicate_expr)}")
    lines.append(f"{'  ' * (inner + 1)}(extend @s {_format_extend(tm.subject_expr)}")
    lines.append(_format_extract(tm.extract, inner + 2) + ("))" if joined else ")))"))
    if joined:
        lines.append(_format_extract(tm.parent_extract, depth + 2) + "))")
    return "\n".join(lines)


def dump_plan(expr: RmlMappingExpr | TriplesMapExpr) -> str:
    """A one-operator-per-line rendering of an expression: a mapping is the
    union of its expressions, each projected to ``@s @p @o``.  Names and
    texts are escaped, so no value can break a line."""
    if isinstance(expr, TriplesMapExpr):
        return _dump_trmap(expr, 0)
    union = len(expr.trmaps) > 1
    projected = [
        f"{'  ' * union}(project [@s @p @o]\n{_dump_trmap(tm, union + 1)})" for tm in expr.trmaps
    ]
    return "(union\n" + "\n".join(projected) + ")" if union else projected[0]
