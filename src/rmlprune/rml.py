"""RML mapping documents: parsing into expressions, and writing them back.

Both RML generations are accepted: the current namespace
(``http://w3id.org/rml/``) and the legacy pair of ``rr:``
(``http://www.w3.org/ns/r2rml#``) with the old ``rml:``
(``http://semweb.mmlab.be/ns/rml#``).  Only CSV logical sources are in
scope; other reference formulations, graph maps, language maps, logical
tables and functions are rejected with messages naming the offending node.
The Turtle reader files each subject's predicates and objects, in
document order, alternating in one list, and one pass over them finds the
triples maps and the referencing object maps.  One table, :data:`_TAKES`,
says by IRI which properties each kind of mapping node takes, in which
order, and which of them only once, and one reader returns them in that
order: a property the node does not take, or a once-only one stated
twice, is rejected rather than dropped, and every error below a triples
map names it.  A subject no triples map reaches only gets a warning.

A mapping has one form, the :class:`~rmlprune.algebra.RmlMappingExpr`
that :func:`parse_rml` returns.  The walk puts each triples map in one
shape: a subject constructor with a list of (predicate, object) pairs, got
by turning shortcuts into constants, classes into leading ``rdf:type``
pairs, and several predicate or object maps into their product.  It builds
each term map's constructor once, as it walks the map, without the public
constructors' checks, which hold by construction: R2RML's term-type rules
(§7.4), the rule that a constant is an IRI or a literal (§7.2) and the
rules of the map's position are applied there, and nowhere else, and the
constructor's attributes are named after the references it reads; its
template records whether it was written as a reference.  Each (triples
map, pair) then becomes one triples-map expression, whose extractions name
the triples maps they read, tagged with a provenance id.  The mapping also
keeps the base and each triples map's key, source and subject constructor,
so :func:`serialize_pruned` writes any subset of its expressions back out
as a standalone mapping document from the expressions alone: a template's
text from its parts, a join's parent from its extraction.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left
from functools import cached_property

from .algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    ExtendExpr,
    ExtractSpec,
    RmlMappingExpr,
    Template,
    TriplesMapExpr,
)
from .errors import MappingModelError, decoded
from .rdf import RDF_TYPE, RDF_TYPE_IRI, XSD_STRING, BlankNode, Iri, Literal, RdfTerm, trusted
from .rdf import escape_string, format_term
from .turtle import TurtleParser, opened_at

logger = logging.getLogger("rmlprune.rml")

RML_NEW = "http://w3id.org/rml/"
RR = "http://www.w3.org/ns/r2rml#"
RML_OLD = "http://semweb.mmlab.be/ns/rml#"
QL = "http://semweb.mmlab.be/ns/ql#"

DEFAULT_BASE_IRI = "http://example.com/base/"

# The property token of every IRI that spells it: the legacy rml: namespace
# spells a logical source's properties, r2rml the others, the current one all.
_LOGICAL = "logicalSource source referenceFormulation iterator reference"
_R2RML = (
    "subjectMap subject predicateObjectMap predicateMap predicate objectMap object constant "
    "template termType datatype class parentTriplesMap joinCondition child parent"
)
# rr:column is a reference; "datatType" is a datatype alias that appears in the wild
_VOCAB = {RR + "column": "reference"} | {ns + "datatType": "datatype" for ns in (RML_NEW, RML_OLD, RR)}
for _ns, _tokens in ((RML_OLD, _LOGICAL), (RR, _R2RML), (RML_NEW, f"{_LOGICAL} {_R2RML}")):
    _VOCAB.update((_ns + token, token) for token in _tokens.split())

_REJECTED_PROPS: dict[str, str] = {}
for _ns in (RML_NEW, RR):
    _REJECTED_PROPS[_ns + "graphMap"] = "graph maps are not supported"
    _REJECTED_PROPS[_ns + "graph"] = "graph maps are not supported"
    _REJECTED_PROPS[_ns + "language"] = "language tags are not supported"
    _REJECTED_PROPS[_ns + "languageMap"] = "language tags are not supported"
_REJECTED_PROPS[RR + "logicalTable"] = "R2RML logical tables are not supported (use a CSV logical source)"
_REJECTED_PROPS[RR + "sqlQuery"] = "SQL-backed sources are not supported"
_REJECTED_PROPS[RML_OLD + "query"] = "query-backed sources are not supported"
_REJECTED_PROPS["http://semweb.mmlab.be/ns/fnml#functionValue"] = "function maps are not supported"
_REJECTED_PROPS[RML_NEW + "logicalTarget"] = "logical targets are not supported"

_CONSTANT_TYPES = {Iri: BuildIri, Literal: BuildLiteral}
_TYPE_KEYWORD = {BuildIri: "rml:IRI", BuildLiteral: "rml:Literal", BuildBlank: "rml:BlankNode"}
# each term type as the constructor that builds its terms
_TERM_TYPES = {ns + keyword[4:]: cls for cls, keyword in _TYPE_KEYWORD.items() for ns in (RML_NEW, RR)}

# the walk's constructors, without the checks that its values pass by construction:
# a term, base or datatype the reader checked, template parts that parse_template split
_NEW = {cls: trusted(cls) for cls in (Template, ConstantTerm, BuildLiteral, BuildIri, BuildBlank)}

_CSV_FORMULATIONS = {QL + "CSV", RML_NEW + "CSV"}
_KNOWN_OTHER_FORMULATIONS = {
    ns + name: kind for ns in (QL, RML_NEW) for name, kind in (("JSONPath", "JSON"), ("XPath", "XML"))
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _node_key(term, token: str) -> str:
    """The key of the node that property *token* names."""
    if type(term) is BlankNode:
        return "_:" + term.label
    if type(term) is Iri:
        return term.value
    raise MappingModelError(f"property {token!r} must name an IRI or blank node, found {term!r}")


def _fmt_node(key: str) -> str:
    return key if key.startswith("_:") else f"<{key}>"


# the property token of every IRI a mapping node may carry
_TOKENS = {**_VOCAB, RDF_TYPE: "type"}


class _Graph(dict[str, list]):
    """A mapping document as each subject's predicates and objects, in
    document order and alternating in one list, by node key.  It also keeps
    what an error needs to name a blank node the way the document writes it."""

    def __init__(self, reader: TurtleParser):
        super().__init__()
        self.text, self.labels = reader.text, reader.bnode_labels  # the labels: document's -> the reader's
        self.opened = reader.opened  # where blank nodes open, as marks

    @cached_property
    def made(self) -> list[int]:
        """Blank node bN was made at offset ``made[N - 1]``."""
        return opened_at(self.text, self.opened)

    @cached_property
    def _label_of(self) -> dict[str, str]:
        return {internal: label for label, internal in self.labels.items()}

    @cached_property
    def _newlines(self) -> list[int]:
        return [match.start() for match in re.finditer("\n", self.text)]

    def name(self, key: str) -> str:
        """Node *key* for an error message: an IRI, the document's label of
        a blank node, or ``[ ]`` with the line it opens on."""
        if not key.startswith("_:"):
            return f"<{key}>"
        label = self._label_of.get(key[2:])
        if label is not None:
            return "_:" + label
        return f"[ ] at line {bisect_left(self._newlines, self.made[int(key[3:]) - 1]) + 1}"

    def index(self):
        """Note the nodes that carry a logical source, the triples maps, and
        those that name a parent, the referencing object maps."""
        self.logical, self.referencing = set(), set()
        nodes_of = {"logicalSource": self.logical, "parentTriplesMap": self.referencing}
        found = {iri: nodes_of[token] for iri, token in _TOKENS.items() if token in nodes_of}
        for key, props in self.items():
            for pred in props[::2]:
                if pred.value in found:
                    found[pred.value].add(key)


class _MappingReader(TurtleParser):
    """The Turtle reader of a mapping: it files each predicate and object
    under its subject, as :class:`_Graph` holds them."""

    def __init__(self, text: str):
        super().__init__(text)
        self.graph = _Graph(self)

    def properties(self, s: Iri | BlankNode):
        key = "_:" + s.label if type(s) is BlankNode else s.value
        return self.graph.setdefault(key, []).extend


def _misplaced(token: str | None, pred: Iri, node: str, what: str) -> MappingModelError:
    """The error for a property the *what* named *node* may not carry."""
    if token is not None:
        return MappingModelError(f"property {token!r} does not belong on {what} {node}")
    message = _REJECTED_PROPS.get(pred.value)
    if message is not None:
        return MappingModelError(f"{message} (property <{pred.value}> on {node})")
    return MappingModelError(f"unknown property <{pred.value}> on {node}; refusing to drop it silently")


def _takes(once: str, repeats: str = "") -> tuple[dict[str, tuple[int, bool]], int]:
    """By every IRI of a property a kind of node takes, its place among the
    tokens, *once* then *repeats*, and whether it repeats; and their count."""
    tokens = once.split() + repeats.split()
    place = {token: (i, token in repeats.split()) for i, token in enumerate(tokens)}
    return {iri: place[token] for iri, token in _TOKENS.items() if token in place}, len(tokens)


# The property tokens each kind of mapping node takes, once and repeating
# (R2RML §6.1, §7, §8), in the order that _read_node returns them.
_TERM_MAP = "constant reference template termType datatype"
_TAKES: dict[str, tuple[dict[str, tuple[int, bool]], int]] = {
    "triples map": _takes("logicalSource subjectMap subject", "predicateObjectMap"),
    "logical source": _takes("source referenceFormulation iterator"),
    "subject map": _takes(_TERM_MAP, "class"),
    "predicate map": _takes(_TERM_MAP),
    "object map": _takes(_TERM_MAP),
    "predicate-object map": _takes("", "predicateMap predicate objectMap object"),
    "referencing object map": _takes("parentTriplesMap", "joinCondition"),
    "join condition": _takes("child parent"),
}


def _read_node(g: _Graph, key: str, what: str, visited: set[str]) -> list:
    """The properties of node *key*, a *what*, in the order of its tokens in
    :data:`_TAKES`: the object of one it takes once, the list of objects, in
    document order, of one that may repeat, and None for one not stated.
    Any other property but ``rdf:type`` is an error, and so is a once-only
    property stated twice."""
    visited.add(key)
    takes, size = _TAKES[what]
    values = [None] * size
    props = iter(g.get(key, ()))
    for pred, obj in zip(props, props):
        taken = takes.get(pred.value)
        if taken is None:
            token = _TOKENS.get(pred.value)
            if token != "type":
                raise _misplaced(token, pred, g.name(key), what)
            continue
        i, repeats = taken
        if repeats:
            if values[i] is None:
                values[i] = [obj]
            else:
                values[i].append(obj)
        elif values[i] is not None:
            raise MappingModelError(f"{what} {g.name(key)} has more than one {_TOKENS[pred.value]}")
        else:
            values[i] = obj
    return values


def _as_string_literal(obj: RdfTerm, what: str, g: _Graph, key: str) -> str:
    if type(obj) is Literal and obj.datatype == XSD_STRING:
        return obj.lex
    raise MappingModelError(f"{what} on {g.name(key)} must be a plain string, found {obj!r}")


def _parse_logical_source(g: _Graph, key: str, visited: set[str]) -> str:
    """The CSV source of a logical source."""
    source, formulation, iterator = _read_node(g, key, "logical source", visited)
    if formulation is not None:
        if not isinstance(formulation, Iri):
            raise MappingModelError(f"reference formulation on {g.name(key)} must be an IRI")
        if formulation.value not in _CSV_FORMULATIONS:
            kind = _KNOWN_OTHER_FORMULATIONS.get(formulation.value, formulation.value)
            raise MappingModelError(
                f"unsupported reference formulation {kind!r} on {g.name(key)}; "
                f"only CSV sources are supported"
            )
    if iterator is not None:
        raise MappingModelError(
            f"iterator on {g.name(key)} is not supported: CSV sources are "
            f"always iterated row by row"
        )
    if source is None:
        raise MappingModelError(f"logical source {g.name(key)} has no source")
    return _as_string_literal(source, "source", g, key)


def _term_map(
    kind: str,
    value: RdfTerm | str,
    position: str,
    base: str,
    term_type: type | None = None,
    datatype: str | None = None,
) -> ExtendExpr:
    """The constructor of a term map at *position* ("subject", "predicate"
    or "object"), after R2RML's term-type rules: a constant has its term's
    type and is an IRI or a literal, never a blank node (§7.2); otherwise an
    explicit term type holds, an object map that is reference-valued or
    datatyped builds literals, and every other map builds IRIs.  Subject
    maps build no literals, predicate maps only IRIs, and only a
    literal-building map takes a datatype.  Its errors do not name the map:
    the caller, which knows where it is, adds that."""
    if kind == "constant":
        if datatype is not None:
            typed = f" ({format_term(Literal(value.lex, datatype))})" if type(value) is Literal else ""
            raise MappingModelError(
                f"a constant map takes no datatype; write the typed literal{typed} "
                f"as the constant"
            )
        built = _CONSTANT_TYPES.get(type(value))
        if built is None:
            raise MappingModelError("a constant must be an IRI or a literal, not a blank node")
        if term_type not in (None, built):
            raise MappingModelError(
                f"constant {value!r} conflicts with term type {_TYPE_KEYWORD[term_type]}"
            )
    elif term_type is not None:
        built = term_type
    elif position == "object" and (kind == "reference" or datatype is not None):
        built = BuildLiteral
    else:
        built = BuildIri
    if position == "subject" and built is BuildLiteral:
        raise MappingModelError("subject maps cannot produce literals")
    if position == "predicate" and built is not BuildIri:
        raise MappingModelError("predicate maps must produce IRIs")
    if datatype is not None and built is not BuildLiteral:
        raise MappingModelError("datatype is only allowed on literal-producing maps")
    if kind == "constant":
        return _NEW[ConstantTerm](value)
    if kind == "reference":
        body = _NEW[Template](("", value, ""), True)
    else:
        body = _NEW[Template](parse_template(value), False)
    if built is BuildLiteral:
        return _NEW[BuildLiteral](body, datatype or XSD_STRING)
    if built is BuildBlank:
        return _NEW[BuildBlank](body)
    return _NEW[BuildIri](body, base)


def _parse_term_map(
    g: _Graph, key: str, position: str, base: str, visited: set[str]
) -> tuple[ExtendExpr, tuple[Iri, ...]]:
    """The constructor of the term map at node *key*, at *position*, and,
    on a subject map, its classes."""
    what = f"{position} map"
    props = _read_node(g, key, what, visited)
    classes = (props.pop() or ()) if position == "subject" else ()
    constant, reference, template, term_type, datatype = props
    if (constant is None) + (reference is None) + (template is None) != 2:
        raise MappingModelError(
            f"{what} {g.name(key)} needs exactly one of constant, reference, template"
        )
    if constant is not None:
        kind, value = "constant", constant
    elif reference is not None:
        kind, value = "reference", _as_string_literal(reference, "reference", g, key)
    else:
        kind, value = "template", _as_string_literal(template, "template", g, key)
    try:
        if term_type is not None:
            built = _TERM_TYPES.get(term_type.value) if isinstance(term_type, Iri) else None
            if built is None:
                raise MappingModelError(f"unknown term type {term_type!r}")
            term_type = built
        if datatype is not None:
            if not isinstance(datatype, Iri):
                raise MappingModelError("datatype must be an IRI")
            datatype = datatype.value
        if classes and not all(isinstance(cls, Iri) for cls in classes):
            raise MappingModelError("class must be an IRI")
        return _term_map(kind, value, position, base, term_type, datatype), tuple(classes)
    except MappingModelError as exc:
        raise MappingModelError(f"{what} {g.name(key)}: {exc}") from None


# a referencing object map: its parent's key and its (child, parent) join pairs
_Joined = tuple[str, tuple[tuple[str, str], ...]]


def _parse_ref_object_map(g: _Graph, key: str, visited: set[str]) -> _Joined:
    parent, conditions = _read_node(g, key, "referencing object map", visited)
    joins: list[tuple[str, str]] = []
    for obj in conditions or ():
        jkey = _node_key(obj, "joinCondition")
        join = _read_node(g, jkey, "join condition", visited)
        if None in join:
            raise MappingModelError(f"join condition {g.name(jkey)} needs both child and parent")
        joins.append(tuple(_as_string_literal(o, end, g, jkey) for o, end in zip(join, ("child", "parent"))))
    if not joins:
        raise MappingModelError(
            f"referencing object map {g.name(key)} has no join conditions; an "
            f"unconditioned join is not supported"
        )
    parent = _node_key(parent, "parentTriplesMap")
    if parent not in g.logical:
        raise MappingModelError(
            f"referencing object map {g.name(key)}: parent triples map {g.name(parent)} does not exist"
        )
    return parent, tuple(joins)


def _shortcuts(g: _Graph, key: str, terms: list | None, position: str, base: str) -> list[ExtendExpr]:
    """The constants of the *position* shortcuts of predicate-object map *key*."""
    try:
        return [_term_map("constant", term, position, base) for term in terms or ()]
    except MappingModelError as exc:
        raise MappingModelError(f"predicate-object map {g.name(key)}: {exc}") from None


def _parse_pom(
    g: _Graph, key: str, base: str, visited: set[str]
) -> list[tuple[ExtendExpr, ExtendExpr | _Joined]]:
    """One (predicate constructor, object constructor or join) pair per
    (predicate, object) of the node: predicate maps before predicate
    shortcuts, object maps before object shortcuts, predicate-major."""
    predicate_nodes, predicates, object_nodes, objects = _read_node(g, key, "predicate-object map", visited)
    predicate_maps = [
        _parse_term_map(g, _node_key(obj, "predicateMap"), "predicate", base, visited)[0]
        for obj in predicate_nodes or ()
    ]
    predicate_maps += _shortcuts(g, key, predicates, "predicate", base)
    object_maps: list[ExtendExpr | _Joined] = []
    for obj in object_nodes or ():
        okey = _node_key(obj, "objectMap")
        # a referencing object map is the one that names a parent
        if okey in g.referencing:
            object_maps.append(_parse_ref_object_map(g, okey, visited))
        else:
            object_maps.append(_parse_term_map(g, okey, "object", base, visited)[0])
    object_maps += _shortcuts(g, key, objects, "object", base)
    if not predicate_maps:
        raise MappingModelError(f"predicate-object map {g.name(key)} has no predicate")
    if not object_maps:
        raise MappingModelError(f"predicate-object map {g.name(key)} has no object")
    return [(pm, om) for pm in predicate_maps for om in object_maps]


def parse_rml(data: bytes | str) -> RmlMappingExpr:
    """Parse an RML mapping document from Turtle bytes or text into its
    expressions: one per (triples map, predicate-object pair).  Bytes may
    start with a UTF-8 byte-order mark."""
    if isinstance(data, bytes):
        data = decoded(data, MappingModelError)
    reader = _MappingReader(data)
    base = reader.parse() or DEFAULT_BASE_IRI
    g = reader.graph
    # the triples maps: the subjects that carry a logical source, in order
    g.index()
    tm_keys = [key for key in g if key in g.logical]
    if not tm_keys:
        raise MappingModelError("no triples maps found (no subject carries a logical source)")

    visited: set[str] = set()
    # per triples map: its key, source, subject constructor and pairs
    walked: list[tuple[str, str, ExtendExpr, list]] = []
    type_map = _term_map("constant", RDF_TYPE_IRI, "predicate", base)
    for key in tm_keys:
        logical_source, subject_node, subject, pom_nodes = _read_node(g, key, "triples map", visited)
        subject_map, classes = None, ()
        # the nodes below a triples map name it in their errors
        try:
            source = _parse_logical_source(g, _node_key(logical_source, "logicalSource"), visited)
            if subject_node is not None:
                skey = _node_key(subject_node, "subjectMap")
                subject_map, classes = _parse_term_map(g, skey, "subject", base, visited)
            if subject is not None:
                if subject_map is not None:
                    raise MappingModelError("a subject map and a subject shortcut are both given")
                subject_map = _term_map("constant", subject, "subject", base)
            poms = [
                pom
                for obj in pom_nodes or ()
                for pom in _parse_pom(g, _node_key(obj, "predicateObjectMap"), base, visited)
            ]
        except MappingModelError as exc:
            raise MappingModelError(f"triples map {g.name(key)}: {exc}") from None
        if subject_map is None:
            raise MappingModelError(f"triples map {g.name(key)} lacks a subject map")
        class_poms = [(type_map, _term_map("constant", cls, "object", base)) for cls in classes]
        walked.append((key, source, subject_map, class_poms + poms))

    # names are formatted only for a record that is emitted
    if logger.isEnabledFor(logging.WARNING):
        for key, props in g.items():
            if key not in visited and any(_TOKENS.get(pred.value) != "type" for pred in props[::2]):
                logger.warning("subject %s is not reachable from any triples map; ignoring it", g.name(key))

    exprs = _expressions(walked)
    if not exprs:
        raise MappingModelError(
            "the document has no predicate-object maps, so it produces no triples"
        )
    return RmlMappingExpr(exprs, base, tuple(tm[:3] for tm in walked))


def _refs(expr: ExtendExpr) -> tuple[str, ...]:
    """The references a constructor reads, in order, repeats included."""
    return () if isinstance(expr, ConstantTerm) else expr.body.parts[1::2]


def _renamed(expr: ExtendExpr, name_of: dict[str, str]) -> ExtendExpr:
    """A copy of subject constructor *expr* reading attribute
    ``name_of[a]`` for each ``a``."""
    if isinstance(expr, ConstantTerm):
        return expr
    parts = list(expr.body.parts)
    parts[1::2] = [name_of[ref] for ref in parts[1::2]]
    body = _NEW[Template](tuple(parts), expr.body.reference)
    return _NEW[BuildIri](body, expr.base) if type(expr) is BuildIri else _NEW[BuildBlank](body)


def _expressions(walked: list[tuple[str, str, ExtendExpr, list]]) -> tuple[TriplesMapExpr, ...]:
    """One triples-map expression per (triples map, predicate-object pair).

    The walk's constructors are reused; their attributes are named after
    the references they select, in order of first appearance.  A joined
    parent's subject constructor is copied with its attributes renamed
    with an ``@parent`` suffix, plus ``'`` until they clash with no child
    attribute.
    """
    by_key = {key: (source, subject) for key, source, subject, _ in walked}
    exprs: list[TriplesMapExpr] = []
    for key, source, subject_expr, pairs in walked:
        subject_refs = _refs(subject_expr)
        for j, (predicate_expr, om) in enumerate(pairs):
            joined = isinstance(om, tuple)
            refs = subject_refs + _refs(predicate_expr) + (tuple(c for c, _ in om[1]) if joined else _refs(om))
            # each reference selects itself, in order of first appearance
            selectors = dict(zip(refs, refs))
            parent_extract = None
            join_conditions: tuple[tuple[str, str], ...] = ()
            if joined:
                parent_key, joins = om
                parent_source, parent_subject = by_key[parent_key]  # the walk checked that it exists
                taken = set(selectors)
                name_of: dict[str, str] = {}
                for ref in dict.fromkeys(_refs(parent_subject) + tuple(p for _, p in joins)):
                    name = f"{ref}@parent"
                    while name in taken:
                        name += "'"
                    taken.add(name)
                    name_of[ref] = name
                parent_extract = ExtractSpec(
                    parent_source, {name: ref for ref, name in name_of.items()}, parent_key
                )
                object_expr = _renamed(parent_subject, name_of)
                join_conditions = tuple((c, name_of[p]) for c, p in joins)
            else:
                object_expr = om
            # the checks of TriplesMapExpr hold by construction: each
            # constructor reads only the selectors named after its references,
            # and a joined object, a subject map, builds no literal
            expr = object.__new__(TriplesMapExpr)
            expr.subject_expr, expr.predicate_expr, expr.object_expr = subject_expr, predicate_expr, object_expr
            expr.extract, expr.parent_extract = ExtractSpec(source, selectors, key), parent_extract
            expr.join_conditions, expr.provenance = join_conditions, f"{key}#pom{j}"
            exprs.append(expr)
    return tuple(exprs)


def translate(mapping: RmlMappingExpr) -> RmlMappingExpr:
    """The mapping itself, as :func:`parse_rml` already returns expressions;
    ``perfbench/`` still calls it and :func:`normalize`."""
    return mapping


normalize = translate


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


# A run of text (backslash escapes the next character), a placeholder, or a
# character that starts neither: a dangling '\\', a stray '}' or a '{' that
# opens no well-formed placeholder.
_TEMPLATE_RE = re.compile(r"((?:[^\\{}]+|\\.)+)|\{([^{}\\]*)\}|(.)", re.DOTALL)
_TEMPLATE_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_PLACEHOLDER_RE = re.compile(r"[^{}\\]*")


def parse_template(template: str) -> tuple[str, ...]:
    """Split a template into texts alternating with placeholder names, text
    first and last, as :class:`~rmlprune.algebra.Template` holds them.

    Backslash escapes the next character (so ``\\{`` is a literal brace);
    placeholders may not nest and may not be empty.
    """
    parts = [""]
    for match in _TEMPLATE_RE.finditer(template):
        text, name = match.group(1, 2)
        if text is not None:
            parts[-1] += _TEMPLATE_ESCAPE_RE.sub(r"\1", text) if "\\" in text else text
        elif name:
            parts += (name, "")
        elif name is not None:
            raise MappingModelError(f"empty placeholder in template {template!r}")
        else:
            raise _template_error(template, match.start())
    return tuple(parts)


def _template_error(template: str, pos: int) -> MappingModelError:
    """Why the character at *pos* starts neither text nor a placeholder."""
    if template[pos] == "\\":
        return MappingModelError(f"dangling escape at end of template {template!r}")
    if template[pos] == "}":
        return MappingModelError(f"unbalanced '}}' in template {template!r}")
    end = _PLACEHOLDER_RE.match(template, pos + 1).end()
    if end == len(template):
        return MappingModelError(f"unbalanced '{{' in template {template!r}")
    return MappingModelError(
        f"invalid character {template[end]!r} inside placeholder of template {template!r}"
    )


def template_text(parts: tuple[str, ...]) -> str:
    """The template that :func:`parse_template` splits into *parts*: each
    text with ``\\``, ``{`` and ``}`` escaped, each name between braces."""
    return "".join(
        f"{{{p}}}" if i % 2 else p.replace("\\", "\\\\").replace("{", "\\{").replace("}", "\\}")
        for i, p in enumerate(parts)
    )


# ---------------------------------------------------------------------------
# serialization of pruned documents
# ---------------------------------------------------------------------------


def _render_term_map(expr: ExtendExpr, indent: str) -> list[str]:
    if isinstance(expr, ConstantTerm):
        return [f"{indent}rml:constant {format_term(expr.term)}"]
    body = expr.body
    kind, value = ("reference", body.parts[1]) if body.reference else ("template", template_text(body.parts))
    lines = [
        f'{indent}rml:{kind} "{escape_string(value)}" ;',
        f"{indent}rml:termType {_TYPE_KEYWORD[type(expr)]} ;",
    ]
    if isinstance(expr, BuildLiteral) and expr.datatype != XSD_STRING:
        lines.append(f"{indent}rml:datatype <{expr.datatype}> ;")
    lines[-1] = lines[-1].rstrip(" ;")
    return lines


def _render_object_map(expr: TriplesMapExpr) -> list[str]:
    parent = expr.parent_extract
    if parent is None:
        return _render_term_map(expr.object_expr, "      ")
    lines = [f"      rml:parentTriplesMap {_fmt_node(parent.triples_map)} ;"]
    for child_ref, parent_attr in expr.join_conditions:
        lines.append(
            f'      rml:joinCondition [ rml:child "{escape_string(child_ref)}" ; '
            f'rml:parent "{escape_string(parent.selectors[parent_attr])}" ] ;'
        )
    lines[-1] = lines[-1].rstrip(" ;")
    return lines


def _render_triples_map(key: str, source: str, subject: ExtendExpr, exprs: list[TriplesMapExpr]) -> str:
    lines = [
        f'{_fmt_node(key)} rml:logicalSource [ rml:source "{escape_string(source)}" ; '
        "rml:referenceFormulation rml:CSV ] ;"
    ]
    lines.append("  rml:subjectMap [")
    lines.extend(_render_term_map(subject, "    "))
    lines.append("  ]")
    for expr in exprs:
        lines[-1] += " ;"
        lines.append("  rml:predicateObjectMap [")
        lines.append("    rml:predicateMap [")
        lines.extend(_render_term_map(expr.predicate_expr, "      "))
        lines.append("    ] ;")
        lines.append("    rml:objectMap [")
        lines.extend(_render_object_map(expr))
        lines.append("    ]")
        lines.append("  ]")
    lines[-1] += " ."
    return "\n".join(lines)


def serialize_pruned(retained, doc: RmlMappingExpr) -> str:
    """An RML document containing the retained triples-map expressions.

    *retained* is an iterable of expressions of *doc*, a mapping that
    :func:`parse_rml` returned.  Each triples map with a retained
    expression is written once, under its own identifier, with its retained
    predicate-object maps in document order.  A parent that a retained join
    references but that retains nothing itself is written with only its
    logical source and subject map, so join targets resolve.  The
    document's base is written too, so relative templates build the same
    IRIs.  With nothing retained, the output is an empty mapping with a
    marker comment.
    """
    if isinstance(retained, RmlMappingExpr):
        retained = retained.trmaps
    if not doc.triples_maps:
        raise MappingModelError("only a mapping that parse_rml returned can be written back")
    # an expression hashes by identity, so this finds the very object
    position = {expr: j for j, expr in enumerate(doc.trmaps)}
    kept: set[int] = set()
    for expr in retained:
        j = position.get(expr)
        if j is None:
            raise MappingModelError(
                f"retained expression {expr.provenance!r} does not come from this document"
            )
        kept.add(j)

    header = "@prefix rml: <http://w3id.org/rml/> .\n"
    if not kept:
        return header + "\n# fully pruned: no triples map is compatible with the query\n"
    by_map: dict[str, list[TriplesMapExpr]] = {}
    for j in sorted(kept):
        expr = doc.trmaps[j]
        by_map.setdefault(expr.extract.triples_map, []).append(expr)
        if expr.parent_extract is not None:
            by_map.setdefault(expr.parent_extract.triples_map, [])
    blocks = [
        _render_triples_map(key, source, subject, by_map[key])
        for key, source, subject in doc.triples_maps
        if key in by_map
    ]
    return header + f"@base <{doc.base}> .\n\n" + "\n\n".join(blocks) + "\n"
