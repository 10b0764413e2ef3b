"""RML mapping documents: parsing, translation, serialization.

Both RML generations are accepted: the current namespace
(``http://w3id.org/rml/``) and the legacy pair of ``rr:``
(``http://www.w3.org/ns/r2rml#``) with the old ``rml:``
(``http://semweb.mmlab.be/ns/rml#``).  Only CSV logical sources are in
scope; other reference formulations, graph maps, language maps, logical
tables and functions are rejected with messages naming the offending node.
One table, :data:`_TAKES`, says which properties each kind of mapping node
takes and which of them it takes only once, and one reader checks every
node against it: a property the node does not take, or a once-only one
stated twice, is rejected rather than dropped, and every error below a
triples map names it.  Triples whose subject is unreachable from every
triples map only produce a logged warning.

A parsed document has one shape: every triples map has a subject map, and
each predicate-object map pairs one predicate map with one object map.
:func:`parse_rml` gets there by turning shortcuts into constant maps,
classes into leading ``rdf:type`` pairs, and several predicate or object
maps into their product.  It builds each term map's constructor once, as
it walks the map: R2RML's term-type rules (§7.4) and the rules of the
map's position are applied there, and nowhere else, and the constructor's
attributes are named after the references it reads.  :func:`translate`
only wires those constructors to extractions and joins: it emits one
triples-map expression per (triples map, predicate-object map) pair,
tagging each with a provenance id that :func:`serialize_pruned` uses to
write the surviving subset back out as a standalone mapping document.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace

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
from .errors import MappingModelError
from .ntriples import escape_string, format_term
from .rdf import RDF_TYPE, XSD_STRING, BlankNode, Iri, Literal, RdfTerm
from .turtle import TurtleParser

logger = logging.getLogger("rmlprune.rml")

RML_NEW = "http://w3id.org/rml/"
RR = "http://www.w3.org/ns/r2rml#"
RML_OLD = "http://semweb.mmlab.be/ns/rml#"
QL = "http://semweb.mmlab.be/ns/ql#"

DEFAULT_BASE_IRI = "http://example.com/base/"

_VOCAB: dict[str, str] = {}


def _vocab(token: str, *iris: str):
    for iri in iris:
        _VOCAB[iri] = token


_vocab("logicalSource", RML_NEW + "logicalSource", RML_OLD + "logicalSource")
_vocab("source", RML_NEW + "source", RML_OLD + "source")
_vocab("referenceFormulation", RML_NEW + "referenceFormulation", RML_OLD + "referenceFormulation")
_vocab("iterator", RML_NEW + "iterator", RML_OLD + "iterator")
_vocab("subjectMap", RML_NEW + "subjectMap", RR + "subjectMap")
_vocab("subject", RML_NEW + "subject", RR + "subject")
_vocab("predicateObjectMap", RML_NEW + "predicateObjectMap", RR + "predicateObjectMap")
_vocab("predicateMap", RML_NEW + "predicateMap", RR + "predicateMap")
_vocab("predicate", RML_NEW + "predicate", RR + "predicate")
_vocab("objectMap", RML_NEW + "objectMap", RR + "objectMap")
_vocab("object", RML_NEW + "object", RR + "object")
_vocab("constant", RML_NEW + "constant", RR + "constant")
_vocab("reference", RML_NEW + "reference", RML_OLD + "reference", RR + "column")
_vocab("template", RML_NEW + "template", RR + "template")
_vocab("termType", RML_NEW + "termType", RR + "termType")
# "datatType" is accepted as a datatype alias: it appears in the wild
_vocab(
    "datatype",
    RML_NEW + "datatype",
    RR + "datatype",
    RML_NEW + "datatType",
    RML_OLD + "datatType",
    RR + "datatType",
)
_vocab("class", RML_NEW + "class", RR + "class")
_vocab("parentTriplesMap", RML_NEW + "parentTriplesMap", RR + "parentTriplesMap")
_vocab("joinCondition", RML_NEW + "joinCondition", RR + "joinCondition")
_vocab("child", RML_NEW + "child", RR + "child")
_vocab("parent", RML_NEW + "parent", RR + "parent")

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

# each term type as the constructor that builds its terms
_TERM_TYPES = {
    RML_NEW + "IRI": BuildIri,
    RR + "IRI": BuildIri,
    RML_NEW + "Literal": BuildLiteral,
    RR + "Literal": BuildLiteral,
    RML_NEW + "BlankNode": BuildBlank,
    RR + "BlankNode": BuildBlank,
}
_CONSTANT_TYPES = {Iri: BuildIri, Literal: BuildLiteral, BlankNode: BuildBlank}
_TYPE_KEYWORD = {BuildIri: "rml:IRI", BuildLiteral: "rml:Literal", BuildBlank: "rml:BlankNode"}

_CSV_FORMULATIONS = {QL + "CSV", RML_NEW + "CSV"}
_KNOWN_OTHER_FORMULATIONS = {
    QL + "JSONPath": "JSON",
    QL + "XPath": "XML",
    RML_NEW + "JSONPath": "JSON",
    RML_NEW + "XPath": "XML",
}


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------


@dataclass
class TermMapModel:
    """A term map as written, which :func:`serialize_pruned` writes back,
    and the constructor it builds."""

    kind: str  # "constant" | "reference" | "template"
    value: RdfTerm | str
    expr: ExtendExpr


@dataclass
class RefObjectMapModel:
    parent: str
    joins: tuple[tuple[str, str], ...]


@dataclass
class PredicateObjectMapModel:
    predicate_map: TermMapModel
    object_map: TermMapModel | RefObjectMapModel


@dataclass
class TriplesMapModel:
    id: str
    source: str  # the CSV file its logical source names
    subject_map: TermMapModel
    poms: tuple[PredicateObjectMapModel, ...] = ()


@dataclass
class RmlDocument:
    triples_maps: tuple[TriplesMapModel, ...]
    base_iri: str = DEFAULT_BASE_IRI


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _node_key(term, token: str) -> str:
    """The key of the node that property *token* names."""
    if isinstance(term, Iri):
        return term.value
    if isinstance(term, BlankNode):
        return "_:" + term.label
    raise MappingModelError(f"property {token!r} must name an IRI or blank node, found {term!r}")


def _fmt_node(key: str) -> str:
    return key if key.startswith("_:") else f"<{key}>"


# the property token of every IRI a mapping node may carry
_TOKENS = {**_VOCAB, RDF_TYPE: "type"}
_RDF_TYPE_IRI = Iri(RDF_TYPE)


class _Graph(dict[str, list[tuple[str | None, Iri, RdfTerm]]]):
    """A mapping document as its subjects' properties, by node key, each a
    (token, predicate, object), the token None for a property that no
    mapping node may carry; the walk below rejects one only where it
    reaches it.  It also keeps what an error needs to name a blank node
    the way the document writes it."""

    def __init__(self, text: str, labels: dict[str, str]):
        super().__init__()
        self.text, self.labels = text, labels  # the labels: document's -> the reader's
        self.made: list[int] = []  # blank node bN was made at offset made[N - 1]

    def name(self, key: str) -> str:
        """Node *key* for an error message: an IRI, the document's label of
        a blank node, or ``[ ]`` with the line it opens on."""
        if not key.startswith("_:"):
            return f"<{key}>"
        for label, internal in self.labels.items():
            if key[2:] == internal:
                return "_:" + label
        line = self.text.count("\n", 0, self.made[int(key[3:]) - 1]) + 1
        return f"[ ] at line {line}"


class _MappingReader(TurtleParser):
    """The Turtle reader of a mapping: it files each triple under its
    subject, as :class:`_Graph` holds it, and keeps no triple list."""

    def __init__(self, text: str):
        super().__init__(text)
        self.graph = _Graph(text, self.bnode_labels)
        self.logical: set[str] = set()  # the subjects with a logical source

    def fresh_bnode(self, at: int | None = None) -> BlankNode:
        self.graph.made.append(self.pos if at is None else at)
        return super().fresh_bnode(at)

    def add(self, s: Iri | BlankNode, p: Iri, o: RdfTerm):
        key = "_:" + s.label if type(s) is BlankNode else s.value
        token = _TOKENS.get(p.value)
        props = self.graph.get(key)
        if props is None:
            props = self.graph[key] = []
        props.append((token, p, o))
        if token == "logicalSource":
            self.logical.add(key)


def _misplaced(token: str | None, pred: Iri, node: str, what: str) -> MappingModelError:
    """The error for a property the *what* named *node* may not carry."""
    if token is not None:
        return MappingModelError(f"property {token!r} does not belong on {what} {node}")
    message = _REJECTED_PROPS.get(pred.value)
    if message is not None:
        return MappingModelError(f"{message} (property <{pred.value}> on {node})")
    return MappingModelError(f"unknown property <{pred.value}> on {node}; refusing to drop it silently")


def _takes(once: str, repeats: str = "") -> dict[str, bool]:
    return dict.fromkeys(once.split(), False) | dict.fromkeys(repeats.split(), True)


# The property tokens each kind of mapping node takes, those it takes once
# and those that may repeat (R2RML §6.1, §7, §8), by whether they repeat.
_TERM_MAP = "constant reference template termType datatype"
_KINDS = frozenset(("constant", "reference", "template"))
_TAKES: dict[str, dict[str, bool]] = {
    "triples map": _takes("logicalSource subjectMap subject", "predicateObjectMap"),
    "logical source": _takes("source referenceFormulation iterator"),
    "subject map": _takes(_TERM_MAP, "class"),
    "predicate map": _takes(_TERM_MAP),
    "object map": _takes(_TERM_MAP),
    "predicate-object map": _takes("", "predicateMap predicate objectMap object"),
    "referencing object map": _takes("parentTriplesMap", "joinCondition"),
    "join condition": _takes("child parent"),
}


def _read_node(g: _Graph, key: str, what: str, visited: set[str]) -> dict:
    """The properties of node *key*, a *what*, by token: the object of one
    it takes once, the list of objects, in document order, of one that may
    repeat.  Any other property but ``rdf:type`` is an error, and so is a
    once-only property stated twice."""
    visited.add(key)
    takes = _TAKES[what]
    props: dict = {}
    for token, pred, obj in g.get(key, ()):
        repeats = takes.get(token)
        if repeats:
            props.setdefault(token, []).append(obj)
        elif repeats is None:
            if token != "type":
                raise _misplaced(token, pred, g.name(key), what)
        elif token in props:
            raise MappingModelError(f"{what} {g.name(key)} has more than one {token}")
        else:
            props[token] = obj
    return props


def _as_string_literal(obj: RdfTerm, what: str, g: _Graph, key: str) -> str:
    if isinstance(obj, Literal) and obj.datatype == XSD_STRING:
        return obj.lex
    raise MappingModelError(f"{what} on {g.name(key)} must be a plain string, found {obj!r}")


def _parse_logical_source(g: _Graph, key: str, visited: set[str]) -> str:
    """The CSV source of a logical source."""
    props = _read_node(g, key, "logical source", visited)
    formulation = props.get("referenceFormulation")
    if formulation is not None:
        if not isinstance(formulation, Iri):
            raise MappingModelError(f"reference formulation on {g.name(key)} must be an IRI")
        if formulation.value not in _CSV_FORMULATIONS:
            kind = _KNOWN_OTHER_FORMULATIONS.get(formulation.value, formulation.value)
            raise MappingModelError(
                f"unsupported reference formulation {kind!r} on {g.name(key)}; "
                f"only CSV sources are supported"
            )
    if "iterator" in props:
        raise MappingModelError(
            f"iterator on {g.name(key)} is not supported: CSV sources are "
            f"always iterated row by row"
        )
    if "source" not in props:
        raise MappingModelError(f"logical source {g.name(key)} has no source")
    return _as_string_literal(props["source"], "source", g, key)


def _term_map(
    kind: str,
    value: RdfTerm | str,
    position: str,
    base: str,
    term_type: type | None = None,
    datatype: str | None = None,
) -> TermMapModel:
    """A term map at *position* ("subject", "predicate" or "object") with
    its constructor, after R2RML's term-type rules: a constant has its
    term's type; otherwise an explicit term type holds, an object map that
    is reference-valued or datatyped builds literals, and every other map
    builds IRIs.  Subject maps build no literals, predicate maps only IRIs,
    and only a literal-building map takes a datatype.  Its errors do not
    name the map: the caller, which knows where it is, adds that."""
    if kind == "constant":
        if datatype is not None:
            typed = f" ({format_term(Literal(value.lex, datatype))})" if type(value) is Literal else ""
            raise MappingModelError(
                f"a constant map takes no datatype; write the typed literal{typed} "
                f"as the constant"
            )
        built = _CONSTANT_TYPES[type(value)]
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
        return TermMapModel(kind, value, ConstantTerm(value))
    if kind == "reference":
        body = Template(("", value, ""))
    else:
        body = Template(parse_template(value))
    if built is BuildLiteral:
        return TermMapModel(kind, value, BuildLiteral(body, datatype or XSD_STRING))
    if built is BuildBlank:
        return TermMapModel(kind, value, BuildBlank(body))
    return TermMapModel(kind, value, BuildIri(body, base))


def _parse_term_map(
    g: _Graph, key: str, position: str, base: str, visited: set[str]
) -> tuple[TermMapModel, tuple[Iri, ...]]:
    """The term map at node *key*, at *position*, and, on a subject map,
    its classes."""
    what = f"{position} map"
    props = _read_node(g, key, what, visited)
    kinds = _KINDS & props.keys()
    if len(kinds) != 1:
        raise MappingModelError(
            f"{what} {g.name(key)} needs exactly one of constant, reference, template"
        )
    (kind,) = kinds
    value = props[kind] if kind == "constant" else _as_string_literal(props[kind], kind, g, key)
    term_type, datatype, classes = props.get("termType"), props.get("datatype"), props.get("class", ())
    try:
        if term_type is not None:
            term_type = _TERM_TYPES.get(term_type.value) if isinstance(term_type, Iri) else None
            if term_type is None:
                raise MappingModelError(f"unknown term type {props['termType']!r}")
        if datatype is not None:
            if not isinstance(datatype, Iri):
                raise MappingModelError("datatype must be an IRI")
            datatype = datatype.value
        if not all(isinstance(cls, Iri) for cls in classes):
            raise MappingModelError("class must be an IRI")
        return _term_map(kind, value, position, base, term_type, datatype), tuple(classes)
    except MappingModelError as exc:
        raise MappingModelError(f"{what} {g.name(key)}: {exc}") from None


def _parse_ref_object_map(g: _Graph, key: str, visited: set[str]) -> RefObjectMapModel:
    props = _read_node(g, key, "referencing object map", visited)
    joins: list[tuple[str, str]] = []
    for obj in props.get("joinCondition", ()):
        jkey = _node_key(obj, "joinCondition")
        join = _read_node(g, jkey, "join condition", visited)
        if "child" not in join or "parent" not in join:
            raise MappingModelError(f"join condition {g.name(jkey)} needs both child and parent")
        joins.append(tuple(_as_string_literal(join[end], end, g, jkey) for end in ("child", "parent")))
    if not joins:
        raise MappingModelError(
            f"referencing object map {g.name(key)} has no join conditions; an "
            f"unconditioned join is not supported"
        )
    parent = _node_key(props["parentTriplesMap"], "parentTriplesMap")
    if not any(token == "logicalSource" for token, _, _ in g.get(parent, ())):
        raise MappingModelError(
            f"referencing object map {g.name(key)}: parent triples map {g.name(parent)} does not exist"
        )
    return RefObjectMapModel(parent=parent, joins=tuple(joins))


def _parse_pom(g: _Graph, key: str, base: str, visited: set[str]) -> list[PredicateObjectMapModel]:
    """One predicate-object map per (predicate, object) of the node:
    predicate maps before predicate shortcuts, object maps before object
    shortcuts, predicate-major."""
    props = _read_node(g, key, "predicate-object map", visited)
    predicate_maps = [
        _parse_term_map(g, _node_key(obj, "predicateMap"), "predicate", base, visited)[0]
        for obj in props.get("predicateMap", ())
    ]
    try:
        predicate_maps += [_term_map("constant", p, "predicate", base) for p in props.get("predicate", ())]
    except MappingModelError as exc:
        raise MappingModelError(f"predicate-object map {g.name(key)}: {exc}") from None
    object_maps: list[TermMapModel | RefObjectMapModel] = []
    for obj in props.get("objectMap", ()):
        okey = _node_key(obj, "objectMap")
        # a referencing object map is the one that names a parent
        if any(token == "parentTriplesMap" for token, _, _ in g.get(okey, ())):
            object_maps.append(_parse_ref_object_map(g, okey, visited))
        else:
            object_maps.append(_parse_term_map(g, okey, "object", base, visited)[0])
    # a constant object map is any term, so it cannot fail
    object_maps += [_term_map("constant", o, "object", base) for o in props.get("object", ())]
    if not predicate_maps:
        raise MappingModelError(f"predicate-object map {g.name(key)} has no predicate")
    if not object_maps:
        raise MappingModelError(f"predicate-object map {g.name(key)} has no object")
    return [PredicateObjectMapModel(pm, om) for pm in predicate_maps for om in object_maps]


def parse_rml(data: bytes | str) -> RmlDocument:
    """Parse an RML mapping document from Turtle bytes or text."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MappingModelError(f"not valid UTF-8: {exc}") from None
    reader = _MappingReader(data)
    base = reader.parse() or DEFAULT_BASE_IRI
    g = reader.graph
    # the triples maps: the subjects that carry a logical source, in order
    tm_keys = [key for key in g if key in reader.logical]
    if not tm_keys:
        raise MappingModelError("no triples maps found (no subject carries a logical source)")

    visited: set[str] = set()
    triples_maps: list[TriplesMapModel] = []
    for key in tm_keys:
        props = _read_node(g, key, "triples map", visited)
        subject_map, classes = None, ()
        # the nodes below a triples map name it in their errors
        try:
            source = _parse_logical_source(g, _node_key(props["logicalSource"], "logicalSource"), visited)
            if "subjectMap" in props:
                skey = _node_key(props["subjectMap"], "subjectMap")
                subject_map, classes = _parse_term_map(g, skey, "subject", base, visited)
            if "subject" in props:
                if subject_map is not None:
                    raise MappingModelError("a subject map and a subject shortcut are both given")
                subject_map = _term_map("constant", props["subject"], "subject", base)
            poms = [
                pom
                for obj in props.get("predicateObjectMap", ())
                for pom in _parse_pom(g, _node_key(obj, "predicateObjectMap"), base, visited)
            ]
        except MappingModelError as exc:
            raise MappingModelError(f"triples map {g.name(key)}: {exc}") from None
        if subject_map is None:
            raise MappingModelError(f"triples map {g.name(key)} lacks a subject map")
        class_poms = [
            PredicateObjectMapModel(
                _term_map("constant", _RDF_TYPE_IRI, "predicate", base),
                _term_map("constant", cls, "object", base),
            )
            for cls in classes
        ]
        triples_maps.append(
            TriplesMapModel(id=key, source=source, subject_map=subject_map, poms=tuple(class_poms + poms))
        )

    for key, props in g.items():
        if key not in visited and any(token != "type" for token, _, _ in props):
            logger.warning(
                "subject %s is not reachable from any triples map; ignoring it",
                g.name(key),
            )

    return RmlDocument(triples_maps=tuple(triples_maps), base_iri=base)


def normalize(doc: RmlDocument) -> RmlDocument:
    """The document itself: :func:`parse_rml` already yields the normal
    form.  Kept only because the benchmark in ``perfbench/`` imports it."""
    return doc


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


# A run of text (backslash escapes the next character), a placeholder, or a
# character that starts neither: a dangling '\\', a stray '}' or a '{' that
# opens no well-formed placeholder.
_TEMPLATE_RE = re.compile(r"((?:[^\\{}]|\\.)+)|\{([^{}\\]*)\}|(.)", re.DOTALL)
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


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


def _refs(expr: ExtendExpr) -> tuple[str, ...]:
    """The references a constructor reads, in order, repeats included."""
    return () if isinstance(expr, ConstantTerm) else expr.body.parts[1::2]


def _renamed(expr: ExtendExpr, name_of: dict[str, str]) -> ExtendExpr:
    """A copy of *expr* reading attribute ``name_of[a]`` for each ``a``."""
    if isinstance(expr, ConstantTerm):
        return expr
    parts = list(expr.body.parts)
    parts[1::2] = [name_of[ref] for ref in parts[1::2]]
    return replace(expr, body=Template(tuple(parts)))


def translate(doc: RmlDocument) -> RmlMappingExpr:
    """One triples-map expression per (triples map, predicate-object map).

    The parsed constructors are reused; their attributes are named after
    the references they select, in order of first appearance.  A joined
    parent's subject constructor is copied with its attributes renamed
    with an ``@parent`` suffix, plus ``'`` until they clash with no child
    attribute.
    """
    by_id = {tm.id: tm for tm in doc.triples_maps}
    exprs: list[TriplesMapExpr] = []
    for tm in doc.triples_maps:
        subject_expr = tm.subject_map.expr
        subject_refs = _refs(subject_expr)
        for j, pom in enumerate(tm.poms):
            predicate_expr, om = pom.predicate_map.expr, pom.object_map
            joined = isinstance(om, RefObjectMapModel)
            refs = (
                subject_refs
                + _refs(predicate_expr)
                + (tuple(c for c, _ in om.joins) if joined else _refs(om.expr))
            )
            # each reference selects itself, in order of first appearance
            selectors = dict(zip(refs, refs))
            parent_extract = None
            join_conditions: tuple[tuple[str, str], ...] = ()
            if joined:
                parent_tm = by_id[om.parent]  # parse_rml checked that it exists
                parent_subject = parent_tm.subject_map.expr
                taken = set(selectors)
                name_of: dict[str, str] = {}
                for ref in dict.fromkeys(_refs(parent_subject) + tuple(p for _, p in om.joins)):
                    name = f"{ref}@parent"
                    while name in taken:
                        name += "'"
                    taken.add(name)
                    name_of[ref] = name
                parent_extract = ExtractSpec(
                    source_ref=parent_tm.source,
                    selectors={name: ref for ref, name in name_of.items()},
                )
                object_expr = _renamed(parent_subject, name_of)
                join_conditions = tuple((c, name_of[p]) for c, p in om.joins)
            else:
                object_expr = om.expr
            exprs.append(
                TriplesMapExpr(
                    subject_expr=subject_expr,
                    predicate_expr=predicate_expr,
                    object_expr=object_expr,
                    extract=ExtractSpec(source_ref=tm.source, selectors=selectors),
                    parent_extract=parent_extract,
                    join_conditions=join_conditions,
                    provenance=f"{tm.id}#pom{j}",
                )
            )
    if not exprs:
        raise MappingModelError(
            "the document has no predicate-object maps, so it produces no triples"
        )
    return RmlMappingExpr(tuple(exprs))


# ---------------------------------------------------------------------------
# serialization of pruned documents
# ---------------------------------------------------------------------------


def _render_term_map(model: TermMapModel, indent: str) -> list[str]:
    if model.kind == "constant":
        return [f"{indent}rml:constant {format_term(model.value)}"]
    lines = [
        f'{indent}rml:{model.kind} "{escape_string(model.value)}" ;',
        f"{indent}rml:termType {_TYPE_KEYWORD[type(model.expr)]} ;",
    ]
    if isinstance(model.expr, BuildLiteral) and model.expr.datatype != XSD_STRING:
        lines.append(f"{indent}rml:datatype <{model.expr.datatype}> ;")
    lines[-1] = lines[-1].rstrip(" ;")
    return lines


def _render_object_map(om: TermMapModel | RefObjectMapModel) -> list[str]:
    if isinstance(om, TermMapModel):
        return _render_term_map(om, "      ")
    lines = [f"      rml:parentTriplesMap {_fmt_node(om.parent)} ;"]
    for child_ref, parent_ref in om.joins:
        lines.append(
            f'      rml:joinCondition [ rml:child "{escape_string(child_ref)}" ; '
            f'rml:parent "{escape_string(parent_ref)}" ] ;'
        )
    lines[-1] = lines[-1].rstrip(" ;")
    return lines


def _render_triples_map(tm: TriplesMapModel, poms: list[PredicateObjectMapModel]) -> str:
    lines = [
        f'{_fmt_node(tm.id)} rml:logicalSource [ rml:source "{escape_string(tm.source)}" ; '
        "rml:referenceFormulation rml:CSV ] ;"
    ]
    lines.append("  rml:subjectMap [")
    lines.extend(_render_term_map(tm.subject_map, "    "))
    lines.append("  ]")
    for pom in poms:
        lines[-1] += " ;"
        lines.append("  rml:predicateObjectMap [")
        lines.append("    rml:predicateMap [")
        lines.extend(_render_term_map(pom.predicate_map, "      "))
        lines.append("    ] ;")
        lines.append("    rml:objectMap [")
        lines.extend(_render_object_map(pom.object_map))
        lines.append("    ]")
        lines.append("  ]")
    lines[-1] += " ."
    return "\n".join(lines)


def serialize_pruned(retained, doc: RmlDocument) -> str:
    """An RML document containing the retained triples-map expressions.

    *retained* is an iterable of expressions produced by translating *doc*.
    Each triples map with a retained expression is written once, under its
    own identifier, with its retained predicate-object maps in document
    order.  A parent that a retained join references but that retains
    nothing itself is written with only its logical source and subject map,
    so join targets resolve.  The document's base is written too, so
    relative templates build the same IRIs.  With nothing retained, the
    output is an empty mapping with a marker comment.
    """
    if isinstance(retained, RmlMappingExpr):
        retained = retained.trmaps
    by_id = {tm.id: tm for tm in doc.triples_maps}
    kept: dict[str, set[int]] = {}
    parents: set[str] = set()
    for expr in retained:
        tm_id, _, index = expr.provenance.rpartition("#pom")
        tm = by_id.get(tm_id)
        if tm is None or not index.isdecimal() or int(index) >= len(tm.poms):
            raise MappingModelError(
                f"retained expression {expr.provenance!r} does not come from this document"
            )
        j = int(index)
        kept.setdefault(tm_id, set()).add(j)
        om = tm.poms[j].object_map
        if isinstance(om, RefObjectMapModel):
            parents.add(om.parent)

    header = "@prefix rml: <http://w3id.org/rml/> .\n"
    if not kept:
        return header + "\n# fully pruned: no triples map is compatible with the query\n"
    blocks = [
        _render_triples_map(tm, [tm.poms[j] for j in sorted(kept.get(tm.id, ()))])
        for tm in doc.triples_maps
        if tm.id in kept or tm.id in parents
    ]
    return header + f"@base <{doc.base_iri}> .\n\n" + "\n\n".join(blocks) + "\n"
