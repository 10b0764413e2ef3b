"""RML mapping documents: parsing, translation, serialization.

Both RML generations are accepted: the current namespace
(``http://w3id.org/rml/``) and the legacy pair of ``rr:``
(``http://www.w3.org/ns/r2rml#``) with the old ``rml:``
(``http://semweb.mmlab.be/ns/rml#``).  Only CSV logical sources are in
scope; other reference formulations, graph maps, language maps, logical
tables and functions are rejected with messages naming the offending node.
Unknown properties on mapping nodes are likewise rejected rather than
dropped; triples whose subject is unreachable from every triples map only
produce a logged warning.

A parsed document has one shape: every triples map has a subject map, and
each predicate-object map pairs one predicate map with one object map.
:func:`parse_rml` gets there by turning shortcuts into constant maps,
classes into leading ``rdf:type`` pairs, and several predicate or object
maps into their product.  :func:`translate` emits one triples-map
expression per (triples map, predicate-object map) pair, tagging each with
a provenance id that :func:`serialize_pruned` uses to write the surviving
subset back out as a standalone mapping document.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

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

IRI_TYPE = "iri"
LITERAL_TYPE = "literal"
BNODE_TYPE = "bnode"

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

_TERM_TYPES = {
    RML_NEW + "IRI": IRI_TYPE,
    RR + "IRI": IRI_TYPE,
    RML_NEW + "Literal": LITERAL_TYPE,
    RR + "Literal": LITERAL_TYPE,
    RML_NEW + "BlankNode": BNODE_TYPE,
    RR + "BlankNode": BNODE_TYPE,
}

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
    kind: str  # "constant" | "reference" | "template"
    value: RdfTerm | str
    term_type: str | None = None
    datatype: str | None = None


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


def _node_key(term) -> str:
    if isinstance(term, Iri):
        return term.value
    if isinstance(term, BlankNode):
        return "_:" + term.label
    raise MappingModelError(f"expected an IRI or blank node, found {term!r}")


def _fmt_node(key: str) -> str:
    return key if key.startswith("_:") else f"<{key}>"


# the property token of every IRI a mapping node may carry
_TOKENS = {**_VOCAB, RDF_TYPE: "type"}
_RDF_TYPE_IRI = Iri(RDF_TYPE)

# A mapping document as its subjects' properties, by node key, each a
# (token, predicate, object), the token None for a property that no mapping
# node may carry; the walk below rejects one only where it reaches it.
_Graph = dict[str, list[tuple[str | None, Iri, RdfTerm]]]


class _MappingReader(TurtleParser):
    """The Turtle reader of a mapping: it files each triple under its
    subject, as :data:`_Graph` holds it, and keeps no triple list."""

    def __init__(self, text: str):
        super().__init__(text)
        self.graph: _Graph = {}
        self.logical: set[str] = set()  # the subjects with a logical source

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
    """The error for a property *node* may not carry, being *what*."""
    if token is not None:
        return MappingModelError(
            f"property {token!r} does not belong on {what} ({_fmt_node(node)})"
        )
    message = _REJECTED_PROPS.get(pred.value)
    if message is not None:
        return MappingModelError(f"{message} (property <{pred.value}> on {_fmt_node(node)})")
    return MappingModelError(
        f"unknown property <{pred.value}> on {_fmt_node(node)}; refusing to drop it silently"
    )


def _as_string_literal(obj: RdfTerm, what: str, node: str) -> str:
    if isinstance(obj, Literal) and obj.datatype == XSD_STRING:
        return obj.lex
    raise MappingModelError(f"{what} on {_fmt_node(node)} must be a plain string, found {obj!r}")


def _parse_logical_source(g: _Graph, key: str) -> str:
    """The CSV source of a logical source."""
    source = None
    for token, pred, obj in g.get(key, ()):
        if token == "source":
            source = _as_string_literal(obj, "source", key)
        elif token == "referenceFormulation":
            if not isinstance(obj, Iri):
                raise MappingModelError(
                    f"reference formulation on {_fmt_node(key)} must be an IRI"
                )
            if obj.value not in _CSV_FORMULATIONS:
                kind = _KNOWN_OTHER_FORMULATIONS.get(obj.value, obj.value)
                raise MappingModelError(
                    f"unsupported reference formulation {kind!r} on {_fmt_node(key)}; "
                    f"only CSV sources are supported"
                )
        elif token == "iterator":
            raise MappingModelError(
                f"iterator on {_fmt_node(key)} is not supported: CSV sources are "
                f"always iterated row by row"
            )
        elif token == "type":
            continue
        else:
            raise _misplaced(token, pred, key, "a logical source")
    if source is None:
        raise MappingModelError(f"logical source {_fmt_node(key)} has no source")
    return source


def _parse_term_map(
    g: _Graph, key: str, *, allow_classes: bool = False
) -> tuple[TermMapModel, tuple[Iri, ...]]:
    kind = None
    value: RdfTerm | str | None = None
    term_type = None
    datatype = None
    classes: list[Iri] = []
    for token, pred, obj in g.get(key, ()):
        if token == "constant":
            _set_kind(key, kind, "constant")
            kind, value = "constant", obj
        elif token == "reference":
            _set_kind(key, kind, "reference")
            kind, value = "reference", _as_string_literal(obj, "reference", key)
        elif token == "template":
            _set_kind(key, kind, "template")
            kind, value = "template", _as_string_literal(obj, "template", key)
        elif token == "termType":
            if not isinstance(obj, Iri) or obj.value not in _TERM_TYPES:
                raise MappingModelError(f"unknown term type {obj!r} on {_fmt_node(key)}")
            term_type = _TERM_TYPES[obj.value]
        elif token == "datatype":
            if not isinstance(obj, Iri):
                raise MappingModelError(f"datatype on {_fmt_node(key)} must be an IRI")
            datatype = obj.value
        elif token == "class":
            if not allow_classes:
                raise MappingModelError(
                    f"class is only allowed on subject maps ({_fmt_node(key)})"
                )
            if not isinstance(obj, Iri):
                raise MappingModelError(f"class on {_fmt_node(key)} must be an IRI")
            classes.append(obj)
        elif token == "type":
            continue
        else:
            raise _misplaced(token, pred, key, "a term map")
    if kind is None:
        raise MappingModelError(
            f"term map {_fmt_node(key)} needs exactly one of constant, reference, template"
        )
    return TermMapModel(kind=kind, value=value, term_type=term_type, datatype=datatype), tuple(classes)


def _set_kind(key: str, current: str | None, new: str):
    if current is not None:
        raise MappingModelError(
            f"term map {_fmt_node(key)} mixes {current} with {new}; exactly one of "
            f"constant, reference, template is allowed"
        )


def _parse_ref_object_map(g: _Graph, key: str) -> RefObjectMapModel:
    parent = None
    joins: list[tuple[str, str]] = []
    for token, pred, obj in g.get(key, ()):
        if token == "parentTriplesMap":
            parent = _node_key(obj)
        elif token == "joinCondition":
            child_ref = None
            parent_ref = None
            jkey = _node_key(obj)
            for jtoken, jpred, jobj in g.get(jkey, ()):
                if jtoken == "child":
                    child_ref = _as_string_literal(jobj, "child", jkey)
                elif jtoken == "parent":
                    parent_ref = _as_string_literal(jobj, "parent", jkey)
                elif jtoken == "type":
                    continue
                else:
                    raise _misplaced(jtoken, jpred, jkey, "a join condition")
            if child_ref is None or parent_ref is None:
                raise MappingModelError(
                    f"join condition {_fmt_node(jkey)} needs both child and parent"
                )
            joins.append((child_ref, parent_ref))
        elif token in ("constant", "reference", "template", "termType", "datatype"):
            raise MappingModelError(
                f"object map {_fmt_node(key)} mixes parentTriplesMap with {token}"
            )
        elif token == "type":
            continue
        else:
            raise _misplaced(token, pred, key, "a referencing object map")
    if parent is None:
        raise MappingModelError(f"referencing object map {_fmt_node(key)} has no parent triples map")
    if not joins:
        raise MappingModelError(
            f"referencing object map {_fmt_node(key)} has no join conditions; an "
            f"unconditioned join is not supported"
        )
    return RefObjectMapModel(parent=parent, joins=tuple(joins))


def _has_parent(g: _Graph, key: str) -> bool:
    return any(token == "parentTriplesMap" for token, _, _ in g.get(key, ()))


def _parse_pom(g: _Graph, key: str, visited: set[str]) -> list[PredicateObjectMapModel]:
    """One predicate-object map per (predicate, object) of the node:
    predicate maps before predicate shortcuts, object maps before object
    shortcuts, predicate-major."""
    visited.add(key)
    predicate_maps: list[TermMapModel] = []
    predicate_shortcuts: list[Iri] = []
    object_maps: list[TermMapModel | RefObjectMapModel] = []
    object_shortcuts: list[RdfTerm] = []
    for token, pred, obj in g.get(key, ()):
        if token == "predicateMap":
            pkey = _node_key(obj)
            visited.add(pkey)
            model, _ = _parse_term_map(g, pkey)
            predicate_maps.append(model)
        elif token == "predicate":
            if not isinstance(obj, Iri):
                raise MappingModelError(
                    f"predicate shortcut on {_fmt_node(key)} must be an IRI, found {obj!r}"
                )
            predicate_shortcuts.append(obj)
        elif token == "objectMap":
            okey = _node_key(obj)
            visited.add(okey)
            if _has_parent(g, okey):
                for _, _, jobj in g[okey]:
                    if isinstance(jobj, (Iri, BlankNode)):
                        visited.add(_node_key(jobj))
                object_maps.append(_parse_ref_object_map(g, okey))
            else:
                model, _ = _parse_term_map(g, okey)
                object_maps.append(model)
        elif token == "object":
            object_shortcuts.append(obj)
        elif token == "type":
            continue
        else:
            raise _misplaced(token, pred, key, "a predicate-object map")
    predicate_maps += [TermMapModel(kind="constant", value=p) for p in predicate_shortcuts]
    object_maps += [TermMapModel(kind="constant", value=o) for o in object_shortcuts]
    if not predicate_maps:
        raise MappingModelError(f"predicate-object map {_fmt_node(key)} has no predicate")
    if not object_maps:
        raise MappingModelError(f"predicate-object map {_fmt_node(key)} has no object")
    return [PredicateObjectMapModel(pm, om) for pm in predicate_maps for om in object_maps]


def parse_rml(data: bytes | str) -> RmlDocument:
    """Parse an RML mapping document from Turtle bytes or text."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MappingModelError(f"not valid UTF-8: {exc}") from None
    reader = _MappingReader(data)
    base = reader.parse().base
    g = reader.graph
    # the triples maps: the subjects that carry a logical source, in order
    tm_keys = [key for key in g if key in reader.logical]
    if not tm_keys:
        raise MappingModelError("no triples maps found (no subject carries a logical source)")

    visited: set[str] = set()
    triples_maps: list[TriplesMapModel] = []
    for key in tm_keys:
        visited.add(key)
        source = None
        subject_map = None
        subject_shortcut = None
        classes: tuple[Iri, ...] = ()
        poms: list[PredicateObjectMapModel] = []
        for token, pred, obj in g[key]:
            if token == "logicalSource":
                if source is not None:
                    raise MappingModelError(
                        f"triples map {_fmt_node(key)} has more than one logical source"
                    )
                ls_key = _node_key(obj)
                visited.add(ls_key)
                source = _parse_logical_source(g, ls_key)
            elif token == "subjectMap":
                if subject_map is not None:
                    raise MappingModelError(
                        f"triples map {_fmt_node(key)} has more than one subject map"
                    )
                skey = _node_key(obj)
                visited.add(skey)
                subject_map, classes = _parse_term_map(g, skey, allow_classes=True)
            elif token == "subject":
                if subject_shortcut is not None:
                    raise MappingModelError(
                        f"triples map {_fmt_node(key)} has more than one subject shortcut"
                    )
                subject_shortcut = obj
            elif token == "predicateObjectMap":
                poms += _parse_pom(g, _node_key(obj), visited)
            elif token == "type":
                continue
            else:
                raise _misplaced(token, pred, key, "a triples map")
        if subject_map is not None and subject_shortcut is not None:
            raise MappingModelError(
                f"triples map {_fmt_node(key)} has both a subject map and a subject shortcut"
            )
        if subject_map is None and subject_shortcut is None:
            raise MappingModelError(f"triples map {_fmt_node(key)} lacks a subject map")
        class_poms = [
            PredicateObjectMapModel(
                TermMapModel(kind="constant", value=_RDF_TYPE_IRI),
                TermMapModel(kind="constant", value=cls),
            )
            for cls in classes
        ]
        triples_maps.append(
            TriplesMapModel(
                id=key,
                source=source,
                subject_map=subject_map or TermMapModel(kind="constant", value=subject_shortcut),
                poms=tuple(class_poms + poms),
            )
        )

    for key, props in g.items():
        if key not in visited and any(token != "type" for token, _, _ in props):
            logger.warning(
                "subject %s is not reachable from any triples map; ignoring it",
                _fmt_node(key),
            )

    return RmlDocument(triples_maps=tuple(triples_maps), base_iri=base or DEFAULT_BASE_IRI)


def normalize(doc: RmlDocument) -> RmlDocument:
    """The document itself: :func:`parse_rml` already yields the normal form."""
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


class _Templates(dict):
    """Parsed templates by text, so one translation parses each only once."""

    def __missing__(self, template: str) -> tuple[str, ...]:
        parts = self[template] = parse_template(template)
        return parts

    def parts(self, model: TermMapModel) -> tuple[str, ...]:
        """The template parts of a map; a reference is a template of one
        attribute, a constant one of no attribute."""
        if model.kind == "reference":
            return ("", model.value, "")
        return self[model.value] if model.kind == "template" else ("",)

    def refs(self, model: TermMapModel) -> list[str]:
        return list(self.parts(model)[1::2])


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


def _constant_type(value: RdfTerm) -> str:
    if isinstance(value, Iri):
        return IRI_TYPE
    if isinstance(value, BlankNode):
        return BNODE_TYPE
    return LITERAL_TYPE


def effective_term_type(model: TermMapModel, position: str) -> str:
    """The term type a map produces, after defaulting rules.

    Subject and predicate maps default to IRIs.  Object maps default to
    literals when reference-valued or datatyped, and to IRIs otherwise.
    Constants carry their own kind.
    """
    if model.term_type is not None:
        return model.term_type
    if model.kind == "constant":
        return _constant_type(model.value)
    if position == "object" and (model.kind == "reference" or model.datatype is not None):
        return LITERAL_TYPE
    return IRI_TYPE


def _check_term_map(model: TermMapModel, position: str, where: str) -> str:
    ttype = effective_term_type(model, position)
    if model.kind == "constant" and ttype != _constant_type(model.value):
        raise MappingModelError(
            f"{where}: constant {model.value!r} conflicts with term type {ttype!r}"
        )
    if position in ("subject", "parent-subject") and ttype == LITERAL_TYPE:
        raise MappingModelError(f"{where}: subject maps cannot produce literals")
    if position == "predicate" and ttype != IRI_TYPE:
        raise MappingModelError(f"{where}: predicate maps must produce IRIs")
    if model.datatype is not None and ttype != LITERAL_TYPE:
        raise MappingModelError(
            f"{where}: datatype is only allowed on literal-producing maps"
        )
    return ttype


def _to_extend(
    model: TermMapModel,
    attr_of: dict[str, str],
    base: str,
    position: str,
    where: str,
    templates: _Templates,
) -> ExtendExpr:
    ttype = _check_term_map(model, position, where)
    if model.kind == "constant":
        return ConstantTerm(model.value)
    parts = list(templates.parts(model))
    parts[1::2] = [attr_of[ref] for ref in parts[1::2]]
    body = Template(tuple(parts))
    if ttype == LITERAL_TYPE:
        return BuildLiteral(body, model.datatype or XSD_STRING)
    if ttype == BNODE_TYPE:
        return BuildBlank(body)
    return BuildIri(body, base)


def _parent_attr_name(ref: str, taken: set[str]) -> str:
    candidate = f"{ref}@parent"
    while candidate in taken:
        candidate += "'"
    return candidate


def translate(doc: RmlDocument) -> RmlMappingExpr:
    """One triples-map expression per (triples map, predicate-object map).

    Attributes are named after the references they select, in order of
    first appearance; a joined parent's get an ``@parent`` suffix, plus
    ``'`` until they clash with no child attribute.
    """
    by_id = {tm.id: tm for tm in doc.triples_maps}
    base = doc.base_iri
    templates = _Templates()
    exprs: list[TriplesMapExpr] = []
    for tm in doc.triples_maps:
        if not tm.poms:
            continue
        node = _fmt_node(tm.id)
        subject_refs = templates.refs(tm.subject_map)
        subject_expr = _to_extend(
            tm.subject_map,
            {r: r for r in subject_refs},
            base,
            "subject",
            f"subject map of {node}",
            templates,
        )
        for j, pom in enumerate(tm.poms):
            pm, om = pom.predicate_map, pom.object_map
            where = f"predicate-object map {j} of {node}"
            joined = isinstance(om, RefObjectMapModel)
            refs = (
                subject_refs
                + templates.refs(pm)
                + ([c for c, _ in om.joins] if joined else templates.refs(om))
            )
            # each reference selects itself, in order of first appearance
            selectors = dict(zip(refs, refs))
            extract = ExtractSpec(source_ref=tm.source, selectors=selectors)
            predicate_expr = _to_extend(pm, selectors, base, "predicate", where, templates)
            parent_extract = None
            join_conditions: tuple[tuple[str, str], ...] = ()
            if joined:
                parent_tm = by_id.get(om.parent)
                if parent_tm is None:
                    raise MappingModelError(
                        f"{where}: parent triples map {_fmt_node(om.parent)} does not exist"
                    )
                taken = set(selectors)
                parent_attr_of: dict[str, str] = {}
                for r in dict.fromkeys(
                    templates.refs(parent_tm.subject_map) + [p for _, p in om.joins]
                ):
                    name = _parent_attr_name(r, taken)
                    taken.add(name)
                    parent_attr_of[r] = name
                parent_extract = ExtractSpec(
                    source_ref=parent_tm.source,
                    selectors={attr: r for r, attr in parent_attr_of.items()},
                )
                object_expr = _to_extend(
                    parent_tm.subject_map,
                    parent_attr_of,
                    base,
                    "parent-subject",
                    f"subject map of {_fmt_node(parent_tm.id)}",
                    templates,
                )
                join_conditions = tuple((c, parent_attr_of[p]) for c, p in om.joins)
            else:
                object_expr = _to_extend(om, selectors, base, "object", where, templates)
            exprs.append(
                TriplesMapExpr(
                    subject_expr=subject_expr,
                    predicate_expr=predicate_expr,
                    object_expr=object_expr,
                    extract=extract,
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


_TYPE_KEYWORD = {IRI_TYPE: "rml:IRI", LITERAL_TYPE: "rml:Literal", BNODE_TYPE: "rml:BlankNode"}


def _render_term_map(model: TermMapModel, position: str, indent: str) -> list[str]:
    lines = []
    if model.kind == "constant":
        lines.append(f"{indent}rml:constant {format_term(model.value)} ;")
    elif model.kind == "reference":
        lines.append(f'{indent}rml:reference "{escape_string(model.value)}" ;')
    else:
        lines.append(f'{indent}rml:template "{escape_string(model.value)}" ;')
    if model.kind != "constant":
        ttype = effective_term_type(model, position)
        lines.append(f"{indent}rml:termType {_TYPE_KEYWORD[ttype]} ;")
    if model.datatype is not None and model.datatype != XSD_STRING:
        lines.append(f"{indent}rml:datatype <{model.datatype}> ;")
    lines[-1] = lines[-1].rstrip(" ;")
    return lines


def _render_object_map(om: TermMapModel | RefObjectMapModel) -> list[str]:
    if isinstance(om, TermMapModel):
        return _render_term_map(om, "object", "      ")
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
    lines.extend(_render_term_map(tm.subject_map, "subject", "    "))
    lines.append("  ]")
    for pom in poms:
        lines[-1] += " ;"
        lines.append("  rml:predicateObjectMap [")
        lines.append("    rml:predicateMap [")
        lines.extend(_render_term_map(pom.predicate_map, "predicate", "      "))
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
