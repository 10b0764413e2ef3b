"""RML mapping documents: parsing into expressions, and writing them back.

Both RML generations are accepted: the current namespace
(``http://w3id.org/rml/``) and the legacy pair of ``rr:``
(``http://www.w3.org/ns/r2rml#``) with the old ``rml:``
(``http://semweb.mmlab.be/ns/rml#``).  Only CSV logical sources are in
scope; other reference formulations, graph maps, language maps, logical
tables and functions are rejected with messages naming the offending node.
The Turtle reader is the mapping's graph: it files each subject's
predicates and objects, in document order, alternating in one list, and
names a node in an error as the document writes it.  One table,
:data:`_TAKES`, says by IRI which properties each kind of mapping node
takes, in which order, which of them only once, and what kind of object
each takes: a node (an IRI or a blank node), an IRI, a plain string or any
term.  One reader checks that and returns their values in that order: any
other property, a once-only one stated twice or an object of another kind
is rejected rather than dropped, and every error below a triples map
names it.  A subject no triples map reaches only gets a warning.

A mapping has one form, the :class:`~rmlprune.algebra.RmlMappingExpr`
that :func:`parse_rml` returns.  The walk puts each triples map in one
shape: a subject constructor with a list of (predicate, object) pairs, got
by turning shortcuts into constants, classes into leading ``rdf:type``
pairs, and several predicate or object maps into their product.  It builds
each term map's constructor as it walks the map, one for all the equal
maps of a document: R2RML's term-type rules (§7.4), the rule that a
constant is an IRI or a literal (§7.2) and the rules of the map's position
are applied there, and nowhere else, and the constructor's attributes are
named after the references it reads; its template records whether it was
written as a reference.  Every term is the pair of
:data:`rmlprune.rdf.Term`, and a node is keyed by its spelling while the
document is read.  Each (triples
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
from .rdf import IRI, LITERAL, RDF_TYPE, RDF_TYPE_IRI, XSD_STRING, Term, escape_string, format_term, unescaped
from .rdf import kind as term_kind
from .turtle import TurtleParser

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

# the constructor of a constant of each kind
_CONSTANT_TYPES = {IRI: BuildIri, LITERAL: BuildLiteral}
_TYPE_KEYWORD = {BuildIri: "rml:IRI", BuildLiteral: "rml:Literal", BuildBlank: "rml:BlankNode"}
# the IRIs the walk compares objects with, by their spellings: each term
# type as the constructor that builds its terms, and reference formulations
_TERM_TYPES = {f"<{ns}{keyword[4:]}>": cls for cls, keyword in _TYPE_KEYWORD.items() for ns in (RML_NEW, RR)}
_CSV_FORMULATIONS = {f"<{QL}CSV>", f"<{RML_NEW}CSV>"}
_KNOWN_OTHER_FORMULATIONS = {
    f"<{ns}{name}>": data for ns in (QL, RML_NEW) for name, data in (("JSONPath", "JSON"), ("XPath", "XML"))
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _fmt_node(key: str) -> str:
    return key if key.startswith("_:") else f"<{key}>"


def _key(spelling: str) -> str:
    """The key a mapping gives the node of *spelling*: an IRI's value, or a
    blank node's spelling."""
    return spelling[1:-1] if spelling[0] == "<" else spelling


# the property token of every IRI a mapping node may carry, by its spelling
_TOKENS = {f"<{iri}>": token for iri, token in {**_VOCAB, RDF_TYPE: "type"}.items()}
_LOGICAL_SOURCE = {iri for iri, token in _TOKENS.items() if token == "logicalSource"}
_PARENT_TRIPLES_MAP = {iri for iri, token in _TOKENS.items() if token == "parentTriplesMap"}


# Each kind of object a property takes, by its name in _TAKES: what reads
# the value the walk uses (None for an object of another kind), and the
# error then.  A node is read as its spelling, an IRI as its term and a
# plain string as its lexical form; a constant takes any term, as itself.
_KINDS = {
    "node": (
        lambda obj: obj[0] if obj[1] is None else None,
        "property {token!r} must name an IRI or blank node, found {obj}",
    ),
    "iri": (
        lambda obj: obj if obj[1] is None and obj[0][0] == IRI else None,
        "{token} on {node} must be an IRI, found {obj}",
    ),
    "string": (
        lambda obj: obj[0] if obj[1] == XSD_STRING else None,
        "{token} on {node} must be a plain string, found {obj}",
    ),
    "term": (None, None),
}


class _MappingReader(TurtleParser):
    """The Turtle reader of a mapping, and the graph it reads: each
    subject's predicates and objects, in document order and alternating
    in one list, by the subject's spelling.  It names a node in an error
    the way the document writes it."""

    def __init__(self, text: str):
        super().__init__(text)
        self.graph: dict[str, list] = {}
        # the constructor of each term map node, by what it is built from:
        # equal maps share one
        self.built: dict[tuple, ExtendExpr] = {}

    def properties(self, s: Term):
        return self.graph.setdefault(s[0], []).extend

    def states(self, node: str, iris: set[str]) -> bool:
        """Whether *node* carries a property whose IRI's spelling is in
        *iris*."""
        for pred in self.graph.get(node, ())[::2]:
            if pred[0] in iris:
                return True
        return False

    @cached_property
    def _label_of(self) -> dict[str, str]:
        return {internal: label for label, internal in self.bnode_labels.items()}

    def name(self, node: str) -> str:
        """The node of spelling *node* for an error message: an IRI, the
        document's label of a blank node, or ``[ ]`` with the line it opens
        on."""
        if not node.startswith("_:"):
            return node
        label = self._label_of.get(node[2:])
        if label is not None:
            return "_:" + label
        return f"[ ] at line {self.line_column(self.bnode_offsets[int(node[3:]) - 1])[0]}"


def _misplaced(token: str | None, pred: Term, node: str, what: str) -> MappingModelError:
    """The error for a property the *what* named *node* may not carry."""
    if token is not None:
        return MappingModelError(f"property {token!r} does not belong on {what} {node}")
    message = _REJECTED_PROPS.get(pred[0][1:-1])
    if message is not None:
        return MappingModelError(f"{message} (property {pred[0]} on {node})")
    return MappingModelError(f"unknown property {pred[0]} on {node}; refusing to drop it silently")


def _takes(once: str, repeats: str = "") -> tuple[dict[str, tuple], int]:
    """By every IRI of a property a kind of node takes, its place among the
    tokens, *once* then *repeats*, whether it repeats and its kind of
    object (each written ``token:kind``); and their count."""
    once, repeats = once.split(), repeats.split()
    place = {}
    for i, spec in enumerate(once + repeats):
        token, kind = spec.split(":")
        place[token] = (i, i >= len(once), *_KINDS[kind])
    return {iri: place[token] for iri, token in _TOKENS.items() if token in place}, len(once) + len(repeats)


# The property tokens each kind of mapping node takes, once and repeating
# (R2RML §6.1, §7, §8), in the order that _read_node returns them, each with
# the kind of its object: an iterator, rejected whatever it holds, takes any.
_TERM_MAP = "constant:term reference:string template:string termType:iri datatype:iri"
_TAKES: dict[str, tuple[dict[str, tuple], int]] = {
    "triples map": _takes("logicalSource:node subjectMap:node subject:term", "predicateObjectMap:node"),
    "logical source": _takes("source:string referenceFormulation:iri iterator:term"),
    "subject map": _takes(_TERM_MAP, "class:iri"),
    "predicate map": _takes(_TERM_MAP),
    "object map": _takes(_TERM_MAP),
    "predicate-object map": _takes("", "predicateMap:node predicate:term objectMap:node object:term"),
    "referencing object map": _takes("parentTriplesMap:node", "joinCondition:node"),
    "join condition": _takes("child:string parent:string"),
}


def _read_node(g: _MappingReader, key: str, what: str, visited: set[str]) -> list:
    """The values of the properties of the node spelled *key*, a *what*, in the order
    of its tokens in :data:`_TAKES`: the value of one it takes once, the
    list of values, in document order, of one that may repeat, and None for
    one not stated.  Any other property but ``rdf:type`` is an error, and
    so is a once-only property stated twice, or an object of another kind
    than its property takes."""
    visited.add(key)
    takes, size = _TAKES[what]
    values = [None] * size
    props = iter(g.graph.get(key, ()))
    for pred, obj in zip(props, props):
        taken = takes.get(pred[0])
        if taken is None:
            token = _TOKENS.get(pred[0])
            if token != "type":
                raise _misplaced(token, pred, g.name(key), what)
            continue
        i, repeats, read, error = taken
        if not repeats and values[i] is not None:
            raise MappingModelError(f"{what} {g.name(key)} has more than one {_TOKENS[pred[0]]}")
        value = obj if read is None else read(obj)
        if value is None:
            message = error.format(token=_TOKENS[pred[0]], node=g.name(key), obj=unescaped(obj))
            # this error on a triples map's own property names it, as one below it does
            raise MappingModelError(f"{what} {g.name(key)}: {message}" if what == "triples map" else message)
        if not repeats:
            values[i] = value
        elif values[i] is None:
            values[i] = [value]
        else:
            values[i].append(value)
    return values


def _parse_logical_source(g: _MappingReader, key: str, visited: set[str]) -> str:
    """The CSV source of a logical source."""
    source, formulation, iterator = _read_node(g, key, "logical source", visited)
    if formulation is not None and formulation[0] not in _CSV_FORMULATIONS:
        other = _KNOWN_OTHER_FORMULATIONS.get(formulation[0], formulation[0][1:-1])
        raise MappingModelError(
            f"unsupported reference formulation {other!r} on {g.name(key)}; "
            f"only CSV sources are supported"
        )
    if iterator is not None:
        raise MappingModelError(
            f"iterator on {g.name(key)} is not supported: CSV sources are "
            f"always iterated row by row"
        )
    if source is None:
        raise MappingModelError(f"logical source {g.name(key)} has no source")
    return source


def _term_map(
    kind: str,
    value: Term | str,
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
            typed = f" ({format_term((value[0], datatype))})" if value[1] is not None else ""
            raise MappingModelError(
                f"a constant map takes no datatype; write the typed literal{typed} "
                f"as the constant"
            )
        built = _CONSTANT_TYPES.get(term_kind(value))
        if built is None:
            raise MappingModelError("a constant must be an IRI or a literal, not a blank node")
        if term_type not in (None, built):
            raise MappingModelError(
                f"constant {unescaped(value)} conflicts with term type {_TYPE_KEYWORD[term_type]}"
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
        return ConstantTerm(value)
    if kind == "reference":
        body = Template(("", value, ""), True)
    else:
        body = Template(parse_template(value), False)
    if built is BuildLiteral:
        return BuildLiteral(body, datatype or XSD_STRING)
    if built is BuildBlank:
        return BuildBlank(body)
    return BuildIri(body, base)


def _parse_term_map(
    g: _MappingReader, key: str, position: str, base: str, visited: set[str]
) -> tuple[ExtendExpr, tuple[str, ...]]:
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
        kind, value = "reference", reference
    else:
        kind, value = "template", template
    try:
        if term_type is not None:
            built = _TERM_TYPES.get(term_type[0])
            if built is None:
                raise MappingModelError(f"unknown term type {term_type[0]}")
            term_type = built
        if datatype is not None:
            datatype = datatype[0][1:-1]
        made = (kind, value, position, term_type, datatype)
        expr = g.built.get(made)
        if expr is None:
            expr = g.built[made] = _term_map(kind, value, position, base, term_type, datatype)
        return expr, tuple(classes)
    except MappingModelError as exc:
        raise MappingModelError(f"{what} {g.name(key)}: {exc}") from None


# a referencing object map: its parent's key and its (child, parent) join pairs
_Joined = tuple[str, tuple[tuple[str, str], ...]]


def _parse_ref_object_map(g: _MappingReader, key: str, visited: set[str]) -> _Joined:
    parent, conditions = _read_node(g, key, "referencing object map", visited)
    joins: list[tuple[str, str]] = []
    for jkey in conditions or ():
        join = _read_node(g, jkey, "join condition", visited)
        if None in join:
            raise MappingModelError(f"join condition {g.name(jkey)} needs both child and parent")
        joins.append(tuple(join))
    if not joins:
        raise MappingModelError(
            f"referencing object map {g.name(key)} has no join conditions; an "
            f"unconditioned join is not supported"
        )
    if not g.states(parent, _LOGICAL_SOURCE):
        raise MappingModelError(
            f"referencing object map {g.name(key)}: parent triples map {g.name(parent)} does not exist"
        )
    return _key(parent), tuple(joins)


def _parse_pom(
    g: _MappingReader, key: str, base: str, visited: set[str]
) -> list[tuple[ExtendExpr, ExtendExpr | _Joined]]:
    """One (predicate constructor, object constructor or join) pair per
    (predicate, object) of the node: predicate maps before predicate
    shortcuts, object maps before object shortcuts, predicate-major."""
    predicate_nodes, predicates, object_nodes, objects = _read_node(g, key, "predicate-object map", visited)
    try:
        # each shortcut is a constant map
        predicate_shortcuts = [_term_map("constant", term, "predicate", base) for term in predicates or ()]
        object_shortcuts = [_term_map("constant", term, "object", base) for term in objects or ()]
    except MappingModelError as exc:
        raise MappingModelError(f"predicate-object map {g.name(key)}: {exc}") from None
    predicate_maps = [
        _parse_term_map(g, pkey, "predicate", base, visited)[0] for pkey in predicate_nodes or ()
    ] + predicate_shortcuts
    # a referencing object map is one that names a parent
    object_maps = [
        _parse_ref_object_map(g, okey, visited)
        if g.states(okey, _PARENT_TRIPLES_MAP)
        else _parse_term_map(g, okey, "object", base, visited)[0]
        for okey in object_nodes or ()
    ] + object_shortcuts
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
    g = _MappingReader(data)
    base = g.parse() or DEFAULT_BASE_IRI
    # the triples maps: the subjects that carry a logical source, in order
    tm_keys = dict.fromkeys(
        key for key, props in g.graph.items() for pred in props[::2] if pred[0] in _LOGICAL_SOURCE
    )
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
            source = _parse_logical_source(g, logical_source, visited)
            if subject_node is not None:
                subject_map, classes = _parse_term_map(g, subject_node, "subject", base, visited)
            if subject is not None:
                if subject_map is not None:
                    raise MappingModelError("a subject map and a subject shortcut are both given")
                subject_map = _term_map("constant", subject, "subject", base)
            poms = [pom for pkey in pom_nodes or () for pom in _parse_pom(g, pkey, base, visited)]
        except MappingModelError as exc:
            raise MappingModelError(f"triples map {g.name(key)}: {exc}") from None
        if subject_map is None:
            raise MappingModelError(f"triples map {g.name(key)} lacks a subject map")
        class_poms = [(type_map, _term_map("constant", cls, "object", base)) for cls in classes]
        walked.append((_key(key), source, subject_map, class_poms + poms))

    # names are formatted only for a record that is emitted
    if logger.isEnabledFor(logging.WARNING):
        for key, props in g.graph.items():
            if key not in visited and any(_TOKENS.get(pred[0]) != "type" for pred in props[::2]):
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
    body = Template(tuple(parts), expr.body.reference)
    return BuildIri(body, expr.base) if type(expr) is BuildIri else BuildBlank(body)


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
