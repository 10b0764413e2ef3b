"""Mapping tuples and mapping relations.

A mapping tuple is a total function from a finite set of attributes to
RDF terms or the error value :data:`EPSILON`; a mapping relation is a set
of such tuples sharing one attribute set (the schema law).  Three reserved
attributes, ``@s``, ``@p`` and ``@o``, carry the subject, predicate and
object of the triple a tuple describes; :func:`graph_from_relation` turns a
relation with those attributes into an RDF graph, silently dropping tuples
whose reserved positions hold :data:`EPSILON` or a term of the wrong kind,
and :func:`graph_from_tuples` does the same for a stream of tuples.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .errors import StructuralError
from .rdf import BlankNode, Iri, Literal, RdfGraph, RdfTerm, Triple

Attribute = str

SUBJECT_ATTR: Attribute = "@s"
PREDICATE_ATTR: Attribute = "@p"
OBJECT_ATTR: Attribute = "@o"
OUTPUT_ATTRS: frozenset[Attribute] = frozenset((SUBJECT_ATTR, PREDICATE_ATTR, OBJECT_ATTR))


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


class MappingTuple(Mapping):
    """An immutable, hashable attribute-to-value mapping."""

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[Attribute, Value] | Iterable[tuple[Attribute, Value]] = ()):
        self._values = dict(values)
        self._hash: int | None = None

    def __getitem__(self, attr: Attribute) -> Value:
        return self._values[attr]

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        if isinstance(other, MappingTuple):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._values.items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{a}={v!r}" for a, v in sorted(self._values.items()))
        return "{" + inner + "}"


@dataclass(frozen=True)
class MappingRelation:
    """A set of mapping tuples over one attribute set.

    The attribute set may be empty: extracting from an all-constant mapping
    yields tuples with no attributes, which collapse to at most one tuple
    under set semantics.
    """

    attributes: frozenset[Attribute]
    tuples: frozenset[MappingTuple]

    def __post_init__(self):
        object.__setattr__(self, "attributes", frozenset(self.attributes))
        object.__setattr__(self, "tuples", frozenset(self.tuples))
        for t in self.tuples:
            if set(t.keys()) != self.attributes:
                raise StructuralError(
                    f"tuple domain {sorted(t.keys())} does not match relation "
                    f"attributes {sorted(self.attributes)}"
                )

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[MappingTuple]:
        return iter(self.tuples)


def graph_from_tuples(
    attributes: Iterable[Attribute], tuples: Iterable[Mapping[Attribute, Value]]
) -> RdfGraph:
    """The triples described by tuples carrying ``@s``/``@p``/``@o``.

    A tuple yields a triple only when its subject is an IRI or blank node,
    its predicate an IRI, and its object any RDF term; tuples holding
    :data:`EPSILON` or an ill-positioned term are dropped without error.
    *tuples* is read once, so it may be a stream.  Equal terms end up as
    one object in the graph, however many tuples built them.
    """
    missing = sorted(OUTPUT_ATTRS - set(attributes))
    if missing:
        raise StructuralError(f"relation lacks reserved output attributes: {missing}")
    terms: dict[RdfTerm, RdfTerm] = {}
    share = terms.setdefault
    subjects, objects = (Iri, BlankNode), (Iri, BlankNode, Literal)

    def triples() -> Iterator[Triple]:
        for t in tuples:
            s, p, o = t[SUBJECT_ATTR], t[PREDICATE_ATTR], t[OBJECT_ATTR]
            if isinstance(s, subjects) and isinstance(p, Iri) and isinstance(o, objects):
                yield Triple(share(s, s), share(p, p), share(o, o))

    return RdfGraph(triples())


def graph_from_relation(rel: MappingRelation) -> RdfGraph:
    """The triples described by a relation carrying ``@s``/``@p``/``@o``."""
    return graph_from_tuples(rel.attributes, rel.tuples)
