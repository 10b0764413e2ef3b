"""RDF terms, triples, graphs, and evaluation of basic graph patterns.

Terms follow the usual split into IRIs, blank nodes, and literals.  Every
literal carries a datatype IRI; a plain string literal is normalized to
``xsd:string`` at construction time.  Equality is exact on the
(lexical form, datatype) pair: ``"1"^^xsd:integer`` and
``"01"^^xsd:integer`` are different terms, which is precisely the equality
the pruning checks reason about.

Pattern evaluation returns *sets* of solution mappings: a solution binds
exactly the variables of the pattern, and a basic graph pattern is the join
of its triple patterns over compatible solutions.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Union

from .errors import InvalidTermError, StructuralError

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF_NS + "type"

_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*:"
_SCHEME_RE = re.compile(_SCHEME)
# A scheme, then none of the classic N-Triples exclusion set.  Everything at
# or below U+0020 is also rejected so that accepted IRIs always serialize
# verbatim.
_IRI_RE = re.compile(_SCHEME + r'[^\x00-\x20<>"{}|\\^`]*\Z')
_BNODE_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_VAR_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def is_absolute_iri(value: str) -> bool:
    """True when *value* starts with a scheme, e.g. ``http:`` or ``urn:``."""
    return _SCHEME_RE.match(value) is not None


def is_valid_iri(value: str) -> bool:
    """Syntactic IRI check: a scheme prefix and no forbidden characters."""
    return _IRI_RE.match(value) is not None


@dataclass(frozen=True, slots=True)
class Iri:
    value: str

    def __post_init__(self):
        if not is_valid_iri(self.value):
            raise InvalidTermError(f"not a valid absolute IRI: {self.value!r}")

    def __repr__(self):
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not _BNODE_LABEL_RE.match(self.label):
            raise InvalidTermError(f"invalid blank node label: {self.label!r}")

    def __repr__(self):
        return f"_:{self.label}"


@dataclass(frozen=True, slots=True)
class Literal:
    lex: str
    datatype: str = XSD_STRING

    def __post_init__(self):
        # the default datatype is a valid IRI; every CSV cell and string pays this
        if self.datatype != XSD_STRING and not is_valid_iri(self.datatype):
            raise InvalidTermError(f"literal datatype is not a valid IRI: {self.datatype!r}")

    def __repr__(self):
        if self.datatype == XSD_STRING:
            return f'"{self.lex}"'
        return f'"{self.lex}"^^<{self.datatype}>'


RdfTerm = Union[Iri, BlankNode, Literal]


def is_term(value: object) -> bool:
    return isinstance(value, (Iri, BlankNode, Literal))


@dataclass(frozen=True)
class Variable:
    name: str

    def __post_init__(self):
        if not _VAR_NAME_RE.match(self.name):
            raise InvalidTermError(f"invalid variable name: {self.name!r}")

    def __repr__(self):
        return f"?{self.name}"


@dataclass(frozen=True, slots=True)
class Triple:
    s: Union[Iri, BlankNode]
    p: Iri
    o: RdfTerm

    def __post_init__(self):
        if not isinstance(self.s, (Iri, BlankNode)):
            raise InvalidTermError(f"triple subject must be an IRI or blank node: {self.s!r}")
        if not isinstance(self.p, Iri):
            raise InvalidTermError(f"triple predicate must be an IRI: {self.p!r}")
        if not is_term(self.o):
            raise InvalidTermError(f"triple object must be an RDF term: {self.o!r}")

    def __repr__(self):
        return f"({self.s!r} {self.p!r} {self.o!r})"


@dataclass(frozen=True)
class TriplePattern:
    """A triple pattern: constants and variables, but never blank nodes."""

    s: Union[Iri, Variable]
    p: Union[Iri, Variable]
    o: Union[Iri, Literal, Variable]

    def __post_init__(self):
        if not isinstance(self.s, (Iri, Variable)):
            raise InvalidTermError(f"pattern subject must be an IRI or variable: {self.s!r}")
        if not isinstance(self.p, (Iri, Variable)):
            raise InvalidTermError(f"pattern predicate must be an IRI or variable: {self.p!r}")
        if not isinstance(self.o, (Iri, Literal, Variable)):
            raise InvalidTermError(
                f"pattern object must be an IRI, literal, or variable: {self.o!r}"
            )

    def variables(self) -> frozenset[Variable]:
        return frozenset(x for x in (self.s, self.p, self.o) if isinstance(x, Variable))

    def __repr__(self):
        return f"({self.s!r} {self.p!r} {self.o!r})"


@dataclass(frozen=True)
class Bgp:
    """A basic graph pattern: a conjunction of triple patterns."""

    patterns: tuple[TriplePattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "patterns", tuple(self.patterns))

    def variables(self) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for tp in self.patterns:
            out |= tp.variables()
        return out


class SolutionMapping(Mapping):
    """An immutable, hashable partial function from variables to terms."""

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Mapping[Variable, RdfTerm] | Iterable[tuple[Variable, RdfTerm]] = ()):
        self._bindings = dict(bindings)
        self._hash: int | None = None

    def __getitem__(self, var: Variable) -> RdfTerm:
        return self._bindings[var]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other) -> bool:
        if isinstance(other, SolutionMapping):
            return self._bindings == other._bindings
        if isinstance(other, Mapping):
            return self._bindings == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._bindings.items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(
            f"{var!r}->{term!r}" for var, term in sorted(self._bindings.items(), key=lambda kv: kv[0].name)
        )
        return "{" + inner + "}"


class RdfGraph:
    """An immutable set of triples with a lazy predicate index."""

    __slots__ = ("_triples", "_by_predicate")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples = frozenset(triples)
        self._by_predicate: dict[Iri, frozenset[Triple]] | None = None

    @property
    def triples(self) -> frozenset[Triple]:
        return self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __eq__(self, other) -> bool:
        if isinstance(other, RdfGraph):
            return self._triples == other._triples
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._triples)

    def with_predicate(self, p: Iri) -> frozenset[Triple]:
        if self._by_predicate is None:
            index: dict[Iri, set[Triple]] = {}
            for t in self._triples:
                index.setdefault(t.p, set()).add(t)
            self._by_predicate = {k: frozenset(v) for k, v in index.items()}
        return self._by_predicate.get(p, frozenset())

    def __repr__(self):
        return f"RdfGraph({len(self._triples)} triples)"


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


def _candidates(g: RdfGraph, tp: TriplePattern, base: dict[Variable, RdfTerm]) -> Iterable[Triple]:
    p = tp.p
    if isinstance(p, Variable):
        p = base.get(p, p)
    if isinstance(p, Iri):
        return g.with_predicate(p)
    return g.triples


def eval_bgp(bgp: Bgp | Iterable[TriplePattern], g: RdfGraph) -> set[SolutionMapping]:
    """All solutions of a basic graph pattern over *g* (join semantics)."""
    patterns = list(bgp.patterns) if isinstance(bgp, Bgp) else list(bgp)
    if not patterns:
        raise StructuralError("cannot evaluate an empty basic graph pattern")
    partial: list[dict[Variable, RdfTerm]] = [{}]
    for tp in patterns:
        grown: list[dict[Variable, RdfTerm]] = []
        for base in partial:
            for triple in _candidates(g, tp, base):
                bindings = _match(tp, triple, base)
                if bindings is not None:
                    grown.append(bindings)
        partial = grown
        if not partial:
            break
    return {SolutionMapping(b) for b in partial}
