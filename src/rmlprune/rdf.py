"""RDF terms, triples, graphs, and evaluation of basic graph patterns.

Terms follow the usual split into IRIs, blank nodes, and literals.  Every
literal carries a datatype IRI; a plain string literal is normalized to
``xsd:string`` at construction time.  Equality is exact on the
(lexical form, datatype) pair: ``"1"^^xsd:integer`` and
``"01"^^xsd:integer`` are different terms, which is precisely the equality
the pruning checks reason about.

An :class:`RdfGraph` holds no :class:`Triple` objects: for each predicate,
keyed by its IRI's string, it keeps a tuple of subjects and a tuple of
objects, the i-th triple being the i-th of each.  The pairs are made
distinct once, when the graph is built; ``triples`` and iteration build
triples on demand and keep none of them.  Two graphs are compared through
their ``triples``.

Pattern evaluation returns *sets* of solution mappings: a solution binds
exactly the variables of the pattern, and a basic graph pattern is the join
of its triple patterns over compatible solutions.  :func:`eval_bgp` reads
each pattern's candidates once (one predicate's columns when the predicate
is a constant, else every predicate's), filtered by the pattern's other
constants and repeated variables, as one tuple of terms per match.  It
then joins the patterns one at a time, next the one with the fewest
candidates among those sharing a bound variable (the smallest of all when
none does), through a hash table keyed on the shared variables; with none
shared that is a cross product.  Rows stay plain tuples until the end, where
each becomes a :class:`SolutionMapping` over one column index that the whole
result shares.  A solution is no dict: it looks a variable up (``mu[v]``,
``v in mu``), and equals and hashes by its bindings.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, ValuesView
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
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
    """A query variable.  An *anonymous* one stands in for a ``[]`` blank
    node of the query: it never equals a variable the query names, and
    ``SELECT *`` does not project it."""

    name: str
    anonymous: bool = False

    def __post_init__(self):
        if not _VAR_NAME_RE.match(self.name):
            raise InvalidTermError(f"invalid variable name: {self.name!r}")

    def __repr__(self):
        return f"_:{self.name}" if self.anonymous else f"?{self.name}"


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

    def __repr__(self):
        return f"({self.s!r} {self.p!r} {self.o!r})"


@dataclass(frozen=True)
class Bgp:
    """A basic graph pattern: a conjunction of triple patterns."""

    patterns: tuple[TriplePattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "patterns", tuple(self.patterns))


def _column_key(var: Variable) -> tuple[str, bool]:
    return var.name, var.anonymous


class SolutionMapping:
    """An immutable, hashable partial function from variables to terms.

    ``terms`` holds the bound terms in the order of the variables' names, and
    ``columns`` maps each variable to its position; all the solutions that
    :func:`eval_bgp` returns share one ``columns``, and neither is mutated.
    A solution equals another with the same bindings."""

    __slots__ = ("columns", "terms")

    def __init__(self, columns: dict[Variable, int], terms: tuple[RdfTerm, ...]):
        self.columns, self.terms = columns, terms

    def __getitem__(self, var: Variable) -> RdfTerm:
        return self.terms[self.columns[var]]

    def __contains__(self, var: object) -> bool:
        return var in self.columns

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolutionMapping):
            return NotImplemented
        # both column orders are canonical, so equal indexes align the terms
        return self.terms == other.terms and (self.columns is other.columns or self.columns == other.columns)

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self):
        return "{" + ", ".join(f"{var!r}->{term!r}" for var, term in zip(self.columns, self.terms)) + "}"


# A graph's triples by the string of their predicate IRI: the predicate,
# then the subjects and objects of its triples, position by position.
Columns = dict[str, tuple[Iri, tuple[Union[Iri, BlankNode], ...], tuple[RdfTerm, ...]]]
# The same while it is built: each (subject, object) pair filed once.
Pairs = dict[str, tuple[Iri, dict[tuple[Union[Iri, BlankNode], RdfTerm], None]]]


class RdfGraph:
    """An immutable set of triples, held as one column pair per predicate.

    ``triples`` and iteration build their :class:`Triple` objects on demand
    and keep none of them."""

    __slots__ = ("_columns",)

    def __init__(self, triples: Iterable[Triple] = ()):
        pairs: Pairs = {}
        for t in triples:
            filed = pairs.get(t.p.value)
            if filed is None:
                filed = pairs[t.p.value] = (t.p, {})
            filed[1][t.s, t.o] = None
        self._columns = _freeze(pairs)

    @classmethod
    def from_pairs(cls, pairs: Pairs) -> "RdfGraph":
        """The graph of *pairs*, which it empties: each predicate's pairs
        are dropped as soon as its columns exist."""
        g = object.__new__(cls)
        g._columns = _freeze(pairs)
        return g

    def columns(self) -> ValuesView[tuple[Iri, tuple, tuple]]:
        """Each predicate with the subjects and objects of its triples."""
        return self._columns.values()

    @property
    def triples(self) -> frozenset[Triple]:
        return frozenset(self)

    def __len__(self) -> int:
        return sum(len(subjects) for _, subjects, _ in self._columns.values())

    def __iter__(self) -> Iterator[Triple]:
        for p, subjects, objects in self._columns.values():
            for s, o in zip(subjects, objects):
                yield Triple(s, p, o)

    def __repr__(self):
        return f"RdfGraph({len(self)} triples)"


def _freeze(pairs: Pairs) -> Columns:
    """The columns of *pairs*, emptying it one predicate at a time."""
    columns: Columns = {}
    for key in list(pairs):
        p, filed = pairs.pop(key)
        if filed:
            subjects, objects = zip(*filed)
            columns[key] = (p, subjects, objects)
    return columns


# variables, and one row of terms per match or solution in their order
Relation = tuple[tuple[Variable, ...], list[tuple]]


def _pattern_rows(tp: TriplePattern, g: RdfGraph) -> Relation:
    """The distinct variables of *tp*, sorted by name, and one row of their
    terms per triple of *g* that *tp* matches."""
    first: dict[Variable, int] = {}
    constants: list[tuple[int, RdfTerm]] = []
    repeats: list[tuple[int, int]] = []
    for i, x in enumerate((tp.s, tp.p, tp.o)):
        if not isinstance(x, Variable):
            if i != 1:  # a constant predicate picks its columns below
                constants.append((i, x))
        elif x in first:
            repeats.append((first[x], i))
        else:
            first[x] = i
    if isinstance(tp.p, Variable):
        columns = g.columns()
    else:
        column = g._columns.get(tp.p.value)
        columns = () if column is None else (column,)
    matches: Iterable[tuple] = chain.from_iterable(
        zip(subjects, repeat(p), objects) for p, subjects, objects in columns
    )
    if constants or repeats:
        matches = (
            m for m in matches
            if all(m[i] == x for i, x in constants) and all(m[i] == m[j] for i, j in repeats)
        )
    variables = sorted(first, key=_column_key)
    return tuple(variables), list(map(_picker([first[var] for var in variables]), matches))


def _picker(positions: list[int]):
    """A function from a row to the tuple of its terms at *positions*."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    return itemgetter(*positions) if positions else lambda row: ()


def _bgp_rows(patterns: list[TriplePattern], g: RdfGraph) -> Relation:
    """The solutions of *patterns* over *g* as rows over the returned
    variables; no rows when there is no solution."""
    pending = [_pattern_rows(tp, g) for tp in patterns]
    start = min(range(len(pending)), key=lambda i: len(pending[i][1]))
    columns, rows = pending.pop(start)
    columns = list(columns)
    while pending and rows:
        at = {var: i for i, var in enumerate(columns)}
        # next: fewest candidates among the patterns sharing a bound variable
        nxt = min(
            range(len(pending)),
            key=lambda i: (not any(var in at for var in pending[i][0]), len(pending[i][1])),
        )
        variables, candidates = pending.pop(nxt)
        shared = [j for j, var in enumerate(variables) if var in at]
        fresh = [j for j, var in enumerate(variables) if var not in at]
        key, rest = _picker(shared), _picker(fresh)
        table: dict[tuple, list[tuple]] = {}
        for row in candidates:
            table.setdefault(key(row), []).append(rest(row))
        probe = _picker([at[variables[j]] for j in shared])
        rows = [row + more for row in rows for more in table.get(probe(row), ())]
        columns.extend(variables[j] for j in fresh)
    return tuple(columns), rows


def eval_bgp(bgp: Bgp | Iterable[TriplePattern], g: RdfGraph) -> set[SolutionMapping]:
    """All solutions of a basic graph pattern over *g* (join semantics)."""
    patterns = list(bgp.patterns) if isinstance(bgp, Bgp) else list(bgp)
    if not patterns:
        raise StructuralError("cannot evaluate an empty basic graph pattern")
    variables, rows = _bgp_rows(patterns, g)
    order = sorted(range(len(variables)), key=lambda i: _column_key(variables[i]))
    if order != sorted(order):
        rows = map(_picker(order), rows)
    columns = {variables[i]: n for n, i in enumerate(order)}
    return {SolutionMapping(columns, terms) for terms in rows}
