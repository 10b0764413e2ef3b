"""RDF terms, their N-Triples spellings, graphs, and evaluation of basic
graph patterns.

A term has one form, the pair a graph column holds (:data:`Term`): an
IRI or a blank node is its N-Triples spelling with ``None``, and a literal
its lexical form with its datatype IRI, ``xsd:string`` for a plain string.
Equality is exact on the pair: ``"1"^^xsd:integer`` and
``"01"^^xsd:integer`` are different terms, which is precisely the equality
the pruning checks reason about.  A term's kind (:func:`kind`) is read off
the pair: a literal has a datatype, and a node's spelling starts with
``<`` or ``_``.  :func:`format_term` spells a term in N-Triples: a node as
the very string it holds.  The readers and the public constructors that
take terms (:class:`TriplePattern`, :class:`RdfGraph`, the constant
constructor of :mod:`rmlprune.algebra`) check them with
:func:`check_term`; every other layer passes them on unchecked.

An :class:`RdfGraph` holds typed string columns: for each predicate's
spelling and each datatype of its objects (``None`` for IRIs and blank
nodes), a tuple of subject spellings and a tuple of objects, the i-th
triple being the i-th of each.  A node object is its spelling and a literal
its lexical form, so a typed literal does not repeat its datatype.  The
pairs are made distinct once, when the graph is built, without a tuple per
pair: each subject's first object is filed in a dict keyed by the subject,
and only its second and later distinct objects as (subject, object) pairs;
the columns hold the first pairs, then the others.  ``RdfGraph(triples)``,
``triples`` and iteration take or give :class:`Triple` tuples of terms
and keep none.  Two graphs are compared through their ``triples``.

Pattern evaluation returns *sets* of solution mappings: a solution binds
exactly the variables of the pattern, and a basic graph pattern is the join
of its triple patterns over compatible solutions.  :func:`eval_bgp` reads
each pattern's candidates once, from the columns its predicate and object
allow (a constant object's datatype picks them), filtered by its other
constants and repeated variables as strings, one tuple of spellings per
match; a literal bound to a variable is spelled then.  It joins the
patterns one at a time, next the one with the fewest candidates among
those sharing a bound variable (the smallest of all when none does),
through a hash table keyed on the shared variables; with none shared that
is a cross product.  Rows stay plain tuples until the end, where each
becomes a :class:`SolutionMapping` over one column index that the whole
result shares.  A solution is no dict: it looks a variable up (``v in
mu``, and ``mu[v]``, which wraps a node's spelling in its pair without
copying it and reads a literal's back), and equals and hashes by its
spellings.

The lexical rules of the token layer live here, each written once: the
characters an IRI may hold, the ECHAR escapes of a string, the characters
of a variable's name, and the ``rdf:type`` IRI that ``a`` stands for.  The
Turtle and SPARQL readers, their shared lexer and the RML layer import
them.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, Union

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
# A character of an IRI: none of the classic N-Triples exclusion set.
# Everything at or below U+0020 is also rejected so that accepted IRIs
# always serialize verbatim.
_IRI_CHAR = r'[^<>"{}|^`\\\x00-\x20]'
_IRI_RE = re.compile(_SCHEME + _IRI_CHAR + r"*\Z")
# the spelling of a node: an IRI between angle brackets, or a blank node's
_NODE_RE = re.compile(f"<{_SCHEME}{_IRI_CHAR}*>\\Z|_:[A-Za-z0-9_]+\\Z")
# a variable's name, after its '?' or '$'
_VAR_NAME = r"[A-Za-z0-9_]+"
_VAR_NAME_RE = re.compile(_VAR_NAME + r"\Z")


def is_absolute_iri(value: str) -> bool:
    """True when *value* starts with a scheme, e.g. ``http:`` or ``urn:``."""
    return _SCHEME_RE.match(value) is not None


def is_valid_iri(value: str) -> bool:
    """Syntactic IRI check: a scheme prefix and no forbidden characters."""
    return _IRI_RE.match(value) is not None


# A term is a pair, as a graph column holds it: an IRI's or a blank
# node's N-Triples spelling with None, or a literal's lexical form with
# its datatype IRI.
Term = tuple[str, Union[str, None]]

# the kind of a term: a node's spelling starts with it, and a literal has
# a datatype
IRI, BLANK, LITERAL = "<", "_", '"'

RDF_TYPE_IRI = (f"<{RDF_TYPE}>", None)


def kind(term: Term) -> str:
    """:data:`IRI`, :data:`BLANK` or :data:`LITERAL`."""
    return LITERAL if term[1] is not None else term[0][0]


def check_term(term: object) -> Term:
    """*term* itself if it is a term (see :data:`Term`), else
    :class:`InvalidTermError`: an IRI must be absolute and hold no character
    N-Triples forbids, a label only ASCII letters, digits and ``_``, and a
    literal's datatype must be an IRI."""
    if type(term) is not tuple or len(term) != 2 or type(term[0]) is not str:
        raise InvalidTermError(f"not an RDF term: {term!r}")
    value, datatype = term
    if datatype is None:
        if _NODE_RE.match(value) is None:
            if value[:1] == "<" and value[-1:] == ">":
                raise InvalidTermError(f"not a valid absolute IRI: {value[1:-1]!r}")
            if value[:2] == "_:":
                raise InvalidTermError(f"invalid blank node label: {value[2:]!r}")
            raise InvalidTermError(f"not an RDF term: {term!r}")
    elif datatype != XSD_STRING and not (type(datatype) is str and is_valid_iri(datatype)):
        raise InvalidTermError(f"literal datatype is not a valid IRI: {datatype!r}")
    return term


# ECHAR: the character that each backslash escape of a string stands for
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# how a double-quoted string spells each character it must escape
_ESCAPES = {ch: "\\" + name for name, ch in _ECHAR.items() if ch != "'"}
_ESCAPED_RE = re.compile(r'["\\\x00-\x1f]')
# an escape of a string (ECHAR or UCHAR), of an IRIREF (UCHAR) or of a
# local name (PLX, a backslash and the character it stands for)
_UNESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)


def _escape_char(m: re.Match) -> str:
    ch = m.group()
    return _ESCAPES.get(ch) or f"\\u{ord(ch):04X}"


def unescape(text: str) -> str:
    """*text* with each escape replaced by the character it stands for."""
    return _UNESCAPE_RE.sub(lambda m: _ECHAR.get(m[3], m[3]) if m[3] else chr(int(m[1] or m[2], 16)), text)


def escape_string(s: str) -> str:
    """The body of a double-quoted string, valid in N-Triples, Turtle and
    SPARQL alike."""
    return _ESCAPED_RE.sub(_escape_char, s)


def datatype_suffix(datatype: str) -> str:
    """What follows a literal's closing quote: nothing for ``xsd:string``,
    following the usual canonical form, else ``^^<datatype>``."""
    return "" if datatype == XSD_STRING else f"^^<{datatype}>"


def format_term(term: Term) -> str:
    """The N-Triples spelling of a term, which is valid Turtle too: a node's
    is the string the term holds."""
    value, datatype = term
    return value if datatype is None else f'"{escape_string(value)}"{datatype_suffix(datatype)}'


def unescaped(term: Term) -> str:
    """*term* as a message shows it: its spelling, but a literal's lexical
    form as it is, unescaped."""
    value, datatype = term
    return value if datatype is None else f'"{value}"{datatype_suffix(datatype)}'


def _literal(spelling: str) -> Term:
    """The literal a :func:`format_term` spelling spells."""
    # a datatype IRI holds no quote, so the last one closes the string
    end = spelling.rindex('"')
    return unescape(spelling[1:end]), (spelling[end + 4 : -1] if end + 1 < len(spelling) else XSD_STRING)


@dataclass(frozen=True, slots=True)
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


class Triple(NamedTuple):
    """A triple of terms, as :class:`RdfGraph` takes and gives them."""

    s: Term
    p: Term
    o: Term


# the kinds of term each place of a triple or a pattern takes
_IRIS, _NODES, _CONSTANTS, _TERMS = (IRI,), (IRI, BLANK), (IRI, LITERAL), (IRI, BLANK, LITERAL)


def _check_place(x: object, kinds: tuple[str, ...], message: str):
    """Raise :class:`InvalidTermError` unless *x* is a term of one of
    *kinds*: the *message* and *x*, or :func:`check_term`'s."""
    if type(x) is not tuple:
        raise InvalidTermError(f"{message}: {x!r}")
    if kind(check_term(x)) not in kinds:
        raise InvalidTermError(f"{message}: {unescaped(x)}")


@dataclass(frozen=True)
class TriplePattern:
    """A triple pattern: terms and variables, but never blank nodes."""

    s: Union[Term, Variable]
    p: Union[Term, Variable]
    o: Union[Term, Variable]

    def __post_init__(self):
        if type(self.s) is not Variable:
            _check_place(self.s, _IRIS, "pattern subject must be an IRI or variable")
        if type(self.p) is not Variable:
            _check_place(self.p, _IRIS, "pattern predicate must be an IRI or variable")
        if type(self.o) is not Variable:
            _check_place(self.o, _CONSTANTS, "pattern object must be an IRI, literal, or variable")

    def __repr__(self):
        shown = (repr(x) if type(x) is Variable else unescaped(x) for x in (self.s, self.p, self.o))
        return f"({' '.join(shown)})"


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

    ``spellings`` holds the bound terms' N-Triples spellings in the order of
    the variables' names, and ``columns`` maps each variable to its
    position; all the solutions that :func:`eval_bgp` returns share one
    ``columns``, and neither is mutated.  ``mu[v]`` is the term: a node's
    spelling, the very string held, with ``None``, or a literal read back
    from its spelling.  A solution equals another with the same bindings."""

    __slots__ = ("columns", "spellings")

    def __init__(self, columns: dict[Variable, int], spellings: tuple[str, ...]):
        self.columns, self.spellings = columns, spellings

    def __getitem__(self, var: Variable) -> Term:
        spelling = self.spellings[self.columns[var]]
        return _literal(spelling) if spelling[0] == '"' else (spelling, None)

    def __contains__(self, var: object) -> bool:
        return var in self.columns

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolutionMapping):
            return NotImplemented
        # both column orders are canonical, so equal indexes align the spellings
        return self.spellings == other.spellings and (
            self.columns is other.columns or self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash(self.spellings)

    def __repr__(self):
        return "{" + ", ".join(f"{var!r}->{value}" for var, value in zip(self.columns, self.spellings)) + "}"


# A graph's triples by (predicate spelling, datatype of the objects or None
# for IRIs and blank nodes): the subject spellings and the objects of its
# triples, position by position.
ColumnKey = tuple[str, Union[str, None]]
Columns = dict[ColumnKey, tuple[tuple[str, ...], tuple[str, ...]]]
# The same while it is built: each subject's first object by subject, and
# each (subject, object) pair whose subject has another object first.
Pairs = dict[ColumnKey, tuple[dict[str, str], dict[tuple[str, str], None]]]


class RdfGraph:
    """An immutable set of triples, held as typed string columns.

    ``RdfGraph(triples)`` checks and files the terms of its
    :class:`Triple` tuples; ``triples`` and iteration make them on demand
    and keep none of them."""

    __slots__ = ("_columns",)

    def __init__(self, triples: Iterable[Triple] = ()):
        pairs: Pairs = {}
        for s, p, o in triples:
            _check_place(s, _NODES, "triple subject must be an IRI or blank node")
            _check_place(p, _IRIS, "triple predicate must be an IRI")
            _check_place(o, _TERMS, "triple object must be an RDF term")
            (s, _), (o, datatype) = s, o
            key = (p[0], datatype)
            filed = pairs.get(key)
            if filed is None:
                filed = pairs[key] = ({}, {})
            first, others = filed
            if first.setdefault(s, o) != o:
                others[s, o] = None
        self._columns = _freeze(pairs)

    @classmethod
    def from_pairs(cls, pairs: Pairs) -> "RdfGraph":
        """The graph of *pairs*, which it empties: each column's pairs are
        dropped as soon as its tuples exist."""
        g = object.__new__(cls)
        g._columns = _freeze(pairs)
        return g

    def columns(self) -> ItemsView[ColumnKey, tuple[tuple[str, ...], tuple[str, ...]]]:
        """Each (predicate spelling, datatype or None) with the subjects and
        objects of its triples."""
        return self._columns.items()

    @property
    def triples(self) -> frozenset[Triple]:
        return frozenset(self)

    def __len__(self) -> int:
        return sum(len(subjects) for subjects, _ in self._columns.values())

    def __iter__(self) -> Iterator[Triple]:
        for (p, datatype), (subjects, objects) in self._columns.items():
            predicate = (p, None)
            for s, o in zip(subjects, objects):
                yield Triple((s, None), predicate, (o, datatype))

    def __repr__(self):
        return f"RdfGraph({len(self)} triples)"


def _freeze(pairs: Pairs) -> Columns:
    """The columns of *pairs*, emptying it one column at a time: each
    subject's first pair, then the other pairs."""
    columns: Columns = {}
    for key in list(pairs):
        first, others = pairs.pop(key)
        if first:
            subjects, objects = tuple(first), tuple(first.values())
            first.clear()
            if others:
                more_subjects, more_objects = zip(*others)
                others.clear()
                subjects += more_subjects
                objects += more_objects
            columns[key] = (subjects, objects)
    return columns


# variables, and one row of spellings per match or solution in their order
Relation = tuple[tuple[Variable, ...], list[tuple]]


def _pattern_rows(tp: TriplePattern, g: RdfGraph) -> Relation:
    """The distinct variables of *tp*, sorted by name, and one row of their
    spellings per triple of *g* that *tp* matches."""
    first: dict[Variable, int] = {}
    constants: list[tuple[int, str]] = []
    repeats: list[tuple[int, int]] = []
    for i, x in enumerate((tp.s, tp.p, tp.o)):
        if not isinstance(x, Variable):
            if i != 1:  # a constant predicate picks its columns below
                constants.append((i, x[0]))
        elif x in first:
            repeats.append((first[x], i))
        else:
            first[x] = i
    predicate = None if isinstance(tp.p, Variable) else tp.p[0]
    # the columns whose objects can stand at the object position: any for a
    # variable first bound there, whose literals are spelled; nodes for a
    # variable the subject or predicate binds; a constant's kind and datatype
    if isinstance(tp.o, Variable):
        any_kind, datatype = first[tp.o] == 2, None
    else:
        any_kind, datatype = False, tp.o[1]
    variables = sorted(first, key=_column_key)
    pick = _picker([first[var] for var in variables])
    rows: list[tuple] = []
    for (p, dt), (subjects, objects) in g._columns.items():
        if (predicate is not None and p != predicate) or not (any_kind or dt == datatype):
            continue
        matches: Iterable[tuple] = zip(subjects, repeat(p), objects)
        if constants or repeats:
            matches = (
                m for m in matches
                if all(m[i] == x for i, x in constants) and all(m[i] == m[j] for i, j in repeats)
            )
        if any_kind and dt is not None:
            suffix = datatype_suffix(dt)
            matches = ((s, p, f'"{escape_string(o)}"{suffix}') for s, p, o in matches)
        rows.extend(map(pick, matches))
    return tuple(variables), rows


def _picker(positions: list[int]):
    """A function from a row to the tuple of its values at *positions*."""
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
    return {SolutionMapping(columns, spellings) for spellings in rows}
