"""A SPARQL SELECT parser for the query shapes the pruner consumes.

Supported: prologue (PREFIX/BASE), SELECT with ``*``, plain variables or
``(expr AS ?var)`` projections, basic graph patterns with predicate and
object lists, nested groups, OPTIONAL, FILTER, DISTINCT/REDUCED, and GROUP
BY / HAVING / ORDER BY / LIMIT / OFFSET.  Integer, decimal, double and
boolean literals receive their XSD datatypes; ``^^`` annotations are
honored.

SPARQL's triples syntax is Turtle's with variables (SPARQL 1.1 §19,
Turtle 1.1 §6), so the parser is the Turtle reader
(:class:`~rmlprune.turtle.TurtleParser`) with the query around its
triples blocks: each block is read by Turtle's grammar, ``,`` and ``;``
lists and a dangling ``;`` included, and the parser overrides only its
hooks.  They read variables, turn ``[]`` into a fresh variable, file each
triple as a pattern, and reject what patterns do not support.

The query around the blocks is read from the same runs of tokens: every
keyword is a bare-word token (see :mod:`rmlprune._lexer`), and the
parser looks it up, upper-cased, in one table by the place it stands at,
which says what it opens there or which unsupported construct it names.
So a keyword matches in any case and never within a longer token:
``optional:x`` is a prefixed name.  The cursor reads only what no run
token spells: the readers' spellings, a projection's ``*``, expressions,
and the path operator that may follow a verb.

A query parses into what pruning and evaluation read (:class:`SelectQuery`):
its projected variables, every triple pattern in document order (OPTIONAL
bodies and FILTER-wrapped groups included: a pattern that occurs anywhere
in the query matters for pruning), DISTINCT, and the names of the
constructs evaluation cannot run.  Expressions (``AS``, FILTER constraints,
solution-modifier conditions) are checked only for balanced parentheses
and stepped over, reading strings and IRIREFs whole and skipping comments.

Everything else is rejected with a positioned error naming the feature:
UNION, MINUS, GRAPH, SERVICE, BIND, VALUES (in a group or after the
query), subqueries, property paths, FILTER EXISTS, blank-node labels,
bracketed blank-node property lists, language tags, FROM (a dataset
clause), and non-SELECT query forms.  A bare ``[]`` becomes a fresh
variable, so patterns never contain blank nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._lexer import _BOOLEAN_RE, _IRIREF_RE, _PREFIX_RE
from .errors import SparqlError, UnsupportedSparqlError
from .rdf import TriplePattern, Variable
from .turtle import TurtleParser

# a '+' that starts a number begins the object, not a path
_SIGNED_NUMBER_RE = re.compile(r"\+\.?\d")
# the characters that make a verb's place a property path
_PATH_STARTS = {"^": "inverse '^'", "!": "negated set '!'", "(": "grouped path"}
_UNSIGNED_INTEGER_RE = re.compile(r"\d+")
# a builtin's name: every SPARQL 1.1 builtin starts with a letter
_BUILTIN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# the solution modifiers, in the order they come; LIMIT and OFFSET may swap
_MODIFIERS = ("GROUP BY", "HAVING", "ORDER BY", "LIMIT", "OFFSET")


class _Unsupported(str):
    """The message that rejects a construct outside the supported subset."""


# The keywords of the query around its triples blocks, by the place they
# may stand at and their upper-case spelling.  Each says what the keyword
# opens there: a clause, by the name SelectQuery.unevaluable gives it, or a
# construct outside the supported subset, by the message that rejects it at
# the keyword.
_KEYWORDS = {
    # the query form, what follows SELECT, and what precedes the group
    ("form", "SELECT"): "SELECT",
    **{("form", word): _Unsupported(f"{word} queries are not supported") for word in ("CONSTRUCT", "ASK", "DESCRIBE")},
    ("select", "DISTINCT"): "DISTINCT",
    ("select", "REDUCED"): "REDUCED",
    ("where", "WHERE"): "WHERE",
    ("where", "FROM"): _Unsupported("FROM is not supported"),
    # the start of a triples block in a group, just past a group's '{' in a
    # group, and just past FILTER
    ("group", "OPTIONAL"): "OPTIONAL",
    ("group", "FILTER"): "FILTER",
    **{
        ("group", word): _Unsupported(f"{word} is not supported")
        for word in ("MINUS", "GRAPH", "SERVICE", "BIND", "VALUES", "UNION")
    },
    ("{", "SELECT"): _Unsupported("subqueries are not supported"),
    ("filter", "EXISTS"): _Unsupported("FILTER EXISTS is not supported"),
    ("filter", "NOT"): _Unsupported("FILTER EXISTS is not supported"),
    # after the group
    **{("modifier", clause.split()[0]): clause for clause in _MODIFIERS},
    ("end", "VALUES"): _Unsupported("VALUES is not supported"),
}
# where a condition ends: at a keyword that may follow it, spelled as a
# bare word (see _lexer) that no name character or variable sign precedes
_CONDITION_END_RE = re.compile(
    r"(?<![\w?$])(?ai:%s)(?![\w:.-])" % "|".join(word for place, word in _KEYWORDS if place in ("modifier", "end"))
)


@dataclass
class SelectQuery:
    """What pruning and evaluation read of a parsed SELECT query.

    ``variables`` is the projection; for ``SELECT *`` it holds the named
    variables of the patterns in order of first appearance, without the
    stand-ins of ``[]``.  ``patterns`` holds every triple pattern in document
    order, OPTIONAL bodies and filtered groups included.  ``unevaluable``
    names the constructs the query uses that evaluation cannot run: ``AS``,
    ``OPTIONAL``, ``FILTER``, ``REDUCED``, ``GROUP BY``, ``HAVING``,
    ``ORDER BY``, ``LIMIT`` and ``OFFSET``.
    """

    variables: tuple[Variable, ...]
    patterns: tuple[TriplePattern, ...]
    distinct: bool
    unevaluable: frozenset[str]


class _QueryParser(TurtleParser):
    error_class = SparqlError
    unsupported_class = UnsupportedSparqlError
    boolean_re = re.compile(_BOOLEAN_RE.pattern, re.IGNORECASE)

    def __init__(self, text: str):
        super().__init__(text)
        self.patterns: list[TriplePattern] = []
        self.unevaluable: set[str] = set()

    # -- query structure ---------------------------------------------------

    def parse(self) -> SelectQuery:
        token = self.token
        tok = token()
        while self._parse_directive(tok):
            tok = token()
        if self._keyword("form", tok) != "SELECT":
            self.back(tok)
            raise self.error("expected SELECT")
        tok = token()
        if distinct := self._keyword("select", tok):
            tok = token()
        if distinct == "REDUCED":
            self.unevaluable.add(distinct)
        variables, tok = self._parse_projection(tok)
        if self._keyword("where", tok):
            tok = token()
        self._read_group(tok)
        tok = self._parse_solution_modifiers(token())
        self._keyword("end", tok)
        if tok or not self.at_end():
            self.back(tok)
            raise self.error("unexpected content after the query")
        if variables is None:
            terms = (x for tp in self.patterns for x in (tp.s, tp.p, tp.o))
            variables = tuple(dict.fromkeys(
                x for x in terms if isinstance(x, Variable) and not x.anonymous
            ))
        return SelectQuery(variables, tuple(self.patterns), distinct == "DISTINCT", frozenset(self.unevaluable))

    def _keyword(self, place: str, tok: str) -> str:
        """What *tok* opens at *place* (see ``_KEYWORDS``): a clause, or ''
        for a token that is no keyword there.  A construct outside the
        supported subset is rejected at its keyword."""
        clause = _KEYWORDS.get((place, tok.upper()), "")
        if isinstance(clause, _Unsupported):
            self.back(tok)
            raise self.error(clause, unsupported=True)
        return clause

    def _parse_projection(self, tok: str) -> tuple[tuple[Variable, ...] | None, str]:
        """The projected variables from *tok* on, None for ``SELECT *``,
        and the token after them."""
        variables: list[Variable] = []
        star = expressions = False
        while True:
            if tok[:1] in ("?", "$"):
                variables.append(Variable(tok[1:]))
            elif tok == "(":
                self.back(tok)
                self._skip_parenthesized()
                expressions = True
            elif tok:
                break
            elif self.try_consume("*"):
                star = True
            else:
                self._reject_variable()
                break
            tok = self.token()
        if expressions:
            self.unevaluable.add("AS")
        if star and (variables or expressions):
            self.back(tok)
            raise self.error("SELECT * cannot be combined with named projections")
        if not (star or variables or expressions):
            self.back(tok)
            raise self.error("SELECT needs * or at least one projection")
        return (None if star else tuple(variables)), tok

    def _skip_parenthesized(self):
        if not self._scan_expression(stop=False):
            raise self.error("unbalanced parentheses")

    def _scan_expression(self, stop: bool) -> bool:
        """Advance over an expression, reading each quoted string and each
        IRIREF whole and skipping each comment.  Without *stop*, end after
        the parenthesis that closes the first one; with it, end before a
        keyword that may follow a condition, outside parentheses, or at the
        end of the text.  False when the text ends first without *stop*."""
        depth = 0
        while not self.at_end():
            ch = self.text[self.pos]
            if ch in "\"'":
                self.read_string()
                continue
            if ch == "#":
                self.skip_ws()
                continue
            if ch == "\\":
                # a local name's escape: the next character is part of the name
                self.pos = min(self.pos + 2, len(self.text))
                continue
            if ch == "<":
                iri = _IRIREF_RE.match(self.text, self.pos)
                if iri:
                    self.pos = iri.end()
                    continue
            elif ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and not stop:
                    self.pos += 1
                    return True
            elif stop and depth == 0 and _CONDITION_END_RE.match(self.text, self.pos):
                return True
            self.pos += 1
        return stop

    def _read_group(self, tok: str):
        """The group at *tok*, just read, to just past its '}'."""
        opened = self.mark()
        if tok == "{":
            self._parse_group(opened, self.token())
            return
        # too deep a nesting is reported first, as for a '{'
        self.descend(opened)
        self.back(tok)
        raise self.error("expected '{'")

    def _parse_group(self, opened: int, tok: str):
        """The group whose '{' *opened* marks, from the token after it to
        just past its '}', adding its triple patterns to ``self.patterns``."""
        self.descend(opened)
        token = self.token
        # a triples block not ended by '.' may only be followed by '}', a
        # group, OPTIONAL or FILTER
        open_block = False
        while tok != "}":
            if not tok and self.at_end():
                raise self.error("unterminated group (missing '}')")
            after_open_block, open_block = open_block, False
            if tok == "{":
                opened = self.mark()
                tok = token()
                self._keyword("{", tok)
                self._parse_group(opened, tok)
                tok = token()
            else:
                clause = self._keyword("group", tok)
                if clause == "OPTIONAL":
                    self._read_group(token())
                elif clause == "FILTER":
                    tok = token()
                    self._keyword("filter", tok)
                    self.back(tok)
                    self._skip_filter_constraint()
                elif after_open_block:
                    self.back(tok)
                    raise self.error("expected '.' or '}' after a triple pattern")
                else:
                    tok = self._parse_triples(tok)
                    open_block = tok != "."
                if clause:
                    self.unevaluable.add(clause)
                    tok = token()
            if tok == ".":
                tok = token()
        self.depth -= 1

    def _skip_filter_constraint(self):
        self.skip_ws()
        if self.peek() != "(":
            # builtin or function call: its name (an IRIREF, a prefixed name
            # whose prefix is not resolved, or a builtin's), then its
            # argument list
            iri = _IRIREF_RE.match(self.text, self.pos)
            if iri:
                self.pos = iri.end()
            elif self.text.startswith(":", _PREFIX_RE.match(self.text, self.pos).end()):
                self.read_prefix_name()
                self.expect(":")
                self.read_local_name()
            elif builtin := _BUILTIN_RE.match(self.text, self.pos):
                self.pos = builtin.end()
            else:
                raise self.error("unsupported FILTER constraint form")
            self.skip_ws()
            if self.peek() != "(":
                raise self.error("unsupported FILTER constraint form")
        self._skip_parenthesized()

    # -- the hooks of the triples grammar -----------------------------------

    def properties(self, s):
        patterns = self.patterns
        return lambda pair: patterns.append(TriplePattern(s, *pair))

    def term(self, token, constant):
        if token[:1] in ("?", "$"):
            term = self._terms[token] = Variable(token[1:])
            return term
        return super().term(token, constant)

    def _parse_subject(self, tok):
        term = self.term(tok, constant=False)
        if term is not None:
            return term
        self._reject_variable()
        ch = self.peek()
        if ch in ('"', "'") or ch.isdigit():
            raise self.error("literal subjects are not supported", unsupported=True)
        if ch == "(":
            raise self.error("collections in patterns are not supported", unsupported=True)
        self._reject_bnode_label()
        return self.read_iri("a subject")

    def _reject_variable(self):
        # every variable is a run token: one at the cursor is misspelled
        if self.peek() in ("?", "$"):
            raise self.error("expected a variable")

    def _reject_bnode_label(self):
        if self.text.startswith("_:", self.pos):
            raise self.error("blank node labels (_:b) in patterns are not supported", unsupported=True)

    def _parse_bnode_property_list(self, opened: int, tok: str):
        """The ``[]`` whose '[' *opened* marks, from the token after it, as
        a fresh variable that stands in for the anonymous blank node."""
        if tok != "]":
            self.back(tok)
            raise self.error(
                "blank node property lists in patterns are not supported", unsupported=True
            )
        return Variable(self.fresh_bnode(opened).label, anonymous=True)

    def _parse_verb(self, tok):
        if not tok or tok == "(":
            self.back(tok)
            ch = self.peek()
            path = _PATH_STARTS.get(ch)
            if path:
                raise self.error(f"property paths are not supported ({path})", unsupported=True)
            self._reject_variable()
        return super()._parse_verb(tok)

    def _after_verb(self):
        # a path operator directly after the verb makes this a property path;
        # none is a token, so a verb followed by a token (a variable too) is
        # no path
        nxt = self.peek()
        if nxt in ("/", "|", "*", "?") or (
            nxt == "+" and not _SIGNED_NUMBER_RE.match(self.text, self.pos)
        ):
            raise self.error(f"property paths are not supported ({nxt!r})", unsupported=True)

    def _parse_object(self, tok):
        if tok == "[":
            opened = self.mark()
            return self._parse_bnode_property_list(opened, self.token())
        term = self.term(tok, constant=True)
        if term is not None:
            return term
        ch = self.peek()
        if not ch:
            raise self.error("expected an object")
        self._reject_variable()
        if ch == "(":
            raise self.error("collections in patterns are not supported", unsupported=True)
        self._reject_bnode_label()
        return self.read_constant()

    def _parse_solution_modifiers(self, tok: str) -> str:
        """The solution modifiers from *tok* on; returns the token after
        them."""
        # GroupClause? HavingClause? OrderClause? LimitOffsetClauses?, where
        # LIMIT and OFFSET may come in either order
        last = 0
        while clause := self._keyword("modifier", tok):
            rank = min(_MODIFIERS.index(clause), _MODIFIERS.index("LIMIT"))
            if rank < last or clause in self.unevaluable:
                self.back(tok)
                raise self.error(
                    f"{clause} is repeated or out of order: solution modifiers come "
                    "as GROUP BY, HAVING, ORDER BY, then LIMIT and OFFSET"
                )
            last = rank
            first, _, by = clause.partition(" ")
            if by and (tok := self.token()).upper() != by:
                self.back(tok)
                raise self.error(f"expected {by} after {first}")
            if clause in ("LIMIT", "OFFSET"):
                tok = self.token()
                if not _UNSIGNED_INTEGER_RE.fullmatch(tok):
                    self.back(tok)
                    raise self.error("expected an unsigned integer")
            else:
                self.sync()
                start = self.pos
                self._scan_expression(stop=True)
                if self.pos == start:
                    raise self.error(f"expected a condition after {clause}")
            self.unevaluable.add(clause)
            tok = self.token()
        return tok


def parse_query(text: str) -> SelectQuery:
    """Parse a SELECT query; raises :class:`SparqlError` (or its
    :class:`UnsupportedSparqlError` subclass) with a position on failure."""
    return _QueryParser(text).parse()


def collect_triple_patterns(query: SelectQuery) -> set[TriplePattern]:
    """Every triple pattern of the query, wherever it occurs."""
    return set(query.patterns)


def flatten_bgp(query: SelectQuery) -> list[TriplePattern] | None:
    """The query's patterns as one conjunction, or None when the query uses
    OPTIONAL or FILTER and therefore is not a plain basic graph pattern."""
    return None if {"OPTIONAL", "FILTER"} & query.unevaluable else list(query.patterns)
