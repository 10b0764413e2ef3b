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
keyword is a bare-word token and every operator a token of its own (see
:mod:`rmlprune._lexer`).  The parser looks a keyword up, upper-cased, in
one table by the place it stands at, which says what it opens there or
which unsupported construct it names.  So a keyword matches in any case
and never within a longer token: ``optional:x`` and ``ex:limit`` are
prefixed names.  ``SELECT *`` and the path operators are checked on their
tokens: ``^`` and ``!`` where a verb stands, ``/``, ``|``, ``*``, ``?`` and
``+`` right after one.

A query parses into what pruning and evaluation read (:class:`SelectQuery`):
its projected variables, every triple pattern in document order (OPTIONAL
bodies and FILTER-wrapped groups included: a pattern that occurs anywhere
in the query matters for pruning), DISTINCT, and the names of the
constructs evaluation cannot run.  Expressions (``AS``, FILTER constraints,
solution-modifier conditions) are read by one loop over their tokens,
which counts ``(`` and ``)`` and steps over them.  Text that no token
spells is invalid: there the reader of a term, or in a FILTER call's name
place the reader of a prefixed name, reports the error.

Everything else is rejected with a positioned error naming the feature:
UNION, MINUS, GRAPH, SERVICE, BIND, VALUES (in a group or after the
query), subqueries, property paths, FILTER EXISTS, blank-node labels,
bracketed blank-node property lists, language tags, FROM (a dataset
clause), and non-SELECT query forms.  A bare ``[]`` becomes a fresh
variable, so patterns never contain blank nodes.
"""

from __future__ import annotations

import re
from collections.abc import KeysView
from dataclasses import dataclass

from ._lexer import _PREFIX_RE
from .errors import SparqlError, UnsupportedSparqlError, decoded
from .rdf import TriplePattern, Variable, trusted
from .turtle import TurtleParser

# the tokens that make a verb's place a property path, by their first
# character, and those that do right after a verb ('||' is two '|')
_PATH_STARTS = {"^": "inverse '^'", "!": "negated set '!'", "(": "grouped path"}
_PATH_MODIFIERS = ("/", "|", "||", "*", "?", "+")
_UNSIGNED_INTEGER_RE = re.compile(r"[0-9]+")
_VARIABLE = trusted(Variable)  # for a name that a variable token's pattern matched
# where a builtin's name that no token spells ends
_BUILTIN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|")
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
# the keywords that may follow a condition, where it ends
_CONDITION_ENDS = frozenset(word for place, word in _KEYWORDS if place in ("modifier", "end"))


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
            if tok == "*":
                star = True
            elif tok == "(":
                tok = self._read_expression(tok, condition=False)
                expressions = True
                continue
            elif tok[:1] in ("?", "$"):
                variables.append(self._variable(tok))
            else:
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

    def _variable(self, tok: str) -> Variable:
        """The variable *tok* spells: a '?' or '$' and its name."""
        if len(tok) == 1:
            self.back(tok)
            raise self.error("expected a variable")
        return _VARIABLE(tok[1:], False)

    def _read_expression(self, tok: str, condition: bool) -> str:
        """Step over an expression from its first token *tok*, counting
        '(' and ')', and return the token after it.  Without *condition*
        the expression ends with the ')' that closes *tok*; a condition
        ends at the end of the text or, outside parentheses, at a keyword
        that may follow it.  Text that no token spells is read by the
        reader of a term, which reports the error."""
        depth = 0
        token = self.token
        while True:
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if not (depth or condition):
                    return token()
            elif not tok:
                if self.at_end():
                    if condition:
                        return tok
                    raise self.error("unbalanced parentheses")
                self.read_constant("a term")
            elif condition and not depth and tok.upper() in _CONDITION_ENDS:
                return tok
            tok = token()

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
        # a subquery fills a group, which its SELECT opens
        self._keyword("{", tok)
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
                self._parse_group(self.mark(), token())
                tok = token()
            else:
                clause = self._keyword("group", tok)
                if clause == "OPTIONAL":
                    self._read_group(token())
                    tok = token()
                elif clause == "FILTER":
                    tok = self._parse_filter(token())
                elif after_open_block:
                    self.back(tok)
                    raise self.error("expected '.' or '}' after a triple pattern")
                else:
                    tok = self._parse_triples(tok)
                    open_block = tok != "."
                if clause:
                    self.unevaluable.add(clause)
            if tok == ".":
                tok = token()
        self.depth -= 1

    def _parse_filter(self, tok: str) -> str:
        """A FILTER's constraint from its first token *tok*: a bracketted
        expression, or a builtin or function call.  Returns the token after
        it."""
        self._keyword("filter", tok)
        if tok != "(":
            # the call's name: an IRIREF, a prefixed name, whose prefix is not
            # resolved, or a builtin's, which starts with a letter
            if tok and (tok[0].isalpha() or tok[0] == ":" or tok[0] == "<" and tok[-1] == ">"):
                tok = self.token()
            elif not tok:
                # text that no token spells: a prefixed name's reader reports
                # it, and any other name is unsupported where a builtin's ends
                if self.text.startswith(":", _PREFIX_RE.match(self.text, self.pos).end()):
                    self.read_prefixed_name()
                self.pos = _BUILTIN_RE.match(self.text, self.pos).end()
            if tok != "(":
                self.back(tok)
                raise self.error("unsupported FILTER constraint form")
        return self._read_expression(tok, condition=False)

    # -- the hooks of the triples grammar -----------------------------------

    def properties(self, s):
        patterns = self.patterns
        return lambda pair: patterns.append(TriplePattern(s, *pair))

    def term(self, token, constant):
        if token[:1] in ("?", "$"):
            term = self._terms[token] = self._variable(token)
            return term
        if constant and token.lower() in ("true", "false"):  # a keyword, in any case
            token = token.lower()
        return super().term(token, constant)

    def _parse_subject(self, tok):
        term = self.term(tok, constant=False)
        if term is not None:
            return term
        ch = self.peek()
        if ch in ('"', "'") or "0" <= ch <= "9":
            raise self.error("literal subjects are not supported", unsupported=True)
        if ch == "(":
            raise self.error("collections in patterns are not supported", unsupported=True)
        self._reject_bnode_label()
        return self.read_iri("a subject")

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
        path = _PATH_STARTS.get(tok[:1])
        if path:
            self.back(tok)
            raise self.error(f"property paths are not supported ({path})", unsupported=True)
        return super()._parse_verb(tok)

    def _parse_object(self, tok):
        # a path operator right after a verb makes the verb a property path;
        # after ',' it is no object
        if tok in _PATH_MODIFIERS and self.before() != ",":
            self.back(tok)
            raise self.error(f"property paths are not supported ({tok[0]!r})", unsupported=True)
        if tok == "[":
            opened = self.mark()
            return self._parse_bnode_property_list(opened, self.token())
        term = self.term(tok, constant=True)
        if term is not None:
            return term
        ch = self.peek()
        if not ch:
            raise self.error("expected an object")
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
            tok = self.token()
            if clause in ("LIMIT", "OFFSET"):
                if not _UNSIGNED_INTEGER_RE.fullmatch(tok):
                    self.back(tok)
                    raise self.error("expected an unsigned integer")
                tok = self.token()
            elif not tok and self.at_end() or tok.upper() in _CONDITION_ENDS:
                self.back(tok)
                raise self.error(f"expected a condition after {clause}")
            else:
                tok = self._read_expression(tok, condition=True)
            self.unevaluable.add(clause)
        return tok


def parse_query(data: bytes | str) -> SelectQuery:
    """Parse a SELECT query from bytes or text; raises :class:`SparqlError`
    (or :class:`UnsupportedSparqlError`) with a position on failure."""
    if isinstance(data, bytes):
        data = decoded(data, SparqlError)
    return _QueryParser(data).parse()


def collect_triple_patterns(query: SelectQuery) -> KeysView[TriplePattern]:
    """Every distinct triple pattern of the query, as a set-like view in query order."""
    return dict.fromkeys(query.patterns).keys()


def flatten_bgp(query: SelectQuery) -> list[TriplePattern] | None:
    """The query's patterns as one conjunction, or None when the query uses
    OPTIONAL or FILTER and therefore is not a plain basic graph pattern."""
    return None if {"OPTIONAL", "FILTER"} & query.unevaluable else list(query.patterns)
