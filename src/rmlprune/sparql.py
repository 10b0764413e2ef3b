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

A query parses into what pruning and evaluation read (:class:`SelectQuery`):
its projected variables, every triple pattern in document order (OPTIONAL
bodies and FILTER-wrapped groups included: a pattern that occurs anywhere
in the query matters for pruning), DISTINCT, and the names of the
constructs evaluation cannot run.  Expressions (``AS``, FILTER constraints,
solution-modifier conditions) are checked only for balanced parentheses
and stepped over, reading strings and IRIREFs whole and skipping comments.

Everything else is rejected with a positioned error naming the feature:
UNION, MINUS, GRAPH, SERVICE, BIND, VALUES, subqueries, property paths,
FILTER EXISTS, blank-node labels, bracketed blank-node property lists,
language tags, and non-SELECT query forms.  A bare ``[]`` becomes a fresh
variable, so patterns never contain blank nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._lexer import _BOOLEAN_RE, _IRIREF_RE, _PREFIX_RE
from .errors import SparqlError, UnsupportedSparqlError
from .rdf import _VAR_NAME, TriplePattern, Variable
from .turtle import TurtleParser

_VAR_RE = re.compile(f"[?$]({_VAR_NAME})")
# a '+' that starts a number begins the object, not a path
_SIGNED_NUMBER_RE = re.compile(r"\+\.?\d")
# the characters that make a verb's place a property path
_PATH_STARTS = {"^": "inverse '^'", "!": "negated set '!'", "(": "grouped path"}
_UNSIGNED_INTEGER_RE = re.compile(r"\d+")
# a builtin's name: every SPARQL 1.1 builtin starts with a letter
_BUILTIN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# the keywords a group tries at the start of each block, in order
_GROUP_KEYWORDS = ("OPTIONAL", "FILTER", "MINUS", "GRAPH", "SERVICE", "BIND", "VALUES", "UNION")


def _spells(token: str, word: str) -> bool:
    """Whether *token* starts with keyword *word*, as
    :meth:`~rmlprune._lexer.Lexer.keyword_ahead` reads it at the token's
    start: a prefixed name such as ``filter:x`` does."""
    n = len(word)
    return len(token) > n and token[:n].lower() == word.lower() and not (token[n].isalnum() or token[n] == "_")


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
    _STOP_KEYWORDS = ("GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET")

    def __init__(self, text: str):
        super().__init__(text)
        self.patterns: list[TriplePattern] = []
        self.unevaluable: set[str] = set()

    def read_variable(self) -> Variable:
        match = _VAR_RE.match(self.text, self.pos)
        if not match:
            raise self.error("expected a variable")
        self.pos = match.end()
        return Variable(match.group(1))

    # -- query structure ---------------------------------------------------

    def parse(self) -> SelectQuery:
        self._parse_prologue()
        self.skip_ws()
        if not self.try_keyword("SELECT"):
            for form in ("CONSTRUCT", "ASK", "DESCRIBE"):
                if self.keyword_ahead(form):
                    raise self.error(f"{form} queries are not supported", unsupported=True)
            raise self.error("expected SELECT")
        self.skip_ws()
        distinct = self.try_keyword("DISTINCT")
        if not distinct and self.try_keyword("REDUCED"):
            self.unevaluable.add("REDUCED")
        variables = self._parse_projection()
        self.skip_ws()
        self.try_keyword("WHERE")
        self._read_group()
        self.sync()
        self._parse_solution_modifiers()
        self.skip_ws()
        if not self.at_end():
            raise self.error("unexpected content after the query")
        if variables is None:
            terms = (x for tp in self.patterns for x in (tp.s, tp.p, tp.o))
            variables = tuple(dict.fromkeys(
                x for x in terms if isinstance(x, Variable) and not x.anonymous
            ))
        return SelectQuery(variables, tuple(self.patterns), distinct, frozenset(self.unevaluable))

    def _parse_prologue(self):
        while True:
            self.skip_ws()
            if self.try_directive("PREFIX"):
                self._parse_prefix_body("")
            elif self.try_directive("BASE", "<"):
                self._parse_base_body("")
            else:
                break

    def _parse_projection(self) -> tuple[Variable, ...] | None:
        """The projected variables, None for ``SELECT *``."""
        variables: list[Variable] = []
        star = expressions = False
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                star = True
            elif ch and ch in "?$":
                variables.append(self.read_variable())
            elif ch == "(":
                self._skip_parenthesized()
                expressions = True
            else:
                break
        if expressions:
            self.unevaluable.add("AS")
        if star:
            if variables or expressions:
                raise self.error("SELECT * cannot be combined with named projections")
            return None
        if not variables and not expressions:
            raise self.error("SELECT needs * or at least one projection")
        return tuple(variables)

    def _skip_parenthesized(self):
        if not self._scan_expression(stop=False):
            raise self.error("unbalanced parentheses")

    def _scan_expression(self, stop: bool) -> bool:
        """Advance over an expression, reading each quoted string and each
        IRIREF whole and skipping each comment.  Without *stop*, end after
        the parenthesis that closes the first one; with it, end before a
        solution-modifier keyword outside parentheses, or at the end of the
        text.  False when the text ends first without *stop*."""
        start = self.pos
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
            elif stop and depth == 0 and any(self.keyword_ahead(k) for k in self._STOP_KEYWORDS):
                prev = self.text[self.pos - 1] if self.pos > start else " "
                if not (prev.isalnum() or prev in "_?$"):
                    return True
            self.pos += 1
        return stop

    def _read_group(self):
        """The group at the next token, to just past its '}'."""
        tok = self.token()
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
                if _spells(tok, "SELECT") or not tok and self.keyword_ahead("SELECT"):
                    self.back(tok)
                    raise self.error("subqueries are not supported", unsupported=True)
                self._parse_group(opened, tok)
                tok = token()
                if _spells(tok, "UNION") or not tok and self.keyword_ahead("UNION"):
                    self.back(tok)
                    raise self.error("UNION is not supported", unsupported=True)
            else:
                if tok[:1].isalpha() and any(_spells(tok, word) for word in _GROUP_KEYWORDS):
                    self.back(tok)
                    tok = ""
                if not tok and self.try_keyword("OPTIONAL"):
                    self.unevaluable.add("OPTIONAL")
                    self._read_group()
                    tok = token()
                elif not tok and self.try_keyword("FILTER"):
                    self.skip_ws()
                    if self.keyword_ahead("EXISTS") or self.keyword_ahead("NOT"):
                        raise self.error("FILTER EXISTS is not supported", unsupported=True)
                    self._skip_filter_constraint()
                    self.unevaluable.add("FILTER")
                    tok = token()
                else:
                    for feature in _GROUP_KEYWORDS[2:]:
                        if not tok and self.keyword_ahead(feature):
                            raise self.error(f"{feature} is not supported", unsupported=True)
                    if after_open_block:
                        self.back(tok)
                        raise self.error("expected '.' or '}' after a triple pattern")
                    tok = self._parse_triples(tok)
                    open_block = tok != "."
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
        ch = self.peek()
        if ch in ("?", "$"):
            return self.read_variable()
        if ch in ('"', "'") or ch.isdigit():
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
        if not tok or tok == "(":
            self.back(tok)
            ch = self.peek()
            path = _PATH_STARTS.get(ch)
            if path:
                raise self.error(f"property paths are not supported ({path})", unsupported=True)
            if ch in ("?", "$"):
                return self.read_variable()
        return super()._parse_verb(tok)

    def _after_verb(self):
        # a path operator directly after the verb makes this a property path;
        # none is a token, so a verb followed by a token is no path
        nxt = self.peek()
        if nxt in ("/", "|", "*") or (
            nxt == "+" and not _SIGNED_NUMBER_RE.match(self.text, self.pos)
        ):
            raise self.error(f"property paths are not supported ({nxt!r})", unsupported=True)
        if nxt == "?" and not _VAR_RE.match(self.text, self.pos):
            raise self.error("property paths are not supported ('?')", unsupported=True)

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
        if ch in "?$":
            return self.read_variable()
        if ch == "(":
            raise self.error("collections in patterns are not supported", unsupported=True)
        self._reject_bnode_label()
        return self.read_constant()

    def _parse_solution_modifiers(self):
        # GroupClause? HavingClause? OrderClause? LimitOffsetClauses?, where
        # LIMIT and OFFSET may come in either order
        self.skip_ws()
        if self.at_end():
            return
        for clause in ("GROUP BY", "HAVING", "ORDER BY"):
            self._skip_condition(clause)
        for _ in range(2):
            self.skip_ws()
            for clause in ("LIMIT", "OFFSET"):
                if clause not in self.unevaluable and self.try_keyword(clause):
                    self._skip_unsigned_integer()
                    self.unevaluable.add(clause)
                    break
        self.skip_ws()
        for keyword in self._STOP_KEYWORDS:
            if self.keyword_ahead(keyword):
                clause = keyword + " BY" if keyword in ("GROUP", "ORDER") else keyword
                raise self.error(
                    f"{clause} is repeated or out of order: solution modifiers come "
                    "as GROUP BY, HAVING, ORDER BY, then LIMIT and OFFSET"
                )

    def _skip_condition(self, clause: str):
        """Advance over *clause* (``ORDER BY`` ...) and its condition, and
        record it, when the query continues with it."""
        self.skip_ws()
        first, _, by = clause.partition(" ")
        if not self.try_keyword(first):
            return
        if by:
            self.skip_ws()
            if not self.try_keyword(by):
                raise self.error(f"expected {by} after {first}")
        self.skip_ws()
        start = self.pos
        self._scan_expression(stop=True)
        if self.pos == start:
            raise self.error(f"expected a condition after {clause}")
        self.unevaluable.add(clause)

    def _skip_unsigned_integer(self):
        self.skip_ws()
        match = _UNSIGNED_INTEGER_RE.match(self.text, self.pos)
        if not match:
            raise self.error("expected an unsigned integer")
        self.pos = match.end()


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
