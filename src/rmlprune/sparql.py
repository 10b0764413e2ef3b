"""A SPARQL SELECT parser for the query shapes the pruner consumes.

Supported: prologue (PREFIX/BASE), SELECT with ``*``, plain variables or
raw ``(expr AS ?var)`` projections, basic graph patterns with predicate
and object lists, nested groups, OPTIONAL, FILTER (kept as an opaque
expression string), DISTINCT/REDUCED, and GROUP BY / HAVING / ORDER BY /
LIMIT / OFFSET recorded verbatim.  Integer, decimal, double and boolean
literals receive their XSD datatypes; ``^^`` annotations are honored.

Everything else is rejected with a positioned error naming the feature:
UNION, MINUS, GRAPH, SERVICE, BIND, VALUES, subqueries, property paths,
FILTER EXISTS, blank-node labels, bracketed blank-node property lists,
language tags, and non-SELECT query forms.  A bare ``[]`` becomes a fresh
variable, so patterns never contain blank nodes.

Pattern extraction (:func:`collect_triple_patterns`) walks the entire
tree, including OPTIONAL bodies and FILTER-wrapped groups: a pattern that
occurs anywhere in the query matters for pruning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ._lexer import Lexer
from .errors import SparqlError, UnsupportedSparqlError
from .rdf import RDF_TYPE, Bgp, Iri, TriplePattern, Variable

_VAR_RE = re.compile(r"[?$]([A-Za-z0-9_]+)")
# a '+' that starts a number begins the object, not a path
_SIGNED_NUMBER_RE = re.compile(r"\+\.?\d")
_UNSIGNED_INTEGER_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class GroupNode:
    """A conjunction of child patterns."""

    children: tuple["PatternNode", ...]


@dataclass(frozen=True)
class OptionalNode:
    """An OPTIONAL part; its patterns still count for pruning."""

    inner: "PatternNode"


@dataclass(frozen=True)
class FilterNode:
    """A FILTER kept as raw text around the group it constrains.

    Filters never influence pruning; they are preserved so the tree can be
    re-serialized faithfully.
    """

    expression: str
    inner: "PatternNode"


PatternNode = Bgp | GroupNode | OptionalNode | FilterNode


@dataclass
class Modifiers:
    distinct: bool = False
    reduced: bool = False
    group_by: str | None = None
    having: str | None = None
    order_by: str | None = None
    limit: int | None = None
    offset: int | None = None

    def beyond_distinct(self) -> list[str]:
        """The modifier names (other than DISTINCT) present on this query."""
        out = []
        if self.reduced:
            out.append("REDUCED")
        if self.group_by is not None:
            out.append("GROUP BY")
        if self.having is not None:
            out.append("HAVING")
        if self.order_by is not None:
            out.append("ORDER BY")
        if self.limit is not None:
            out.append("LIMIT")
        if self.offset is not None:
            out.append("OFFSET")
        return out


@dataclass
class SelectQuery:
    """A parsed SELECT query.

    ``variables`` is None for ``SELECT *``; ``select_expressions`` holds raw
    ``(expr AS ?var)`` projections verbatim.
    """

    variables: tuple[Variable, ...] | None
    where: PatternNode
    modifiers: Modifiers = field(default_factory=Modifiers)
    select_expressions: tuple[str, ...] = ()


class _QueryParser(Lexer):
    error_class = SparqlError
    unsupported_class = UnsupportedSparqlError
    _STOP_KEYWORDS = ("GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET")

    def __init__(self, text: str):
        super().__init__(text)
        self._anon = 0

    def fresh_variable(self) -> Variable:
        # stands in for an anonymous blank node
        self._anon += 1
        return Variable(f"b{self._anon}", anonymous=True)

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
        for form in ("CONSTRUCT", "ASK", "DESCRIBE"):
            if self.keyword_ahead(form):
                raise self.error(f"{form} queries are not supported", unsupported=True)
        if not self.try_keyword("SELECT"):
            raise self.error("expected SELECT")
        modifiers = Modifiers()
        self.skip_ws()
        if self.try_keyword("DISTINCT"):
            modifiers.distinct = True
        elif self.try_keyword("REDUCED"):
            modifiers.reduced = True
        variables, expressions = self._parse_projection()
        self.skip_ws()
        self.try_keyword("WHERE")
        self.skip_ws()
        where = self._parse_group()
        self._parse_solution_modifiers(modifiers)
        self.skip_ws()
        if not self.at_end():
            raise self.error("unexpected content after the query")
        return SelectQuery(
            variables=variables,
            where=where,
            modifiers=modifiers,
            select_expressions=expressions,
        )

    def _parse_prologue(self):
        while True:
            self.skip_ws()
            if self.try_keyword("PREFIX"):
                self.skip_ws()
                prefix = self.read_prefix_name()
                self.expect(":")
                self.skip_ws()
                iri = self.read_iriref()
                self.prefixes[prefix] = iri.value
            elif self.try_keyword("BASE"):
                self.skip_ws()
                iri = self.read_iriref()
                self.base = iri.value
            else:
                break

    def _parse_projection(self):
        variables: list[Variable] = []
        expressions: list[str] = []
        star = False
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                star = True
            elif ch and ch in "?$":
                variables.append(self.read_variable())
            elif ch == "(":
                expressions.append(self._read_balanced_parens())
            else:
                break
        if star:
            if variables or expressions:
                raise self.error("SELECT * cannot be combined with named projections")
            return None, ()
        if not variables and not expressions:
            raise self.error("SELECT needs * or at least one projection")
        return tuple(variables), tuple(expressions)

    def _read_balanced_parens(self) -> str:
        """The parenthesized expression at the cursor, parentheses included."""
        start = self.pos
        if not self._scan_expression(stop=False):
            raise self.error("unbalanced parentheses")
        return self.text[start : self.pos]

    def _scan_expression(self, stop: bool) -> bool:
        """Advance over an expression, reading each quoted string whole.
        Without *stop*, end after the parenthesis that closes the first one;
        with it, end before a solution-modifier keyword outside parentheses,
        or at the end of the text.  False when the text ends first without
        *stop*."""
        start = self.pos
        depth = 0
        while not self.at_end():
            ch = self.text[self.pos]
            if ch in "\"'":
                self.read_string()
                continue
            if ch == "(":
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

    def _parse_group(self) -> PatternNode:
        self.descend()
        self.expect("{")
        children: list[PatternNode] = []
        filters: list[str] = []
        current: list[TriplePattern] = []
        # a triples block not ended by '.' may only be followed by '}', a
        # group, OPTIONAL or FILTER
        open_block = False

        def flush():
            if current:
                children.append(Bgp(tuple(current)))
                current.clear()

        while True:
            self.skip_ws()
            if self.at_end():
                raise self.error("unterminated group (missing '}')")
            ch = self.peek()
            if ch == "}":
                self.pos += 1
                break
            after_open_block, open_block = open_block, False
            if ch == "{":
                save = self.pos
                self.pos += 1
                self.skip_ws()
                if self.keyword_ahead("SELECT"):
                    raise self.error("subqueries are not supported", unsupported=True)
                self.pos = save
                flush()
                nested = self._parse_group()
                self.skip_ws()
                if self.keyword_ahead("UNION"):
                    raise self.error("UNION is not supported", unsupported=True)
                children.append(nested)
                self.try_consume_dot()
                continue
            if self.try_keyword("OPTIONAL"):
                flush()
                self.skip_ws()
                children.append(OptionalNode(self._parse_group()))
                self.try_consume_dot()
                continue
            if self.try_keyword("FILTER"):
                self.skip_ws()
                if self.keyword_ahead("EXISTS") or self.keyword_ahead("NOT"):
                    raise self.error("FILTER EXISTS is not supported", unsupported=True)
                filters.append(self._read_filter_constraint())
                self.try_consume_dot()
                continue
            for feature in ("MINUS", "GRAPH", "SERVICE", "BIND", "VALUES", "UNION"):
                if self.keyword_ahead(feature):
                    raise self.error(f"{feature} is not supported", unsupported=True)
            if after_open_block:
                raise self.error("expected '.' or '}' after a triple pattern")
            self._parse_triples_same_subject(current)
            self.skip_ws()
            open_block = not self.try_consume_dot()

        flush()
        node: PatternNode
        if len(children) == 1 and not filters:
            node = children[0]
        else:
            node = GroupNode(tuple(children))
        for expression in filters:
            node = FilterNode(expression, node)
        self.depth -= 1
        return node

    def try_consume_dot(self) -> bool:
        self.skip_ws()
        if self.peek() == ".":
            self.pos += 1
            return True
        return False

    def _read_filter_constraint(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.peek() != "(":
            # builtin or function call: name, then its argument list
            while not self.at_end() and (self.text[self.pos].isalnum() or self.text[self.pos] in "_:<>/#.-"):
                self.pos += 1
            self.skip_ws()
            if self.peek() != "(":
                raise self.error("unsupported FILTER constraint form")
        name = self.text[start : self.pos]
        args = self._read_balanced_parens()
        return name + args

    def _parse_triples_same_subject(self, out: list[TriplePattern]):
        subject = self._parse_subject_position()
        while True:
            self.skip_ws()
            predicate = self._parse_verb()
            while True:
                self.skip_ws()
                obj = self._parse_object_position()
                out.append(TriplePattern(subject, predicate, obj))
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
            if self.peek() == ";":
                self.pos += 1
                self.skip_ws()
                while self.peek() == ";":
                    self.pos += 1
                    self.skip_ws()
                if self.peek() in ".}":
                    break
                continue
            break

    def _parse_subject_position(self):
        ch = self.peek()
        if ch in "?$":
            return self.read_variable()
        if ch == "[":
            return self._parse_anon()
        if ch in "\"'" or ch.isdigit():
            raise self.error("literal subjects are not supported", unsupported=True)
        if ch == "(":
            raise self.error("collections in patterns are not supported", unsupported=True)
        self._reject_bnode_label()
        return self.read_iri("a subject")

    def _reject_bnode_label(self):
        if self.text.startswith("_:", self.pos):
            raise self.error("blank node labels (_:b) in patterns are not supported", unsupported=True)

    def _parse_anon(self) -> Variable:
        self.expect("[")
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return self.fresh_variable()
        raise self.error(
            "blank node property lists in patterns are not supported", unsupported=True
        )

    def _parse_verb(self):
        ch = self.peek()
        if not ch:
            raise self.error("expected a predicate")
        if ch == "^":
            raise self.error("property paths are not supported (inverse '^')", unsupported=True)
        if ch == "!":
            raise self.error("property paths are not supported (negated set '!')", unsupported=True)
        if ch == "(":
            raise self.error("property paths are not supported (grouped path)", unsupported=True)
        if ch in "?$":
            verb = self.read_variable()
        elif self.try_a():
            verb = Iri(RDF_TYPE)
        else:
            verb = self.read_iri("a predicate")
        # a path operator directly after the verb makes this a property path
        save = self.pos
        self.skip_ws()
        nxt = self.peek()
        if nxt in ("/", "|", "*") or (
            nxt == "+" and not _SIGNED_NUMBER_RE.match(self.text, self.pos)
        ):
            raise self.error(f"property paths are not supported ({nxt!r})", unsupported=True)
        if nxt == "?" and not re.match(r"[?$][A-Za-z0-9_]", self.text[self.pos : self.pos + 2]):
            raise self.error("property paths are not supported ('?')", unsupported=True)
        self.pos = save
        return verb

    def _parse_object_position(self):
        ch = self.peek()
        if not ch:
            raise self.error("expected an object")
        if ch in "?$":
            return self.read_variable()
        if ch == "[":
            return self._parse_anon()
        if ch == "(":
            raise self.error("collections in patterns are not supported", unsupported=True)
        self._reject_bnode_label()
        return self.read_constant()

    def _parse_solution_modifiers(self, modifiers: Modifiers):
        # GroupClause? HavingClause? OrderClause? LimitOffsetClauses?, where
        # LIMIT and OFFSET may come in either order
        modifiers.group_by = self._read_condition("GROUP BY")
        modifiers.having = self._read_condition("HAVING")
        modifiers.order_by = self._read_condition("ORDER BY")
        for _ in range(2):
            self.skip_ws()
            if modifiers.limit is None and self.try_keyword("LIMIT"):
                modifiers.limit = self._read_int()
            elif modifiers.offset is None and self.try_keyword("OFFSET"):
                modifiers.offset = self._read_int()
        self.skip_ws()
        for keyword in self._STOP_KEYWORDS:
            if self.keyword_ahead(keyword):
                clause = keyword + " BY" if keyword in ("GROUP", "ORDER") else keyword
                raise self.error(
                    f"{clause} is repeated or out of order: solution modifiers come "
                    "as GROUP BY, HAVING, ORDER BY, then LIMIT and OFFSET"
                )

    def _read_condition(self, clause: str) -> str | None:
        """The raw condition text of *clause* (``ORDER BY`` ...) when the
        query continues with it, else None."""
        self.skip_ws()
        first, _, by = clause.partition(" ")
        if not self.try_keyword(first):
            return None
        if by:
            self.skip_ws()
            if not self.try_keyword(by):
                raise self.error(f"expected {by} after {first}")
        condition = self._capture_until_stop()
        if not condition:
            raise self.error(f"expected a condition after {clause}")
        return condition

    def _read_int(self) -> int:
        self.skip_ws()
        match = _UNSIGNED_INTEGER_RE.match(self.text, self.pos)
        if not match:
            raise self.error("expected an unsigned integer")
        self.pos = match.end()
        return int(match.group())

    def _capture_until_stop(self) -> str:
        self.skip_ws()
        start = self.pos
        self._scan_expression(stop=True)
        return self.text[start : self.pos].strip()


def parse_query(text: str) -> SelectQuery:
    """Parse a SELECT query; raises :class:`SparqlError` (or its
    :class:`UnsupportedSparqlError` subclass) with a position on failure."""
    return _QueryParser(text).parse()


def collect_triple_patterns(node: SelectQuery | PatternNode) -> set[TriplePattern]:
    """Every triple pattern of the query, wherever it occurs."""
    out: set[TriplePattern] = set()
    # a loop, not recursion: each FILTER of a group wraps it once more, so
    # the tree can be deeper than the parser's nesting limit
    stack = [node.where if isinstance(node, SelectQuery) else node]
    while stack:
        node = stack.pop()
        if isinstance(node, Bgp):
            out.update(node.patterns)
        elif isinstance(node, GroupNode):
            stack.extend(node.children)
        elif isinstance(node, (OptionalNode, FilterNode)):
            stack.append(node.inner)
        else:
            raise TypeError(f"not a pattern node: {node!r}")
    return out


def flatten_bgp(query: SelectQuery) -> list[TriplePattern] | None:
    """The query's patterns as one conjunction, or None when the query uses
    OPTIONAL or FILTER and therefore is not a plain basic graph pattern.
    The walk recurses only through groups, which the nesting limit bounds."""

    def walk(node: PatternNode) -> list[TriplePattern] | None:
        if isinstance(node, Bgp):
            return list(node.patterns)
        if isinstance(node, GroupNode):
            out: list[TriplePattern] = []
            for child in node.children:
                part = walk(child)
                if part is None:
                    return None
                out.extend(part)
            return out
        return None

    return walk(query.where)
