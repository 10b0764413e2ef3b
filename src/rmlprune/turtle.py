"""The Turtle triples grammar, read by mapping documents and SPARQL queries.

Covers the slice of Turtle that mapping files use in practice: prefix and
base directives (both ``@prefix`` and SPARQL-style), predicate and object
lists, anonymous blank nodes with property lists, labeled blank nodes,
collections, the ``a`` keyword, all four string quoting forms, numeric and
boolean literals, and comments.  Language-tagged literals are rejected
(literals here are always a lexical form plus a datatype).

Relative IRIs are resolved by plain concatenation with the in-scope base,
matching how IRI templates are expanded elsewhere in this package; a
relative IRI without a base is an error.

Blank node labels from the document are renamed to fresh internal labels
(first-occurrence order), so documents cannot collide with generated ones;
:attr:`TurtleParser.bnode_labels` maps the first to the second.  The
reader made the labels, so it skips the check of ``BlankNode(...)``.

:class:`TurtleParser` keeps no triples: at the first triple of each run
with one subject it asks :meth:`~TurtleParser.properties`, which each
reader implements, where the run's (predicate, object) pairs go.
:meth:`~TurtleParser.parse` returns the base.  There are three readers:

* the mapping reader of :mod:`rmlprune.rml`, which answers with the
  extend of the subject's flat list, so filing costs no call and keeps no
  tuple;
* the tests' triple collector;
* the SPARQL parser of :mod:`rmlprune.sparql`, whose triples syntax is
  Turtle's with variables: it reads each triples block with
  :meth:`~TurtleParser._parse_triples`, files triple patterns, and
  overrides the hooks that read a subject, a verb, an object and a ``[``.

Tokens are read by the lexer shared with the SPARQL parser
(:mod:`rmlprune._lexer`); this module holds only the grammar.  Its loops
step from token to token with :meth:`~rmlprune._lexer.Lexer.next_token`,
and every ``[ ]`` opens its node with
:meth:`~rmlprune._lexer.Lexer.descend` and :meth:`TurtleParser.fresh_bnode`.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from ._lexer import PUNCT, Lexer
from .errors import TurtleError
from .rdf import RDF_NS, RDF_TYPE_IRI, BlankNode, Iri, RdfTerm, trusted_bnode

RDF_FIRST = Iri(RDF_NS + "first")
RDF_REST = Iri(RDF_NS + "rest")
RDF_NIL = Iri(RDF_NS + "nil")

_LABEL_RE = re.compile(r"[\w.-]*")
# ANON: a '[' with only whitespace and comments, each to the end of its
# line, before its ']'
_ANON_RE = re.compile(r"\[(?:[ \t\r\n]|#[^\n]*(?![^\n]))*\]")


class TurtleParser(Lexer):
    error_class = unsupported_class = TurtleError

    def __init__(self, text: str):
        super().__init__(text)
        # document label -> internal label, insertion ordered
        self.bnode_labels: dict[str, str] = {}
        # blank node bN opens at offset bnode_offsets[N - 1]
        self.bnode_offsets: list[int] = []

    def properties(self, s: Iri | BlankNode) -> Callable[[tuple[Iri, RdfTerm]], object]:
        """The function that takes each (predicate, object) pair of subject
        *s*, in document order.  The grammar asks for it at the first triple
        of each run of triples with subject *s*."""
        raise NotImplementedError

    def fresh_bnode(self, at: int | None = None) -> BlankNode:
        """A new blank node, which opens at offset *at* or the cursor."""
        offsets = self.bnode_offsets
        offsets.append(self.pos if at is None else at)
        return trusted_bnode(f"b{len(offsets)}")

    # -- grammar -----------------------------------------------------------

    def parse(self) -> str | None:
        """Hand every triple to :meth:`properties`; returns the base in
        scope at the end of the document."""
        while True:
            token = self.next_token()
            if self.at_end():
                break
            if not self._parse_directive():
                self._parse_triples(token)
                self.expect(".")
        return self.base

    def _parse_directive(self) -> bool:
        # '@prefix' and '@base' end with '.', SPARQL-style directives do not
        at = self.peek() == "@"
        if self.try_consume("@prefix") or not at and self.try_directive("prefix"):
            self._parse_prefix_body()
        elif self.try_consume("@base") or not at and self.try_directive("base", "<"):
            self._parse_base_body()
        else:
            return False
        if at:
            self.skip_ws()
            self.expect(".")
        return True

    def _parse_triples(self, token):
        """Subject and predicate-object list, from the subject's token; the
        cursor ends on the token after them.  A blank node property list
        may stand alone, an empty ``[ ]`` may not."""
        if token[PUNCT] == "[" and not _ANON_RE.match(self.text, self.pos):
            subject = self._parse_bnode_property_list()
            token = self.next_token()
            if token[PUNCT] != ".":
                self._parse_predicate_object_list(subject, token)
            return
        subject = self.read_token_term(token, constant=False) or self._parse_subject()
        self._parse_predicate_object_list(subject, self.next_token())

    def _parse_subject(self):
        """A subject the token read left to the readers."""
        ch = self.peek()
        if ch == "[":
            return self._parse_bnode_property_list()
        if ch == "(":
            return self._parse_collection()
        if ch == "_":
            return self._read_bnode_label()
        return self.read_iri("a subject")

    def _read_bnode_label(self) -> BlankNode:
        self.expect("_:")
        end = _LABEL_RE.match(self.text, self.pos).end()
        label = self.text[self.pos : end].rstrip(".")
        if label[:1] in ("-", "."):
            raise self.error(f"blank node label may not start with {label[0]!r}: {label!r}")
        self.pos += len(label)
        if not label:
            raise self.error("empty blank node label")
        internal = self.bnode_labels.get(label)
        if internal is None:
            node = self.fresh_bnode()
            self.bnode_labels[label] = node.label
            return node
        return trusted_bnode(internal)

    def _parse_predicate_object_list(self, subject, token) -> str | None:
        """From the first verb's token to the token after the list, whose
        punctuation mark (None for another token) it returns."""
        take = None
        next_token, read, verb = self.next_token, self.read_token_term, self._parse_verb
        while True:
            predicate = verb(token)
            while True:
                token = next_token()
                obj = read(token, True) or self._parse_object(token)
                if take is None:
                    take = self.properties(subject)
                take((predicate, obj))
                punct = next_token()[PUNCT]
                if punct != ",":
                    break
                self.pos += 1
            if punct != ";":
                return punct
            # a dangling ';' before '.', ']', '}' or another ';' is allowed
            while punct == ";":
                self.pos += 1
                token = next_token()
                punct = token[PUNCT]
            if punct in (".", "]", "}") or self.at_end():
                return punct

    def _parse_verb(self, token) -> Iri:
        """The verb that starts with *token*."""
        term = self.read_token_term(token, False)
        if term is not None:
            return term
        if self.try_a():
            return RDF_TYPE_IRI
        return self.read_iri("a predicate")

    def _parse_object(self, token) -> RdfTerm:
        """An object other than the terms :meth:`read_token_term` takes."""
        punct = token[PUNCT]
        if punct == "[":
            return self._parse_bnode_property_list()
        if punct == "(":
            return self._parse_collection()
        ch = self.peek()
        if ch == "":
            raise self.error("expected an object")
        if ch == "_":
            return self._read_bnode_label()
        return self.read_constant()

    def _parse_bnode_property_list(self) -> BlankNode:
        """From the '[' at the cursor to just past its ']'."""
        self.descend()
        self.pos += 1
        node = self.fresh_bnode()
        token = self.next_token()
        punct = token[PUNCT]
        if punct != "]":
            punct = self._parse_predicate_object_list(node, token)
        if punct != "]":
            raise self.error("expected ']'")
        self.pos += 1
        self.depth -= 1
        return node

    def _parse_collection(self):
        """From the '(' at the cursor to just past its ')'.  Its nodes are
        made after its items, but open at the '('."""
        self.descend()
        opens = self.pos
        self.pos += 1
        items = []
        while True:
            token = self.next_token()
            if token[PUNCT] == ")":
                self.pos += 1
                break
            if self.at_end():
                raise self.error("unterminated collection")
            items.append(self.read_token_term(token, constant=True) or self._parse_object(token))
        self.depth -= 1
        if not items:
            return RDF_NIL
        nodes = [self.fresh_bnode(opens) for _ in items]
        for node, item, rest in zip(nodes, items, [*nodes[1:], RDF_NIL]):
            take = self.properties(node)
            take((RDF_FIRST, item))
            take((RDF_REST, rest))
        return nodes[0]
