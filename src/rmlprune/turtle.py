"""A Turtle reader for mapping documents.

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
:attr:`TurtleParser.bnode_labels` maps the first to the second.

:class:`TurtleParser` keeps no triples: it hands each to
:meth:`~TurtleParser.add`, which each reader implements (the RML layer's
files it under its subject).  :meth:`~TurtleParser.parse` returns the base.

Tokens are read by the lexer shared with the SPARQL parser
(:mod:`rmlprune._lexer`); this module holds only the grammar.  Its loops
step from token to token with :meth:`~rmlprune._lexer.Lexer.next_token`,
which skips whitespace and reads a common term or punctuation mark in one
regex match.
"""

from __future__ import annotations

import re

from ._lexer import PUNCT, Lexer
from .errors import TurtleError
from .rdf import RDF_NS, BlankNode, Iri, RdfTerm

RDF_FIRST = Iri(RDF_NS + "first")
RDF_REST = Iri(RDF_NS + "rest")
RDF_NIL = Iri(RDF_NS + "nil")
RDF_TYPE_IRI = Iri(RDF_NS + "type")

_LABEL_RE = re.compile(r"[\w.-]*")


class TurtleParser(Lexer):
    error_class = unsupported_class = TurtleError

    def __init__(self, text: str, base: str | None = None):
        super().__init__(text, base)
        # document label -> internal label, insertion ordered
        self.bnode_labels: dict[str, str] = {}
        self._bnode_counter = 0

    def add(self, s: Iri | BlankNode, p: Iri, o: RdfTerm):
        """Take one triple of the document, in document order."""
        raise NotImplementedError

    def fresh_bnode(self, at: int | None = None) -> BlankNode:
        """A new blank node, which opens at offset *at* or the cursor."""
        self._bnode_counter += 1
        return BlankNode(f"b{self._bnode_counter}")

    def labeled_bnode(self, doc_label: str) -> BlankNode:
        internal = self.bnode_labels.get(doc_label)
        if internal is None:
            node = self.fresh_bnode()
            self.bnode_labels[doc_label] = node.label
            return node
        return BlankNode(internal)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> str | None:
        """Hand every triple to :meth:`add`; returns the base in scope at
        the end of the document."""
        while True:
            token = self.next_token()
            if self.at_end():
                break
            if not self._parse_directive():
                self._parse_triples(token)
                self.expect(".")
        return self.base

    def _parse_directive(self) -> bool:
        if self.try_consume("@prefix"):
            self._parse_prefix_body()
            self.skip_ws()
            self.expect(".")
            return True
        if self.try_consume("@base"):
            self._parse_base_body()
            self.skip_ws()
            self.expect(".")
            return True
        if self.keyword_ahead("prefix"):
            after = self.text[self.pos + 6 : self.pos + 7]
            # "prefix:s" is a prefixed name, not the directive
            if after in (" ", "\t", "\r", "\n", ""):
                self.pos += len("prefix")
                self._parse_prefix_body()
                return True
        if self.keyword_ahead("base"):
            after = self.text[self.pos + 4 : self.pos + 5]
            if after in (" ", "\t", "\r", "\n", "<", ""):
                self.pos += len("base")
                self._parse_base_body()
                return True
        return False

    def _parse_prefix_body(self):
        self.skip_ws()
        prefix = self.read_prefix_name()
        self.expect(":")
        self.skip_ws()
        iri = self.read_iriref()
        self.prefixes[prefix] = iri.value

    def _parse_base_body(self):
        self.skip_ws()
        self.base = self.read_iriref().value

    def _parse_triples(self, token):
        """Subject and predicate-object list, from the subject's token; the
        cursor ends on the token after them."""
        if token[PUNCT] == "[":
            subject = self._parse_bnode_property_list()
            token = self.next_token()
            if token[PUNCT] != ".":
                self._parse_predicate_object_list(subject, token)
            return
        subject = self.read_token_term(token, constant=False) or self._parse_subject()
        self._parse_predicate_object_list(subject, self.next_token())

    def _parse_subject(self):
        ch = self.peek()
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
        return self.labeled_bnode(label)

    def _parse_predicate_object_list(self, subject, token):
        """From the first verb's token to the token after the list."""
        add = self.add
        next_token = self.next_token
        while True:
            predicate = self.read_token_term(token, constant=False) or self._parse_verb()
            while True:
                token = next_token()
                obj = self.read_token_term(token, constant=True) or self._parse_object(token)
                add(subject, predicate, obj)
                token = next_token()
                if token[PUNCT] != ",":
                    break
                self.pos += 1
            if token[PUNCT] != ";":
                break
            # a dangling ';' before '.', ']' or another ';' is allowed
            while token[PUNCT] == ";":
                self.pos += 1
                token = next_token()
            if self.peek() in (".", "]", ""):
                break

    def _parse_verb(self) -> Iri:
        """A verb the token read left to the readers."""
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
        if token[PUNCT] != "]":
            self._parse_predicate_object_list(node, token)
        self.expect("]")
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
            self.add(node, RDF_FIRST, item)
            self.add(node, RDF_REST, rest)
        return nodes[0]
