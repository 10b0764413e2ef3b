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
:attr:`TurtleParser.bnode_labels` maps the first to the second.  Every
term is the pair of :data:`rmlprune.rdf.Term`, built where its token is
read: the reader made it valid, so nothing checks it again.

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
  overrides the hooks that read a verb and build a token's term, and
  those of the constructs it rejects: a ``[`` with a property list, a
  collection and a blank node label.  One node reader,
  :meth:`~TurtleParser._parse_object`, reads its subjects and objects.

Tokens are read by the lexer shared with the SPARQL parser
(:mod:`rmlprune._lexer`); this module holds only the grammar.  Its loops
take the text of each token from the run with
:meth:`~rmlprune._lexer.Lexer.token` and look IRIs, prefixed names and
literals up by that text; ``a``, a blank node label and the keyword of a
SPARQL-style directive are read by their text too.  A token the lookup
misses, and the '' of text that no token spells, go to the hooks, which
give back a token that spells no term there or an error with
:meth:`~rmlprune._lexer.Lexer.back`: a reader reports it at the cursor.
Every ``[ ]`` and ``( )`` opens its node with
:meth:`~rmlprune._lexer.Lexer.descend` and :meth:`TurtleParser.fresh_bnode`,
at the mark of its bracket: a blank node's offset is found only when
:attr:`TurtleParser.bnode_offsets` is read.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import cached_property

from ._lexer import Lexer, _past, offsets
from .errors import TurtleError
from .rdf import RDF_NS, RDF_TYPE_IRI, Term

RDF_FIRST = (f"<{RDF_NS}first>", None)
RDF_REST = (f"<{RDF_NS}rest>", None)
RDF_NIL = (f"<{RDF_NS}nil>", None)

_LABEL_RE = re.compile(r"[\w.-]*")


class TurtleParser(Lexer):
    error_class = unsupported_class = TurtleError

    def __init__(self, text: str):
        super().__init__(text)
        # document label -> internal label, insertion ordered
        self.bnode_labels: dict[str, str] = {}
        # the mark of what opened blank node bN: opened[N - 1]
        self.opened: list[int] = []

    @cached_property
    def bnode_offsets(self) -> list[int]:
        """Blank node bN opens at offset ``bnode_offsets[N - 1]``: just past
        its '[' or its label, or at its '('.  Read once the parse is done."""
        text = self.text
        found = offsets(text, self.opened)
        return [_past(text, at, 1) if mark >= 0 and text[at] in "[_" else at for mark, at in zip(self.opened, found)]

    def properties(self, s: Term) -> Callable[[tuple[Term, Term]], object]:
        """The function that takes each (predicate, object) pair of subject
        *s*, in document order.  The grammar asks for it at the first triple
        of each run of triples with subject *s*."""
        raise NotImplementedError

    def fresh_bnode(self, opened: int) -> Term:
        """A new blank node, opened by what the mark *opened* names."""
        self.opened.append(opened)
        return f"_:b{len(self.opened)}", None

    # -- grammar -----------------------------------------------------------
    #
    # A method starts from a token its caller has read: the first of its
    # construct, or the one after a bracket, which the caller marks.  One
    # that reads a list returns the token after it, read too.  A token ''
    # leaves the cursor to the readers (see Lexer.token).

    def parse(self) -> str | None:
        """Hand every triple to :meth:`properties`; returns the base in
        scope at the end of the document."""
        token = self.token
        while True:
            tok = token()
            if not tok and self.at_end():
                break
            if tok == "@prefix":
                self._parse_prefix_body(token())
                tok = token()
            elif tok == "@base":
                self._parse_base_body(token())
                tok = token()
            elif self._parse_directive(tok):
                continue  # a SPARQL-style directive does not end with '.'
            else:
                tok = self._parse_triples(tok)
            if tok != ".":
                self.back(tok)
                raise self.error("expected '.'")
        return self.base

    def _parse_triples(self, tok: str) -> str:
        """A subject and its predicate-object list, from the subject's
        token.  A blank node property list may stand alone, an empty
        ``[ ]`` may not."""
        if tok == "[":
            opened = self.mark()
            tok = self.token()
            anon = tok == "]"
            subject = self._parse_bnode_property_list(opened, tok)
            tok = self.token()
            if not anon and tok == ".":
                return tok
        else:
            subject = self._terms.get(tok) or self._parse_object(tok, False)
            tok = self.token()
        return self._parse_predicate_object_list(subject, tok)

    def _read_bnode_label(self) -> Term:
        self.expect("_:")
        end = _LABEL_RE.match(self.text, self.pos).end()
        label = self.text[self.pos : end].rstrip(".")
        if label[:1] in ("-", "."):
            raise self.error(f"blank node label may not start with {label[0]!r}: {label!r}")
        self.pos += len(label)
        if not label:
            raise self.error("empty blank node label")
        return self._labeled(label)

    def _labeled(self, label: str) -> Term:
        """The blank node the document's *label* names, made where the label
        first stands, just read."""
        internal = self.bnode_labels.get(label)
        if internal is None:
            node = self.fresh_bnode(self.mark())
            self.bnode_labels[label] = node[0][2:]
            return node
        return "_:" + internal, None

    def _parse_predicate_object_list(self, subject, tok: str) -> str:
        """From the first verb's token; returns the token after the list."""
        take = None
        # self.token(), inlined
        pop, more, terms, literals = self._run.pop, self._next_run, self._terms, self._literals
        verb, obj = self._parse_verb, self._parse_object
        while True:
            predicate = terms.get(tok) or verb(tok)
            tok = pop() or more()
            while True:
                o = terms.get(tok) or literals.get(tok) or obj(tok)
                if take is None:
                    take = self.properties(subject)
                take((predicate, o))
                tok = pop() or more()
                if tok != ",":
                    break
                tok = pop() or more()
            if tok != ";":
                return tok
            # a dangling ';' before '.', ']', '}' or another ';' is allowed
            while tok == ";":
                tok = pop() or more()
            if tok in (".", "]", "}") or not tok and self.at_end():
                return tok

    def _parse_verb(self, tok: str) -> Term:
        """A verb the lookup by text did not find."""
        if tok == "a":
            return RDF_TYPE_IRI
        term = self.term(tok, constant=False)
        if term is not None:
            return term
        return self.read_iri("a predicate")

    def _parse_object(self, tok: str, constant: bool = True) -> Term:
        """An object the lookup by text did not find or, not *constant*,
        a subject, which no literal is and whose '[' :meth:`_parse_triples` reads."""
        if tok == "[":
            opened = self.mark()
            return self._parse_bnode_property_list(opened, self.token())
        if tok == "(":
            return self._parse_collection(self.mark())
        if tok[:1] == "_":
            return self._labeled(tok[2:])
        term = self.term(tok, constant)
        if term is not None:
            return term
        if self.peek() == "_":
            return self._read_bnode_label()
        return self.read_constant() if constant else self.read_iri("a subject")

    def _parse_bnode_property_list(self, opened: int, tok: str) -> Term:
        """The blank node whose '[' *opened* marks, from *tok*, the token
        after the '[', to its ']'."""
        self.descend(opened)
        node = self.fresh_bnode(opened)
        if tok != "]":
            tok = self._parse_predicate_object_list(node, tok)
            if tok != "]":
                self.back(tok)
                raise self.error("expected ']'")
        self.depth -= 1
        return node

    def _parse_collection(self, opened: int):
        """The collection whose '(' *opened* marks, from just past the '('
        to its ')'.  Its nodes are made after its items, but open at the
        '('."""
        self.descend(opened)
        items = []
        token, terms, literals = self.token, self._terms, self._literals
        while (tok := token()) != ")":
            if not tok and self.at_end():
                raise self.error("unterminated collection")
            items.append(terms.get(tok) or literals.get(tok) or self._parse_object(tok))
        self.depth -= 1
        if not items:
            return RDF_NIL
        nodes = [self.fresh_bnode(opened) for _ in items]
        for node, item, rest in zip(nodes, items, [*nodes[1:], RDF_NIL]):
            take = self.properties(node)
            take((RDF_FIRST, item))
            take((RDF_REST, rest))
        return nodes[0]
