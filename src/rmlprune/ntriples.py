"""N-Triples reading and writing.

The writer emits one triple per line, sorted, so output files are
deterministic for a given graph.  Blank node labels are written as-is and
therefore stay stable across a run.  Literals with datatype ``xsd:string``
are written without a datatype suffix, following the usual canonical form.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from ._lexer import Lexer
from .errors import NTriplesError
from .rdf import XSD_STRING, BlankNode, Iri, Literal, RdfGraph, RdfTerm, Triple

_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}
_ESCAPED_RE = re.compile(r'["\\\x00-\x1f]')


def _escape_char(m: re.Match) -> str:
    ch = m.group()
    return _ESCAPES.get(ch) or f"\\u{ord(ch):04X}"


def escape_string(s: str) -> str:
    """The body of a double-quoted string, valid in N-Triples, Turtle and
    SPARQL alike."""
    return _ESCAPED_RE.sub(_escape_char, s)


def format_term(term: RdfTerm) -> str:
    """The N-Triples spelling of a term, which is valid Turtle too."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{escape_string(term.lex)}"'
        if term.datatype == XSD_STRING:
            return body
        return f"{body}^^<{term.datatype}>"
    raise TypeError(f"not an RDF term: {term!r}")


def format_triple(triple: Triple) -> str:
    return f"{format_term(triple.s)} {format_term(triple.p)} {format_term(triple.o)} ."


def serialize_graph(g: RdfGraph | Iterable[Triple]) -> str:
    """The graph as N-Triples text, one sorted line per triple."""
    lines = sorted(format_triple(t) for t in g)
    return "\n".join(lines) + "\n" if lines else ""


class _LineParser(Lexer):
    """One line of N-Triples.  IRIs and escapes are read by the shared
    lexer; relative IRIs are errors, as no base is in scope."""

    def __init__(self, text: str, lineno: int):
        super().__init__(text)
        self.lineno = lineno

    def error(self, message: str, unsupported: bool = False) -> NTriplesError:
        return NTriplesError(message, line=self.lineno)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def read_bnode(self) -> BlankNode:
        self.expect("_")
        self.expect(":")
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        label = self.text[start : self.pos]
        if not label:
            raise self.error("empty blank node label")
        return BlankNode(label)

    def read_literal(self) -> Literal:
        self.expect('"')
        out = []
        while True:
            if self.at_end():
                raise self.error("unterminated string literal")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                break
            out.append(self.read_escape() if ch == "\\" else ch)
        lex = "".join(out)
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            dt = self.read_iriref()
            return Literal(lex, dt.value)
        if self.pos < len(self.text) and self.text[self.pos] == "@":
            raise self.error("language-tagged literals are not supported")
        return Literal(lex)

    def read_subject(self):
        if self.at_end():
            raise self.error("missing subject")
        if self.text[self.pos] == "<":
            return self.read_iriref()
        if self.text[self.pos] == "_":
            return self.read_bnode()
        raise self.error("subject must be an IRI or blank node")

    def read_object(self):
        if self.at_end():
            raise self.error("missing object")
        ch = self.text[self.pos]
        if ch == "<":
            return self.read_iriref()
        if ch == "_":
            return self.read_bnode()
        if ch == '"':
            return self.read_literal()
        raise self.error("object must be an IRI, blank node, or literal")


def parse_graph(text: str) -> RdfGraph:
    """Parse N-Triples text into a graph.

    Raises :class:`NTriplesError` with the offending line number on bad
    input.  Comment lines and blank lines are allowed.
    """
    triples = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip("\r")
        parser = _LineParser(line, lineno)
        parser.skip_ws()
        if parser.at_end() or line[parser.pos] == "#":
            continue
        s = parser.read_subject()
        parser.skip_ws()
        if parser.at_end() or line[parser.pos] != "<":
            raise parser.error("the predicate must be an IRI")
        p = parser.read_iriref()
        parser.skip_ws()
        o = parser.read_object()
        parser.skip_ws()
        parser.expect(".")
        parser.skip_ws()
        if not parser.at_end() and line[parser.pos] != "#":
            raise parser.error("trailing characters after '.'")
        try:
            triples.append(Triple(s, p, o))
        except Exception as exc:
            raise NTriplesError(str(exc), line=lineno) from None
    return RdfGraph(triples)
