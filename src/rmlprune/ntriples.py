"""N-Triples writing.

The writer emits one triple per line, sorted, so output files are
deterministic for a given graph.  Blank node labels are written as-is and
therefore stay stable across a run.  Literals with datatype ``xsd:string``
are written without a datatype suffix, following the usual canonical form.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

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
