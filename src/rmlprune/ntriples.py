"""N-Triples writing.

The writer emits one triple per line, sorted, so output files are
deterministic for a given graph.  Blank node labels are written as-is and
therefore stay stable across a run.  Literals with datatype ``xsd:string``
are written without a datatype suffix, following the usual canonical form.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .rdf import XSD_STRING, BlankNode, Iri, Literal, RdfGraph, RdfTerm

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


def _subject_chunks(g: RdfGraph) -> Iterator[str]:
    """Each subject's sorted lines joined into one string, in the order of
    the subjects' spellings; a subject's group is dropped once its chunk is
    made."""
    # each subject's predicate spellings and objects, alternating
    by_subject: dict[RdfTerm, list] = {}
    for p, subjects, objects in g.columns():
        predicate = format_term(p)
        for s, o in zip(subjects, objects):
            group = by_subject.get(s)
            if group is None:
                by_subject[s] = [predicate, o]
            else:
                group += predicate, o
    for s in sorted(by_subject, key=format_term):
        group = by_subject.pop(s)
        subject = format_term(s)
        lines = [
            f"{subject} {predicate} {format_term(o)} .\n"
            for predicate, o in zip(group[::2], group[1::2])
        ]
        lines.sort()
        yield "".join(lines)


def serialize_graph(g: RdfGraph) -> str:
    """The graph as N-Triples text, one sorted line per triple.

    The triples are grouped by subject straight from the graph's columns.
    Sorting each subject's lines, with the subjects in the order of their
    spellings, gives the order of sorting all lines: no subject's spelling
    is a proper prefix of another's followed by a character below the space
    (an IRI's ends in ``>``, a blank node label's characters are above the
    space).

    The text grows by blocks of subject chunks, each block about a 64th of
    the text so far, and each subject's group is dropped once its chunk is
    made.  CPython resizes a string that nothing else refers to in place,
    so the peak is about 1.1 times the text, where joining every chunk at
    the end held about twice the text.  Under a trace or profile function
    CPython copies the text at each ``+=`` instead; growing it by a fixed
    fraction keeps those copies linear in the text, where appending chunk
    by chunk would copy it once per subject: at scale 50 under a no-op
    ``sys.setprofile`` (Python 3.11, 2 cores), 32 s against 0.8 s.
    """
    text = ""
    block: list[str] = []
    size = 0
    for chunk in _subject_chunks(g):
        block.append(chunk)
        size += len(chunk)
        if size > len(text) >> 6:
            text += "".join(block)
            block.clear()
            size = 0
    text += "".join(block)
    return text
