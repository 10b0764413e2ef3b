"""N-Triples writing.

The writer emits one triple per line, sorted, so output files are
deterministic for a given graph.  It writes a graph's typed string columns
(:class:`~rmlprune.rdf.RdfGraph`) without a term pair: node spellings as
they are, and each literal from its column as ``"`` + its escaped lexical
form + ``"`` + the column's datatype suffix, which is empty for
``xsd:string``, following the usual canonical form.  Blank node labels are
written as-is and therefore stay stable across a run.  A term's spelling,
:func:`format_term`, and :func:`escape_string` live next to the term
pairs in :mod:`rmlprune.rdf`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .rdf import RdfGraph, datatype_suffix, escape_string, format_term

__all__ = ["escape_string", "format_term", "serialize_graph"]


def _subject_chunks(g: RdfGraph) -> Iterator[str]:
    """Each subject's sorted lines joined into one string, in the order of
    the subjects' spellings; a subject's group is dropped once its chunk is
    made."""
    # each subject's column records and objects, alternating; a record is
    # what a line holds before and after the object, and how the object is
    # written: a node as it is, a literal escaped unless its column needs no
    # escape at all
    by_subject: dict[str, list] = {}
    for (p, datatype), (subjects, objects) in g.columns():
        if datatype is None:
            record = (f" {p} ", " .\n", str)
        else:
            text = "".join(objects)
            escape = str if escape_string(text) == text else escape_string
            record = (f' {p} "', f'"{datatype_suffix(datatype)} .\n', escape)
        for s, o in zip(subjects, objects):
            group = by_subject.get(s)
            if group is None:
                by_subject[s] = [record, o]
            else:
                group += record, o
    for s in sorted(by_subject):
        group = iter(by_subject.pop(s))
        lines = [f"{s}{before}{escape(o)}{after}" for (before, after, escape), o in zip(group, group)]
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
