"""N-Triples writing, and reading it back with the Turtle reader."""

import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rmlprune import ntriples
from rmlprune.algebra import DataObject, materialize
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.errors import TurtleError
from rmlprune.gendata import generate
from rmlprune.ntriples import escape_string, format_term, serialize_graph
from rmlprune.rdf import XSD_INTEGER, XSD_STRING, RdfGraph, Term, Triple
from rmlprune.rml import parse_rml

from .helpers import (
    BlankNode,
    Iri,
    Literal,
    format_triple,
    is_bnode,
    is_iri,
    read_ntriples,
    reference_serialize,
)

EX = "http://example.com/"


def iri(s: str) -> Term:
    return Iri(EX + s)


def loop_escape(s: str) -> str:
    """The per-character oracle for ``escape_string``."""
    named = {
        '"': '\\"',
        "\\": "\\\\",
        "\n": "\\n",
        "\r": "\\r",
        "\t": "\\t",
        "\b": "\\b",
        "\f": "\\f",
    }
    out = []
    for ch in s:
        if ch in named:
            out.append(named[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def test_escape_string_matches_loop_oracle():
    texts = [chr(c) for c in range(0x20)] + [
        '"',
        "\\",
        "",
        'say "hi"\n',
        "\x00\x1f\x7f",
        "ünïcödé ∑ 😀 \u2028",
        "".join(chr(c) for c in range(0x80)) + 'é"\\\x01',
    ]
    for text in texts:
        assert escape_string(text) == loop_escape(text), repr(text)
    assert escape_string('a"b\\c\n\x01') == 'a\\"b\\\\c\\n\\u0001'


@given(st.text())
def test_escape_string_matches_loop_oracle_on_any_text(text):
    assert escape_string(text) == loop_escape(text)


def test_format_term():
    assert format_term(iri("a")) == "<http://example.com/a>"
    assert format_term(BlankNode("b1")) == "_:b1"
    assert format_term(Literal("hi")) == '"hi"'
    assert format_term(Literal("1", XSD_INTEGER)) == f'"1"^^<{XSD_INTEGER}>'
    assert format_term(Literal('say "hi"\n')) == '"say \\"hi\\"\\n"'


def test_format_triple():
    t = Triple(iri("s"), iri("p"), Literal("o"))
    assert format_triple(t) == '<http://example.com/s> <http://example.com/p> "o" .'


def test_serialize_is_sorted_and_deterministic():
    g = RdfGraph(
        [
            Triple(iri("b"), iri("p"), iri("x")),
            Triple(iri("a"), iri("p"), iri("x")),
        ]
    )
    text = serialize_graph(g)
    assert text == (
        "<http://example.com/a> <http://example.com/p> <http://example.com/x> .\n"
        "<http://example.com/b> <http://example.com/p> <http://example.com/x> .\n"
    )
    assert serialize_graph(g) == text


def test_serialize_empty_graph_is_empty_text():
    assert serialize_graph(RdfGraph()) == ""
    assert read_ntriples(serialize_graph(RdfGraph())).triples == frozenset()


# IRIs and blank node labels that are string prefixes of one another, so a
# writer that orders by subject first must still give the all-lines order
_prefix_iris = st.builds(Iri, st.from_regex(r"http://a/x[/y1]{0,3}", fullmatch=True))
_labels = st.builds(BlankNode, st.from_regex(r"b1[2_]{0,2}", fullmatch=True))
_literals = st.builds(
    Literal,
    st.text(max_size=4),
    st.sampled_from([XSD_STRING, XSD_INTEGER, "http://a/x/dt"]),
)


@given(
    st.sets(
        st.builds(
            Triple,
            st.one_of(_prefix_iris, _labels),
            _prefix_iris,
            st.one_of(_prefix_iris, _labels, _literals),
        ),
        max_size=25,
    )
)
@example(set())
@example(
    {
        Triple(Iri("http://a/x"), Iri("http://a/x"), Literal('"\\\n\x01')),
        Triple(Iri("http://a/x/y"), Iri("http://a/x"), BlankNode("b12")),
        Triple(BlankNode("b1"), Iri("http://a/x/y"), Literal("1", XSD_INTEGER)),
        Triple(BlankNode("b12"), Iri("http://a/x"), Literal("1")),
    }
)
def test_serialize_graph_matches_sorted_lines_oracle(triples):
    g = RdfGraph(triples)
    assert serialize_graph(g) == reference_serialize(g)


def test_serialize_graph_peak_memory_stays_near_the_text(tmp_path):
    # the seed-42 scale-1 corpus graph (1,570 triples); keeping every
    # sorted line alive and joining them with a newline peaks at about 3.5x,
    # joining one chunk per subject at about 2.1x; growing the text in place
    # while each subject's group is dropped peaks at about 1.1x
    generate(tmp_path, scale=1, seed=42)
    sigma = {
        name: DataObject(kind=CSV_KIND, payload=parse_csv((tmp_path / name).read_bytes()))
        for name in ("stops.csv", "routes.csv", "shapes.csv")
    }
    graph = materialize(parse_rml((tmp_path / "mapping.ttl").read_bytes()), sigma)
    tracemalloc.start()
    try:
        text = serialize_graph(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 150_000
    assert peak < 1.3 * len(text), peak / len(text)


def test_serialize_graph_stays_linear_under_a_profiler(monkeypatch):
    # a profile function turns CPython's in-place growth of a string off, so
    # appending 20,000 chunks one at a time copies the text 20,000 times
    # (about 2 s); growing it by blocks copies it a bounded number of times
    chunks = [f"{i:099d}\n" for i in range(20_000)]
    monkeypatch.setattr(ntriples, "_subject_chunks", lambda g: iter(chunks))
    sys.setprofile(lambda *args: None)
    try:
        start = time.perf_counter()
        text = serialize_graph(RdfGraph())
        elapsed = time.perf_counter() - start
    finally:
        sys.setprofile(None)
    assert text == "".join(chunks)
    assert elapsed < 0.5, elapsed


def test_parse_basic_document():
    text = (
        "# a comment\n"
        "\n"
        '<http://example.com/s> <http://example.com/p> "v" .\n'
        "_:b1 <http://example.com/p> <http://example.com/o> . # trailing\n"
    )
    g = read_ntriples(text)
    assert g.triples == frozenset(
        {
            Triple(iri("s"), iri("p"), Literal("v")),
            Triple(BlankNode("b1"), iri("p"), iri("o")),
        }
    )


def test_parse_escapes_and_unicode():
    text = '<http://example.com/s> <http://example.com/p> "a\\tb\\u00e9\\U0001F600" .\n'
    g = read_ntriples(text)
    (t,) = g.triples
    assert t.o == Literal("a\tbé\U0001F600")


def test_parse_typed_literal():
    text = f'<{EX}s> <{EX}p> "1"^^<{XSD_INTEGER}> .\n'
    (t,) = read_ntriples(text).triples
    assert t.o == Literal("1", XSD_INTEGER)


def test_parse_explicit_xsd_string_normalizes():
    text = f'<{EX}s> <{EX}p> "v"^^<{XSD_STRING}> .\n'
    (t,) = read_ntriples(text).triples
    assert t.o == Literal("v")
    assert format_term(t.o) == '"v"'


def test_parse_error_reports_line_number():
    text = f"<{EX}s> <{EX}p> <{EX}o> .\nbroken\n"
    with pytest.raises(TurtleError) as exc:
        read_ntriples(text)
    assert "line 2" in str(exc.value)


_term_pool = st.sampled_from(
    [
        iri("a"),
        iri("p"),
        BlankNode("x9"),
        Literal("plain"),
        Literal("1", XSD_INTEGER),
        Literal('quote " backslash \\ tab \t'),
        Literal("newline\nreturn\r"),
        Literal("unicode é \U0001F600"),
    ]
)
_subject_pool = _term_pool.filter(lambda t: (is_iri(t) or is_bnode(t)))
_pred_pool = st.sampled_from([iri("p"), iri("q")])


@given(st.sets(st.builds(Triple, _subject_pool, _pred_pool, _term_pool), max_size=8))
def test_serialize_parse_round_trip(triples):
    g = RdfGraph(triples)
    assert read_ntriples(serialize_graph(g)).triples == g.triples
