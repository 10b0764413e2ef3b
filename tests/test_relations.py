"""The graph the reference evaluator builds from the (subject, predicate,
object) values it yields, EPSILON among them.

``graph_from_triples`` is checked against a per-triple oracle: a value
triple contributes a triple exactly when its three values are a legal
(subject, predicate, object) combination.
"""

from hypothesis import given
from hypothesis import strategies as st

from rmlprune.algebra import EPSILON
from rmlprune.rdf import Term, Triple

from .helpers import BlankNode, Iri, Literal, graph_from_triples, is_bnode, is_iri, is_term

EX = "http://example.com/"


def iri(s: str) -> Term:
    return Iri(EX + s)


def test_graph_from_relation_hand_cases():
    triples = [
        (iri("s"), iri("p"), Literal("v")),  # kept
        (BlankNode("b"), iri("p"), iri("o")),  # kept
        (EPSILON, iri("p"), iri("o")),  # dropped: no subject
        (iri("s"), EPSILON, iri("o")),  # dropped: no predicate
        (iri("s"), iri("p"), EPSILON),  # dropped: no object
        (Literal("s"), iri("p"), iri("o")),  # dropped: literal subject
        (iri("s"), BlankNode("b"), iri("o")),  # dropped: bnode predicate
    ]
    g = graph_from_triples(triples)
    assert g.triples == frozenset(
        {
            Triple(iri("s"), iri("p"), Literal("v")),
            Triple(BlankNode("b"), iri("p"), iri("o")),
        }
    )


_values = st.sampled_from(
    [iri("s"), iri("p"), BlankNode("b"), Literal("v"), EPSILON]
)


@given(st.sets(st.tuples(_values, _values, _values), max_size=12))
def test_graph_from_relation_matches_per_tuple_oracle(rows):
    got = graph_from_triples(iter(rows)).triples
    expected = {
        Triple(s, p, o)
        for s, p, o in rows
        if (is_iri(s) or is_bnode(s))
        and is_iri(p)
        and is_term(o)
    }
    assert got == expected
