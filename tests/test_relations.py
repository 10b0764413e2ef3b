"""The reserved output attributes, EPSILON, and triple extraction from a
mapping relation: an attribute set plus tuples over it.

``graph_from_tuples`` is checked against a per-tuple oracle: a tuple
contributes a triple exactly when its three reserved values are a legal
(subject, predicate, object) combination.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmlprune.algebra import (
    EPSILON,
    OBJECT_ATTR,
    OUTPUT_ATTRS,
    PREDICATE_ATTR,
    SUBJECT_ATTR,
    Epsilon,
    graph_from_tuples,
)
from rmlprune.errors import StructuralError
from rmlprune.rdf import BlankNode, Iri, Literal, Triple

EX = "http://example.com/"


def iri(s: str) -> Iri:
    return Iri(EX + s)


def test_epsilon_is_a_singleton():
    assert Epsilon() is EPSILON
    assert repr(EPSILON) == "EPSILON"


def test_reserved_attributes():
    assert OUTPUT_ATTRS == {SUBJECT_ATTR, PREDICATE_ATTR, OBJECT_ATTR}


def test_graph_from_relation_requires_output_attrs():
    with pytest.raises(StructuralError):
        graph_from_tuples({"a"}, [{"a": iri("x")}])


def out_tuple(s, p, o, extra=None) -> dict:
    values = {SUBJECT_ATTR: s, PREDICATE_ATTR: p, OBJECT_ATTR: o}
    if extra:
        values.update(extra)
    return values


def test_graph_from_relation_hand_cases():
    tuples = [
        out_tuple(iri("s"), iri("p"), Literal("v")),  # kept
        out_tuple(BlankNode("b"), iri("p"), iri("o")),  # kept
        out_tuple(EPSILON, iri("p"), iri("o")),  # dropped: no subject
        out_tuple(iri("s"), EPSILON, iri("o")),  # dropped: no predicate
        out_tuple(iri("s"), iri("p"), EPSILON),  # dropped: no object
        out_tuple(Literal("s"), iri("p"), iri("o")),  # dropped: literal subject
        out_tuple(iri("s"), BlankNode("b"), iri("o")),  # dropped: bnode predicate
    ]
    g = graph_from_tuples(OUTPUT_ATTRS, tuples)
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
    got = graph_from_tuples(OUTPUT_ATTRS, [out_tuple(s, p, o) for s, p, o in rows]).triples
    expected = {
        Triple(s, p, o)
        for s, p, o in rows
        if isinstance(s, (Iri, BlankNode))
        and isinstance(p, Iri)
        and isinstance(o, (Iri, BlankNode, Literal))
    }
    assert got == expected


def test_graph_from_relation_ignores_extra_attributes():
    tuples = [out_tuple(iri("s"), iri("p"), iri("o"), extra={"x": EPSILON})]
    assert graph_from_tuples(OUTPUT_ATTRS | {"x"}, tuples).triples == frozenset(
        {Triple(iri("s"), iri("p"), iri("o"))}
    )
