"""Terms, triples, graphs, and basic graph pattern evaluation.

The evaluator is checked against a brute-force oracle that enumerates
every candidate variable assignment over the graph's term universe and
keeps those whose substituted patterns are all triples of the graph, and
against the nested-loop evaluator on ``randgen`` graphs.
"""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmlprune import rdf
from rmlprune.algebra import ConstantTerm, materialize
from rmlprune.errors import InvalidTermError, StructuralError
from rmlprune.rdf import (
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    Bgp,
    RdfGraph,
    SolutionMapping,
    Term,
    Triple,
    TriplePattern,
    Variable,
    eval_bgp,
    format_term,
    is_valid_iri,
)
from rmlprune.ntriples import serialize_graph

from . import randgen
from .helpers import (
    BlankNode,
    Iri,
    Literal,
    apply_solution,
    bindings,
    compatible,
    eval_triple_pattern,
    iri_value,
    is_bnode,
    is_iri,
    is_literal,
    is_subgraph_of,
    merge,
    nested_loop_eval_bgp,
    read_ntriples,
    solution,
)

EX = "http://example.com/"


def iri(s: str) -> Term:
    return Iri(EX + s)


# ---------------------------------------------------------------------------
# term validity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        "http://example.com/a",
        "urn:uuid:1234",
        "tag:me@example.org,2024:x",
        "http://example.com/route/{é}".replace("{", "%7B").replace("}", "%7D"),
        "a:",
    ],
)
def test_valid_iris(value):
    assert is_valid_iri(value)
    TriplePattern(Variable("s"), (f"<{value}>", None), Variable("o"))


@pytest.mark.parametrize(
    "value",
    [
        "",
        "no-scheme",
        "/relative/path",
        "1http://example.com",  # scheme must start with a letter
        "http://example.com/a b",  # space
        "http://example.com/<",
        "http://example.com/>",
        'http://example.com/"',
        "http://example.com/{x}",
        "http://example.com/|",
        "http://example.com/\\",
        "http://example.com/^",
        "http://example.com/`",
        "http://example.com/\n",
        "http://example.com/\t",
        "http://example.com/\x00",
    ],
)
def test_invalid_iris(value):
    assert not is_valid_iri(value)
    with pytest.raises(InvalidTermError, match="^not a valid absolute IRI: "):
        TriplePattern(Variable("s"), (f"<{value}>", None), Variable("o"))


def _is_valid_iri_by_loop(value: str) -> bool:
    """The original character loop, kept as the oracle for the regex."""
    if re.match(r"[A-Za-z][A-Za-z0-9+.\-]*:", value) is None:
        return False
    for ch in value:
        if ch in '<>"{}|\\^`' or ord(ch) <= 0x20:
            return False
    return True


@given(st.text())
def test_iri_check_matches_loop_on_any_text(value):
    assert is_valid_iri(value) == _is_valid_iri_by_loop(value)


@given(
    st.sampled_from(["", "http:", "a+b.c-d:", "1x:", ":", "h"]),
    st.text(alphabet=st.sampled_from('ab:/%é\x00\x1f \x7f<>"{}|\\^`\n\u2028'), max_size=8),
)
def test_iri_check_matches_loop_after_scheme(scheme, rest):
    value = scheme + rest
    assert is_valid_iri(value) == _is_valid_iri_by_loop(value)


@pytest.mark.parametrize(
    "term",
    [Iri(EX + "a"), BlankNode("b1"), Literal("v"), Triple(iri("s"), iri("p"), Literal("v"))],
)
def test_terms_and_triples_have_no_instance_dict(term):
    assert not hasattr(term, "__dict__")


def test_blank_node_labels():
    RdfGraph([Triple(("_:b1", None), iri("p"), ("_:A_9", None))])
    for bad in ("", "a-b", "a b", "a.b", "é"):
        with pytest.raises(InvalidTermError, match="^invalid blank node label: "):
            RdfGraph([Triple((f"_:{bad}", None), iri("p"), iri("o"))])


def test_literal_defaults_to_xsd_string():
    # a plain string reads as an xsd:string literal
    (triple,) = read_ntriples('<http://e/s> <http://e/p> "hi" .\n')
    assert triple.o == Literal("hi") == ("hi", XSD_STRING)


def test_literal_equality_is_exact_on_lex_and_datatype():
    assert Literal("1", XSD_INTEGER) != Literal("01", XSD_INTEGER)
    assert Literal("1", XSD_INTEGER) != Literal("1", XSD_DOUBLE)
    assert Literal("1", XSD_INTEGER) != Literal("1")
    assert Literal("23.0", XSD_DOUBLE) == Literal("23.0", XSD_DOUBLE)


def test_literal_rejects_invalid_datatype():
    with pytest.raises(InvalidTermError, match="^literal datatype is not a valid IRI: 'not-an-iri'$"):
        ConstantTerm(("x", "not-an-iri"))
    with pytest.raises(InvalidTermError, match="^literal datatype is not a valid IRI: 'not-an-iri'$"):
        TriplePattern(Variable("s"), iri("p"), ("x", "not-an-iri"))


def test_triple_position_typing():
    # a graph checks each triple it takes
    with pytest.raises(InvalidTermError, match='^triple subject must be an IRI or blank node: "x"$'):
        RdfGraph([Triple(Literal("x"), iri("p"), iri("o"))])
    with pytest.raises(InvalidTermError, match="^triple predicate must be an IRI: _:b$"):
        RdfGraph([Triple(iri("s"), BlankNode("b"), iri("o"))])
    RdfGraph([Triple(BlankNode("b"), iri("p"), Literal("x"))])


def test_constructors_name_what_they_reject():
    with pytest.raises(InvalidTermError, match=r"^invalid variable name: 'a b'$"):
        Variable("a b")
    with pytest.raises(InvalidTermError, match="^triple object must be an RDF term: 3$"):
        RdfGraph([Triple(iri("s"), iri("p"), 3)])
    with pytest.raises(InvalidTermError, match="^pattern predicate must be an IRI or variable: \"x\"$"):
        TriplePattern(Variable("s"), Literal("x"), Variable("o"))


@pytest.mark.parametrize(
    "make, shown",
    [
        (lambda: rdf.check_term(("a", None, None)), "('a', None, None)"),
        (lambda: rdf.check_term((1, None)), "(1, None)"),
        # a pair whose string is no node spelling and has no datatype
        (lambda: TriplePattern(("http://x", None), Variable("p"), Variable("o")), "('http://x', None)"),
        (lambda: RdfGraph([Triple(("s", None), iri("p"), iri("o"))]), "('s', None)"),
    ],
)
def test_a_value_that_is_no_term_is_named_as_it_stands(make, shown):
    with pytest.raises(InvalidTermError) as info:
        make()
    assert type(info.value) is InvalidTermError
    assert str(info.value) == f"not an RDF term: {shown}"


def test_pattern_forbids_blank_nodes():
    with pytest.raises(InvalidTermError):
        TriplePattern(BlankNode("b"), iri("p"), Variable("o"))
    with pytest.raises(InvalidTermError):
        TriplePattern(Variable("s"), iri("p"), BlankNode("b"))
    with pytest.raises(InvalidTermError):
        TriplePattern(Literal("x"), iri("p"), Variable("o"))


# ---------------------------------------------------------------------------
# solution mappings
# ---------------------------------------------------------------------------


def test_a_node_binding_is_spelled_as_the_string_its_solution_holds():
    # mu[v] wraps a node's spelling in its pair without copying it, so
    # format_term gives the solution's own string back, for an IRI and a
    # blank node alike; a literal's spelling is read back into its pair
    s, p, o = Variable("s"), Variable("p"), Variable("o")
    kinds = set()
    for mu in eval_bgp([TriplePattern(s, p, o)], small_graph()):
        for v in (s, p, o):
            spelling = mu.spellings[mu.columns[v]]
            term = mu[v]
            kinds.add(rdf.kind(term))
            if is_literal(term):
                assert format_term(term) == spelling
            else:
                assert term[0] is spelling and format_term(term) is spelling
    assert kinds == {rdf.IRI, rdf.BLANK, rdf.LITERAL}


def test_solution_mapping_behaves_like_a_mapping():
    x = Variable("x")
    mu = solution({x: iri("a")})
    assert mu[x] == iri("a")
    assert x in mu and Variable("y") not in mu
    with pytest.raises(KeyError):
        mu[Variable("y")]
    assert mu == SolutionMapping({x: 0}, ("<http://example.com/a>",))
    assert hash(mu) == hash(solution({x: iri("a")}))


def test_solution_mapping_equality_ignores_binding_order():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    bound = {z: Literal("3"), x: iri("a"), y: BlankNode("b")}
    orders = [dict(perm) for perm in itertools.permutations(bound.items())]
    solutions = [solution(order) for order in orders]
    assert len(set(solutions)) == 1
    assert len({hash(mu) for mu in solutions}) == 1
    for mu in solutions:
        assert list(mu.columns) == [x, y, z]
        assert bindings(mu) == bound
        # a solution is not a dict, and equals none
        assert mu != bound and bound != mu
    # eval_bgp orders the columns the same way
    g = RdfGraph([Triple(iri("a"), iri("p"), BlankNode("b")), Triple(BlankNode("b"), iri("q"), Literal("3"))])
    patterns = [TriplePattern(x, iri("p"), y), TriplePattern(y, iri("q"), z)]
    assert eval_bgp(patterns, g) == {solutions[0]}
    assert solutions[0] != solution({x: iri("a"), y: BlankNode("b")})
    assert solutions[0] != solution({x: iri("a"), y: BlankNode("b"), z: Literal("4")})
    # same terms over other variables: a different solution
    assert solution({x: iri("a")}) != solution({y: iri("a")})
    assert solution({x: iri("a")}) != solution({Variable("x", anonymous=True): iri("a")})


def test_solution_mapping_compatibility_and_merge():
    x, y = Variable("x"), Variable("y")
    mu1 = solution({x: iri("a")})
    mu2 = solution({x: iri("a"), y: iri("b")})
    mu3 = solution({x: iri("c")})
    assert compatible(mu1, mu2)
    assert not compatible(mu1, mu3)
    assert merge(mu1, mu2) == mu2
    assert merge(mu1, mu3) is None
    assert merge(solution(), mu3) == mu3


def test_apply_solution():
    x = Variable("x")
    tp = TriplePattern(x, iri("p"), Variable("y"))
    partial = apply_solution(solution({x: iri("s")}), tp)
    assert partial == TriplePattern(iri("s"), iri("p"), Variable("y"))
    ground = apply_solution(
        solution({x: iri("s"), Variable("y"): Literal("v")}), tp
    )
    assert ground == Triple(iri("s"), iri("p"), Literal("v"))
    with pytest.raises(InvalidTermError):
        apply_solution(solution({x: Literal("bad")}), tp)


# ---------------------------------------------------------------------------
# evaluation: hand-derived answers
# ---------------------------------------------------------------------------


def small_graph() -> RdfGraph:
    return RdfGraph(
        [
            Triple(iri("s1"), iri("p"), iri("o1")),
            Triple(iri("s2"), iri("p"), iri("o2")),
            Triple(iri("o1"), iri("q"), Literal("5", XSD_INTEGER)),
            Triple(BlankNode("b1"), iri("p"), Literal("x")),
        ]
    )


def test_eval_triple_pattern_binds_exactly_the_variables():
    g = small_graph()
    x, y = Variable("x"), Variable("y")
    got = eval_triple_pattern(TriplePattern(x, iri("p"), y), g)
    assert got == {
        solution({x: iri("s1"), y: iri("o1")}),
        solution({x: iri("s2"), y: iri("o2")}),
        solution({x: BlankNode("b1"), y: Literal("x")}),
    }


def test_eval_triple_pattern_repeated_variable():
    g = RdfGraph(
        [
            Triple(iri("a"), iri("p"), iri("a")),
            Triple(iri("a"), iri("p"), iri("b")),
        ]
    )
    x = Variable("x")
    got = eval_triple_pattern(TriplePattern(x, iri("p"), x), g)
    assert got == {solution({x: iri("a")})}


def test_eval_bgp_joins_on_shared_variables():
    g = small_graph()
    x, y = Variable("x"), Variable("y")
    bgp = Bgp(
        (
            TriplePattern(x, iri("p"), y),
            TriplePattern(y, iri("q"), Literal("5", XSD_INTEGER)),
        )
    )
    assert eval_bgp(bgp, g) == {solution({x: iri("s1"), y: iri("o1")})}


def test_eval_bgp_rejects_empty_pattern():
    with pytest.raises(StructuralError):
        eval_bgp(Bgp(()), small_graph())


def test_eval_bgp_no_answers_is_empty_set():
    g = small_graph()
    bgp = Bgp((TriplePattern(Variable("x"), iri("nope"), Variable("y")),))
    assert eval_bgp(bgp, g) == set()


def test_eval_bgp_all_constant_pattern():
    g = small_graph()
    hit = Bgp((TriplePattern(iri("s1"), iri("p"), iri("o1")),))
    miss = Bgp((TriplePattern(iri("s1"), iri("p"), iri("o2")),))
    assert eval_bgp(hit, g) == {solution()}
    assert eval_bgp(miss, g) == set()


# ---------------------------------------------------------------------------
# evaluation: brute-force oracle
# ---------------------------------------------------------------------------


def oracle_eval_bgp(patterns, g: RdfGraph) -> set[SolutionMapping]:
    """Try every assignment of pattern variables to terms of the graph."""
    variables = sorted(
        {v for tp in patterns for v in (tp.s, tp.p, tp.o) if isinstance(v, Variable)}, key=lambda v: v.name
    )
    universe = set()
    for t in g.triples:
        universe.update((t.s, t.p, t.o))
    universe = sorted(universe, key=repr)

    def instantiated(tp, assignment):
        def subst(x):
            return assignment[x] if isinstance(x, Variable) else x

        s, p, o = subst(tp.s), subst(tp.p), subst(tp.o)
        if not (is_iri(s) or is_bnode(s)) or not is_iri(p):
            return None
        return Triple(s, p, o)

    out = set()
    for combo in itertools.product(universe, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        ok = True
        for tp in patterns:
            t = instantiated(tp, assignment)
            if t is None or t not in g.triples:
                ok = False
                break
        if ok:
            out.add(solution(assignment))
    return out


_terms = st.sampled_from(
    [
        iri("a"),
        iri("b"),
        iri("c"),
        iri("p"),
        iri("q"),
        BlankNode("n1"),
        BlankNode("n2"),
        Literal("1", XSD_INTEGER),
        Literal("x"),
    ]
)
_subjects = _terms.filter(lambda t: (is_iri(t) or is_bnode(t)))
_predicates = st.sampled_from([iri("p"), iri("q"), iri("r")])
_triples = st.builds(Triple, _subjects, _predicates, _terms)
_variables = st.sampled_from([Variable("x"), Variable("y"), Variable("z")])
_pattern_subjects = st.one_of(_variables, st.sampled_from([iri("a"), iri("b")]))
_pattern_predicates = st.one_of(_variables, _predicates)
_pattern_objects = st.one_of(
    _variables, st.sampled_from([iri("a"), iri("c"), Literal("1", XSD_INTEGER)])
)
_patterns = st.builds(TriplePattern, _pattern_subjects, _pattern_predicates, _pattern_objects)


@given(
    st.lists(_triples, min_size=0, max_size=7),
    st.lists(_patterns, min_size=1, max_size=4),
)
def test_eval_bgp_matches_brute_force_oracle(triples, patterns):
    g = RdfGraph(triples)
    assert eval_bgp(Bgp(tuple(patterns)), g) == oracle_eval_bgp(patterns, g)


# ---------------------------------------------------------------------------
# evaluation: the nested-loop oracle on randgen graphs
# ---------------------------------------------------------------------------


@functools.cache
def randgen_graph(seed: int) -> tuple[Triple, ...]:
    inst = randgen.make_instance(seed)
    return tuple(sorted(materialize(inst.mapping, inst.sigma), key=repr))


_join_variables = [Variable(f"v{i}") for i in range(4)]


@st.composite
def _graph_and_join(draw):
    """A subgraph of a randgen graph and 2-4 patterns over 3 variables, so
    patterns share variables, repeat one (``?v0 ex:p ?v0``), leave the
    predicate open, or share nothing; constants come from the whole graph,
    so some match nothing in the subgraph."""
    triples = randgen_graph(draw(st.integers(0, 199)))
    # at most 16 triples, so a cross product of 4 patterns stays small
    g = RdfGraph(draw(st.lists(st.sampled_from(triples), max_size=16)))
    variables = st.sampled_from(_join_variables[:3])
    subjects = st.sampled_from([t.s for t in triples if is_iri(t.s)] or [Iri(randgen.BASE)])
    predicates = st.sampled_from([t.p for t in triples] + [randgen.PREDICATES[0]])
    objects = st.sampled_from([t.o for t in triples if not is_bnode(t.o)] or [Literal("")])
    pattern = st.builds(
        TriplePattern,
        st.one_of(variables, variables, subjects),
        st.one_of(variables, predicates),
        st.one_of(variables, variables, objects),
    )
    return g, draw(st.lists(pattern, min_size=2, max_size=4))


def assert_matches_nested_loop(patterns, g: RdfGraph):
    expected = nested_loop_eval_bgp(patterns, g)
    assert eval_bgp(Bgp(tuple(patterns)), g) == set(expected)
    _, rows = rdf._bgp_rows(patterns, g)
    assert len(rows) == len(set(rows)) == len(expected)  # no solution produced twice


@given(_graph_and_join())
def test_eval_bgp_matches_nested_loop_oracle(case):
    g, patterns = case
    assert_matches_nested_loop(patterns, g)


def test_eval_bgp_matches_nested_loop_oracle_on_fixed_shapes():
    # each shape on every graph, whatever the draws above reach
    x, y, z, w = _join_variables
    for seed in range(40):
        g = RdfGraph(randgen_graph(seed))
        p = random.Random(seed).choice(sorted({t.p for t in g}, key=repr))
        for patterns in (
            [TriplePattern(x, p, y), TriplePattern(y, z, w)],  # chain, open predicate
            [TriplePattern(x, p, x), TriplePattern(x, y, z)],  # repeated variable
            [TriplePattern(x, p, y), TriplePattern(z, p, w)],  # no shared variable
            [TriplePattern(x, p, y), TriplePattern(x, z, y)],  # two shared variables
            [TriplePattern(x, y, z), TriplePattern(x, p, w), TriplePattern(w, y, z)],
        ):
            assert_matches_nested_loop(patterns, g)


@st.composite
def _triples_with_repeats(draw):
    """Triples of a randgen graph, some of them repeated, in drawn order."""
    triples = randgen_graph(draw(st.integers(0, 199)))
    if not triples:
        return []
    return draw(st.lists(st.sampled_from(triples), max_size=40))


@given(_triples_with_repeats(), st.randoms(use_true_random=False))
def test_graph_holds_each_distinct_triple_once(triples, rnd):
    g = RdfGraph(triples)
    distinct = frozenset(triples)
    assert g.triples == distinct
    assert len(g) == len(distinct)
    listed = list(g)
    assert len(listed) == len(distinct) and set(listed) == distinct
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    assert RdfGraph(shuffled).triples == g.triples
    for t in triples:
        # the same (subject, object) pair under another predicate
        twin = Triple(t.s, Iri(iri_value(t.p) + "-twin"), t.o)
        assert twin not in g.triples
        both = RdfGraph([t, twin, t])
        assert len(both) == 2
        assert both.triples == {t, twin}
        assert RdfGraph(triples + [twin]).triples != g.triples


def test_graph_files_equal_objects_once_whichever_comes_first():
    # several objects per subject under one predicate, repeated pairs, and
    # objects that are equal but not the same object
    p = iri("p")
    a, b = iri("a"), iri("b")
    first = [Triple(a, p, Literal("x")), Triple(a, p, Literal("y")), Triple(b, p, Literal("y"))]
    copies = [Triple(Iri(iri_value(t.s)), p, Literal(t.o[0])) for t in first]
    assert all(c == t and c.o is not t.o for c, t in zip(copies, first))
    for triples in (first + copies + first, copies + first, first[::-1] + copies):
        g = RdfGraph(triples)
        listed = list(g)
        assert len(g) == len(listed) == 3
        assert set(listed) == set(first)


def test_one_predicate_mixes_nodes_and_literals_of_one_lexical_form():
    # one column per kind and datatype: the string "3" and the integer 3
    # share a lexical form, and an IRI and a blank node end in it
    p, x, y = iri("p"), Variable("x"), Variable("y")
    objects = {
        "iri": iri("3"),
        "bnode": BlankNode("b3"),
        "string": Literal("3"),
        "integer": Literal("3", XSD_INTEGER),
    }
    triples = {Triple(iri(name), p, o) for name, o in objects.items()}
    g = RdfGraph(triples)
    assert len(g) == 4 and len(list(g)) == 4
    assert set(g) == g.triples == triples
    assert RdfGraph(g).triples == triples
    assert read_ntriples(serialize_graph(g)).triples == triples
    assert eval_bgp([TriplePattern(x, p, y)], g) == {solution({x: t.s, y: t.o}) for t in triples}
    for name, o in objects.items():
        if not is_bnode(o):  # a pattern holds no blank node
            assert eval_bgp([TriplePattern(x, p, o)], g) == {solution({x: iri(name)})}, name
    # an object bound by the subject or predicate is never a literal
    assert eval_bgp([TriplePattern(x, p, x)], g) == set()


_lexical_forms = st.text(
    st.one_of(
        st.sampled_from('"\\\n\r\t\b\f\x00\x01\x1f\x7f^<>'),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
        st.characters(),
    )
)
_terms = st.one_of(
    st.builds(Iri, st.from_regex(r"[a-z]+:[^\x00-\x20<>\"{}|\\^`]*", fullmatch=True)),
    st.builds(BlankNode, st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True)),
    st.builds(
        Literal,
        _lexical_forms,
        st.sampled_from([XSD_STRING, XSD_INTEGER, "http://e/dt\U0001F600"]),
    ),
)


@given(_terms)
def test_decoding_a_spelling_gives_the_term_back(term):
    if is_literal(term):
        assert rdf._literal(format_term(term)) == term
    else:
        assert format_term(term) is term[0]
    mu = solution({Variable("v"): term})
    assert mu[Variable("v")] == term


def test_graph_subgraph_and_predicate_index():
    g = small_graph()
    sub = RdfGraph([Triple(iri("s1"), iri("p"), iri("o1"))])
    assert is_subgraph_of(sub, g)
    assert not is_subgraph_of(g, sub)
    x, y = Variable("x"), Variable("y")
    assert eval_bgp([TriplePattern(x, iri("q"), y)], g) == {
        solution({x: iri("o1"), y: Literal("5", XSD_INTEGER)})
    }
    assert eval_bgp([TriplePattern(x, iri("p"), y)], g) == {
        solution({x: t.s, y: t.o}) for t in g if t.p == iri("p")
    }
    assert eval_bgp([TriplePattern(x, iri("missing"), y)], g) == set()
