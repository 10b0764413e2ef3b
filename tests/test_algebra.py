"""Template expressions, term constructors, extraction, triples-map
evaluation and the printed plan."""

import logging
import random

import pytest

from rmlprune import algebra
from rmlprune.algebra import (
    EPSILON,
    AttrRef,
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    DataObject,
    ExtractSpec,
    RmlMappingExpr,
    TemplateConcat,
    TextPart,
    TriplesMapExpr,
    dump_plan,
    evaluate_extend,
    evaluate_template,
    extend_attrs,
    materialize,
    materialize_trmap,
    resolve_iri,
    string_to_bnode,
    template_attrs,
)
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.errors import SourceInputError, StructuralError
from rmlprune.rdf import (
    XSD_DOUBLE,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    RdfGraph,
    Triple,
)

from . import randgen
from .helpers import unique_trmaps, valid_input

BASE = "http://example.com/base/"


def csv_sigma(**files: str) -> dict[str, DataObject]:
    return {
        name: DataObject(kind=CSV_KIND, payload=parse_csv(text))
        for name, text in files.items()
    }


def tuple_set(*tuples: dict) -> set[frozenset]:
    return {frozenset(t.items()) for t in tuples}


def csv_extract(source: str, *attrs: str, selectors: dict | None = None) -> ExtractSpec:
    return ExtractSpec(
        source_ref=source,
        selectors=selectors if selectors is not None else {a: a for a in attrs},
    )


# ---------------------------------------------------------------------------
# template expressions
# ---------------------------------------------------------------------------


def test_concat_needs_two_atomic_parts():
    with pytest.raises(StructuralError):
        TemplateConcat((TextPart("x"),))
    with pytest.raises(StructuralError):
        TemplateConcat(
            (TextPart("x"), TemplateConcat((TextPart("a"), TextPart("b"))))
        )


def test_template_attrs():
    concat = TemplateConcat((TextPart("http://e/"), AttrRef("a"), AttrRef("b")))
    assert template_attrs(TextPart("x")) == frozenset()
    assert template_attrs(AttrRef("a")) == {"a"}
    assert template_attrs(concat) == {"a", "b"}


def test_evaluate_template():
    tup = {"a": Literal("42"), "b": EPSILON, "c": Iri("http://e/x")}
    assert evaluate_template(TextPart("fixed"), tup) == "fixed"
    assert evaluate_template(AttrRef("a"), tup) == "42"
    assert evaluate_template(AttrRef("b"), tup) is EPSILON
    # a non-literal value has no lexical form
    assert evaluate_template(AttrRef("c"), tup) is EPSILON
    concat = TemplateConcat((TextPart("v="), AttrRef("a")))
    assert evaluate_template(concat, tup) == "v=42"
    bad = TemplateConcat((TextPart("v="), AttrRef("b")))
    assert evaluate_template(bad, tup) is EPSILON
    with pytest.raises(StructuralError):
        evaluate_template(AttrRef("zz"), tup)


# ---------------------------------------------------------------------------
# term constructors
# ---------------------------------------------------------------------------


def test_extend_attrs():
    assert extend_attrs(ConstantTerm(Iri("http://e/x"))) == frozenset()
    assert extend_attrs(ConstantTerm(BlankNode("b"))) == frozenset()
    assert extend_attrs(BuildLiteral(AttrRef("a"), XSD_STRING)) == {"a"}
    assert extend_attrs(BuildIri(AttrRef("a"), BASE)) == {"a"}
    assert extend_attrs(BuildBlank(AttrRef("a"))) == {"a"}


def test_resolve_iri_absolute_relative_invalid():
    assert resolve_iri("http://e/x", BASE) == Iri("http://e/x")
    assert resolve_iri("x/y", BASE) == Iri(BASE + "x/y")
    assert resolve_iri("a b", BASE) is EPSILON  # space stays invalid even with base
    assert resolve_iri("http://e/ bad", BASE) is EPSILON


def test_evaluate_extend_constants():
    tup = {}
    assert evaluate_extend(ConstantTerm(Literal("v")), tup) == Literal("v")
    assert evaluate_extend(ConstantTerm(BlankNode("b7")), tup) == BlankNode("b7")


def test_evaluate_extend_literal_and_iri():
    tup = {"a": Literal("23.0"), "bad": EPSILON}
    assert evaluate_extend(BuildLiteral(AttrRef("a"), XSD_DOUBLE), tup) == Literal(
        "23.0", XSD_DOUBLE
    )
    assert evaluate_extend(BuildLiteral(AttrRef("bad"), XSD_DOUBLE), tup) is EPSILON
    expr = BuildIri(TemplateConcat((TextPart("http://e/"), AttrRef("a"))), BASE)
    assert evaluate_extend(expr, tup) == Iri("http://e/23.0")
    assert evaluate_extend(BuildIri(AttrRef("bad"), BASE), tup) is EPSILON


def test_evaluate_extend_bnode_is_stable_and_distinct():
    tup1 = {"a": Literal("x")}
    tup2 = {"a": Literal("y")}
    expr = BuildBlank(AttrRef("a"))
    n1 = evaluate_extend(expr, tup1)
    n2 = evaluate_extend(expr, tup2)
    assert isinstance(n1, BlankNode)
    assert n1 == evaluate_extend(expr, tup1)
    assert n1 != n2
    assert n1 == string_to_bnode("x")


def test_string_to_bnode_labels():
    labels = {string_to_bnode(s).label for s in ("", "a", "b", "ab", "a b", "{")}
    assert len(labels) == 6
    for label in labels:
        assert label.startswith("b") and len(label) == 33


def test_constructor_validation():
    with pytest.raises(StructuralError):
        BuildLiteral(AttrRef("a"), "not-an-iri")
    with pytest.raises(StructuralError):
        BuildIri(AttrRef("a"), "not-an-iri")
    with pytest.raises(StructuralError):
        ConstantTerm("http://e/x")


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_extract_produces_one_tuple_per_row():
    sigma = csv_sigma(**{"t.csv": "a,b\n1,x\n2,y\n"})
    spec = csv_extract("t.csv", "a", "b")
    assert spec.attrs == {"a", "b"}
    assert tuple_set(*algebra._extract(spec, sigma, set())) == tuple_set(
        {"a": Literal("1"), "b": Literal("x")},
        {"a": Literal("2"), "b": Literal("y")},
    )


def test_extract_set_semantics_collapses_duplicate_rows():
    sigma = csv_sigma(**{"t.csv": "a\nv\nv\n"})
    rows = algebra._extract(csv_extract("t.csv", "a"), sigma, set())
    assert tuple_set(*rows) == tuple_set({"a": Literal("v")})


def test_extract_with_no_selectors_yields_one_empty_tuple():
    sigma = csv_sigma(**{"t.csv": "a\n1\n2\n"})
    spec = csv_extract("t.csv")
    assert spec.attrs == frozenset()
    assert tuple_set(*algebra._extract(spec, sigma, set())) == tuple_set({})


def test_extract_missing_column_drops_rows_and_warns_once(caplog):
    # once per evaluation call: three rows give one warning, and a second
    # call over the same source and selector warns again
    sigma = csv_sigma(**{"t.csv": "a\n1\n2\n3\n"})
    spec = csv_extract("t.csv", selectors={"x": "nope", "a": "a"})
    with caplog.at_level(logging.WARNING, logger="rmlprune.algebra"):
        rows = list(algebra._extract(spec, sigma, set()))
        assert len([r for r in caplog.records if "nope" in r.getMessage()]) == 1
        list(algebra._extract(spec, sigma, set()))
    assert rows == []
    warnings = [r for r in caplog.records if "nope" in r.getMessage()]
    assert len(warnings) == 2


def test_extract_missing_column_of_a_header_only_table_warns_once(caplog):
    sigma = csv_sigma(**{"t.csv": "a\n"})
    spec = csv_extract("t.csv", selectors={"x": "nope", "a": "a"})
    with caplog.at_level(logging.WARNING, logger="rmlprune.algebra"):
        assert list(algebra._extract(spec, sigma, set())) == []
    assert len([r for r in caplog.records if "nope" in r.getMessage()]) == 1


def test_extract_unbound_source_reference():
    with pytest.raises(SourceInputError):
        list(algebra._extract(csv_extract("absent.csv", "a"), {}, set()))


def test_extract_wrong_source_kind():
    sigma = {"t.csv": DataObject(kind="other", payload=None)}
    with pytest.raises(SourceInputError):
        list(algebra._extract(csv_extract("t.csv", "a"), sigma, set()))


# ---------------------------------------------------------------------------
# triples-map expressions
# ---------------------------------------------------------------------------


def simple_trmap(source="t.csv", provenance="tm#pom0") -> TriplesMapExpr:
    return TriplesMapExpr(
        subject_expr=BuildIri(
            TemplateConcat((TextPart("http://e.com/s/"), AttrRef("id"))), BASE
        ),
        predicate_expr=ConstantTerm(Iri("http://e.com/name")),
        object_expr=BuildLiteral(AttrRef("name"), XSD_STRING),
        extract=csv_extract(source, "id", "name"),
        provenance=provenance,
    )


def joined_trmap(join_conditions=(("b", "c@p"),)) -> TriplesMapExpr:
    return TriplesMapExpr(
        subject_expr=BuildIri(
            TemplateConcat((TextPart("http://e.com/s/"), AttrRef("a"))), BASE
        ),
        predicate_expr=ConstantTerm(Iri("http://e.com/link")),
        object_expr=BuildIri(
            TemplateConcat((TextPart("http://e.com/o/"), AttrRef("d@p"))), BASE
        ),
        extract=csv_extract("child.csv", "a", "b"),
        parent_extract=csv_extract(
            "parent.csv", selectors={"c@p": "c", "d@p": "d"}
        ),
        join_conditions=join_conditions,
        provenance="tm#pom1",
    )


def test_trmap_validates_attribute_scope():
    with pytest.raises(StructuralError, match="subject"):
        TriplesMapExpr(
            subject_expr=BuildIri(AttrRef("missing"), BASE),
            predicate_expr=ConstantTerm(Iri("http://e.com/p")),
            object_expr=ConstantTerm(Literal("v")),
            extract=csv_extract("t.csv", "id"),
        )
    with pytest.raises(StructuralError, match="object"):
        TriplesMapExpr(
            subject_expr=BuildIri(AttrRef("id"), BASE),
            predicate_expr=ConstantTerm(Iri("http://e.com/p")),
            object_expr=BuildLiteral(AttrRef("missing"), XSD_STRING),
            extract=csv_extract("t.csv", "id"),
        )


def test_trmap_join_validation():
    child = csv_extract("c.csv", "a")
    parent_clash = csv_extract("p.csv", "a")
    parent_ok = csv_extract("p.csv", selectors={"x@p": "x"})
    common = dict(
        subject_expr=BuildIri(AttrRef("a"), BASE),
        predicate_expr=ConstantTerm(Iri("http://e.com/p")),
        extract=child,
    )
    with pytest.raises(StructuralError, match="share"):
        TriplesMapExpr(
            object_expr=ConstantTerm(Iri("http://e.com/o")),
            parent_extract=parent_clash,
            join_conditions=(("a", "a"),),
            **common,
        )
    with pytest.raises(StructuralError, match="join condition"):
        TriplesMapExpr(
            object_expr=ConstantTerm(Iri("http://e.com/o")),
            parent_extract=parent_ok,
            join_conditions=(("a", "nope"),),
            **common,
        )
    with pytest.raises(StructuralError, match="literal"):
        TriplesMapExpr(
            object_expr=BuildLiteral(AttrRef("x@p"), XSD_STRING),
            parent_extract=parent_ok,
            join_conditions=(("a", "x@p"),),
            **common,
        )
    with pytest.raises(StructuralError, match="literal"):
        TriplesMapExpr(
            object_expr=ConstantTerm(Literal("v")),
            parent_extract=parent_ok,
            join_conditions=(("a", "x@p"),),
            **common,
        )
    with pytest.raises(StructuralError, match="second extraction"):
        TriplesMapExpr(
            object_expr=ConstantTerm(Iri("http://e.com/o")),
            join_conditions=(("a", "x@p"),),
            **common,
        )


def test_joined_object_may_reference_only_the_parent():
    with pytest.raises(StructuralError, match="parent extraction"):
        TriplesMapExpr(
            subject_expr=BuildIri(AttrRef("a"), BASE),
            predicate_expr=ConstantTerm(Iri("http://e.com/p")),
            object_expr=BuildIri(
                TemplateConcat((TextPart("http://e.com/o/"), AttrRef("a"), AttrRef("x@p"))),
                BASE,
            ),
            extract=csv_extract("c.csv", "a"),
            parent_extract=csv_extract("p.csv", selectors={"x@p": "x"}),
            join_conditions=(("a", "x@p"),),
        )


def test_trmap_flags_and_sources():
    tm = simple_trmap()
    assert not tm.is_joined
    assert tm.source_refs() == ("t.csv",)
    jm = joined_trmap()
    assert jm.is_joined
    assert jm.source_refs() == ("child.csv", "parent.csv")


def test_mapping_expr_needs_trmaps():
    with pytest.raises(StructuralError):
        RmlMappingExpr(())


def test_unique_trmaps_dedupes_by_provenance():
    a = simple_trmap(provenance="x")
    b = simple_trmap(provenance="y")
    c = simple_trmap(provenance="x")
    assert unique_trmaps(RmlMappingExpr((a, b, c))) == [a, b]


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def link_triple(s: str, o: str) -> Triple:
    return Triple(Iri(f"http://e.com/s/{s}"), Iri("http://e.com/link"), Iri(f"http://e.com/o/{o}"))


def test_join_without_conditions_is_cross_product():
    sigma = csv_sigma(
        **{"child.csv": "a,b\n1,x\n2,y\n", "parent.csv": "c,d\nx,P1\nz,P2\n"}
    )
    assert materialize_trmap(joined_trmap(()), sigma).triples == {
        link_triple(s, o) for s in ("1", "2") for o in ("P1", "P2")
    }


def test_join_on_condition_matches_equal_values():
    sigma = csv_sigma(
        **{
            "child.csv": "a,b\n1,x\n2,y\n3,x\n",
            "parent.csv": "c,d\nx,P1\nz,P2\nx,P3\n",
        }
    )
    assert materialize_trmap(joined_trmap(), sigma).triples == {
        link_triple(s, o) for s in ("1", "3") for o in ("P1", "P3")
    }


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def test_materialize_simple_golden():
    sigma = csv_sigma(**{"t.csv": "id,name\n7,Alpha\n8,Beta\n"})
    m = RmlMappingExpr((simple_trmap(),))
    g = materialize(m, sigma)
    name = Iri("http://e.com/name")
    assert g.triples == frozenset(
        {
            Triple(Iri("http://e.com/s/7"), name, Literal("Alpha")),
            Triple(Iri("http://e.com/s/8"), name, Literal("Beta")),
        }
    )


def test_materialize_drops_invalid_iris():
    sigma = csv_sigma(**{"t.csv": "id,name\na b,Alpha\n"})
    g = materialize(RmlMappingExpr((simple_trmap(),)), sigma)
    assert g.triples == frozenset()


def test_materialize_joined_golden():
    sigma = csv_sigma(
        **{"child.csv": "a,b\n1,x\n2,y\n", "parent.csv": "c,d\nx,P1\nz,P2\n"}
    )
    g = materialize(RmlMappingExpr((joined_trmap(),)), sigma)
    assert g.triples == frozenset(
        {
            Triple(
                Iri("http://e.com/s/1"),
                Iri("http://e.com/link"),
                Iri("http://e.com/o/P1"),
            )
        }
    )


def test_materialize_is_union_of_trmap_graphs():
    sigma = csv_sigma(
        **{
            "t.csv": "id,name\n7,Alpha\n",
            "child.csv": "a,b\n1,x\n",
            "parent.csv": "c,d\nx,P1\n",
        }
    )
    m = RmlMappingExpr((simple_trmap(), joined_trmap()))
    combined = materialize(m, sigma)
    per_trmap = set()
    for tm in m.trmaps:
        per_trmap |= materialize_trmap(tm, sigma).triples
    assert combined.triples == per_trmap


def test_materialize_checks_sources_up_front():
    m = RmlMappingExpr((simple_trmap(),))
    assert not valid_input({}, m)
    with pytest.raises(SourceInputError):
        materialize(m, {})


def test_wide_mapping_evaluates_without_recursion():
    # a union of 5,000 expressions must not hit the recursion limit
    mapping = randgen.wide_mapping(random.Random(1), 5000)
    tables = {f"w{i}.csv": ["c0", "c1", "c2"] for i in range(9)}
    instance = randgen.RandomInstance(mapping, {}, tables, allow_empty=False)
    sigma = randgen.fresh_sigma(instance, random.Random(2))
    graph = materialize(mapping, sigma)
    per_trmap = set()
    for tm in mapping.trmaps:
        per_trmap |= materialize_trmap(tm, sigma).triples
    assert graph.triples == per_trmap
    assert len(graph) > 5000
    text = dump_plan(mapping.plan())
    assert text.count("(project [@s @p @o]") == 5000
    assert text.count("(union") == 1


def test_join_streams_each_distinct_parent_tuple_once(monkeypatch):
    calls = []
    real_extend = algebra.evaluate_extend

    def counting_extend(expr, tup):
        calls.append(tup)
        return real_extend(expr, tup)

    monkeypatch.setattr(algebra, "evaluate_extend", counting_extend)
    sigma = csv_sigma(
        **{"child.csv": "a,b\n1,x\n", "parent.csv": "c,d\nx,P\nx,P\nx,Q\n"}
    )
    graph = materialize_trmap(joined_trmap(), sigma)
    assert graph.triples == {link_triple("1", "P"), link_triple("1", "Q")}
    # the repeated parent row "x,P" builds its object once
    assert sorted(t["d@p"].lex for t in calls if "d@p" in t) == ["P", "Q"]


def test_dump_plan_renders_operators():
    text = dump_plan(RmlMappingExpr((simple_trmap(), joined_trmap())).plan())
    assert "(union" in text
    assert "(project [@s @p @o]" in text
    assert "(extend @s" in text
    assert "(join [b=c@p]" in text
    assert "(extract source='t.csv'" in text
    assert "(to-literal (attr \"name\")" in text
    # a single expression is its projection, with no union around it
    assert dump_plan(RmlMappingExpr((simple_trmap(),)).plan()).startswith("(project")


def test_dump_plan_escapes_names_and_texts():
    # quotes, backslashes and newlines in texts, names and constants must
    # neither end a quoted field nor split a line
    quoted = TriplesMapExpr(
        subject_expr=BuildIri(
            TemplateConcat((TextPart('say "'), AttrRef("x\ny"), TextPart('"\n'))), BASE
        ),
        predicate_expr=ConstantTerm(Iri("http://e.com/p")),
        object_expr=ConstantTerm(Literal('a"b\nc')),
        extract=csv_extract("t\n.csv", selectors={"x\ny": "col\\\n"}),
    )
    joined = TriplesMapExpr(
        subject_expr=BuildIri(AttrRef("a\n"), BASE),
        predicate_expr=ConstantTerm(Iri("http://e.com/p")),
        object_expr=BuildIri(AttrRef("k\n@p"), BASE),
        extract=csv_extract("c.csv", "a\n"),
        parent_extract=csv_extract("p.csv", selectors={"k\n@p": "k\n"}),
        join_conditions=(("a\n", "k\n@p"),),
    )
    text = dump_plan(RmlMappingExpr((quoted, joined)).plan())
    lines = text.split("\n")
    assert len(lines) == 13  # union + 5 operators + 7 operators
    for line in lines:
        assert line.lstrip(" ").startswith("("), line
    assert '(concat (text "say \\"") (attr "x\\ny") (text "\\"\\n"))' in text
    assert '(const "a\\"b\\nc")' in text
    assert "[x\\ny<-col\\\\\\n]" in text
    assert "(join [a\\n=k\\n@p]" in text
