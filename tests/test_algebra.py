"""Templates, term constructors, extraction, triples-map
evaluation and the printed plan.

The one-pass ``materialize`` is checked against the reference evaluator in
``tests/helpers.py``, which evaluates each expression on its own over a
dict of literals per row.
"""

import logging
import random
from dataclasses import replace

import pytest

from rmlprune import algebra
from rmlprune.algebra import (
    EPSILON,
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    DataObject,
    ExtractSpec,
    RmlMappingExpr,
    Template,
    TriplesMapExpr,
    dump_plan,
    materialize,
    materialize_trmap,
    resolve_iri,
    string_to_bnode,
)
from rmlprune.csvsource import CSV_KIND, CsvTable, parse_csv
from rmlprune.errors import SourceInputError, StructuralError
from rmlprune.gendata import generate
from rmlprune.rdf import (
    XSD_DOUBLE,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    RdfGraph,
    Triple,
)
from rmlprune.rml import parse_rml, translate

from . import randgen
from .helpers import (
    evaluate_extend,
    evaluate_template,
    ref,
    reference_materialize,
    trmap_values,
    unique_trmaps,
    valid_input,
)

BASE = "http://example.com/base/"


def csv_sigma(**files: str) -> dict[str, DataObject]:
    return {
        name: DataObject(kind=CSV_KIND, payload=parse_csv(text))
        for name, text in files.items()
    }


def csv_extract(source: str, *attrs: str, selectors: dict | None = None) -> ExtractSpec:
    return ExtractSpec(
        source_ref=source,
        selectors=selectors if selectors is not None else {a: a for a in attrs},
    )


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parts", [(), ("a", "b"), ("http://e/", "a", "/", "b")])
def test_template_needs_an_odd_number_of_parts(parts):
    # texts and attributes alternate, text first and last
    with pytest.raises(StructuralError, match="alternates"):
        Template(parts)


@pytest.mark.parametrize("parts", [(None,), ("http://e/", 1, ""), ("", "a", b"x")])
def test_template_parts_must_be_strings(parts):
    with pytest.raises(StructuralError, match="strings"):
        Template(parts)


def test_template_attrs():
    assert Template(("x",)).attrs == frozenset()
    assert ref("a").attrs == {"a"}
    assert Template(("http://e/", "a", "", "b", "/", "a", "")).attrs == {"a", "b"}
    # a list of parts is kept as a tuple, so equal templates hash alike
    assert hash(Template(["", "a", ""])) == hash(ref("a"))


def test_evaluate_template():
    tup = {"a": Literal("42"), "b": EPSILON, "c": Iri("http://e/x")}
    assert evaluate_template(Template(("fixed",)), tup) == "fixed"
    assert evaluate_template(ref("a"), tup) == "42"
    assert evaluate_template(ref("b"), tup) is EPSILON
    # a non-literal value has no lexical form
    assert evaluate_template(ref("c"), tup) is EPSILON
    assert evaluate_template(Template(("v=", "a", "")), tup) == "v=42"
    assert evaluate_template(Template(("", "a", "", "a", "!")), tup) == "4242!"
    assert evaluate_template(Template(("v=", "b", "")), tup) is EPSILON
    with pytest.raises(StructuralError):
        evaluate_template(ref("zz"), tup)


# ---------------------------------------------------------------------------
# term constructors
# ---------------------------------------------------------------------------


def test_extend_attrs():
    assert ConstantTerm(Iri("http://e/x")).attrs == frozenset()
    assert ConstantTerm(BlankNode("b")).attrs == frozenset()
    assert BuildLiteral(ref("a"), XSD_STRING).attrs == {"a"}
    assert BuildIri(ref("a"), BASE).attrs == {"a"}
    assert BuildBlank(Template(("http://e/", "a", "", "b", ""))).attrs == {"a", "b"}


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
    assert evaluate_extend(BuildLiteral(ref("a"), XSD_DOUBLE), tup) == Literal(
        "23.0", XSD_DOUBLE
    )
    assert evaluate_extend(BuildLiteral(ref("bad"), XSD_DOUBLE), tup) is EPSILON
    expr = BuildIri(Template(("http://e/", "a", "")), BASE)
    assert evaluate_extend(expr, tup) == Iri("http://e/23.0")
    assert evaluate_extend(BuildIri(ref("bad"), BASE), tup) is EPSILON


def test_evaluate_extend_bnode_is_stable_and_distinct():
    tup1 = {"a": Literal("x")}
    tup2 = {"a": Literal("y")}
    expr = BuildBlank(ref("a"))
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
        BuildLiteral(ref("a"), "not-an-iri")
    with pytest.raises(StructuralError):
        BuildIri(ref("a"), "not-an-iri")
    with pytest.raises(StructuralError):
        ConstantTerm("http://e/x")


# ---------------------------------------------------------------------------
# extraction: the rows materialize reads from a source
# ---------------------------------------------------------------------------


def rows_trmap(spec: ExtractSpec) -> TriplesMapExpr:
    """An expression with one object per extracted row: "row", then each
    attribute's cell after a "|", in attribute order."""
    parts = ["row"]
    for attr in sorted(spec.selectors):
        parts[-1] += "|"
        parts += [attr, ""]
    body = Template(tuple(parts))
    return TriplesMapExpr(
        subject_expr=ConstantTerm(Iri("http://e.com/s")),
        predicate_expr=ConstantTerm(Iri("http://e.com/row")),
        object_expr=BuildLiteral(body, XSD_STRING),
        extract=spec,
    )


def extracted(spec: ExtractSpec, sigma) -> list[str]:
    """The distinct rows of one extraction, as ``rows_trmap`` spells them."""
    return sorted(t.o.lex for t in materialize_trmap(rows_trmap(spec), sigma))


def missing_column_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "nope" in r.getMessage()]


def test_extract_produces_one_tuple_per_row():
    sigma = csv_sigma(**{"t.csv": "a,b\n1,x\n2,y\n"})
    assert extracted(csv_extract("t.csv", "a", "b"), sigma) == ["row|1|x", "row|2|y"]


def test_extract_set_semantics_collapses_duplicate_rows():
    sigma = csv_sigma(**{"t.csv": "a\nv\nv\n"})
    assert extracted(csv_extract("t.csv", "a"), sigma) == ["row|v"]


def test_extract_with_no_selectors_yields_one_empty_tuple():
    sigma = csv_sigma(**{"t.csv": "a\n1\n2\n"})
    assert extracted(csv_extract("t.csv"), sigma) == ["row"]
    assert extracted(csv_extract("t.csv"), csv_sigma(**{"t.csv": "a\n"})) == []


def test_extract_missing_column_drops_rows_and_warns_once(caplog):
    # once per evaluation call: three rows and two expressions over the
    # missing column give one warning, and a second call warns again
    sigma = csv_sigma(**{"t.csv": "a\n1\n2\n3\n"})
    spec = csv_extract("t.csv", selectors={"x": "nope", "a": "a"})
    other = replace(rows_trmap(spec), predicate_expr=ConstantTerm(Iri("http://e.com/other")))
    m = RmlMappingExpr((rows_trmap(spec), other, rows_trmap(csv_extract("t.csv", "a"))))
    with caplog.at_level(logging.WARNING, logger="rmlprune.algebra"):
        graph = materialize(m, sigma)
        assert len(missing_column_warnings(caplog)) == 1
        materialize(m, sigma)
    # only the expression that reads no missing column keeps its rows
    assert sorted(t.o.lex for t in graph) == ["row|1", "row|2", "row|3"]
    assert len(missing_column_warnings(caplog)) == 2


def test_extract_missing_column_of_a_header_only_table_warns_once(caplog):
    sigma = csv_sigma(**{"t.csv": "a\n"})
    spec = csv_extract("t.csv", selectors={"x": "nope", "a": "a"})
    with caplog.at_level(logging.WARNING, logger="rmlprune.algebra"):
        assert extracted(spec, sigma) == []
    assert len(missing_column_warnings(caplog)) == 1


def test_extract_unbound_source_reference():
    with pytest.raises(SourceInputError):
        extracted(csv_extract("absent.csv", "a"), {})


def test_extract_wrong_source_kind():
    sigma = {"t.csv": DataObject(kind="other", payload=None)}
    with pytest.raises(SourceInputError):
        extracted(csv_extract("t.csv", "a"), sigma)


# ---------------------------------------------------------------------------
# triples-map expressions
# ---------------------------------------------------------------------------


def simple_trmap(source="t.csv", provenance="tm#pom0") -> TriplesMapExpr:
    return TriplesMapExpr(
        subject_expr=BuildIri(
            Template(("http://e.com/s/", "id", "")), BASE
        ),
        predicate_expr=ConstantTerm(Iri("http://e.com/name")),
        object_expr=BuildLiteral(ref("name"), XSD_STRING),
        extract=csv_extract(source, "id", "name"),
        provenance=provenance,
    )


def joined_trmap(join_conditions=(("b", "c@p"),)) -> TriplesMapExpr:
    return TriplesMapExpr(
        subject_expr=BuildIri(
            Template(("http://e.com/s/", "a", "")), BASE
        ),
        predicate_expr=ConstantTerm(Iri("http://e.com/link")),
        object_expr=BuildIri(
            Template(("http://e.com/o/", "d@p", "")), BASE
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
            subject_expr=BuildIri(ref("missing"), BASE),
            predicate_expr=ConstantTerm(Iri("http://e.com/p")),
            object_expr=ConstantTerm(Literal("v")),
            extract=csv_extract("t.csv", "id"),
        )
    with pytest.raises(StructuralError, match="object"):
        TriplesMapExpr(
            subject_expr=BuildIri(ref("id"), BASE),
            predicate_expr=ConstantTerm(Iri("http://e.com/p")),
            object_expr=BuildLiteral(ref("missing"), XSD_STRING),
            extract=csv_extract("t.csv", "id"),
        )


def test_trmap_join_validation():
    child = csv_extract("c.csv", "a")
    parent_clash = csv_extract("p.csv", "a")
    parent_ok = csv_extract("p.csv", selectors={"x@p": "x"})
    common = dict(
        subject_expr=BuildIri(ref("a"), BASE),
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
            object_expr=BuildLiteral(ref("x@p"), XSD_STRING),
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
            subject_expr=BuildIri(ref("a"), BASE),
            predicate_expr=ConstantTerm(Iri("http://e.com/p")),
            object_expr=BuildIri(
                Template(("http://e.com/o/", "a", "", "x@p", "")),
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


# an empty cell is NULL (R2RML §11): a constructor that reads one builds no term
NULL_READERS = {
    "bare reference": BuildLiteral(ref("v"), XSD_STRING),
    "one-attribute IRI template": BuildIri(Template(("http://e.com/z/", "v", "")), BASE),
    "two-attribute template, one side empty": BuildIri(
        Template(("http://e.com/z/", "w", "-", "v", "")), BASE
    ),
    "blank-node template": BuildBlank(ref("v")),
}


@pytest.mark.parametrize("obj", NULL_READERS.values(), ids=list(NULL_READERS))
def test_an_empty_cell_builds_no_term(obj):
    sigma = csv_sigma(**{"t.csv": "id,v,w\n1,,x\n2,y,x\n"})
    tm = TriplesMapExpr(
        subject_expr=BuildIri(Template(("http://e.com/s/", "id", "")), BASE),
        predicate_expr=ConstantTerm(Iri("http://e.com/p")),
        object_expr=obj,
        extract=csv_extract("t.csv", "id", "v", "w"),
    )
    graph = materialize_trmap(tm, sigma)
    assert [t.s for t in graph] == [Iri("http://e.com/s/2")]
    assert graph.triples == reference_materialize(RmlMappingExpr((tm,)), sigma).triples


def test_an_empty_subject_or_predicate_cell_drops_the_triple():
    sigma = csv_sigma(**{"t.csv": "id,p\n,a\n1,\n2,b\n"})
    tm = TriplesMapExpr(
        subject_expr=BuildIri(Template(("http://e.com/s/", "id", "")), BASE),
        predicate_expr=BuildIri(Template(("http://e.com/", "p", "")), BASE),
        object_expr=ConstantTerm(Literal("o")),
        extract=csv_extract("t.csv", "id", "p"),
    )
    graph = materialize_trmap(tm, sigma)
    assert graph.triples == {Triple(Iri("http://e.com/s/2"), Iri("http://e.com/b"), Literal("o"))}
    assert graph.triples == reference_materialize(RmlMappingExpr((tm,)), sigma).triples


@pytest.mark.parametrize(
    "conditions", [(("b", "c@p"),), (("a", "d@p"), ("b", "c@p"))], ids=["one", "two"]
)
def test_an_empty_join_cell_joins_nothing(conditions):
    # child 1 and parent 1 are equal on every condition, "" = "" included
    sigma = csv_sigma(**{"child.csv": "a,b\n1,\n2,x\n", "parent.csv": "c,d\n,1\nx,2\n"})
    tm = joined_trmap(conditions)
    graph = materialize_trmap(tm, sigma)
    assert graph.triples == {link_triple("2", "2")}
    assert graph.triples == reference_materialize(RmlMappingExpr((tm,)), sigma).triples


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
    assert graph.triples == reference_materialize(mapping, sigma).triples
    assert len(graph) > 5000
    text = dump_plan(mapping)
    assert text.count("(project [@s @p @o]") == 5000
    assert text.count("(union") == 1


def test_join_streams_each_distinct_parent_tuple_once(monkeypatch):
    calls = []
    real_compile = algebra._compile

    def counting_compile(expr, *args):
        build = real_compile(expr, *args)

        def counted(row):
            calls.append((expr, row))
            return build(row)

        return counted

    monkeypatch.setattr(algebra, "_compile", counting_compile)
    sigma = csv_sigma(
        **{"child.csv": "a,b\n1,x\n", "parent.csv": "c,d\nx,P\nx,P\nx,Q\n"}
    )
    tm = joined_trmap()
    graph = materialize_trmap(tm, sigma)
    assert graph.triples == {link_triple("1", "P"), link_triple("1", "Q")}
    # the repeated parent row "x,P" builds its object once
    assert sorted(row for expr, row in calls if expr is tm.object_expr) == [("x", "P"), ("x", "Q")]


def test_dump_plan_renders_operators():
    text = dump_plan(RmlMappingExpr((simple_trmap(), joined_trmap())))
    assert "(union" in text
    assert "(project [@s @p @o]" in text
    assert "(extend @s" in text
    assert "(join [b=c@p]" in text
    assert "(extract source='t.csv'" in text
    assert "(to-literal (attr \"name\")" in text
    # a single expression is its projection, with no union around it
    assert dump_plan(RmlMappingExpr((simple_trmap(),))).startswith("(project")


def test_dump_plan_of_one_expression():
    # the form the benchmark keys its per-expression graphs by; plan() is
    # the identity it still calls
    tm = simple_trmap()
    assert tm.plan() is tm
    assert dump_plan(tm) == (
        '(extend @o (to-literal (attr "name") <http://www.w3.org/2001/XMLSchema#string>)\n'
        "  (extend @p (const <http://e.com/name>)\n"
        '    (extend @s (to-iri (concat (text "http://e.com/s/") (attr "id")) base=<http://example.com/base/>)\n'
        "      (extract source='t.csv' [id<-id, name<-name]))))"
    )
    # a mapping of one expression projects it, one level deeper
    indented = "\n".join("  " + line for line in dump_plan(tm).split("\n"))
    assert dump_plan(RmlMappingExpr((tm,))) == f"(project [@s @p @o]\n{indented})"


def test_dump_plan_of_a_join_without_conditions():
    assert dump_plan(joined_trmap(join_conditions=())) == (
        '(extend @o (to-iri (concat (text "http://e.com/o/") (attr "d@p")) base=<http://example.com/base/>)\n'
        "  (join []\n"
        "    (extend @p (const <http://e.com/link>)\n"
        '      (extend @s (to-iri (concat (text "http://e.com/s/") (attr "a")) base=<http://example.com/base/>)\n'
        "        (extract source='child.csv' [a<-a, b<-b])))\n"
        "    (extract source='parent.csv' [c@p<-c, d@p<-d])))"
    )


@pytest.mark.parametrize(
    "parts, printed",
    [
        (("",), '(text "")'),
        (("x",), '(text "x")'),
        (("", "a", ""), '(attr "a")'),
        (("", "a", "", "b", ""), '(concat (attr "a") (attr "b"))'),
        (("x", "a", ""), '(concat (text "x") (attr "a"))'),
        (("", "a", "y"), '(concat (attr "a") (text "y"))'),
    ],
)
def test_dump_plan_prints_non_empty_texts_and_every_attribute(parts, printed):
    tm = TriplesMapExpr(
        subject_expr=ConstantTerm(Iri("http://e.com/s")),
        predicate_expr=ConstantTerm(Iri("http://e.com/p")),
        object_expr=BuildLiteral(Template(parts), XSD_STRING),
        extract=csv_extract("t.csv", "a", "b"),
    )
    assert dump_plan(tm).startswith(f"(extend @o (to-literal {printed} <{XSD_STRING}>)\n")


def test_dump_plan_escapes_names_and_texts():
    # quotes, backslashes and newlines in texts, names and constants must
    # neither end a quoted field nor split a line
    quoted = TriplesMapExpr(
        subject_expr=BuildIri(
            Template(('say "', "x\ny", '"\n')), BASE
        ),
        predicate_expr=ConstantTerm(Iri("http://e.com/p")),
        object_expr=ConstantTerm(Literal('a"b\nc')),
        extract=csv_extract("t\n.csv", selectors={"x\ny": "col\\\n"}),
    )
    joined = TriplesMapExpr(
        subject_expr=BuildIri(ref("a\n"), BASE),
        predicate_expr=ConstantTerm(Iri("http://e.com/p")),
        object_expr=BuildIri(ref("k\n@p"), BASE),
        extract=csv_extract("c.csv", "a\n"),
        parent_extract=csv_extract("p.csv", selectors={"k\n@p": "k\n"}),
        join_conditions=(("a\n", "k\n@p"),),
    )
    text = dump_plan(RmlMappingExpr((quoted, joined)))
    lines = text.split("\n")
    assert len(lines) == 13  # union + 5 operators + 7 operators
    for line in lines:
        assert line.lstrip(" ").startswith("("), line
    assert '(concat (text "say \\"") (attr "x\\ny") (text "\\"\\n"))' in text
    assert '(const "a\\"b\\nc")' in text
    assert "[x\\ny<-col\\\\\\n]" in text
    assert "(join [a\\n=k\\n@p]" in text


# ---------------------------------------------------------------------------
# the one-pass materialize against the reference evaluator
# ---------------------------------------------------------------------------

# the text of the RML template "\{x\}\{0[1]\}\{": a format string that did
# not double its braces would read a field here
BRACES = "{x}{0[1]}{"


def vary(tm: TriplesMapExpr, rng: random.Random) -> TriplesMapExpr:
    """*tm*, or at random a variant: its join conditions dropped, one of
    its selectors naming a missing column or another column (so a subject
    constructor shared with other expressions reads other cells), or an
    object whose template text holds braces (as an IRI it is invalid, so
    EPSILON)."""
    roll = rng.random()
    attr = rng.choice(sorted(tm.subject_expr.attrs or tm.extract.selectors))
    if roll < 0.3 and tm.parent_extract is not None:
        return replace(tm, join_conditions=())
    if roll < 0.55:
        column = "missing" if roll < 0.4 else rng.choice(sorted(tm.extract.selectors.values()))
        selectors = {**tm.extract.selectors, attr: column}
        return replace(tm, extract=ExtractSpec(tm.extract.source_ref, selectors))
    if roll < 0.8 and tm.parent_extract is None:
        body = Template((BRACES, attr, "}"))
        obj = rng.choice([BuildLiteral(body, XSD_STRING), BuildBlank(body), BuildIri(body, BASE)])
        return replace(tm, object_expr=obj)
    return tm


def doubled(sigma: dict[str, DataObject]) -> dict[str, DataObject]:
    """Every table with each of its rows twice: duplicate parent rows."""
    return {
        ref: DataObject(kind=CSV_KIND, payload=CsvTable(data.payload.header, data.payload.rows * 2))
        for ref, data in sigma.items()
    }


def check_against_reference(m: RmlMappingExpr, sigma, caplog) -> set[tuple[str, str]]:
    """Assert that materialize gives the reference graph and warns once for
    each (source, selector) pair the reference drops; returns the pairs."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rmlprune.algebra"):
        graph = materialize(m, sigma)
    warned: set[tuple[str, str]] = set()
    assert graph.triples == reference_materialize(m, sigma, warned).triples
    logged = [(r.args[1], r.args[0]) for r in caplog.records if "matches nothing" in r.getMessage()]
    assert sorted(logged) == sorted(warned)
    return warned


def test_materialize_matches_reference_on_random_instances(caplog):
    cases = ("join without conditions", "duplicate parent rows", "missing column", "empty cell", "EPSILON")
    seen = dict.fromkeys(cases, 0)
    for seed in range(150):
        inst = randgen.make_instance(seed, allow_empty=seed % 3 == 2)
        rng = random.Random(seed)
        varied = RmlMappingExpr(tuple(vary(tm, rng) for tm in inst.mapping.trmaps))
        check_against_reference(inst.mapping, inst.sigma, caplog)
        check_against_reference(inst.mapping, doubled(inst.sigma), caplog)
        seen["missing column"] += bool(check_against_reference(varied, inst.sigma, caplog))
        joined = [tm for tm in varied.trmaps if tm.is_joined]
        seen["join without conditions"] += any(not tm.join_conditions for tm in joined)
        seen["duplicate parent rows"] += bool(joined)
        seen["empty cell"] += any("" in row for data in inst.sigma.values() for row in data.payload.rows)
        seen["EPSILON"] += any(
            EPSILON in values for tm in varied.trmaps for values in trmap_values(tm, inst.sigma, set())
        )
    assert all(seen.values()), seen


def test_materialize_constructs_no_triple(tmp_path, monkeypatch):
    # the graph files each (subject, object) pair under its predicate; a
    # Triple exists only when a caller iterates the graph
    generate(tmp_path, scale=1, seed=42)
    sigma = {
        name: DataObject(kind=CSV_KIND, payload=parse_csv((tmp_path / name).read_bytes()))
        for name in ("stops.csv", "routes.csv", "shapes.csv")
    }
    mapping = translate(parse_rml((tmp_path / "mapping.ttl").read_bytes()))
    built = []
    init = Triple.__init__
    monkeypatch.setattr(Triple, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    graph = materialize(mapping, sigma)
    assert len(graph) == 1570
    assert not built
    assert len(graph.triples) == len(built) == 1570  # the count sees every Triple


def test_escaped_braces_in_an_rml_template_stay_text(caplog):
    doc = parse_rml(
        "@prefix rml: <http://w3id.org/rml/> .\n"
        "<http://e.com/tm> rml:logicalSource [ rml:source \"t.csv\" ; rml:referenceFormulation rml:CSV ] ;\n"
        "  rml:subjectMap [ rml:template \"http://e.com/s/{id}\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate <http://e.com/p> ;\n"
        "    rml:objectMap [ rml:template \"\\\\{x\\\\}\\\\{0[0]\\\\}{v}\" ; rml:termType rml:Literal ] ] .\n"
    )
    sigma = csv_sigma(**{"t.csv": "id,v\n7,a\n8,{id}\n"})
    m = translate(doc)
    check_against_reference(m, sigma, caplog)
    assert sorted(t.o.lex for t in materialize(m, sigma)) == ["{x}{0[0]}a", "{x}{0[0]}{id}"]
