"""RML documents: parsing into normal form, translation, serialization."""

import hashlib
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmlprune.algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    DataObject,
    Template,
    dump_plan,
    materialize,
)
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.errors import MappingModelError
from rmlprune.gendata import MAPPING_TTL, QUERIES
from rmlprune.pruning import FullyPruned, prune
from rmlprune.rdf import RDF_TYPE, XSD_DOUBLE, XSD_INTEGER, XSD_STRING, Iri, Literal, Triple
from rmlprune.rml import (
    DEFAULT_BASE_IRI,
    RmlDocument,
    normalize,
    parse_rml,
    parse_template,
    serialize_pruned,
    translate,
)
from rmlprune.sparql import collect_triple_patterns, parse_query

from .helpers import perfbench_corpus, ref, wide_mapping_text

EX = "http://example.com/ns#"
GTFS = "http://vocab.gtfs.org/terms#"

LEGACY_HEADER = (
    "@prefix rr: <http://www.w3.org/ns/r2rml#> .\n"
    "@prefix rml: <http://semweb.mmlab.be/ns/rml#> .\n"
    "@prefix ql: <http://semweb.mmlab.be/ns/ql#> .\n"
    "@prefix ex: <http://example.com/ns#> .\n"
)
NEW_HEADER = (
    "@prefix rml: <http://w3id.org/rml/> .\n"
    "@prefix ex: <http://example.com/ns#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


def test_parse_template_text_and_refs():
    assert parse_template("http://e/{id}/x") == ("http://e/", "id", "/x")
    assert parse_template("{only}") == ("", "only", "")
    assert parse_template("{a}{b}") == ("", "a", "", "b", "")
    assert parse_template("plain") == ("plain",)
    assert parse_template("") == ("",)


def test_parse_template_escapes():
    assert parse_template(r"a\{b\}c") == ("a{b}c",)
    assert parse_template(r"a\\{r}") == ("a\\", "r", "")


@pytest.mark.parametrize("bad", ["{unclosed", "closed}", "{}", "{a{b}}", "end\\"])
def test_parse_template_errors(bad):
    with pytest.raises(MappingModelError):
        parse_template(bad)


def parse_template_by_character(template: str) -> tuple[str, ...]:
    """The character-by-character template scanner that parse_template
    replaced, kept as its oracle: texts alternating with placeholder
    names, text first and last."""
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    n = len(template)
    while i < n:
        ch = template[i]
        if ch == "\\":
            if i + 1 >= n:
                raise MappingModelError(f"dangling escape at end of template {template!r}")
            buf.append(template[i + 1])
            i += 2
        elif ch == "{":
            j = i + 1
            name: list[str] = []
            while j < n and template[j] != "}":
                if template[j] in "{\\":
                    raise MappingModelError(
                        f"invalid character {template[j]!r} inside placeholder of "
                        f"template {template!r}"
                    )
                name.append(template[j])
                j += 1
            if j >= n:
                raise MappingModelError(f"unbalanced '{{' in template {template!r}")
            if not name:
                raise MappingModelError(f"empty placeholder in template {template!r}")
            parts += ["".join(buf), "".join(name)]
            buf = []
            i = j + 1
        elif ch == "}":
            raise MappingModelError(f"unbalanced '}}' in template {template!r}")
        else:
            buf.append(ch)
            i += 1
    parts.append("".join(buf))
    return tuple(parts)


def _template_outcome(parse, template):
    try:
        return parse(template)
    except MappingModelError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "template",
    ["{unclosed", "closed}", "{}", "{a{b}}", "{a\\}b}", "end\\", "a\\\nb{c}", "{a}{b}", "x\\}{y}z"],
)
def test_parse_template_matches_the_character_scanner(template):
    assert _template_outcome(parse_template, template) == _template_outcome(
        parse_template_by_character, template
    )


@given(st.text(alphabet=st.sampled_from("ab/\\{}\n é"), max_size=14) | st.text(max_size=10))
def test_parse_template_matches_the_character_scanner_on_any_text(template):
    assert _template_outcome(parse_template, template) == _template_outcome(
        parse_template_by_character, template
    )


# ---------------------------------------------------------------------------
# parsing documents
# ---------------------------------------------------------------------------


def test_parse_airports_document(airports_doc):
    assert isinstance(airports_doc, RmlDocument)
    (tm,) = airports_doc.triples_maps
    assert tm.id == "http://example.com/tm/airports"
    assert tm.source == "airports.csv"
    assert tm.subject_map.kind == "reference"
    assert tm.subject_map.value == "aiport_id"
    assert tm.subject_map.expr == BuildIri(ref("aiport_id"), DEFAULT_BASE_IRI)
    assert [pom.predicate_map.value for pom in tm.poms] == [
        Iri(EX + "route"),
        Iri(GTFS + "long"),
    ]


def test_datatype_alias_spelling_is_accepted(airports_doc):
    (tm,) = airports_doc.triples_maps
    long_pom = tm.poms[1]
    assert long_pom.object_map.expr.datatype == XSD_DOUBLE


def test_parse_requires_a_triples_map():
    with pytest.raises(MappingModelError, match="triples map"):
        parse_rml("@prefix ex: <http://e/> .\nex:s ex:p ex:o .")


def test_parse_rejects_unknown_property():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  ex:bogus ex:x .\n"
    )
    with pytest.raises(MappingModelError, match="unknown property"):
        parse_rml(text)


def test_parse_rejects_graph_maps():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ; rml:graphMap [ rml:constant ex:g ] ] .\n"
    )
    with pytest.raises(MappingModelError, match="graph maps"):
        parse_rml(text)


def test_parse_rejects_non_csv_formulation():
    text = LEGACY_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.json\" ;\n"
        "    rml:referenceFormulation ql:JSONPath ] ;\n"
        "  rr:subjectMap [ rml:reference \"a\" ] .\n"
    )
    with pytest.raises(MappingModelError, match="CSV"):
        parse_rml(text)


def test_parse_rejects_iterator():
    text = LEGACY_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ;\n"
        "    rml:iterator \"$.rows\" ] ;\n"
        "  rr:subjectMap [ rml:reference \"a\" ] .\n"
    )
    with pytest.raises(MappingModelError, match="iterator"):
        parse_rml(text)


def test_parse_rejects_language():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        "    rml:objectMap [ rml:reference \"b\" ; rml:language \"en\" ] ] .\n"
    )
    with pytest.raises(MappingModelError, match="[Ll]anguage"):
        parse_rml(text)


def test_parse_rejects_mixed_term_map_kinds():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ; rml:template \"{a}\" ] .\n"
    )
    with pytest.raises(MappingModelError, match="exactly one"):
        parse_rml(text)


def test_parse_rejects_missing_subject_map():
    text = NEW_HEADER + "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] .\n"
    with pytest.raises(MappingModelError, match="subject map"):
        parse_rml(text)


def test_parse_rejects_join_without_conditions():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        "    rml:objectMap [ rml:parentTriplesMap <http://e/tm> ] ] .\n"
    )
    with pytest.raises(MappingModelError, match="join"):
        parse_rml(text)


def test_parse_warns_on_unreachable_subjects(caplog):
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] .\n"
        "<http://e/orphan> ex:anything ex:else .\n"
    )
    with caplog.at_level(logging.WARNING, logger="rmlprune.rml"):
        parse_rml(text)
    assert any("orphan" in r.getMessage() for r in caplog.records)


def test_parse_column_alias():
    text = LEGACY_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ;\n"
        "    rml:referenceFormulation ql:CSV ] ;\n"
        "  rr:subjectMap [ rr:column \"a\" ; rr:termType rr:IRI ] .\n"
    )
    (tm,) = parse_rml(text).triples_maps
    assert tm.subject_map.kind == "reference"
    assert tm.subject_map.value == "a"


def test_document_base_defaults_when_absent(airports_doc):
    assert airports_doc.base_iri == DEFAULT_BASE_IRI
    text = "@base <http://doc.example/> .\n" + NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] .\n"
    )
    assert parse_rml(text).base_iri == "http://doc.example/"


# ---------------------------------------------------------------------------
# normal form: shortcuts, classes and multi-maps are expanded while parsing
# ---------------------------------------------------------------------------


SHORTCUT_DOC = NEW_HEADER + (
    "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
    "  rml:subjectMap [ rml:template \"http://e/{a}\" ; rml:class ex:T ] ;\n"
    "  rml:predicateObjectMap [\n"
    "    rml:predicate ex:p , ex:q ;\n"
    "    rml:object ex:o1 , \"v\" ;\n"
    "  ] .\n"
)


def test_normalize_expands_shortcuts_classes_and_products():
    (tm,) = parse_rml(SHORTCUT_DOC).triples_maps
    # the class pom first, then 2 predicates x 2 objects, predicate-major
    pairs = [(pom.predicate_map, pom.object_map) for pom in tm.poms]
    assert [(pm.kind, om.kind) for pm, om in pairs] == [("constant", "constant")] * 5
    assert [(pm.value, om.value) for pm, om in pairs] == [
        (Iri(RDF_TYPE), Iri(EX + "T")),
        (Iri(EX + "p"), Iri(EX + "o1")),
        (Iri(EX + "p"), Literal("v")),
        (Iri(EX + "q"), Iri(EX + "o1")),
        (Iri(EX + "q"), Literal("v")),
    ]


def test_maps_come_before_shortcuts_in_the_product():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:template \"http://e/{a}\" ] ;\n"
        "  rml:predicateObjectMap [\n"
        "    rml:predicate ex:p ;\n"
        "    rml:predicateMap [ rml:template \"http://e/p/{b}\" ] ;\n"
        "    rml:object \"v\" ;\n"
        "    rml:objectMap [ rml:reference \"c\" ] ] .\n"
    )
    (tm,) = parse_rml(text).triples_maps
    assert [(pom.predicate_map.value, pom.object_map.value) for pom in tm.poms] == [
        ("http://e/p/{b}", "c"),
        ("http://e/p/{b}", Literal("v")),
        (Iri(EX + "p"), "c"),
        (Iri(EX + "p"), Literal("v")),
    ]


def test_normalize_is_idempotent():
    doc = parse_rml(SHORTCUT_DOC)
    assert normalize(doc) is doc
    assert normalize(normalize(doc)) is doc


def test_subject_shortcut_becomes_constant_map():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subject ex:thing ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    (tm,) = parse_rml(text).triples_maps
    assert tm.subject_map.kind == "constant"
    assert tm.subject_map.value == Iri(EX + "thing")


@pytest.mark.parametrize("subjects", ["ex:a , ex:b", "ex:a ;\n  rml:subject ex:a"])
def test_parse_rejects_several_subject_shortcuts(subjects):
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        f"  rml:subject {subjects} ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    with pytest.raises(MappingModelError, match="has more than one subject"):
        parse_rml(text)


# ---------------------------------------------------------------------------
# the properties each mapping node takes
# ---------------------------------------------------------------------------


def one_triples_map(
    source='rml:source "f.csv"',
    subject='rml:subjectMap [ rml:reference "a" ]',
    pom="rml:predicate ex:p",
    object_map='rml:reference "b"',
):
    """Triples map <http://e/tm> with one predicate-object map, beside a
    parent <http://e/parent> that a join may name."""
    return NEW_HEADER + (
        f"<http://e/tm> rml:logicalSource [ {source} ] ;\n"
        f"  {subject} ;\n"
        f"  rml:predicateObjectMap [ {pom} ; rml:objectMap [ {object_map} ] ] .\n"
        "<http://e/parent> rml:logicalSource [ rml:source \"p.csv\" ] ;\n"
        "  rml:subjectMap [ rml:template \"http://e/p/{id}\" ] .\n"
    )


JOIN = "rml:parentTriplesMap <http://e/parent> ; rml:joinCondition [ {} ]"

# (the property the error names, the document's parts) per once-only
# property stated twice
STATED_TWICE = {
    "source": ("source", {"source": 'rml:source "a.csv", "b.csv"'}),
    "referenceFormulation": (
        "referenceFormulation",
        {"source": 'rml:source "f.csv" ; rml:referenceFormulation rml:CSV, rml:CSV'},
    ),
    "termType": ("termType", {"object_map": 'rml:reference "b" ; rml:termType rml:IRI, rml:Literal'}),
    "datatype": ("datatype", {"object_map": 'rml:reference "b" ; rml:datatype xsd:integer, xsd:double'}),
    "datatType beside datatype": (
        "datatype",
        {"object_map": 'rml:reference "b" ; rml:datatype xsd:integer ; rml:datatType xsd:double'},
    ),
    "parentTriplesMap": (
        "parentTriplesMap",
        {
            "object_map": "rml:parentTriplesMap <http://e/parent>, <http://e/tm> ; "
            'rml:joinCondition [ rml:child "a" ; rml:parent "id" ]'
        },
    ),
    "child": ("child", {"object_map": JOIN.format('rml:child "x", "y" ; rml:parent "id"')}),
    "parent": ("parent", {"object_map": JOIN.format('rml:child "a" ; rml:parent "id", "a"')}),
    "logicalSource": (
        "logicalSource",
        {"subject": 'rml:logicalSource [ rml:source "g.csv" ] ; rml:subjectMap [ rml:reference "a" ]'},
    ),
    "subjectMap": ("subjectMap", {"subject": 'rml:subjectMap [ rml:reference "a" ] , [ rml:reference "c" ]'}),
}


@pytest.mark.parametrize("prop,parts", STATED_TWICE.values(), ids=list(STATED_TWICE))
def test_parse_rejects_a_once_only_property_stated_twice(prop, parts):
    with pytest.raises(MappingModelError, match=f"has more than one {prop}$"):
        parse_rml(one_triples_map(**parts))


# (the property, the node it is misplaced on, the document's parts)
MISPLACED = {
    "class on an object map": (
        "class",
        "object map",
        {"object_map": 'rml:reference "b" ; rml:class ex:C'},
    ),
    "child on a predicate-object map": (
        "child",
        "predicate-object map",
        {"pom": 'rml:predicate ex:p ; rml:child "a"'},
    ),
    "template on a logical source": (
        "template",
        "logical source",
        {"source": 'rml:source "f.csv" ; rml:template "{a}"'},
    ),
    "joinCondition on a term map": (
        "joinCondition",
        "object map",
        {"object_map": 'rml:reference "b" ; rml:joinCondition [ rml:child "a" ; rml:parent "id" ]'},
    ),
    "source on a join condition": (
        "source",
        "join condition",
        {"object_map": JOIN.format('rml:child "a" ; rml:parent "id" ; rml:source "f.csv"')},
    ),
}


@pytest.mark.parametrize("prop,what,parts", MISPLACED.values(), ids=list(MISPLACED))
def test_parse_rejects_a_property_the_node_does_not_take(prop, what, parts):
    # an anonymous node is named by the line its "[" opens on
    line = 4 if what == "logical source" else 6
    message = rf"property '{prop}' does not belong on {what} \[ \] at line {line}$"
    with pytest.raises(MappingModelError, match=message):
        parse_rml(one_triples_map(**parts))


def test_walk_errors_name_a_blank_node_as_the_document_writes_it():
    labeled = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:objectMap _:om ] .\n"
        "_:om rml:reference \"b\" ; rml:class ex:C .\n"
    )
    with pytest.raises(MappingModelError, match="does not belong on object map _:om$"):
        parse_rml(labeled)
    nested = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [\n"
        "    rml:predicate ex:p ;\n"
        "    rml:objectMap [\n"
        "      rml:reference \"b\" ; rml:class ex:C ] ] .\n"
    )
    with pytest.raises(MappingModelError, match=r"does not belong on object map \[ \] at line 8$"):
        parse_rml(nested)
    gone = JOIN.replace("<http://e/parent>", "_:gone").format('rml:child "a" ; rml:parent "id"')
    with pytest.raises(MappingModelError, match="parent triples map _:gone does not exist$"):
        parse_rml(one_triples_map(object_map=gone))


def test_a_collection_is_named_at_the_line_of_its_parenthesis(caplog):
    in_object_map = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        "    rml:objectMap (\n"
        "      \"b\" ) ] .\n"
    )
    with pytest.raises(MappingModelError, match=r"unknown property <\S+#first> on \[ \] at line 7;"):
        parse_rml(in_object_map)
    # every node of a collection opens at its '(', not at its items
    unreachable = one_triples_map() + '( "x"\n  "y" [ ex:p ex:o ]\n) ex:q ex:r .\n'
    with caplog.at_level(logging.WARNING, logger="rmlprune.rml"):
        parse_rml(unreachable)
    line = len(one_triples_map().splitlines()) + 1
    named = [r.getMessage().split(" is not")[0] for r in caplog.records]
    assert named == [f"subject [ ] at line {n}" for n in (line + 1, line, line, line)]


# (the node-valued property given a literal, the document)
LITERAL_FOR_A_NODE = {
    "logicalSource": NEW_HEADER + '<http://e/tm> rml:logicalSource "f.csv" ; rml:subject ex:s .\n',
    "subjectMap": one_triples_map(subject='rml:subjectMap "x"'),
    "predicateObjectMap": one_triples_map(
        subject='rml:subjectMap [ rml:reference "a" ] ; rml:predicateObjectMap "y"'
    ),
    "predicateMap": one_triples_map(pom='rml:predicateMap "p"'),
    "objectMap": one_triples_map(pom='rml:predicate ex:p ; rml:objectMap "o"'),
    "parentTriplesMap": one_triples_map(
        object_map='rml:parentTriplesMap "t" ; rml:joinCondition [ rml:child "a" ; rml:parent "id" ]'
    ),
    "joinCondition": one_triples_map(
        object_map='rml:parentTriplesMap <http://e/parent> ; rml:joinCondition "j"'
    ),
}


@pytest.mark.parametrize("prop,text", LITERAL_FOR_A_NODE.items(), ids=list(LITERAL_FOR_A_NODE))
def test_parse_names_the_property_whose_node_is_a_literal(prop, text):
    with pytest.raises(MappingModelError) as info:
        parse_rml(text)
    message = str(info.value)
    assert message.startswith("triples map <http://e/tm>: ")
    assert f"property '{prop}' must name an IRI or blank node, found \"" in message


# errors on nodes below a triples map, each of which must name it once
BELOW_A_TRIPLES_MAP = {
    "misplaced property": {"object_map": 'rml:reference "b" ; rml:class ex:C'},
    "property stated twice": {"object_map": 'rml:reference "b" ; rml:datatype xsd:integer, xsd:double'},
    "join condition without parent": {"object_map": JOIN.format('rml:child "a"')},
    "unknown property": {"pom": "rml:predicate ex:p ; ex:bogus ex:x"},
    "term-type rule": {"subject": 'rml:subjectMap [ rml:reference "a" ; rml:termType rml:Literal ]'},
    "on the triples map": {"subject": 'rml:subjectMap [ rml:reference "a" ] ; rml:class ex:C'},
}


@pytest.mark.parametrize("parts", BELOW_A_TRIPLES_MAP.values(), ids=list(BELOW_A_TRIPLES_MAP))
def test_a_walk_error_names_its_triples_map_once(parts):
    with pytest.raises(MappingModelError) as info:
        parse_rml(one_triples_map(**parts))
    assert str(info.value).count("<http://e/tm>") == 1


# ---------------------------------------------------------------------------
# term type defaulting
# ---------------------------------------------------------------------------


def test_effective_term_type_defaults():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [\n"
        "    rml:predicateMap [ rml:reference \"p\" ] ;\n"
        "    rml:objectMap [ rml:reference \"a\" ] ,\n"
        "      [ rml:template \"http://e/{a}\" ] ,\n"
        "      [ rml:reference \"a\" ; rml:datatype xsd:double ] ,\n"
        "      [ rml:constant \"v\" ] ,\n"
        "      [ rml:reference \"a\" ; rml:termType rml:BlankNode ] ] .\n"
    )
    (tm,) = parse_rml(text).triples_maps
    a = ref("a")
    # subject and predicate maps build IRIs from a reference
    assert tm.subject_map.expr == BuildIri(a, DEFAULT_BASE_IRI)
    assert tm.poms[0].predicate_map.expr == BuildIri(ref("p"), DEFAULT_BASE_IRI)
    assert [pom.object_map.expr for pom in tm.poms] == [
        BuildLiteral(a, XSD_STRING),  # a reference object builds a literal
        BuildIri(Template(("http://e/", "a", "")), DEFAULT_BASE_IRI),  # a template an IRI
        BuildLiteral(a, XSD_DOUBLE),  # so does a datatyped map
        ConstantTerm(Literal("v")),  # a constant has its term's type
        BuildBlank(a),  # and an explicit term type wins
    ]


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


def test_translate_airports(airports_mapping):
    tms = airports_mapping.trmaps
    assert [tm.provenance for tm in tms] == [
        "http://example.com/tm/airports#pom0",
        "http://example.com/tm/airports#pom1",
    ]
    route, long_ = tms
    assert route.subject_expr == BuildIri(ref("aiport_id"), DEFAULT_BASE_IRI)
    assert route.predicate_expr == ConstantTerm(Iri(EX + "route"))
    assert route.object_expr == BuildIri(
        Template(("http://example.com/route/", "transitRoute", "")), DEFAULT_BASE_IRI
    )
    assert long_.predicate_expr == ConstantTerm(Iri(GTFS + "long"))
    assert long_.object_expr == BuildLiteral(ref("long"), XSD_DOUBLE)
    assert not route.is_joined and not long_.is_joined
    assert route.extract.source_ref == "airports.csv"
    assert set(route.extract.selectors) == {"aiport_id", "transitRoute"}


def test_materialize_airports_golden(airports_mapping, airports_sigma):
    g = materialize(airports_mapping, airports_sigma)
    a1 = Iri("http://transit.example.org/airport/1")
    a2 = Iri("http://transit.example.org/airport/2")
    assert g.triples == frozenset(
        {
            Triple(a1, Iri(EX + "route"), Iri("http://example.com/route/43")),
            Triple(a1, Iri(GTFS + "long"), Literal("23.0", XSD_DOUBLE)),
            Triple(a2, Iri(EX + "route"), Iri("http://example.com/route/57")),
            Triple(a2, Iri(GTFS + "long"), Literal("-8.5", XSD_DOUBLE)),
        }
    )


JOIN_DOC = NEW_HEADER + (
    "<http://e/child> rml:logicalSource [ rml:source \"c.csv\" ] ;\n"
    "  rml:subjectMap [ rml:template \"http://e/c/{id}\" ] ;\n"
    "  rml:predicateObjectMap [ rml:predicate ex:link ;\n"
    "    rml:objectMap [ rml:parentTriplesMap <http://e/parent> ;\n"
    "      rml:joinCondition [ rml:child \"pid\" ; rml:parent \"id\" ] ] ] .\n"
    "<http://e/parent> rml:logicalSource [ rml:source \"p.csv\" ] ;\n"
    "  rml:subjectMap [ rml:template \"http://e/p/{id}\" ] ;\n"
    "  rml:predicateObjectMap [ rml:predicate ex:name ;\n"
    "    rml:objectMap [ rml:reference \"name\" ] ] .\n"
)


def test_translate_joined_renames_parent_attributes():
    m = translate(parse_rml(JOIN_DOC))
    joined = m.trmaps[0]
    assert joined.is_joined
    assert joined.extract.selectors == {"id": "id", "pid": "pid"}
    # the parent also selects "id"; its attribute must not clash
    assert joined.parent_extract.selectors == {"id@parent": "id"}
    assert joined.join_conditions == (("pid", "id@parent"),)
    assert joined.object_expr == BuildIri(Template(("http://e/p/", "id@parent", "")), DEFAULT_BASE_IRI)


def test_translate_joined_materializes(tmp_path):
    m = translate(parse_rml(JOIN_DOC))
    sigma = {
        "c.csv": DataObject(CSV_KIND, parse_csv("id,pid\n1,9\n2,404\n")),
        "p.csv": DataObject(CSV_KIND, parse_csv("id,name\n9,Nine\n")),
    }
    g = materialize(m, sigma)
    assert Triple(Iri("http://e/c/1"), Iri(EX + "link"), Iri("http://e/p/9")) in g.triples
    assert Triple(Iri("http://e/p/9"), Iri(EX + "name"), Literal("Nine")) in g.triples
    assert len(g.triples) == 2  # c/2 finds no parent row


def test_translate_blank_node_term_type():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ; rml:termType rml:BlankNode ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    m = translate(parse_rml(text))
    assert m.trmaps[0].subject_expr == BuildBlank(ref("a"))


def test_translate_rejects_literal_subjects_and_predicates():
    bad_subject = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ; rml:termType rml:Literal ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    with pytest.raises(MappingModelError, match="literal"):
        parse_rml(bad_subject)
    bad_predicate = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [\n"
        "    rml:predicateMap [ rml:reference \"p\" ; rml:termType rml:Literal ] ;\n"
        "    rml:object \"v\" ] .\n"
    )
    with pytest.raises(MappingModelError, match="predicate"):
        parse_rml(bad_predicate)


def test_translate_rejects_datatype_on_non_literal():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        "    rml:objectMap [ rml:template \"http://e/{a}\" ; rml:datatype xsd:double ] ] .\n"
    )
    # template + datatype defaults the term type to literal, which is fine;
    # force IRI to trigger the conflict
    text = text.replace('rml:datatype xsd:double', 'rml:datatype xsd:double ; rml:termType rml:IRI')
    with pytest.raises(MappingModelError, match="datatype"):
        parse_rml(text)


def test_parse_rejects_a_datatype_on_a_constant():
    # the constant builds "7" as an xsd:string, so the datatype would be lost
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        "    rml:objectMap <http://e/om> ] .\n"
        "<http://e/om> rml:constant \"7\" ; rml:datatype xsd:integer .\n"
    )
    with pytest.raises(MappingModelError, match="takes no datatype") as info:
        parse_rml(text)
    message = str(info.value)
    assert f'write the typed literal ("7"^^<{XSD_INTEGER}>) as the constant' in message
    assert "<http://e/om>" in message and "<http://e/tm>" in message


UNCHECKED_SUBJECTS = {
    "literal subject": 'rml:subject "lit"',
    "malformed template": 'rml:subjectMap [ rml:template "{bad" ]',
    "datatype on a subject map": 'rml:subjectMap [ rml:reference "a" ; rml:datatype xsd:integer ]',
}


def without_predicate_object_maps(subject: str) -> str:
    """A document whose second triples map, with *subject*, has no
    predicate-object map, beside one that yields an expression."""
    return NEW_HEADER + (
        "<http://e/ok> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
        "<http://e/bare> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        f"  {subject} .\n"
    )


@pytest.mark.parametrize("subject", UNCHECKED_SUBJECTS.values(), ids=list(UNCHECKED_SUBJECTS))
def test_a_triples_map_without_predicate_object_maps_is_checked(subject):
    with pytest.raises(MappingModelError, match="<http://e/bare>"):
        parse_rml(without_predicate_object_maps(subject))


def test_translate_rejects_missing_parent():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        "    rml:objectMap [ rml:parentTriplesMap <http://e/nowhere> ;\n"
        "      rml:joinCondition [ rml:child \"a\" ; rml:parent \"b\" ] ] ] .\n"
    )
    with pytest.raises(MappingModelError, match="does not exist"):
        translate(parse_rml(text))


# ---------------------------------------------------------------------------
# serialization of pruned documents
# ---------------------------------------------------------------------------


def _shape(m):
    """Structure of a mapping up to attribute renaming and trmap identity."""

    def tshape(body, renaming):
        return tuple(renaming[p] if i % 2 else p for i, p in enumerate(body.parts))

    def eshape(expr, renaming):
        if isinstance(expr, ConstantTerm):
            return ("const", expr.term)
        if isinstance(expr, BuildLiteral):
            return ("lit", tshape(expr.body, renaming), expr.datatype)
        if isinstance(expr, BuildIri):
            return ("iri", tshape(expr.body, renaming), expr.base)
        if isinstance(expr, BuildBlank):
            return ("bnode", tshape(expr.body, renaming))
        return ("cblank",)

    shapes = []
    for tm in m.trmaps:
        renaming = {}
        for spec in (tm.extract, tm.parent_extract):
            if spec is None:
                continue
            for attr in sorted(spec.selectors):
                renaming[attr] = (spec.source_ref, spec.selectors[attr])
        entry = (
            eshape(tm.subject_expr, renaming),
            eshape(tm.predicate_expr, renaming),
            eshape(tm.object_expr, renaming),
            tm.extract.source_ref,
            None if tm.parent_extract is None else tm.parent_extract.source_ref,
            tuple(sorted((renaming[a], renaming[b]) for a, b in tm.join_conditions)),
        )
        shapes.append(entry)
    return sorted(map(repr, shapes))


def test_serialize_pruned_round_trips(airports_doc, airports_mapping):
    text = serialize_pruned(airports_mapping, airports_doc)
    reparsed = translate(parse_rml(text))
    assert _shape(reparsed) == _shape(airports_mapping)


def test_serialize_subset_keeps_only_named_expressions(airports_doc, airports_mapping):
    keep = airports_mapping.trmaps[1:]
    text = serialize_pruned(keep, airports_doc)
    reparsed = translate(parse_rml(text))
    assert len(reparsed.trmaps) == 1
    assert _shape(reparsed) == _shape(type(airports_mapping)(tuple(keep)))
    assert GTFS + "long" in text


def test_serialize_fully_pruned_is_marked(airports_doc):
    text = serialize_pruned((), airports_doc)
    assert "fully pruned" in text
    with pytest.raises(MappingModelError):
        parse_rml(text)  # no triples maps left, by design


def test_serialize_joined_round_trips():
    doc = parse_rml(JOIN_DOC)
    m = translate(doc)
    text = serialize_pruned((m.trmaps[0],), doc)
    reparsed = translate(parse_rml(text))
    (joined,) = reparsed.trmaps
    assert joined.is_joined
    assert _shape(reparsed) == _shape(type(m)((m.trmaps[0],)))


def test_serialize_escapes_constants_and_strings():
    doc = parse_rml(
        NEW_HEADER
        + '<http://e/tm> rml:logicalSource [ rml:source "f\\"1.csv" ] ;\n'
        '  rml:subjectMap [ rml:template "http://e/{a}" ] ;\n'
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        '    rml:object "say \\"hi\\"\\n\\u0001\\\\" , "7"^^xsd:double ] .\n'
    )
    m = translate(doc)
    reparsed = translate(parse_rml(serialize_pruned(m, doc)))
    assert _shape(reparsed) == _shape(m)
    assert {tm.object_expr.term for tm in reparsed.trmaps} == {
        Literal('say "hi"\n\x01\\'),
        Literal("7", XSD_DOUBLE),
    }
    assert reparsed.trmaps[0].extract.source_ref == 'f"1.csv'


def test_serialize_rejects_foreign_expressions(airports_doc):
    other = translate(parse_rml(JOIN_DOC))
    with pytest.raises(MappingModelError, match="document"):
        serialize_pruned((other.trmaps[0],), airports_doc)


@pytest.fixture(scope="module")
def wide():
    """The benchmark's 40-copy corpus mapping, its document and one copy's tag."""
    corpus = perfbench_corpus()
    tags = corpus.copy_tags(40, 1)
    doc = parse_rml(corpus.wide_mapping(tags))
    return corpus, tags[7], doc, translate(doc)


# sha256 and line count of the wide mapping's --dump-algebra plan at seed
# 42; a faster parse or translation must not change a byte of it
WIDE_PLAN = ("2930e920eb30e4676993311635410544fbac61f543bee0624a7061f9805fc3e1", 2961)
# sha256 of `rmlprune translate --dump-algebra` on the seed corpus mapping,
# trailing newline included: the plan.txt that CI checks
SCALE1_PLAN = "cf5f0b7de20dc508005d43ea8da00105068ae5403c0453f8af1c29778a69e09a"


def test_wide_mapping_plan_is_pinned():
    plan = dump_plan(translate(parse_rml(wide_mapping_text())))
    assert (hashlib.sha256(plan.encode("utf-8")).hexdigest(), plan.count("\n") + 1) == WIDE_PLAN


def test_corpus_mapping_plan_is_pinned():
    plan = dump_plan(translate(parse_rml(MAPPING_TTL))) + "\n"
    assert hashlib.sha256(plan.encode("utf-8")).hexdigest() == SCALE1_PLAN


# sha256 of `rmlprune prune` of q01 on the seed corpus mapping: ?s ?p ?o
# keeps every expression, so this is the whole mapping written back with
# every term-map kind (constant, reference, template; IRI, literal, blank
# node, datatyped; joins).  It is the q01.ttl that CI checks
Q01_PRUNED = "886314e865f28975820c0bcd3e7ec564db7fa26a4da08c98f68dd1f2e59942d6"


def test_q01_pruned_document_is_pinned():
    doc = parse_rml(MAPPING_TTL)
    result = prune(collect_triple_patterns(parse_query(QUERIES["q01"])), translate(doc))
    text = serialize_pruned(result, doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == Q01_PRUNED


def _without_provenance(m):
    return [
        (
            tm.subject_expr,
            tm.predicate_expr,
            tm.object_expr,
            tm.extract,
            tm.parent_extract,
            tm.join_conditions,
        )
        for tm in m.trmaps
    ]


def _assert_prune_round_trips(doc, mapping, query_text):
    result = prune(collect_triple_patterns(parse_query(query_text)), mapping)
    if isinstance(result, FullyPruned):
        assert "fully pruned" in serialize_pruned((), doc)
        return
    reparsed = translate(parse_rml(serialize_pruned(result, doc)))
    assert _without_provenance(reparsed) == _without_provenance(result)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_pruned_document_translates_to_the_retained_expressions(name, wide):
    doc = parse_rml(MAPPING_TTL)
    _assert_prune_round_trips(doc, translate(doc), QUERIES[name])
    corpus, tag, wide_doc, wide_mapping = wide
    _assert_prune_round_trips(wide_doc, wide_mapping, corpus.instantiate(QUERIES[name], tag))


def test_keeping_everything_writes_each_triples_map_once(wide):
    _, _, wide_doc, wide_mapping = wide
    corpus_doc = parse_rml(MAPPING_TTL)
    for doc, mapping, count in (
        (corpus_doc, translate(corpus_doc), 3),
        (wide_doc, wide_mapping, 120),
    ):
        text = serialize_pruned(mapping, doc)
        assert text.count("rml:logicalSource") == count
        reparsed = parse_rml(text)
        assert [tm.id for tm in reparsed.triples_maps] == [tm.id for tm in doc.triples_maps]
        assert _without_provenance(translate(reparsed)) == _without_provenance(mapping)


def test_pruned_join_writes_its_parent_without_predicate_object_maps():
    doc = parse_rml(JOIN_DOC)
    joined = translate(doc).trmaps[0]
    reparsed = parse_rml(serialize_pruned((joined,), doc))
    child, parent = reparsed.triples_maps
    assert (child.id, len(child.poms)) == ("http://e/child", 1)
    assert (parent.id, parent.poms) == ("http://e/parent", ())
    assert parent.subject_map.value == "http://e/p/{id}"


def test_pruned_document_keeps_the_base():
    text = "@base <http://doc.example/> .\n" + NEW_HEADER + (
        "<tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:template \"item/{id}\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    doc = parse_rml(text)
    m = translate(doc)
    sigma = {"f.csv": DataObject(CSV_KIND, parse_csv("id\n1\n"))}
    full = materialize(m, sigma)
    assert {t.s for t in full.triples} == {Iri("http://doc.example/item/1")}
    pruned = translate(parse_rml(serialize_pruned(m, doc)))
    assert materialize(pruned, sigma).triples == full.triples
