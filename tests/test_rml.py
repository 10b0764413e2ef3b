"""RML documents: parsing into normal form, translation, serialization."""

import hashlib
import logging
import time
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmlprune.algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    DataObject,
    RmlMappingExpr,
    Template,
    TriplesMapExpr,
    dump_plan,
    materialize,
)
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune import rml
from rmlprune.errors import MappingModelError, TurtleError
from rmlprune.gendata import MAPPING_TTL, QUERIES
from rmlprune.ntriples import format_term
from rmlprune.pruning import FullyPruned, prune
from rmlprune.rdf import RDF_TYPE, XSD_DOUBLE, XSD_INTEGER, XSD_STRING, Triple
from rmlprune.rml import (
    DEFAULT_BASE_IRI,
    normalize,
    parse_rml,
    parse_template,
    serialize_pruned,
    template_text,
    translate,
)
from rmlprune.sparql import collect_triple_patterns, parse_query

from .helpers import Iri, Literal, is_literal, perfbench_corpus, ref, wide_mapping_text

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


# texts with every character a template or a string escapes, and names with
# every one a placeholder may hold
TEMPLATE_TEXTS = st.text(alphabet=st.sampled_from('ab/\\{}"\n é'), max_size=6)
PLACEHOLDER_NAMES = st.text(alphabet=st.sampled_from('ab/"\n é'), min_size=1, max_size=4)


@st.composite
def template_parts(draw) -> tuple[str, ...]:
    parts = [draw(TEMPLATE_TEXTS)]
    for _ in range(draw(st.integers(0, 3))):
        parts += [draw(PLACEHOLDER_NAMES), draw(TEMPLATE_TEXTS)]
    return tuple(parts)


@given(template_parts())
def test_template_text_reads_back_to_its_parts(parts):
    assert parse_template(template_text(parts)) == parts


@given(st.text(alphabet=st.sampled_from('ab/\\{}"\n é'), max_size=14))
def test_a_template_rewritten_from_its_parts_reads_the_same(text):
    try:
        parts = parse_template(text)
    except MappingModelError:
        return
    assert parse_template(template_text(parts)) == parts


def test_template_text_escapes_only_what_it_must():
    assert template_text(("http://e/", "id", "")) == "http://e/{id}"
    assert template_text(("a{b}\\", "x y", "")) == "a\\{b\\}\\\\{x y}"
    # a redundant escape is not written back
    assert template_text(parse_template("\\a{a}")) == "a{a}"


# ---------------------------------------------------------------------------
# parsing documents
# ---------------------------------------------------------------------------


def test_parse_airports_document(airports_mapping):
    assert isinstance(airports_mapping, RmlMappingExpr)
    ((key, source, subject),) = airports_mapping.triples_maps
    assert key == "http://example.com/tm/airports"
    assert source == "airports.csv"
    assert subject.body.reference
    assert subject == BuildIri(ref("aiport_id"), DEFAULT_BASE_IRI)
    assert [tm.predicate_expr.term for tm in airports_mapping.trmaps] == [
        Iri(EX + "route"),
        Iri(GTFS + "long"),
    ]


def test_datatype_alias_spelling_is_accepted(airports_mapping):
    assert airports_mapping.trmaps[1].object_expr.datatype == XSD_DOUBLE


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
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
        "<http://e/orphan> ex:anything ex:else .\n"
    )
    with caplog.at_level(logging.WARNING, logger="rmlprune.rml"):
        parse_rml(text)
    assert [r.getMessage() for r in caplog.records] == [
        "subject <http://e/orphan> is not reachable from any triples map; ignoring it"
    ]


def test_parse_column_alias():
    text = LEGACY_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ;\n"
        "    rml:referenceFormulation ql:CSV ] ;\n"
        "  rr:subjectMap [ rr:column \"a\" ; rr:termType rr:IRI ] ;\n"
        "  rr:predicateObjectMap [ rr:predicate ex:p ; rr:object \"v\" ] .\n"
    )
    (tm,) = parse_rml(text).trmaps
    assert tm.subject_expr.body.reference
    assert tm.subject_expr.body.parts == ("", "a", "")


def test_document_base_defaults_when_absent(airports_mapping):
    assert airports_mapping.base == DEFAULT_BASE_IRI
    text = "@base <http://doc.example/> .\n" + NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    assert parse_rml(text).base == "http://doc.example/"


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
    trmaps = parse_rml(SHORTCUT_DOC).trmaps
    # the class pom first, then 2 predicates x 2 objects, predicate-major
    pairs = [(tm.predicate_expr, tm.object_expr) for tm in trmaps]
    assert all(isinstance(pm, ConstantTerm) and isinstance(om, ConstantTerm) for pm, om in pairs)
    assert [(pm.term, om.term) for pm, om in pairs] == [
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
    p_b = BuildIri(Template(("http://e/p/", "b", "")), DEFAULT_BASE_IRI)
    c, v = BuildLiteral(ref("c"), XSD_STRING), ConstantTerm(Literal("v"))
    p = ConstantTerm(Iri(EX + "p"))
    assert [(tm.predicate_expr, tm.object_expr) for tm in parse_rml(text).trmaps] == [
        (p_b, c),
        (p_b, v),
        (p, c),
        (p, v),
    ]


def test_normalize_is_idempotent():
    # normalize and translate return the parsed mapping itself
    mapping = parse_rml(SHORTCUT_DOC)
    assert normalize(mapping) is mapping
    assert normalize(normalize(mapping)) is mapping
    assert translate(mapping) is mapping


def test_subject_shortcut_becomes_constant_map():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subject ex:thing ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    (tm,) = parse_rml(text).trmaps
    assert tm.subject_expr == ConstantTerm(Iri(EX + "thing"))


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

# (the document's parts, the whole error) per once-only property stated twice
STATED_TWICE = {
    "source": (
        {"source": 'rml:source "a.csv", "b.csv"'},
        "triples map <http://e/tm>: logical source [ ] at line 4 has more than one source",
    ),
    "referenceFormulation": (
        {"source": 'rml:source "f.csv" ; rml:referenceFormulation rml:CSV, rml:CSV'},
        "triples map <http://e/tm>: logical source [ ] at line 4 has more than one referenceFormulation",
    ),
    "termType": (
        {"object_map": 'rml:reference "b" ; rml:termType rml:IRI, rml:Literal'},
        "triples map <http://e/tm>: object map [ ] at line 6 has more than one termType",
    ),
    "datatype": (
        {"object_map": 'rml:reference "b" ; rml:datatype xsd:integer, xsd:double'},
        "triples map <http://e/tm>: object map [ ] at line 6 has more than one datatype",
    ),
    "datatType beside datatype": (
        {"object_map": 'rml:reference "b" ; rml:datatype xsd:integer ; rml:datatType xsd:double'},
        "triples map <http://e/tm>: object map [ ] at line 6 has more than one datatype",
    ),
    "parentTriplesMap": (
        {
            "object_map": "rml:parentTriplesMap <http://e/parent>, <http://e/tm> ; "
            'rml:joinCondition [ rml:child "a" ; rml:parent "id" ]'
        },
        "triples map <http://e/tm>: referencing object map [ ] at line 6 has more than one parentTriplesMap",
    ),
    "child": (
        {"object_map": JOIN.format('rml:child "x", "y" ; rml:parent "id"')},
        "triples map <http://e/tm>: join condition [ ] at line 6 has more than one child",
    ),
    "parent": (
        {"object_map": JOIN.format('rml:child "a" ; rml:parent "id", "a"')},
        "triples map <http://e/tm>: join condition [ ] at line 6 has more than one parent",
    ),
    "logicalSource": (
        {"subject": 'rml:logicalSource [ rml:source "g.csv" ] ; rml:subjectMap [ rml:reference "a" ]'},
        "triples map <http://e/tm> has more than one logicalSource",
    ),
    "subjectMap": (
        {"subject": 'rml:subjectMap [ rml:reference "a" ] , [ rml:reference "c" ]'},
        "triples map <http://e/tm> has more than one subjectMap",
    ),
}


@pytest.mark.parametrize("parts,message", STATED_TWICE.values(), ids=list(STATED_TWICE))
def test_parse_rejects_a_once_only_property_stated_twice(parts, message):
    with pytest.raises(MappingModelError) as info:
        parse_rml(one_triples_map(**parts))
    assert str(info.value) == message


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
    with pytest.raises(MappingModelError) as info:
        parse_rml(one_triples_map(**parts))
    assert str(info.value) == f"triples map <http://e/tm>: property '{prop}' does not belong on {what} [ ] at line {line}"


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



def unreachable_subjects(n: int) -> str:
    """A mapping with n labeled and n anonymous subjects no triples map reaches."""
    labeled = "".join(f"_:n{i} ex:p ex:o .\n" for i in range(n))
    return one_triples_map() + labeled + "[ ex:p ex:o ] .\n" * n


def test_unreachable_subjects_are_named_only_for_an_emitted_warning(monkeypatch):
    named = []
    name = rml._MappingReader.name
    monkeypatch.setattr(rml._MappingReader, "name", lambda g, key: named.append(key) or name(g, key))
    logging.disable(logging.CRITICAL)
    try:
        parse_rml(unreachable_subjects(3))
    finally:
        logging.disable(logging.NOTSET)
    assert named == []


def test_many_unreachable_subjects_are_named_in_linear_time(caplog):
    # naming each one used to scan every label, or count the lines from the
    # start of the text: 4,000 of each took seconds
    n, line = 4000, len(one_triples_map().splitlines()) + 1
    start = time.perf_counter()
    with caplog.at_level(logging.WARNING, logger="rmlprune.rml"):
        parse_rml(unreachable_subjects(n))
    seconds = time.perf_counter() - start
    named = [r.getMessage().split(" is not")[0] for r in caplog.records]
    assert len(named) == 2 * n
    assert named[0] == "subject _:n0" and named[n - 1] == f"subject _:n{n - 1}"
    assert named[n] == f"subject [ ] at line {line + n}" and named[-1] == f"subject [ ] at line {line + 2 * n - 1}"
    assert seconds < 2.0


# (the node-valued property given a literal, the literal, the document)
LITERAL_FOR_A_NODE = {
    "logicalSource": ('"f.csv"', NEW_HEADER + '<http://e/tm> rml:logicalSource "f.csv" ; rml:subject ex:s .\n'),
    "subjectMap": ('"x"', one_triples_map(subject='rml:subjectMap "x"')),
    "predicateObjectMap": (
        '"y"',
        one_triples_map(subject='rml:subjectMap [ rml:reference "a" ] ; rml:predicateObjectMap "y"'),
    ),
    "predicateMap": ('"p"', one_triples_map(pom='rml:predicateMap "p"')),
    "objectMap": ('"o"', one_triples_map(pom='rml:predicate ex:p ; rml:objectMap "o"')),
    "parentTriplesMap": (
        '"t"',
        one_triples_map(
            object_map='rml:parentTriplesMap "t" ; rml:joinCondition [ rml:child "a" ; rml:parent "id" ]'
        ),
    ),
    "joinCondition": (
        '"j"',
        one_triples_map(object_map='rml:parentTriplesMap <http://e/parent> ; rml:joinCondition "j"'),
    ),
}


@pytest.mark.parametrize("prop,found,text", [(p, *v) for p, v in LITERAL_FOR_A_NODE.items()], ids=list(LITERAL_FOR_A_NODE))
def test_parse_names_the_property_whose_node_is_a_literal(prop, found, text):
    with pytest.raises(MappingModelError) as info:
        parse_rml(text)
    assert str(info.value) == f"triples map <http://e/tm>: property '{prop}' must name an IRI or blank node, found {found}"


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


# a check of a node below a triples map, and the message it gives
NODE_CHECKS = {
    "reference not a string": (
        {"object_map": "rml:reference 1"},
        'reference on [ ] at line 6 must be a plain string, found "1"^^<http://www.w3.org/2001/XMLSchema#integer>',
    ),
    "formulation not an IRI": (
        {"source": 'rml:source "f.csv" ; rml:referenceFormulation "CSV"'},
        'referenceFormulation on [ ] at line 4 must be an IRI, found "CSV"',
    ),
    "no source": (
        {"source": "rml:referenceFormulation rml:CSV"},
        "logical source [ ] at line 4 has no source",
    ),
    "constant against its term type": (
        {"object_map": "rml:constant ex:o ; rml:termType rml:Literal"},
        "object map [ ] at line 6: constant <http://example.com/ns#o> conflicts with term type rml:Literal",
    ),
    "unknown term type": (
        {"object_map": 'rml:reference "b" ; rml:termType ex:Thing'},
        "object map [ ] at line 6: unknown term type <http://example.com/ns#Thing>",
    ),
    "datatype not an IRI": (
        {"object_map": 'rml:reference "b" ; rml:datatype "x"'},
        'datatype on [ ] at line 6 must be an IRI, found "x"',
    ),
    "class not an IRI": (
        {"subject": 'rml:subjectMap [ rml:reference "a" ; rml:class "C" ]'},
        'class on [ ] at line 5 must be an IRI, found "C"',
    ),
    "subject map and shortcut": (
        {"subject": 'rml:subjectMap [ rml:reference "a" ] ; rml:subject ex:s'},
        "a subject map and a subject shortcut are both given",
    ),
    "term type not an IRI": (
        {"object_map": 'rml:reference "b" ; rml:termType "x"'},
        'termType on [ ] at line 6 must be an IRI, found "x"',
    ),
    "child not a string": (
        {"object_map": JOIN.format('rml:child 1 ; rml:parent "id"')},
        'child on [ ] at line 6 must be a plain string, found "1"^^<http://www.w3.org/2001/XMLSchema#integer>',
    ),
    "literal subject map": (
        {"subject": 'rml:subjectMap [ rml:reference "a" ; rml:termType rml:Literal ]'},
        "subject map [ ] at line 5: subject maps cannot produce literals",
    ),
    "literal predicate map": (
        {"pom": 'rml:predicateMap [ rml:reference "p" ; rml:termType rml:Literal ]'},
        "predicate map [ ] at line 6: predicate maps must produce IRIs",
    ),
    "datatype on an IRI map": (
        {"object_map": 'rml:template "http://e/{a}" ; rml:datatype xsd:double ; rml:termType rml:IRI'},
        "object map [ ] at line 6: datatype is only allowed on literal-producing maps",
    ),
    "datatype on a literal constant": (
        {"object_map": 'rml:constant "7" ; rml:datatype xsd:integer'},
        "object map [ ] at line 6: a constant map takes no datatype; write the typed literal "
        '("7"^^<http://www.w3.org/2001/XMLSchema#integer>) as the constant',
    ),
    "datatype on an IRI constant": (
        {"object_map": "rml:constant ex:o ; rml:datatype xsd:integer"},
        "object map [ ] at line 6: a constant map takes no datatype; write the typed literal as the constant",
    ),
    "blank-node subject shortcut": (
        {"subject": "rml:subject _:x"},
        "a constant must be an IRI or a literal, not a blank node",
    ),
    "two kinds of subject map": (
        {"subject": 'rml:subjectMap [ rml:reference "a" ; rml:template "{a}" ]'},
        "subject map [ ] at line 5 needs exactly one of constant, reference, template",
    ),
    "malformed template": (
        {"subject": 'rml:subjectMap [ rml:template "{bad" ]'},
        "subject map [ ] at line 5: unbalanced '{' in template '{bad'",
    ),
    "join condition without parent": (
        {"object_map": JOIN.format('rml:child "a"')},
        "join condition [ ] at line 6 needs both child and parent",
    ),
    "join without conditions": (
        {"object_map": "rml:parentTriplesMap <http://e/parent>"},
        "referencing object map [ ] at line 6 has no join conditions; an unconditioned join is not supported",
    ),
    "missing parent": (
        {"object_map": JOIN.replace("parent>", "nowhere>").format('rml:child "a" ; rml:parent "id"')},
        "referencing object map [ ] at line 6: parent triples map <http://e/nowhere> does not exist",
    ),
    "no predicate": (
        {"pom": 'rml:object "v"'},
        "predicate-object map [ ] at line 6 has no predicate",
    ),
    "language tag": (
        {"object_map": 'rml:reference "b" ; rml:language "en"'},
        "language tags are not supported (property <http://w3id.org/rml/language> on [ ] at line 6)",
    ),
    "graph map": (
        {"subject": 'rml:subjectMap [ rml:reference "a" ; rml:graphMap [ rml:constant ex:g ] ]'},
        "graph maps are not supported (property <http://w3id.org/rml/graphMap> on [ ] at line 5)",
    ),
    "unknown property": (
        {"pom": "rml:predicate ex:p ; ex:bogus ex:x"},
        "unknown property <http://example.com/ns#bogus> on [ ] at line 6; refusing to drop it silently",
    ),
    "JSON source": (
        {"source": 'rml:source "f.json" ; rml:referenceFormulation rml:JSONPath'},
        "unsupported reference formulation 'JSON' on [ ] at line 4; only CSV sources are supported",
    ),
    "iterator": (
        {"source": 'rml:source "f.csv" ; rml:iterator "$"'},
        "iterator on [ ] at line 4 is not supported: CSV sources are always iterated row by row",
    ),
}


@pytest.mark.parametrize("parts, message", NODE_CHECKS.values(), ids=list(NODE_CHECKS))
def test_a_node_check_names_its_triples_map_and_node(parts, message):
    with pytest.raises(MappingModelError) as info:
        parse_rml(one_triples_map(**parts))
    assert str(info.value) == f"triples map <http://e/tm>: {message}"


# an error no node below a triples map raises, and its whole text
DOCUMENT_CHECKS = {
    "no subject map": (
        NEW_HEADER + '<http://e/tm> rml:logicalSource [ rml:source "f.csv" ] .\n',
        "triples map <http://e/tm> lacks a subject map",
    ),
    "graph map on a triples map": (
        one_triples_map(subject='rml:subjectMap [ rml:reference "a" ] ; rml:graphMap [ rml:constant ex:g ]'),
        "graph maps are not supported (property <http://w3id.org/rml/graphMap> on <http://e/tm>)",
    ),
    "no triples map": (
        "@prefix ex: <http://e/> .\nex:s ex:p ex:o .",
        "no triples maps found (no subject carries a logical source)",
    ),
    "no predicate-object map": (
        NEW_HEADER + '<http://e/tm> rml:logicalSource [ rml:source "f.csv" ] ; rml:subject ex:s .\n',
        "the document has no predicate-object maps, so it produces no triples",
    ),
    "not UTF-8": (
        b"\xff",
        "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
}


@pytest.mark.parametrize("document, message", DOCUMENT_CHECKS.values(), ids=list(DOCUMENT_CHECKS))
def test_a_document_check_reads_in_full(document, message):
    with pytest.raises(MappingModelError) as info:
        parse_rml(document)
    assert str(info.value) == message


def test_a_predicate_object_map_needs_an_object():
    doc = NEW_HEADER + (
        '<http://e/tm> rml:logicalSource [ rml:source "f.csv" ] ;\n'
        '  rml:subjectMap [ rml:reference "a" ] ;\n'
        "  rml:predicateObjectMap [ rml:predicate ex:p ] .\n"
    )
    with pytest.raises(MappingModelError) as info:
        parse_rml(doc)
    assert str(info.value) == "triples map <http://e/tm>: predicate-object map [ ] at line 6 has no object"


# a blank-node constant, wherever a constant may be written: it would build
# one blank node for every row (R2RML §7.2 allows an IRI, or a literal in an
# object map), and a document that holds one was not written back to itself
BLANK_CONSTANTS = {
    "subject shortcut": {"subject": "rml:subject _:x"},
    "subject map": {"subject": "rml:subjectMap [ rml:constant _:x ]"},
    "predicate shortcut": {"pom": "rml:predicate _:x"},
    "object shortcut": {"pom": "rml:predicate ex:p ; rml:object _:x"},
    "object map": {"object_map": "rml:constant _:x"},
    "object map with properties": {"object_map": "rml:constant [ ex:q ex:r ]"},
}


@pytest.mark.parametrize("parts", BLANK_CONSTANTS.values(), ids=list(BLANK_CONSTANTS))
def test_a_blank_node_constant_is_rejected(parts):
    with pytest.raises(MappingModelError) as info:
        parse_rml(one_triples_map(**parts))
    message = str(info.value)
    assert message.startswith("triples map <http://e/tm>: ")
    assert message.endswith(": a constant must be an IRI or a literal, not a blank node")


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
    trmaps = parse_rml(text).trmaps
    a = ref("a")
    # subject and predicate maps build IRIs from a reference
    assert trmaps[0].subject_expr == BuildIri(a, DEFAULT_BASE_IRI)
    assert trmaps[0].predicate_expr == BuildIri(ref("p"), DEFAULT_BASE_IRI)
    assert [tm.object_expr for tm in trmaps] == [
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
    assert route.parent_extract is None and long_.parent_extract is None
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
    m = parse_rml(JOIN_DOC)
    joined = m.trmaps[0]
    assert joined.parent_extract is not None
    assert joined.extract.selectors == {"id": "id", "pid": "pid"}
    # the parent also selects "id"; its attribute must not clash
    assert joined.parent_extract.selectors == {"id@parent": "id"}
    assert joined.join_conditions == (("pid", "id@parent"),)
    assert joined.object_expr == BuildIri(Template(("http://e/p/", "id@parent", "")), DEFAULT_BASE_IRI)


def test_translate_joined_materializes(tmp_path):
    m = parse_rml(JOIN_DOC)
    sigma = {
        "c.csv": DataObject(CSV_KIND, parse_csv("id,pid\n1,9\n2,404\n")),
        "p.csv": DataObject(CSV_KIND, parse_csv("id,name\n9,Nine\n")),
    }
    g = materialize(m, sigma)
    assert Triple(Iri("http://e/c/1"), Iri(EX + "link"), Iri("http://e/p/9")) in g.triples
    assert Triple(Iri("http://e/p/9"), Iri(EX + "name"), Literal("Nine")) in g.triples
    assert len(g.triples) == 2  # c/2 finds no parent row


def test_a_triples_map_may_state_its_type():
    text = NEW_HEADER + (
        "<http://e/tm> a rml:TriplesMap ; rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subject ex:s ; rml:predicateObjectMap [ rml:predicate ex:p ; rml:object ex:o ] .\n"
    )
    (tm,) = parse_rml(text).trmaps
    assert (tm.subject_expr, tm.predicate_expr, tm.object_expr) == (
        ConstantTerm(Iri(EX + "s")), ConstantTerm(Iri(EX + "p")), ConstantTerm(Iri(EX + "o"))
    )
    assert tm.extract.triples_map == "http://e/tm"


# a child column named like a renamed parent attribute
PRIMED_JOIN_DOC = JOIN_DOC.replace('"http://e/c/{id}"', '"http://e/c/{id@parent}"').replace(
    'rml:child "pid"', 'rml:child "id@parent"'
)


def test_a_parent_attribute_is_primed_past_a_child_column_of_its_name():
    (joined, _) = parse_rml(PRIMED_JOIN_DOC).trmaps
    assert joined.extract.selectors == {"id@parent": "id@parent"}
    assert joined.parent_extract.selectors == {"id@parent'": "id"}
    assert joined.join_conditions == (("id@parent", "id@parent'"),)
    assert joined.object_expr == BuildIri(Template(("http://e/p/", "id@parent'", "")), DEFAULT_BASE_IRI)


def test_a_joined_parent_may_have_a_constant_subject():
    text = PRIMED_JOIN_DOC.replace('rml:subjectMap [ rml:template "http://e/p/{id}" ]', "rml:subject <http://e/p>")
    (joined, _) = parse_rml(text).trmaps
    assert joined.object_expr == ConstantTerm(Iri("http://e/p"))
    assert joined.parent_extract.selectors == {"id@parent'": "id"}
    sigma = {
        "c.csv": DataObject(CSV_KIND, parse_csv("id@parent\n1\n2\n")),
        "p.csv": DataObject(CSV_KIND, parse_csv("id,name\n1,One\n")),
    }
    link = Triple(Iri("http://e/c/1"), Iri(EX + "link"), Iri("http://e/p"))
    assert link in materialize(parse_rml(text), sigma).triples


def test_translate_blank_node_term_type():
    text = NEW_HEADER + (
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ; rml:termType rml:BlankNode ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    m = parse_rml(text)
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
        parse_rml(text)


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


def test_serialize_pruned_round_trips(airports_mapping):
    text = serialize_pruned(airports_mapping, airports_mapping)
    reparsed = parse_rml(text)
    assert _shape(reparsed) == _shape(airports_mapping)


# triples maps keyed by blank nodes: a labeled one that a join names as its
# parent, and an anonymous one that stands alone as a statement
BLANK_TRIPLES_MAPS_DOC = NEW_HEADER + (
    "<http://e/child> rml:logicalSource [ rml:source \"c.csv\" ] ;\n"
    "  rml:subjectMap [ rml:template \"http://e/c/{id}\" ] ;\n"
    "  rml:predicateObjectMap [ rml:predicate ex:link ;\n"
    "    rml:objectMap [ rml:parentTriplesMap _:parent ;\n"
    "      rml:joinCondition [ rml:child \"pid\" ; rml:parent \"id\" ] ] ] .\n"
    "_:parent rml:logicalSource [ rml:source \"p.csv\" ] ;\n"
    "  rml:subjectMap [ rml:template \"http://e/p/{id}\" ] ;\n"
    "  rml:predicateObjectMap [ rml:predicate ex:name ; rml:objectMap [ rml:reference \"name\" ] ] .\n"
    "[ rml:logicalSource [ rml:source \"a.csv\" ] ;\n"
    "  rml:subject ex:s ;\n"
    "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] ] .\n"
)


def test_triples_maps_keyed_by_blank_nodes_are_written_back():
    mapping = parse_rml(BLANK_TRIPLES_MAPS_DOC)
    assert [key[:2] for key, _, _ in mapping.triples_maps] == ["ht", "_:", "_:"]
    text = serialize_pruned(mapping, mapping)
    assert text.count("rml:logicalSource") == 3
    assert dump_plan(parse_rml(text)) == dump_plan(mapping)
    # the join alone still writes its parent, once, with no pairs of its own
    joined = [expr for expr in mapping.trmaps if expr.parent_extract is not None]
    text = serialize_pruned(joined, mapping)
    assert text.count("rml:logicalSource") == 2
    assert dump_plan(parse_rml(text)) == dump_plan(RmlMappingExpr(tuple(joined)))


def test_serialize_subset_keeps_only_named_expressions(airports_mapping):
    keep = airports_mapping.trmaps[1:]
    text = serialize_pruned(keep, airports_mapping)
    reparsed = parse_rml(text)
    assert len(reparsed.trmaps) == 1
    assert _shape(reparsed) == _shape(type(airports_mapping)(tuple(keep)))
    assert GTFS + "long" in text


def test_serialize_rejects_an_expression_of_another_document(airports_mapping):
    other = parse_rml(SHORTCUT_DOC)
    with pytest.raises(MappingModelError) as info:
        serialize_pruned(other.trmaps[:1], airports_mapping)
    assert str(info.value) == "retained expression 'http://e/tm#pom0' does not come from this document"
    with pytest.raises(MappingModelError) as info:
        serialize_pruned((), RmlMappingExpr(airports_mapping.trmaps))
    assert str(info.value) == "only a mapping that parse_rml returned can be written back"


def test_serialize_fully_pruned_is_marked(airports_mapping):
    text = serialize_pruned((), airports_mapping)
    assert "fully pruned" in text
    with pytest.raises(MappingModelError):
        parse_rml(text)  # no triples maps left, by design


def test_serialize_joined_round_trips():
    m = parse_rml(JOIN_DOC)
    text = serialize_pruned((m.trmaps[0],), m)
    reparsed = parse_rml(text)
    (joined,) = reparsed.trmaps
    assert joined.parent_extract is not None
    assert _shape(reparsed) == _shape(type(m)((m.trmaps[0],)))


def test_serialize_escapes_constants_and_strings():
    m = parse_rml(
        NEW_HEADER
        + '<http://e/tm> rml:logicalSource [ rml:source "f\\"1.csv" ] ;\n'
        '  rml:subjectMap [ rml:template "http://e/{a}" ] ;\n'
        "  rml:predicateObjectMap [ rml:predicate ex:p ;\n"
        '    rml:object "say \\"hi\\"\\n\\u0001\\\\" , "7"^^xsd:double ] .\n'
    )
    reparsed = parse_rml(serialize_pruned(m, m))
    assert _shape(reparsed) == _shape(m)
    assert {tm.object_expr.term for tm in reparsed.trmaps} == {
        Literal('say "hi"\n\x01\\'),
        Literal("7", XSD_DOUBLE),
    }
    assert reparsed.trmaps[0].extract.source_ref == 'f"1.csv'


def test_serialize_rejects_foreign_expressions(airports_mapping):
    other = parse_rml(JOIN_DOC)
    with pytest.raises(MappingModelError, match="document"):
        serialize_pruned((other.trmaps[0],), airports_mapping)
    # an equal expression of another parse is not the document's own
    with pytest.raises(MappingModelError, match="document"):
        serialize_pruned(parse_rml(JOIN_DOC).trmaps[:1], other)
    # a prune's result holds expressions, not the triples maps they came from
    pruned = prune(collect_triple_patterns(parse_query("SELECT * WHERE { ?s ?p ?o }")), other)
    with pytest.raises(MappingModelError, match="only a mapping that parse_rml returned"):
        serialize_pruned(pruned, pruned)


@pytest.fixture(scope="module")
def wide():
    """The benchmark's corpus module, one copy's tag and its 40-copy mapping."""
    corpus = perfbench_corpus()
    tags = corpus.copy_tags(40, 1)
    return corpus, tags[7], parse_rml(corpus.wide_mapping(tags))


# sha256 and line count of the wide mapping's --dump-algebra plan at seed
# 42; a faster parse or translation must not change a byte of it
WIDE_PLAN = ("2930e920eb30e4676993311635410544fbac61f543bee0624a7061f9805fc3e1", 2961)
# sha256 of `rmlprune translate --dump-algebra` on the seed corpus mapping,
# trailing newline included: the plan.txt that CI checks
SCALE1_PLAN = "cf5f0b7de20dc508005d43ea8da00105068ae5403c0453f8af1c29778a69e09a"


def test_wide_mapping_plan_is_pinned():
    plan = dump_plan(parse_rml(wide_mapping_text()))
    assert (hashlib.sha256(plan.encode("utf-8")).hexdigest(), plan.count("\n") + 1) == WIDE_PLAN


# sha256 and line count of the wide mapping written back whole: it pins what
# the plan does not, the term maps as written, the predicate-object maps'
# order, the parents a join names and the base
WIDE_WRITTEN_BACK = ("7fc1469cf951d61f26071a3c2b5b8e4d71520e71e64bb05735031d3190a75534", 5882)


def test_wide_mapping_written_back_is_pinned():
    mapping = parse_rml(wide_mapping_text())
    text = serialize_pruned(mapping, mapping)
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest(), text.count("\n")) == WIDE_WRITTEN_BACK



# sha256 and line count of what the mapping reader keeps of the wide mapping:
# each subject's predicates and objects as filed, under the subject's key
# (an IRI's value, a blank node's spelling), then the document's blank
# node labels and the offset each blank node opens at, which the walk's
# error messages read
WIDE_FILED = ("d68d46e54c7110c4226deea170f7f207441740abdb39a847169bdbdf5bd401d2", 4320)


def test_wide_mapping_as_the_reader_files_it_is_pinned():
    reader = rml._MappingReader(wide_mapping_text())
    reader.parse()
    lines = [
        f"{rml._key(key)} {format_term(p)} {format_term(o)}"
        for key, props in reader.graph.items()
        for p, o in zip(props[::2], props[1::2])
    ]
    lines += [f"_:{label} _:{internal}" for label, internal in reader.bnode_labels.items()]
    lines += [str(offset) for offset in reader.bnode_offsets]
    text = "".join(line + "\n" for line in lines)
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest(), len(lines)) == WIDE_FILED


def test_the_reader_keeps_one_literal_per_lexical_form():
    # as it keeps one IRI per IRI: the wide mapping's 840 string literals
    # are 175 objects, and the "lat" of every copy's stops map is one
    reader = rml._MappingReader(wide_mapping_text())
    reader.parse()
    literals = [obj for props in reader.graph.values() for obj in props[1::2] if is_literal(obj)]
    assert (len(literals), len({id(obj) for obj in literals})) == (840, 175)
    lat = [obj for obj in literals if obj[0] == "lat"]
    assert len(lat) == 40 and all(obj is lat[0] for obj in lat)


# One triples map, four ways: three classes, a predicate-object map with two
# predicates, two object maps and an object shortcut, a join, a datatype.
ONE_MAP_FOUR_WAYS = {
    "nested": (
        '<http://e/tm> rml:logicalSource [ rml:source "f.csv" ; rml:referenceFormulation rml:CSV ] ;\n'
        '  rml:subjectMap [ rml:template "http://e/s/{id}" ; rml:class ex:C ; rml:class ex:D ; rml:class ex:E ] ;\n'
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:predicate ex:q ;\n"
        '    rml:objectMap [ rml:reference "a" ] ; rml:objectMap [ rml:template "http://e/o/{b}" ] ;\n'
        '    rml:object "lit" ] ;\n'
        "  rml:predicateObjectMap [ rml:predicateMap [ rml:constant ex:r ] ;\n"
        "    rml:objectMap [ rml:parentTriplesMap <http://e/parent> ;\n"
        '      rml:joinCondition [ rml:child "pid" ; rml:parent "id" ] ] ] ;\n'
        '  rml:predicateObjectMap [ rml:predicate ex:n ; rml:objectMap [ rml:reference "n" ; rml:datatype xsd:integer ] ] .\n'
    ),
    "labeled, declared after use": (
        "<http://e/tm> rml:logicalSource _:ls ; rml:subjectMap _:sm ;\n"
        "  rml:predicateObjectMap _:pom1 ; rml:predicateObjectMap _:pom2 ; rml:predicateObjectMap _:pom3 .\n"
        '_:ls rml:source "f.csv" ; rml:referenceFormulation rml:CSV .\n'
        '_:sm rml:template "http://e/s/{id}" ; rml:class ex:C ; rml:class ex:D ; rml:class ex:E .\n'
        '_:pom1 rml:predicate ex:p ; rml:predicate ex:q ; rml:objectMap _:oa ; rml:objectMap _:ob ; rml:object "lit" .\n'
        '_:oa rml:reference "a" .\n'
        '_:ob rml:template "http://e/o/{b}" .\n'
        "_:pom2 rml:predicateMap _:pm ; rml:objectMap _:rom .\n"
        "_:pm rml:constant ex:r .\n"
        "_:rom rml:parentTriplesMap <http://e/parent> ; rml:joinCondition _:jc .\n"
        '_:jc rml:child "pid" ; rml:parent "id" .\n'
        "_:pom3 rml:predicate ex:n ; rml:objectMap _:on .\n"
        '_:on rml:reference "n" ; rml:datatype xsd:integer .\n'
    ),
    "predicate and object lists": (
        '<http://e/tm> rml:logicalSource [ rml:source "f.csv" ; rml:referenceFormulation rml:CSV ] ;\n'
        '  rml:subjectMap [ rml:template "http://e/s/{id}" ; rml:class ex:C, ex:D, ex:E ] ;\n'
        "  rml:predicateObjectMap [ rml:predicate ex:p, ex:q ;\n"
        '    rml:objectMap [ rml:reference "a" ], [ rml:template "http://e/o/{b}" ] ; rml:object "lit" ],\n'
        "  [ rml:predicateMap [ rml:constant ex:r ] ;\n"
        "    rml:objectMap [ rml:parentTriplesMap <http://e/parent> ;\n"
        '      rml:joinCondition [ rml:child "pid" ; rml:parent "id" ] ] ],\n'
        '  [ rml:predicate ex:n ; rml:objectMap [ rml:reference "n" ; rml:datatype xsd:integer ] ] .\n'
    ),
    # one token spelled by two IRIs on one node, interleaved: the classes
    # must keep their document order, not be grouped by IRI
    "rr: and old rml: beside new rml:": (
        "@prefix rr: <http://www.w3.org/ns/r2rml#> .\n"
        "@prefix rmlold: <http://semweb.mmlab.be/ns/rml#> .\n"
        "@prefix ql: <http://semweb.mmlab.be/ns/ql#> .\n"
        '<http://e/tm> rmlold:logicalSource [ rml:source "f.csv" ; rmlold:referenceFormulation ql:CSV ] ;\n'
        '  rr:subjectMap [ rml:template "http://e/s/{id}" ; rml:class ex:C ; rr:class ex:D ; rml:class ex:E ] ;\n'
        "  rml:predicateObjectMap [ rr:predicate ex:p ; rml:predicate ex:q ;\n"
        '    rml:objectMap [ rmlold:reference "a" ] ; rr:objectMap [ rr:template "http://e/o/{b}" ] ;\n'
        '    rr:object "lit" ] ;\n'
        "  rr:predicateObjectMap [ rr:predicateMap [ rml:constant ex:r ] ;\n"
        "    rml:objectMap [ rr:parentTriplesMap <http://e/parent> ;\n"
        '      rml:joinCondition [ rr:child "pid" ; rml:parent "id" ] ] ] ;\n'
        '  rml:predicateObjectMap [ rml:predicate ex:n ; rr:objectMap [ rr:column "n" ; rr:datatype xsd:integer ] ] .\n'
    ),
}
PARENT_MAP = (
    '<http://e/parent> rml:logicalSource [ rml:source "p.csv" ] ;\n'
    '  rml:subjectMap [ rml:template "http://e/p/{id}" ] .\n'
)


def test_a_triples_map_reads_the_same_however_it_is_written():
    # every form names the same triples maps, so even the provenance agrees
    written = set()
    for text in ONE_MAP_FOUR_WAYS.values():
        m = parse_rml(NEW_HEADER + text + PARENT_MAP)
        assert len(m.trmaps) == 3 + 2 * 3 + 1 + 1
        written.add((dump_plan(m), serialize_pruned(m, m)))
    assert len(written) == 1
    ((_, text),) = written
    assert text.index(f"<{EX}C>") < text.index(f"<{EX}D>") < text.index(f"<{EX}E>")
    labeled = ONE_MAP_FOUR_WAYS["labeled, declared after use"].replace(
        '_:oa rml:reference "a" .', '_:oa rml:reference "a" ; rml:class ex:C .'
    )
    with pytest.raises(MappingModelError, match="does not belong on object map _:oa$"):
        parse_rml(NEW_HEADER + labeled + PARENT_MAP)


def test_translated_expressions_pass_the_public_checks():
    # translate builds its expressions without re-running the checks of
    # TriplesMapExpr, which its construction makes hold
    for text in (MAPPING_TTL, wide_mapping_text(), JOIN_DOC):
        for expr in parse_rml(text).trmaps:
            rebuilt = TriplesMapExpr(**{f.name: getattr(expr, f.name) for f in fields(TriplesMapExpr)})
            assert vars(rebuilt) == vars(expr)


def test_corpus_mapping_plan_is_pinned():
    plan = dump_plan(parse_rml(MAPPING_TTL)) + "\n"
    assert hashlib.sha256(plan.encode("utf-8")).hexdigest() == SCALE1_PLAN


# A byte-order mark may start mapping bytes; decoded text keeps it as a
# character, which no token spells.
def test_mapping_bytes_may_start_with_a_byte_order_mark():
    plan = dump_plan(parse_rml(b"\xef\xbb\xbf" + MAPPING_TTL.encode("utf-8"))) + "\n"
    assert hashlib.sha256(plan.encode("utf-8")).hexdigest() == SCALE1_PLAN
    message = f"line 1, column 1: expected a subject, found {chr(0xFEFF)!r}"
    for data in ("\ufeff" + MAPPING_TTL, b"\xef\xbb\xbf" * 2 + MAPPING_TTL.encode("utf-8")):
        with pytest.raises(TurtleError) as raised:
            parse_rml(data)
        assert str(raised.value) == message


# sha256 of `rmlprune prune` of q01 on the seed corpus mapping: ?s ?p ?o
# keeps every expression, so this is the whole mapping written back with
# every term-map kind (constant, reference, template; IRI, literal, blank
# node, datatyped; joins).  It is the q01.ttl that CI checks
Q01_PRUNED = "886314e865f28975820c0bcd3e7ec564db7fa26a4da08c98f68dd1f2e59942d6"


def test_q01_pruned_document_is_pinned():
    mapping = parse_rml(MAPPING_TTL)
    result = prune(collect_triple_patterns(parse_query(QUERIES["q01"])), mapping)
    text = serialize_pruned(result, mapping)
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


def _assert_prune_round_trips(mapping, query_text):
    result = prune(collect_triple_patterns(parse_query(query_text)), mapping)
    if isinstance(result, FullyPruned):
        assert "fully pruned" in serialize_pruned((), mapping)
        return
    reparsed = parse_rml(serialize_pruned(result, mapping))
    assert _without_provenance(reparsed) == _without_provenance(result)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_pruned_document_translates_to_the_retained_expressions(name, wide):
    _assert_prune_round_trips(parse_rml(MAPPING_TTL), QUERIES[name])
    corpus, tag, wide_mapping = wide
    _assert_prune_round_trips(wide_mapping, corpus.instantiate(QUERIES[name], tag))


def test_keeping_everything_writes_each_triples_map_once(wide):
    for mapping, count in ((parse_rml(MAPPING_TTL), 3), (wide[2], 120)):
        text = serialize_pruned(mapping, mapping)
        assert text.count("rml:logicalSource") == count
        reparsed = parse_rml(text)
        assert [key for key, _, _ in reparsed.triples_maps] == [key for key, _, _ in mapping.triples_maps]
        assert _without_provenance(reparsed) == _without_provenance(mapping)


def test_pruned_join_writes_its_parent_without_predicate_object_maps():
    mapping = parse_rml(JOIN_DOC)
    text = serialize_pruned(mapping.trmaps[:1], mapping)
    reparsed = parse_rml(text)
    assert [key for key, _, _ in reparsed.triples_maps] == ["http://e/child", "http://e/parent"]
    assert [tm.extract.triples_map for tm in reparsed.trmaps] == ["http://e/child"]
    (joined,) = reparsed.trmaps
    assert joined.parent_extract.triples_map == "http://e/parent"
    assert reparsed.triples_maps[1][2] == mapping.triples_maps[1][2]
    assert 'rml:template "http://e/p/{id}"' in text


def fixpoint_doc() -> str:
    """Triples maps whose subjects, then objects, are the template "{a}"
    beside the reference "a" under each term type, and templates whose
    texts escape braces and backslashes, once redundantly."""
    objects = ", ".join(
        f'[ rml:{kind} "{value}" ; rml:termType rml:{term_type} ]'
        for term_type in ("IRI", "BlankNode", "Literal")
        for kind, value in (("template", "{a}"), ("reference", "a"))
    )
    maps = [
        f'<http://e/{kind}/{term_type}> rml:logicalSource [ rml:source "f.csv" ] ;\n'
        f'  rml:subjectMap [ rml:{kind} "{value}" ; rml:termType rml:{term_type} ] ;\n'
        f"  rml:predicateObjectMap [ rml:predicate ex:p ; rml:objectMap {objects} ] .\n"
        for term_type in ("IRI", "BlankNode")
        for kind, value in (("template", "{a}"), ("reference", "a"))
    ]
    maps.append(
        '<http://e/escaped> rml:logicalSource [ rml:source "f.csv" ] ;\n'
        '  rml:subjectMap [ rml:template "http://e/\\\\{x\\\\}/{a}\\\\\\\\" ] ;\n'
        '  rml:predicateObjectMap [ rml:predicate ex:p ; rml:objectMap [ rml:template "\\\\a{a}\\n" ] ] .\n'
    )
    return NEW_HEADER + "".join(maps)


def test_writing_back_reaches_a_fixpoint():
    mapping = parse_rml(fixpoint_doc())
    first = serialize_pruned(mapping, mapping)
    again = parse_rml(first)
    assert serialize_pruned(again, again) == first
    assert dump_plan(again) == dump_plan(mapping)
    # each term map is written back as the kind it was written as
    assert first.count('rml:template "{a}"') == first.count('rml:reference "a"') == 2 + 4 * 3
    assert 'rml:template "http://e/\\\\{x\\\\}/{a}\\\\\\\\"' in first
    assert 'rml:template "a{a}\\n"' in first
    references = [tm.object_expr.body.reference for tm in again.trmaps[:6]]
    assert references == [False, True] * 3


def test_pruned_document_keeps_the_base():
    text = "@base <http://doc.example/> .\n" + NEW_HEADER + (
        "<tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:template \"item/{id}\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object \"v\" ] .\n"
    )
    m = parse_rml(text)
    sigma = {"f.csv": DataObject(CSV_KIND, parse_csv("id\n1\n"))}
    full = materialize(m, sigma)
    assert {t.s for t in full.triples} == {Iri("http://doc.example/item/1")}
    pruned = parse_rml(serialize_pruned(m, m))
    assert materialize(pruned, sigma).triples == full.triples
