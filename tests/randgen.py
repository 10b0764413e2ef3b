"""Seeded random pipeline instances: tables, mapping expressions, patterns.

Everything here is driven by an explicit ``random.Random`` so a seed fully
determines the instance.  Instances are deliberately small (a handful of
tables and expressions) so whole-pipeline properties can be checked across
hundreds of them quickly.

Cell values mix plain text with regex metacharacters, colons and slashes;
``allow_empty`` additionally permits empty cells, which are NULL: a
constructor that reads one builds no term, and a join on one never holds.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

from rmlprune.algebra import (
    BuildBlank,
    BuildIri,
    BuildLiteral,
    ConstantTerm,
    DataObject,
    ExtractSpec,
    RmlMappingExpr,
    Template,
    TriplesMapExpr,
)
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.rdf import XSD_DOUBLE, XSD_INTEGER, XSD_STRING, RdfGraph, Term, TriplePattern, Variable

from .helpers import BlankNode, Iri, Literal, is_bnode, is_iri, iri_value

BASE = "http://rand.test/base/"
HOSTS = ("http://rand.test/a/", "http://rand.test/b2.x/", "http://other.org/~y/")
PREDICATES = tuple(Iri(f"http://vocab.test/p{i}") for i in range(6))
DATATYPES = (XSD_STRING, XSD_STRING, XSD_INTEGER, XSD_DOUBLE)

_SAFE = "abcdefghijkmnpqrstuvwxyzABC0123456789._-~+*()$!:/"
_SPICY = " []{}?|^\\,\"'<"
_KEY_POOL = ("k1", "k2", "k3", "k4")


def random_value(rng: random.Random, allow_empty: bool = False) -> str:
    if allow_empty and rng.random() < 0.2:
        return ""
    n = rng.randint(1, 6)
    chars = [rng.choice(_SAFE) for _ in range(n)]
    if rng.random() < 0.15:
        chars[rng.randrange(n)] = rng.choice(_SPICY)
    return "".join(chars)


@dataclass
class RandomInstance:
    mapping: RmlMappingExpr
    sigma: dict[str, DataObject]
    tables: dict[str, list[str]]  # table name -> column names
    allow_empty: bool


def _table_payload(
    rng: random.Random, columns: list[str], n_rows: int, allow_empty: bool
) -> DataObject:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for _ in range(n_rows):
        # column 0 is a join key drawn from a small pool so joins connect
        row = [rng.choice(_KEY_POOL)]
        row.extend(random_value(rng, allow_empty) for _ in columns[1:])
        writer.writerow(row)
    return DataObject(kind=CSV_KIND, payload=parse_csv(buf.getvalue()))


def fresh_sigma(
    inst: RandomInstance, rng: random.Random, allow_empty: bool | None = None
) -> dict[str, DataObject]:
    """New random contents for the instance's tables (same schemas)."""
    if allow_empty is None:
        allow_empty = inst.allow_empty
    return {
        name: _table_payload(rng, cols, rng.randint(2, 6), allow_empty)
        for name, cols in inst.tables.items()
    }


def _subject_expr(rng: random.Random, columns: list[str], index: int):
    roll = rng.random()
    if roll < 0.75:
        parts = [rng.choice(HOSTS), rng.choice(columns)]
        if rng.random() < 0.3:
            parts += ["/s.", rng.choice(columns)]
        return BuildIri(Template((*parts, "")), BASE)
    if roll < 0.9:
        return BuildIri(Template(("", rng.choice(columns), "")), BASE)
    return ConstantTerm(Iri(f"{rng.choice(HOSTS)}fixed{index}"))


def _object_expr(rng: random.Random, columns: list[str]):
    roll = rng.random()
    if roll < 0.35:
        return BuildLiteral(Template(("", rng.choice(columns), "")), rng.choice(DATATYPES))
    if roll < 0.45:
        template = Template((f"v[{rng.randrange(9)}].", rng.choice(columns), ""))
        return BuildLiteral(template, rng.choice(DATATYPES))
    if roll < 0.6:
        return BuildIri(Template((rng.choice(HOSTS), rng.choice(columns), "")), BASE)
    if roll < 0.72:
        return ConstantTerm(Iri(f"{rng.choice(HOSTS)}c{rng.randrange(9)}"))
    if roll < 0.85:
        return ConstantTerm(Literal(random_value(rng), rng.choice(DATATYPES)))
    return BuildBlank(Template(("", rng.choice(columns), "")))


def _joined_object(
    rng: random.Random, child_cols: list[str], parent_name: str, parent_cols: list[str]
):
    renamed = {f"{c}@parent": c for c in parent_cols}
    parent_extract = ExtractSpec(parent_name, renamed)
    conds = [(rng.choice(child_cols), f"{rng.choice(parent_cols)}@parent")]
    if rng.random() < 0.3:
        conds.append((rng.choice(child_cols), f"{rng.choice(parent_cols)}@parent"))
    obj = BuildIri(Template((rng.choice(HOSTS), f"{rng.choice(parent_cols)}@parent", "")), BASE)
    return obj, parent_extract, tuple(dict.fromkeys(conds))


def make_instance(seed: int, allow_empty: bool = False) -> RandomInstance:
    rng = random.Random(seed)
    tables: dict[str, list[str]] = {}
    for i in range(rng.randint(1, 3)):
        name = f"t{i}.csv"
        tables[name] = [f"c{j}" for j in range(rng.randint(2, 4))]
    sigma = {
        name: _table_payload(rng, cols, rng.randint(2, 6), allow_empty)
        for name, cols in tables.items()
    }

    # each entity mirrors one triples map: a shared subject constructor
    # fanned out over several predicate-object pairs
    trmaps = []
    table_names = sorted(tables)
    for e in range(rng.randint(1, 3)):
        name = rng.choice(table_names)
        cols = tables[name]
        extract = ExtractSpec(name, {c: c for c in cols})
        subject = _subject_expr(rng, cols, e)
        for k in range(rng.randint(2, 4)):
            predicate = ConstantTerm(rng.choice(PREDICATES))
            if rng.random() < 0.15:
                parent_name = rng.choice(table_names)
                obj, parent_extract, conds = _joined_object(
                    rng, cols, parent_name, tables[parent_name]
                )
                trmaps.append(
                    TriplesMapExpr(
                        subject_expr=subject,
                        predicate_expr=predicate,
                        object_expr=obj,
                        extract=extract,
                        parent_extract=parent_extract,
                        join_conditions=conds,
                        provenance=f"tm{e}#p{k}",
                    )
                )
            else:
                trmaps.append(
                    TriplesMapExpr(
                        subject_expr=subject,
                        predicate_expr=predicate,
                        object_expr=_object_expr(rng, cols),
                        extract=extract,
                        provenance=f"tm{e}#p{k}",
                    )
                )
    return RandomInstance(
        mapping=RmlMappingExpr(tuple(trmaps)),
        sigma=sigma,
        tables=tables,
        allow_empty=allow_empty,
    )


def _mutate_iri(rng: random.Random, term: Term) -> Term:
    if rng.random() < 0.5:
        return Iri(iri_value(term) + "X")
    return Iri("http://nowhere.test/" + iri_value(term).rsplit("/", 1)[-1])


def _mutate_literal(rng: random.Random, term: Term) -> Term:
    roll = rng.random()
    lex, datatype = term
    if roll < 0.4:
        return Literal(lex + "X", datatype)
    if roll < 0.7:
        other = XSD_INTEGER if datatype != XSD_INTEGER else XSD_DOUBLE
        return Literal(lex, other)
    return Literal(random_value(rng), rng.choice(DATATYPES))


def _position_constant(rng: random.Random, candidates: list, position: str):
    """A term for a pattern position: usually produced, sometimes mutated."""
    produced = [t for t in candidates if not is_bnode(t)]
    if produced and rng.random() < 0.8:
        return rng.choice(produced)
    if produced:
        picked = rng.choice(produced)
        if is_iri(picked):
            return _mutate_iri(rng, picked)
        return _mutate_literal(rng, picked)
    if position == "object" and rng.random() < 0.5:
        return Literal(random_value(rng), rng.choice(DATATYPES))
    return Iri(f"{rng.choice(HOSTS)}m{rng.randrange(99)}")


def random_patterns(
    rng: random.Random, graph: RdfGraph, max_patterns: int = 3
) -> list[TriplePattern]:
    """A random basic graph pattern; constants are sampled from *graph*."""
    triples = sorted(graph.triples, key=repr)
    subjects = [t.s for t in triples]
    predicates = [t.p for t in triples]
    objects = [t.o for t in triples]
    variables = [Variable(f"v{i}") for i in range(4)]
    patterns = []
    for i in range(rng.randint(1, max_patterns)):
        if i > 0 and rng.random() < 0.5:
            s = Variable("v0")  # star-shaped around the first subject
        elif rng.random() < 0.55:
            s = rng.choice(variables[:2]) if i == 0 else rng.choice(variables)
        else:
            s = _position_constant(rng, subjects, "subject")
        if rng.random() < 0.5:
            p = rng.choice(variables)
        else:
            p = (
                rng.choice(predicates)
                if predicates and rng.random() < 0.85
                else rng.choice(PREDICATES)
            )
        if rng.random() < 0.5:
            o = rng.choice(variables)
        else:
            o = _position_constant(rng, objects, "object")
        patterns.append(TriplePattern(s, p, o))
    return patterns


# a predicate that no expression of make_instance builds: it draws PREDICATES
UNBUILT = Iri("http://vocab.test/unbuilt")


def with_unbuilt_predicate(rng: random.Random, patterns: list[TriplePattern]) -> list[TriplePattern]:
    """*patterns* with one pattern's predicate replaced by :data:`UNBUILT`,
    so that the basic graph pattern has no solution on any data."""
    k = rng.randrange(len(patterns))
    return [TriplePattern(tp.s, UNBUILT, tp.o) if i == k else tp for i, tp in enumerate(patterns)]


def template_round_trip_case(rng: random.Random) -> tuple[Template, str]:
    """A template plus one string it can actually produce: its attributes
    hold non-empty values, as an empty one builds nothing."""
    parts = [""]
    rendered = []
    for i in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            text = "".join(
                rng.choice(_SAFE + _SPICY + "$^") for _ in range(rng.randint(1, 5))
            )
            parts[-1] += text
            rendered.append(text)
        else:
            value = random_value(rng)
            parts += [f"a{i}", ""]
            rendered.append(value)
    return Template(tuple(parts)), "".join(rendered)


def wide_mapping(rng: random.Random, n_trmaps: int) -> RmlMappingExpr:
    """A single mapping with *n_trmaps* varied expressions over many tables."""
    trmaps = []
    for i in range(n_trmaps):
        cols = [f"c{j}" for j in range(3)]
        extract = ExtractSpec(f"w{i % 9}.csv", {c: c for c in cols})
        subject = BuildIri(Template((f"{rng.choice(HOSTS)}r{i}/", rng.choice(cols), "")), BASE)
        predicate = ConstantTerm(Iri(f"http://vocab.test/wide{i % 17}"))
        trmaps.append(
            TriplesMapExpr(
                subject_expr=subject,
                predicate_expr=predicate,
                object_expr=_object_expr(rng, cols),
                extract=extract,
                provenance=f"wide{i}",
            )
        )
    return RmlMappingExpr(tuple(trmaps))
