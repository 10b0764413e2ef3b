"""Deterministic generator for a self-contained benchmark corpus.

``generate`` writes three CSV tables, one mapping document and eight
queries into a directory.  The mapping deliberately mixes both RML
namespace generations and covers every constructor kind: templated and
referenced terms, typed literals, a cross-source join (routes to stops), a
two-condition self-join (shape points to their predecessor) and a
blank-node object.  It translates to 14 triples-map expressions.
Generation is seeded, so the same (seed, scale) pair always produces
byte-identical files.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

MAPPING_TTL = """\
@prefix rml: <http://w3id.org/rml/> .
@prefix rr: <http://www.w3.org/ns/r2rml#> .
@prefix rmlold: <http://semweb.mmlab.be/ns/rml#> .
@prefix ql: <http://semweb.mmlab.be/ns/ql#> .
@prefix ex: <http://example.com/ns#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

<http://example.com/tm/stops>
  rmlold:logicalSource [ rmlold:source "stops.csv" ; rmlold:referenceFormulation ql:CSV ] ;
  rr:subjectMap [ rr:template "http://example.com/stop/{stop_id}" ; rr:class ex:Stop ] ;
  rr:predicateObjectMap [ rr:predicate ex:name ; rr:objectMap [ rmlold:reference "stop_name" ] ] ;
  rr:predicateObjectMap [ rr:predicate ex:lat ; rr:objectMap [ rr:column "lat" ; rr:datatype xsd:double ] ] ;
  rr:predicateObjectMap [ rr:predicate ex:lon ; rr:objectMap [ rmlold:reference "lon" ; rr:datatype xsd:double ] ] ;
  rr:predicateObjectMap [ rr:predicate ex:zone ; rr:objectMap [ rr:template "http://example.com/zone/{zone}" ] ] .

<http://example.com/tm/routes>
  rml:logicalSource [ rml:source "routes.csv" ; rml:referenceFormulation rml:CSV ] ;
  rml:subjectMap [ rml:template "http://example.com/route/{route_id}" ; rml:class ex:Route ] ;
  rml:predicateObjectMap [ rml:predicate ex:routeName ; rml:objectMap [ rml:reference "route_name" ] ] ;
  rml:predicateObjectMap [ rml:predicate ex:routeType ; rml:objectMap [ rml:reference "route_type" ; rml:datatype xsd:integer ] ] ;
  rml:predicateObjectMap [
    rml:predicate ex:firstStop ;
    rml:objectMap [
      rml:parentTriplesMap <http://example.com/tm/stops> ;
      rml:joinCondition [ rml:child "first_stop" ; rml:parent "stop_id" ]
    ]
  ] .

<http://example.com/tm/shapes>
  rml:logicalSource [ rml:source "shapes.csv" ; rml:referenceFormulation rml:CSV ] ;
  rml:subjectMap [ rml:template "http://example.com/shape/{shape_id}/{pt_seq}" ; rml:class ex:ShapePoint ] ;
  rml:predicateObjectMap [ rml:predicate ex:ptLat ; rml:objectMap [ rml:reference "pt_lat" ; rml:datatype xsd:double ] ] ;
  rml:predicateObjectMap [ rml:predicate ex:ptLon ; rml:objectMap [ rml:reference "pt_lon" ; rml:datatype xsd:double ] ] ;
  rml:predicateObjectMap [
    rml:predicate ex:prev ;
    rml:objectMap [
      rml:parentTriplesMap <http://example.com/tm/shapes> ;
      rml:joinCondition [ rml:child "shape_id" ; rml:parent "shape_id" ] ;
      rml:joinCondition [ rml:child "prev_seq" ; rml:parent "pt_seq" ]
    ]
  ] ;
  rml:predicateObjectMap [ rml:predicate ex:marker ; rml:objectMap [ rml:reference "shape_id" ; rml:termType rml:BlankNode ] ] .
"""

_PROLOGUE = "PREFIX ex: <http://example.com/ns#>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\n"

QUERIES: dict[str, str] = {
    "q01": _PROLOGUE + "SELECT * WHERE { ?s ?p ?o . }\n",
    "q02": _PROLOGUE + "SELECT ?s ?n WHERE { ?s ex:name ?n . }\n",
    "q03": _PROLOGUE
    + "SELECT ?s ?lat ?lon WHERE { ?s a ex:Stop ; ex:lat ?lat ; ex:lon ?lon . }\n",
    "q04": _PROLOGUE + 'SELECT ?s WHERE { ?s ex:routeType "3"^^xsd:integer . }\n',
    "q05": _PROLOGUE + 'SELECT ?s WHERE { ?s ex:lat "41.2" . }\n',
    "q06": _PROLOGUE + "SELECT ?p ?o WHERE { <http://example.com/stop/s0001> ?p ?o . }\n",
    "q07": _PROLOGUE
    + "SELECT ?r ?n ?rn WHERE { ?r ex:firstStop ?s . ?s ex:name ?n . ?r ex:routeName ?rn . }\n",
    "q08": _PROLOGUE + "SELECT ?p ?q ?lat WHERE { ?p ex:prev ?q ; ex:ptLat ?lat . }\n",
}

_WORDS = (
    "north south east west central old new upper lower grand little royal market "
    "harbor station plaza garden bridge mill river park hill lake forest"
).split()


def _write_csv(path: Path, header: list[str], rows: list[list[str]]):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def generate(out_dir: Path | str, scale: int = 1, seed: int = 42) -> dict[str, int]:
    """Write the corpus into *out_dir*; returns row counts per table."""
    if scale < 1:
        raise ValueError("scale must be at least 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    n_stops = 100 * scale
    stop_ids = [f"s{i:04d}" for i in range(n_stops)]
    stop_rows = []
    for sid in stop_ids:
        name = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
        lat = f"{rng.uniform(-90, 90):.4f}"
        lon = f"{rng.uniform(-180, 180):.4f}"
        zone = f"z{rng.randrange(1, 6)}"
        stop_rows.append([sid, name, lat, lon, zone])
    _write_csv(out / "stops.csv", ["stop_id", "stop_name", "lat", "lon", "zone"], stop_rows)

    n_routes = 20 * scale
    route_rows = []
    for i in range(n_routes):
        route_rows.append(
            [
                f"r{i:03d}",
                f"{rng.choice(_WORDS)} line",
                str(rng.randrange(0, 8)),
                rng.choice(stop_ids),
            ]
        )
    _write_csv(
        out / "routes.csv",
        ["route_id", "route_name", "route_type", "first_stop"],
        route_rows,
    )

    n_shapes = 10 * scale
    points_per_shape = 20
    shape_rows = []
    for i in range(n_shapes):
        shape_id = f"sh{i:03d}"
        for seq in range(points_per_shape):
            shape_rows.append(
                [
                    shape_id,
                    str(seq),
                    f"{rng.uniform(-90, 90):.4f}",
                    f"{rng.uniform(-180, 180):.4f}",
                    str(seq - 1),
                ]
            )
    _write_csv(
        out / "shapes.csv",
        ["shape_id", "pt_seq", "pt_lat", "pt_lon", "prev_seq"],
        shape_rows,
    )

    (out / "mapping.ttl").write_text(MAPPING_TTL, encoding="utf-8")
    queries_dir = out / "queries"
    queries_dir.mkdir(exist_ok=True)
    for name, text in QUERIES.items():
        (queries_dir / f"{name}.rq").write_text(text, encoding="utf-8")

    return {
        "stops.csv": n_stops,
        "routes.csv": n_routes,
        "shapes.csv": len(shape_rows),
    }
