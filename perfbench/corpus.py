"""Seeded benchmark inputs built on top of ``rmlprune.gendata``.

* :func:`wide_mapping` turns the corpus mapping into many renamed copies,
  so pruning has hundreds of expressions to decide on.
* :func:`instantiate` rewrites a corpus query so that it targets one copy.
* :func:`expected_ntriples` computes, straight from the CSV files and
  without any ``rmlprune`` code, the N-Triples text the corpus mapping must
  produce.  It is the oracle for the materialization workload.
"""

from __future__ import annotations

import csv
import hashlib
import random
import re
from pathlib import Path

from rmlprune.gendata import MAPPING_TTL

EX = "http://example.com/"
NS = EX + "ns#"
XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_PREFIX_LINE = re.compile(r"^@prefix (\w+): <([^>]*)> \.$")
_EX_NAME = re.compile(r"\bex:")


def copy_tags(copies: int, seed: int) -> list[str]:
    """One distinct IRI path segment per copy, drawn from *seed*."""
    rng = random.Random(f"wide-tags-{seed}")
    return [f"c{k:02d}{rng.getrandbits(16):04x}" for k in range(copies)]


def _retag(text: str, tag: str) -> str:
    return text.replace(EX, f"{EX}{tag}/")


def wide_mapping(tags: list[str]) -> str:
    """The corpus mapping repeated once per tag, every IRI moved under it.

    Triples-map identifiers, subject and object templates, classes and
    predicates of copy *k* all live below ``http://example.com/<tag_k>/``,
    so a query instantiated on one copy can only match that copy, except
    for patterns (such as ``?s ?p ?o``) that match every copy.
    """
    prefixes: list[str] = []
    body: list[str] = []
    for line in MAPPING_TTL.splitlines():
        match = _PREFIX_LINE.match(line)
        if match is None:
            body.append(line)
        elif match.group(1) != "ex":
            prefixes.append(line)
    body_text = "\n".join(body)
    parts = list(prefixes)
    for k, tag in enumerate(tags):
        parts.append(f"@prefix ex{k}: <{_retag(NS, tag)}> .")
    for k, tag in enumerate(tags):
        parts.append(_EX_NAME.sub(f"ex{k}:", _retag(body_text, tag)))
    return "\n".join(parts) + "\n"


def instantiate(query_text: str, tag: str) -> str:
    """A corpus query rewritten to use the IRIs of copy *tag*."""
    return _retag(query_text, tag)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def expected_ntriples(data_dir: Path) -> str:
    """The sorted N-Triples text of the corpus mapping over *data_dir*.

    Written against the mapping in ``rmlprune.gendata``: five triples per
    stop, four per route, and per shape point three plus a blank-node marker
    plus a link to its predecessor when one exists.
    """
    typ = f"<{RDF_TYPE}>"

    def lit(value: str, datatype: str | None = None) -> str:
        return f'"{value}"' if datatype is None else f'"{value}"^^<{XSD}{datatype}>'

    lines: list[str] = []
    for r in _rows(data_dir / "stops.csv"):
        s = f"<{EX}stop/{r['stop_id']}>"
        lines += [
            f"{s} {typ} <{NS}Stop> .",
            f"{s} <{NS}name> {lit(r['stop_name'])} .",
            f"{s} <{NS}lat> {lit(r['lat'], 'double')} .",
            f"{s} <{NS}lon> {lit(r['lon'], 'double')} .",
            f"{s} <{NS}zone> <{EX}zone/{r['zone']}> .",
        ]
    stop_ids = {line.split(" ", 1)[0] for line in lines}
    for r in _rows(data_dir / "routes.csv"):
        s = f"<{EX}route/{r['route_id']}>"
        lines += [
            f"{s} {typ} <{NS}Route> .",
            f"{s} <{NS}routeName> {lit(r['route_name'])} .",
            f"{s} <{NS}routeType> {lit(r['route_type'], 'integer')} .",
        ]
        parent = f"<{EX}stop/{r['first_stop']}>"
        if parent in stop_ids:
            lines.append(f"{s} <{NS}firstStop> {parent} .")
    shapes = _rows(data_dir / "shapes.csv")
    points = {(r["shape_id"], r["pt_seq"]) for r in shapes}
    for r in shapes:
        sid = r["shape_id"]
        s = f"<{EX}shape/{sid}/{r['pt_seq']}>"
        marker = hashlib.blake2b(sid.encode("utf-8"), digest_size=16).hexdigest()
        lines += [
            f"{s} {typ} <{NS}ShapePoint> .",
            f"{s} <{NS}ptLat> {lit(r['pt_lat'], 'double')} .",
            f"{s} <{NS}ptLon> {lit(r['pt_lon'], 'double')} .",
            f"{s} <{NS}marker> _:b{marker} .",
        ]
        if (sid, r["prev_seq"]) in points:
            lines.append(f"{s} <{NS}prev> <{EX}shape/{sid}/{r['prev_seq']}> .")
    return "".join(line + "\n" for line in sorted(set(lines)))
