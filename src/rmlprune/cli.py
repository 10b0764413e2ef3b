"""Command-line interface: one subcommand per pipeline step (``rmlprune --help``);
``query`` and ``bench`` run :func:`rmlprune.answer.answer`.

Status lines go to stderr; requested artifacts go to ``--out`` or stdout.
Exit codes: 0 on success, 1 when a benchmark equality check fails, 2 on
invalid input.  Set ``RMLPRUNE_LOG`` (e.g. ``debug``) to enable logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from functools import partial
from pathlib import Path

from .algebra import DataObject, dump_plan, materialize
from .answer import answer, evaluable_bgp, format_csv, format_rows, run_benchmark
from .csvsource import CSV_KIND, parse_csv
from .errors import RmlPruneError, SourceInputError
from .gendata import generate
from .ntriples import serialize_graph
from .pruning import FullyPruned, prune
from .rml import parse_rml, serialize_pruned, translate
from .sparql import collect_triple_patterns, parse_query


def _configure_logging():
    level_name = os.environ.get("RMLPRUNE_LOG")
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SourceInputError(f"cannot write {out!r}: {exc}") from exc


def _load_mapping(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SourceInputError(f"cannot read mapping {path!r}: {exc}") from exc
    try:
        doc = parse_rml(data)
        return doc, translate(doc)
    except RmlPruneError as exc:
        raise RmlPruneError(f"{path}: {exc}") from None


def _load_query(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SourceInputError(f"cannot read query {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SourceInputError(f"query {path!r} is not valid UTF-8: {exc}") from None
    return parse_query(text)


def _load_source(data_dir: str, ref: str) -> DataObject:
    path = Path(data_dir) / ref
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SourceInputError(f"source {ref!r} not found under {data_dir!r}: {exc}") from exc
    try:
        return DataObject(kind=CSV_KIND, payload=parse_csv(raw))
    except RmlPruneError as exc:
        raise RmlPruneError(f"{path}: {exc}") from None


def cmd_translate(args) -> int:
    _, mapping = _load_mapping(args.mapping)
    print(f"{len(mapping.trmaps)} TrMap-expressions", file=sys.stderr)
    if args.dump_algebra:
        _write_out(dump_plan(mapping) + "\n", args.out)
    return 0


def cmd_prune(args) -> int:
    doc, mapping = _load_mapping(args.mapping)
    patterns = collect_triple_patterns(_load_query(args.query))
    t0 = time.monotonic()
    result = prune(patterns, mapping, args.assume_nonempty_refs)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    retained = () if isinstance(result, FullyPruned) else result
    after = len(retained.trmaps) if retained else 0
    print(f"{len(mapping.trmaps)} -> {after} TrMap-expressions retained ({elapsed_ms:.2f} ms)",
          file=sys.stderr)
    if args.dump_algebra and retained:
        print(dump_plan(retained), file=sys.stderr)
    _write_out(serialize_pruned(retained, doc), args.out)
    return 0


def cmd_materialize(args) -> int:
    _, mapping = _load_mapping(args.mapping)
    sigma = {ref: _load_source(args.data_dir, ref) for ref in mapping.source_refs()}
    graph = materialize(mapping, sigma)
    print(f"{len(graph.triples)} triples", file=sys.stderr)
    _write_out(serialize_graph(graph), args.out)
    return 0


def cmd_query(args) -> int:
    _, mapping = _load_mapping(args.mapping)
    # pruning without the non-empty assumption is sound for any data
    result = answer(_load_query(args.query), mapping, partial(_load_source, args.data_dir))
    rows = result.rows()
    _write_out(format_rows(result.variables, rows), args.out)
    print(f"{len(rows)} rows", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    _, mapping = _load_mapping(args.mapping)
    query_files = sorted(Path(args.queries_dir).glob("*.rq"))
    if not query_files:
        raise SourceInputError(f"no .rq files under {args.queries_dir!r}")
    queries = []
    for path in query_files:
        query = _load_query(str(path))
        try:
            evaluable_bgp(query)
        except RmlPruneError as exc:
            raise RmlPruneError(f"{path}: {exc}") from None
        queries.append((path.stem, query))
    rows, full_triples = run_benchmark(
        mapping, queries, partial(_load_source, args.data_dir), args.repetitions,
        args.assume_nonempty_refs,
    )
    print(f"full output: {full_triples} triples", file=sys.stderr)
    for r in rows:
        print(f"{r.query}: {r.trmaps_before} -> {r.trmaps_after} TrMap-expressions, "
              f"{r.triples} triples, {r.result_rows} rows, {r.equal}", file=sys.stderr)
    _write_out(format_csv(rows), args.out)
    return 1 if any(r.equal == "FAIL" for r in rows) else 0


def cmd_gen_data(args) -> int:
    try:
        counts = generate(args.out, scale=args.scale, seed=args.seed)
    except OSError as exc:
        raise SourceInputError(f"cannot write the corpus to {args.out!r}: {exc}") from exc
    for name, count in counts.items():
        print(f"{name}: {count} rows")
    print(f"corpus written to {args.out}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlprune",
        description="Prune RML mappings down to the triples maps a query can use.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--mapping", required=True, help="RML mapping (Turtle)")
        p.add_argument("--out", help="output file (default: stdout)")

    assume_nonempty = dict(action=argparse.BooleanOptionalAction, default=True,
                           help="treat referenced data values as never empty (default: on)")

    p = sub.add_parser("translate", help="translate a mapping into algebra")
    add_common(p)
    p.add_argument("--dump-algebra", action="store_true", help="print the algebra plan")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("prune", help="prune a mapping against a query")
    add_common(p)
    p.add_argument("--query", required=True, help="SPARQL query file")
    p.add_argument("--dump-algebra", action="store_true", help="print the pruned plan")
    p.add_argument("--assume-nonempty-refs", **assume_nonempty)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("materialize", help="materialize a mapping to N-Triples")
    add_common(p)
    p.add_argument("--data-dir", required=True, help="directory with the CSV sources")
    p.set_defaults(func=cmd_materialize)

    p = sub.add_parser("query", help="prune, then evaluate a query over the pruned output")
    add_common(p)
    p.add_argument("--query", required=True, help="SPARQL query file")
    p.add_argument("--data-dir", required=True, help="directory with the CSV sources")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="benchmark prune + materialize + query")
    add_common(p)
    p.add_argument("--queries-dir", required=True, help="directory with .rq files")
    p.add_argument("--data-dir", required=True, help="directory with the CSV sources")
    p.add_argument("--repetitions", type=positive_int, default=4, help="measured runs per stage")
    p.add_argument("--assume-nonempty-refs", **assume_nonempty)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-data", help="generate the benchmark corpus")
    p.add_argument("--out", required=True, help="target directory")
    p.add_argument("--scale", type=positive_int, default=1, help="size multiplier")
    p.add_argument("--seed", type=int, default=42, help="random seed")
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RmlPruneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
