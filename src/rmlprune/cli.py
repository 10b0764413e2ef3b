"""Command-line interface: one subcommand per pipeline step (``rmlprune --help``);
``query`` and ``bench`` run :func:`rmlprune.answer.answer`.  One loader,
:func:`_load`, reads every input file, so each input error names its file.

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
from pathlib import Path

from .algebra import DataObject, dump_plan, materialize
from .answer import SourceLoader, answer, evaluable_bgp, format_csv, format_rows, run_benchmark
from .csvsource import CSV_KIND, parse_csv
from .errors import RmlPruneError, SourceInputError
from .gendata import generate
from .ntriples import serialize_graph
from .pruning import FullyPruned, prune
from .rml import parse_rml, serialize_pruned
from .sparql import SelectQuery, collect_triple_patterns, parse_query


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


def _load(path, parse, what: str):
    """``parse`` of the bytes of the file at *path*: an unreadable file is
    named as *what*, and every input error in it names *path*."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SourceInputError(f"cannot read {what}: {exc}") from exc
    try:
        return parse(data)
    except RmlPruneError as exc:
        raise RmlPruneError(f"{path}: {exc}") from None


def _evaluable_query(data: bytes) -> SelectQuery:
    """A query that ``query`` and ``bench`` can evaluate."""
    query = parse_query(data)
    evaluable_bgp(query)
    return query


def _sources(data_dir: str) -> SourceLoader:
    """The loader of the CSV sources under *data_dir*, by reference."""
    def parse(data: bytes) -> DataObject:
        return DataObject(kind=CSV_KIND, payload=parse_csv(data))
    return lambda ref: _load(Path(data_dir) / ref, parse, f"source {ref!r} under {data_dir!r}")


def cmd_translate(args) -> int:
    mapping = _load(args.mapping, parse_rml, f"mapping {args.mapping!r}")
    print(f"{len(mapping.trmaps)} TrMap-expressions", file=sys.stderr)
    if args.dump_algebra:
        _write_out(dump_plan(mapping) + "\n", args.out)
    return 0


def cmd_prune(args) -> int:
    mapping = _load(args.mapping, parse_rml, f"mapping {args.mapping!r}")
    patterns = collect_triple_patterns(_load(args.query, parse_query, f"query {args.query!r}"))
    t0 = time.monotonic()
    result = prune(patterns, mapping)
    elapsed_ms = (time.monotonic() - t0) * 1000.0
    retained = () if isinstance(result, FullyPruned) else result
    after = len(retained.trmaps) if retained else 0
    print(f"{len(mapping.trmaps)} -> {after} TrMap-expressions retained ({elapsed_ms:.2f} ms)",
          file=sys.stderr)
    if args.dump_algebra and retained:
        print(dump_plan(retained), file=sys.stderr)
    _write_out(serialize_pruned(retained, mapping), args.out)
    return 0


def cmd_materialize(args) -> int:
    mapping = _load(args.mapping, parse_rml, f"mapping {args.mapping!r}")
    load = _sources(args.data_dir)
    graph = materialize(mapping, {ref: load(ref) for ref in mapping.source_refs()})
    print(f"{len(graph)} triples", file=sys.stderr)
    _write_out(serialize_graph(graph), args.out)
    return 0


def cmd_query(args) -> int:
    mapping = _load(args.mapping, parse_rml, f"mapping {args.mapping!r}")
    query = _load(args.query, _evaluable_query, f"query {args.query!r}")
    result = answer(query, mapping, _sources(args.data_dir))
    rows = result.rows()
    _write_out(format_rows(result.variables, rows), args.out)
    print(f"{len(rows)} rows", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    mapping = _load(args.mapping, parse_rml, f"mapping {args.mapping!r}")
    query_files = sorted(Path(args.queries_dir).glob("*.rq"))
    if not query_files:
        raise SourceInputError(f"no .rq files under {args.queries_dir!r}")
    queries = [(p.stem, _load(p, _evaluable_query, f"query {str(p)!r}")) for p in query_files]
    rows, full_triples = run_benchmark(mapping, queries, _sources(args.data_dir), args.repetitions)
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

    p = sub.add_parser("translate", help="translate a mapping into algebra")
    add_common(p)
    p.add_argument("--dump-algebra", action="store_true", help="print the algebra plan")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("prune", help="prune a mapping against a query")
    add_common(p)
    p.add_argument("--query", required=True, help="SPARQL query file")
    p.add_argument("--dump-algebra", action="store_true", help="print the pruned plan")
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
