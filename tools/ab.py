"""A/B timing of two revisions of rmlprune, step by step, in one process.

Both revisions are loaded side by side, each package under its own name,
and timed in interleaved rounds on the seed corpus:

* ``load-wide``: the expressions of ``wide``, the prune-wide workload's
  560-expression mapping as ``perfbench/corpus.py`` writes it;
* ``load-corpus``: the expressions of the corpus mapping
  (``gendata.MAPPING_TTL``), which answer-s10 and materialize-s50 parse in
  their set-ups, read ``CALLS`` times;
* ``parse-queries``: ``parse_query`` of each of q01-q08, as prune-wide and
  answer-s10 parse them in their operations, and the patterns read, all
  ``CALLS`` times;
* ``load-long`` and ``load-escaped``: a Turtle read of 5,000 statements
  whose objects are long strings (``<http://e/sN> <http://e/p> \"\"\"vN\"\"\" .``)
  or strings with an escape (``"v\\nN"``), and the pairs read;
* ``materialize-s50``: ``materialize`` of the corpus mapping at scale 50;
* ``serialize-s50``: ``serialize_graph`` of that graph;
* ``answer-s10:qNN``: ``answer`` of each of q01-q08, pruned, at scale 10,
  and the rows it prints (sources loaded beforehand, not timed);
* ``prune-wide``: ``prune`` of the wide mapping for each of q01-q08,
  instantiated on its first copy with ``corpus.instantiate`` (mapping and
  queries read beforehand, not timed), and the count each keeps;
* ``write-wide``: ``serialize_pruned`` of the whole wide mapping and of
  each of those eight prunes (pruned beforehand, not timed), and the texts.

A mapping's expressions are what ``parse_rml`` returns, passed through
``translate`` where a revision has it (before ``b232fd4`` ``parse_rml``
returned a document that ``translate`` turned into expressions), so any
two revisions since ``07c1af5`` compare.  Each step runs once per side and
round, the side that goes first alternating by round, timed with
``time.thread_time`` after a ``gc.collect()``; the garbage collections
during a step are counted too.  A step of about a millisecond repeats its
calls ``CALLS`` times, so that a round takes some tens of milliseconds and
the clock's resolution and the noise between calls do not set its ratio.
The JSON printed gives, per step, each side's median and minimum
milliseconds and median collections, the median per-round ratio of head to
base with its quartiles, and how many rounds the head won.

With ``--perfbench W --pairs N`` it instead runs ``perfbench/run.py`` for
workload W in N alternating pairs of processes, each for the benchmark's
``run_seconds``, and prints the medians of its gated metrics.  Either way
both sides run from copies under one temporary directory, the working
tree too (its tracked files and the untracked ones git does not ignore).

Run from the repository root::

    python tools/ab.py                      # HEAD against the working tree
    python tools/ab.py --base HEAD~1 --head HEAD --rounds 30
    python tools/ab.py --perfbench materialize-s50 --pairs 10
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUERY_NAMES = tuple(f"q{i:02d}" for i in range(1, 9))
# how many times a step of about a millisecond repeats its calls in a round
CALLS = 50
# the texts of load-long and load-escaped
LONG_STRINGS = "".join(f'<http://e/s{i}> <http://e/p> """v{i}""" .\n' for i in range(5000))
ESCAPED_STRINGS = "".join(f'<http://e/s{i}> <http://e/p> "v\\n{i}" .\n' for i in range(5000))


def export(rev: str | None, into: Path) -> Path:
    """*into*, holding the tree of *rev* unpacked by ``git archive``; when
    *rev* is None, the working tree's files that git tracks or would add
    (not the ignored ones) copied there.  Both sides of a comparison run
    from like copies side by side, because where a tree lies moves
    materialize-s50's ``peak_rss_mb`` by up to about a megabyte."""
    if rev is None:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout
        for name in filter(None, os.fsdecode(listed).split("\0")):
            if (ROOT / name).is_file():  # a tracked file may be deleted
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, into / name)
        return into
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, keeps 3.12+ from warning
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def load_package(tree: Path, name: str):
    """The ``rmlprune`` package of *tree* imported as the top-level module
    *name*; its relative imports resolve under that name."""
    package = tree / "src" / "rmlprune"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def wide_inputs(tree: Path, data: Path, seed: int) -> tuple[bytes, dict[str, str]]:
    """The prune-wide workload's mapping, as ``perfbench/corpus.py`` of
    *tree* writes it for *seed*, and the queries of *data* instantiated on
    its first copy."""
    sys.path.insert(0, str(tree / "src"))  # corpus.py imports rmlprune
    try:
        spec = importlib.util.spec_from_file_location("ab_corpus", tree / "perfbench" / "corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
    finally:
        sys.path.remove(str(tree / "src"))
    tags = corpus.copy_tags(40, seed)
    queries = {
        q: corpus.instantiate((data / "queries" / f"{q}.rq").read_text(encoding="utf-8"), tags[0])
        for q in QUERY_NAMES
    }
    return corpus.wide_mapping(tags).encode("utf-8"), queries


def translator(rml):
    """What turns the result of *rml*'s ``parse_rml`` into a mapping's
    expressions: ``translate`` where the revision has it, else nothing."""
    return getattr(rml, "translate", lambda parsed: parsed)


class Side:
    """One revision's package with its inputs loaded: the corpus mapping and
    tables at scales 10 and 50, the eight queries, the wide mapping, and the
    eight queries on its first copy."""

    def __init__(self, pkg, data: dict[int, Path], wide: tuple[bytes, dict[str, str]]):
        import_ = lambda sub: importlib.import_module(f"{pkg.__name__}.{sub}")  # noqa: E731
        self.algebra, self.answer_mod = import_("algebra"), import_("answer")
        self.ntriples, csvsource = import_("ntriples"), import_("csvsource")
        self.rml, self.pruning, self.sparql = import_("rml"), import_("pruning"), import_("sparql")
        # the one place a step reaches a mapping's expressions
        self.translate = translator(self.rml)
        self.expressions = lambda text: self.translate(self.rml.parse_rml(text))
        self.mapping_text = import_("gendata").MAPPING_TTL

        class Collector(import_("turtle").TurtleParser):
            """A Turtle reader that keeps every (predicate, object) pair."""

            def __init__(self, text: str):
                super().__init__(text)
                self.pairs = []

            def properties(self, s):
                return self.pairs.append

        self.collector = Collector
        self.inputs = {}
        for scale, directory in data.items():
            mapping = self.expressions((directory / "mapping.ttl").read_bytes())
            sigma = {
                p.name: self.algebra.DataObject(csvsource.CSV_KIND, csvsource.parse_csv(p.read_bytes()))
                for p in sorted(directory.glob("*.csv"))
            }
            self.inputs[scale] = (mapping, sigma)
        self.query_texts = [(data[10] / "queries" / f"{q}.rq").read_text(encoding="utf-8") for q in QUERY_NAMES]
        self.queries = {q: self.sparql.parse_query(text) for q, text in zip(QUERY_NAMES, self.query_texts)}
        self.wide_text, wide_queries = wide
        self.wide_doc = self.rml.parse_rml(self.wide_text)
        self.wide = self.translate(self.wide_doc)
        self.wide_patterns = [
            self.sparql.collect_triple_patterns(self.sparql.parse_query(wide_queries[q])) for q in QUERY_NAMES
        ]
        pruned = (self.pruning.prune(patterns, self.wide) for patterns in self.wide_patterns)
        self.wide_kept = [self.wide] + [() if isinstance(p, self.pruning.FullyPruned) else p for p in pruned]
        self.graph = None

    def steps(self):
        """(name, call) for every step; a call returns what it computed."""
        mapping, sigma = self.inputs[50]

        def load_wide():
            return len(self.expressions(self.wide_text).trmaps)

        def load_corpus():
            return [len(self.expressions(self.mapping_text).trmaps) for _ in range(CALLS)]

        def materialize():
            self.graph = self.algebra.materialize(mapping, sigma)
            return len(self.graph)

        def serialize():
            return self.ntriples.serialize_graph(self.graph)

        def prune_wide():
            pruned = (self.pruning.prune(patterns, self.wide) for patterns in self.wide_patterns)
            return [0 if isinstance(p, self.pruning.FullyPruned) else len(p.trmaps) for p in pruned]

        def parse_queries():
            parse = self.sparql.parse_query
            return [len(parse(text).patterns) for _ in range(CALLS) for text in self.query_texts]

        def load(text):
            reader = self.collector(text)
            reader.parse()
            return len(reader.pairs)

        yield "load-wide", load_wide
        yield "load-corpus", load_corpus
        yield "parse-queries", parse_queries
        yield "load-long", lambda: load(LONG_STRINGS)
        yield "load-escaped", lambda: load(ESCAPED_STRINGS)
        yield "materialize-s50", materialize
        yield "serialize-s50", serialize
        mapping10, sigma10 = self.inputs[10]
        for q in QUERY_NAMES:
            query = self.queries[q]
            yield f"answer-s10:{q}", lambda query=query: self.answer_mod.answer(
                query, mapping10, sigma10.__getitem__
            ).rows()
        yield "prune-wide", prune_wide
        yield "write-wide", lambda: [self.rml.serialize_pruned(kept, self.wide_doc) for kept in self.wide_kept]


def timed(call) -> tuple[float, int, object]:
    """Thread milliseconds, garbage collections, and the result of *call*."""
    collections = []
    callback = lambda phase, info: collections.append(1) if phase == "start" else None  # noqa: E731
    gc.collect()
    gc.callbacks.append(callback)
    try:
        start = time.thread_time()
        result = call()
        elapsed = time.thread_time() - start
    finally:
        gc.callbacks.remove(callback)
    return elapsed * 1e3, len(collections), result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: Side, head: Side, rounds: int) -> dict:
    """Interleaved rounds of every step; per-step summaries.  Raises
    ``AssertionError`` when the two sides compute different results."""
    times: dict[str, dict[str, list]] = {}
    for r in range(rounds):
        for (name, base_call), (_, head_call) in zip(base.steps(), head.steps()):
            order = [("base", base_call), ("head", head_call)]
            if r % 2:
                order.reverse()
            results = {}
            for label, call in order:
                ms, collections, results[label] = timed(call)
                times.setdefault(name, {"base": [], "head": []})[label].append((ms, collections))
            if results["base"] != results["head"]:
                raise AssertionError(f"{name}: the two revisions compute different results")
    report = {}
    for name, per in times.items():
        summary = {}
        for label in ("base", "head"):
            ms = [t for t, _ in per[label]]
            summary[label] = {
                "median_ms": round(statistics.median(ms), 3),
                "min_ms": round(min(ms), 3),
                "gc_collections": statistics.median(c for _, c in per[label]),
            }
        ratios = [h / b for (h, _), (b, _) in zip(per["head"], per["base"]) if b > 0]
        q1, q2, q3 = quartiles(ratios) if ratios else (0.0, 0.0, 0.0)
        summary["ratio"] = {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
        summary["head_won"] = sum(h < b for (h, _), (b, _) in zip(per["head"], per["base"]))
        report[name] = summary
    return report


def perfbench_pairs(base: Path, head: Path, workload: str, pairs: int, seed: int) -> dict:
    """Alternating pairs of ``perfbench/run.py`` runs; the gated metrics of
    each run and their medians per side."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(pairs):
        order = [("base", base), ("head", head)]
        if i % 2:
            order.reverse()
        for label, tree in order:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=tree, check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs[label].append(
                {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
                 **{k: v["value"] for k, v in result["metrics"].items()}}
            )
    metrics = sorted(runs["base"][0].keys() - {"correct", "attempted", "failed"})
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "runs": runs,
        "median": {
            label: {m: statistics.median(run[m] for run in runs[label]) for m in metrics}
            for label in runs
        },
        "head_lower": {
            m: sum(h[m] < b[m] for h, b in zip(runs["head"], runs["base"])) for m in metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default: HEAD)")
    parser.add_argument("--head", help="head revision (default: the working tree)")
    parser.add_argument("--rounds", type=int, default=20, help="interleaved rounds")
    parser.add_argument("--seed", type=int, default=42, help="corpus seed")
    parser.add_argument("--perfbench", metavar="W", help="run perfbench workload W in pairs instead")
    parser.add_argument("--pairs", type=int, default=10, help="perfbench pairs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        base_tree, head_tree = export(args.base, tmp / "base"), export(args.head, tmp / "head")
        if args.perfbench:
            report = perfbench_pairs(base_tree, head_tree, args.perfbench, args.pairs, args.seed)
        else:
            base_pkg, head_pkg = load_package(base_tree, "ab_base"), load_package(head_tree, "ab_head")
            data = {}
            for scale in (10, 50):
                data[scale] = tmp / f"corpus-s{scale}"
                importlib.import_module("ab_head.gendata").generate(data[scale], scale=scale, seed=args.seed)
            wide = wide_inputs(head_tree, data[10], args.seed)
            steps = compare(Side(base_pkg, data, wide), Side(head_pkg, data, wide), args.rounds)
            report = {"base": args.base, "head": args.head or "working tree", "seed": args.seed,
                      "rounds": args.rounds, "steps": steps}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
