"""Differential run of two revisions of rmlprune on the mapping surface.

Both revisions are exported and imported side by side, each package under
its own name, with ``tools/ab.py``'s ``export`` and ``load_package``, and
fed the same seeded inputs:

* mutations of the corpus mapping (``gendata.MAPPING_TTL``) and of the
  prune-wide workload's 560-expression mapping, as ``perfbench/corpus.py``
  writes it.  Each input applies one to three edits: delete a run of
  tokens or characters, insert a snippet (a blank node, a bracket, a
  quote, a brace, a term map, a base), replace a run by a snippet, copy a
  run elsewhere, or swap a mapping keyword for another of its group
  (``rml:template`` for ``rml:reference``, ``rml:IRI`` for
  ``rml:BlankNode``...).

Per input, each side gives one record: the ``dump_plan`` of the parsed
mapping, its whole write-back by ``serialize_pruned``, and the write-back
of its prune for each of q01-q08 (instantiated on the wide mapping's first
copy for that mapping); or, if anything raises, the exception's class and
message.  The JSON printed gives the input and difference counts, each
side's accepted share, and the first ``--show`` differing inputs, each
with its edits (offset, removed text, inserted text, applied in order to
the unmutated mapping) and both records, a written text shortened to its
sha256 and line count.

Run from the repository root::

    python tools/diff.py                      # HEAD against the working tree
    python tools/diff.py --base HEAD~1 --head HEAD --rounds 500
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import logging
import random
import re
import sys
import tempfile
from pathlib import Path

QUERY_NAMES = tuple(f"q{i:02d}" for i in range(1, 9))

# what an insertion or a replacement puts in
SNIPPETS = (
    "_:x", "[ ]", "[ ex:p ex:o ]", '"', "{", "}", "\\\\", ";", ",", ".", "( )", "#", "\n",
    "<http://e/x>", '"x"', '"{a}"', '"a\\\\{b\\\\}{c}"', "rml:constant _:b", "rr:constant [ ex:p ex:o ]",
    'rml:reference "a"', 'rml:template "{a}"', "rml:termType rml:BlankNode", "rr:termType rr:Literal",
    "rml:class ex:C", "rml:datatype xsd:integer", "rml:subject _:s", "rr:object _:o",
    "@base <http://b.example/> .\n", 'rml:joinCondition [ rml:child "a" ; rml:parent "b" ]',
)
# the mapping keywords a swap exchanges for another of their group, in any namespace
KEYWORDS = {
    word: group
    for group in (
        ("template", "reference", "column", "constant"),
        ("IRI", "BlankNode", "Literal"),
        ("predicate", "object", "class"),
        ("subjectMap", "predicateMap", "objectMap"),
        ("child", "parent"),
    )
    for word in group
}
_KEYWORD_RE = re.compile(rf"\b(?:rr|rml|rmlold):({'|'.join(KEYWORDS)})\b")
_SPACE_RE = re.compile(r"\s+")


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutate(text: str, rng: random.Random) -> tuple[str, list[list]]:
    """*text* after one to three seeded edits, and the edits."""
    edits = []
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "insert", "replace", "copy", "swap", "swap", "swap", "swap"))
        if op == "swap":
            found = list(_KEYWORD_RE.finditer(text))
            if not found:
                continue
            match = rng.choice(found)
            i, j, new = match.start(1), match.end(1), rng.choice(KEYWORDS[match.group(1)])
        else:
            # at a token boundary, mostly, and a run of tokens or characters long
            spaces = [m.end() for m in _SPACE_RE.finditer(text)]
            i = rng.choice(spaces) if spaces and rng.random() < 0.7 else rng.randrange(len(text) + 1)
            length = rng.choice((1, 2, 5, 20, 80))
            j = i if op in ("insert", "copy") else min(len(text), i + length)
            if op in ("delete", "replace") and spaces and rng.random() < 0.5:
                later = [s for s in spaces if s > i][: rng.randint(1, 3)]
                j = later[-1] if later else len(text)
            if op == "delete":
                new = ""
            elif op == "copy":
                k = rng.randrange(len(text))
                new = text[k:k + length]
            else:
                new = rng.choice(SNIPPETS)
        edits.append([i, text[i:j], new])
        text = text[:i] + new + text[j:]
    return text, edits


def _written(text: str) -> list:
    """A written document as its sha256 and line count."""
    return [hashlib.sha256(text.encode("utf-8")).hexdigest(), text.count("\n")]


class Side:
    """One revision's package and what a record needs of it."""

    def __init__(self, pkg):
        import_ = lambda sub: importlib.import_module(f"{pkg.__name__}.{sub}")  # noqa: E731
        self.algebra, self.rml = import_("algebra"), import_("rml")
        self.pruning, self.sparql = import_("pruning"), import_("sparql")

    def record(self, text: str, queries: list[str]) -> tuple:
        """The plan and the write-backs of mapping *text*, whole and pruned
        for each of *queries*; or the exception's class and message."""
        try:
            doc = self.rml.parse_rml(text)
            mapping = self.rml.translate(doc)
            written = [self.rml.serialize_pruned(mapping, doc)]
            for query in queries:
                patterns = self.sparql.collect_triple_patterns(self.sparql.parse_query(query))
                pruned = self.pruning.prune(patterns, mapping)
                kept = () if isinstance(pruned, self.pruning.FullyPruned) else pruned
                written.append(self.rml.serialize_pruned(kept, doc))
            return ("ok", self.algebra.dump_plan(mapping), *written)
        except Exception as exc:  # any exception is part of the record
            return ("error", type(exc).__name__, str(exc))


def shown(record: tuple) -> list:
    """*record* for the report: a plan or a written text by its digest."""
    if record[0] == "error":
        return list(record)
    return ["ok", *(_written(text) for text in record[1:])]


def compare(base: Side, head: Side, inputs: dict[str, tuple[str, list[str]]], rounds: int, seed: int,
            show: int) -> dict:
    """Every side's record of *rounds* mutations of each input mapping."""
    counts = {"inputs": 0, "differences": 0, "accepted": {"base": 0, "head": 0}}
    first = []
    for name, (text, queries) in inputs.items():
        rng = random.Random(f"{seed}-{name}")
        for r in range(rounds):
            mutated, edits = mutate(text, rng)
            records = {"base": base.record(mutated, queries), "head": head.record(mutated, queries)}
            counts["inputs"] += 1
            for label, record in records.items():
                counts["accepted"][label] += record[0] == "ok"
            if records["base"] != records["head"]:
                counts["differences"] += 1
                if len(first) < show:
                    first.append({"input": name, "round": r, "edits": edits,
                                  **{label: shown(record) for label, record in records.items()}})
    share = {label: round(n / max(counts["inputs"], 1), 4) for label, n in counts["accepted"].items()}
    return {**counts, "accepted_share": share, "first": first}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default: HEAD)")
    parser.add_argument("--head", help="head revision (default: the working tree)")
    parser.add_argument("--rounds", type=int, default=200, help="mutations of each input mapping")
    parser.add_argument("--seed", type=int, default=42, help="mutation and corpus seed")
    parser.add_argument("--show", type=int, default=10, help="differing inputs to print")
    args = parser.parse_args(argv)
    logging.disable(logging.CRITICAL)  # a mutation's warnings are no record
    ab = load_ab()
    with tempfile.TemporaryDirectory(prefix="diff-") as tmp:
        tmp = Path(tmp)
        base_tree, head_tree = ab.export(args.base, tmp / "base"), ab.export(args.head, tmp / "head")
        base_pkg, head_pkg = ab.load_package(base_tree, "diff_base"), ab.load_package(head_tree, "diff_head")
        gendata = importlib.import_module("diff_head.gendata")
        gendata.generate(tmp / "corpus", scale=1, seed=args.seed)
        wide_text, wide_queries = ab.wide_inputs(head_tree, tmp / "corpus", args.seed)
        inputs = {
            "corpus": (gendata.MAPPING_TTL, [gendata.QUERIES[q] for q in QUERY_NAMES]),
            "wide": (wide_text.decode("utf-8"), [wide_queries[q] for q in QUERY_NAMES]),
        }
        report = compare(Side(base_pkg), Side(head_pkg), inputs, args.rounds, args.seed, args.show)
    print(json.dumps({"base": args.base, "head": args.head or "working tree", "seed": args.seed,
                      "rounds": args.rounds, "surface": "mapping", **report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
