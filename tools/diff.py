"""Differential run of two revisions of rmlprune on one surface.

Both revisions are exported and imported side by side, each package under
its own name, with ``tools/ab.py``'s ``export`` and ``load_package``, and
fed the same seeded inputs.  Each input applies one to three edits to a
text: delete a run of tokens or characters, insert a snippet, replace a
run by a snippet, copy a run elsewhere, or swap a mapping keyword for
another of its group (``rml:template`` for ``rml:reference``, ``rml:IRI``
for ``rml:BlankNode``...; a text without one gets a replacement instead).

* ``--surface mapping`` (the default) mutates the corpus mapping
  (``gendata.MAPPING_TTL``) and the prune-wide workload's 560-expression
  mapping, as ``perfbench/corpus.py`` writes it, with snippets such as a
  blank node, a bracket, a quote, a brace, a term map, a base, a CR line
  end or a literal where an IRI-valued property stands.  A record is the
  ``dump_plan`` of the parsed mapping, its whole write-back by
  ``serialize_pruned``, and for each of q01-q08 (instantiated on the wide
  mapping's first copy for that mapping) the write-back of its prune and
  its ``incompatibility_trace``, which ``prune --explain`` prints.
* ``--surface sparql`` mutates q01-q08, a query with OPTIONAL, FILTER and
  ORDER BY, a query with ``[]``, an aggregate query and a query whose
  FILTER holds operators, an escaped string, a language tag and ``SHA1``,
  from its ``SELECT`` on, with snippets such as a variable, an operator, a
  literal, a group, a keyword in either case, a prefixed name whose prefix
  or local name spells a keyword, an expression, a dangling ``;``, a
  FROM or VALUES clause, or a token snippet: an escaped or long string, an
  escaped IRIREF or local name, a relative datatype, a language tag, a hex
  escape outside Unicode, ``TRUE``, ``SHA1(?s)``, ``ENCODE_FOR_URI(?s)``, a
  number that starts with ``.`` or ``-.``, or a string with a lone ``@``.
  A record is the parsed query's ``SelectQuery`` fields, each term as its
  own revision's ``format_term`` spelling and a variable by its ``repr``,
  so revisions whose terms differ in form compare; ``required`` only where
  both revisions have it.
* ``--surface turtle`` mutates the two mappings above and a Turtle text
  with collections, labels, comments and all four string forms, with the
  mapping snippets, every SPARQL operator and the token snippets.  A
  record is what the Turtle
  reader files: each run of one subject's (predicate, object) pairs, the
  offsets where its blank nodes open, and the base at the end.

If anything raises, the record is instead the exception's class and
message, with its line and column.  The JSON printed gives the input and
difference counts, each side's accepted share, and the first ``--show``
differing inputs, each with its edits (offset, removed text, inserted
text, applied in order to the unmutated text) and both records, a written
text shortened to its sha256 and line count.

Run from the repository root::

    python tools/diff.py                      # HEAD against the working tree
    python tools/diff.py --base HEAD~1 --head HEAD --rounds 500
    python tools/diff.py --surface sparql --rounds 500
    python tools/diff.py --surface turtle --rounds 500
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

# what an insertion or a replacement puts in a mapping
SNIPPETS = (
    "_:x", "[ ]", "[ ex:p ex:o ]", '"', "{", "}", "\\\\", ";", ",", ".", "( )", "#", "\n",
    "<http://e/x>", '"x"', '"{a}"', '"a\\\\{b\\\\}{c}"', "rml:constant _:b", "rr:constant [ ex:p ex:o ]",
    'rml:reference "a"', 'rml:template "{a}"', "rml:termType rml:BlankNode", "rr:termType rr:Literal",
    "rml:class ex:C", "rml:datatype xsd:integer", "rml:subject _:s", "rr:object _:o",
    "@base <http://b.example/> .\n", 'rml:joinCondition [ rml:child "a" ; rml:parent "b" ]',
    # a CR line end, after a comment too, and a literal where an IRI-valued property stands
    "\r", "# c\r", 'rml:datatype "x"', 'rml:class "C"', 'rml:termType "x"',
)
# ... and in a query or a Turtle text: the spellings that were the readers'
# alone before every valid spelling was a token, and the errors they spell
TOKEN_SNIPPETS = (
    '"a\\u0041"', "'''x\ny'''", '"""a""""', "<http://e/\\u0041>", "ex:a\\.b", '"x"^^<rel>', '"x"@en-GB',
    '"\\U00110000"', "TRUE", "SHA1(?s)", "ENCODE_FOR_URI(?s)", ".5", "-.5e1", '"x"@',
)
# ... and in a query
QUERY_SNIPPETS = (
    "?x", "$y", "a", "[]", "[ ]", "[ ex:p ?o ]", "{", "}", ".", ";", ",", "(", ")", "/", "|", "*", "+",
    "^", "!", "?", '"x"', "'x'", '"5"^^xsd:integer', '"x"@en', "42", "-1.5", "true", "_:b", "<http://e/x>",
    "<rel>", "ex:", "ex:a\\.b", "filter:x", "#c\n", "\n", "\r", "#c\r", "OPTIONAL { ?s ex:p ?o }",
    "FILTER(?x > 1)",
    "FILTER regex(?n, \"a\")", "UNION", "MINUS", "SELECT", "ORDER BY ?s", "LIMIT 3", "OFFSET 2",
    "GROUP BY ?s", "BASE <http://b/>", "PREFIX p: <http://p/>", "DISTINCT",
    ". ?x ex:p ?y .", "; ex:q ?z", ", ?w", "?s a ex:C .", "ex:p 'x' ;",
    # keywords in lower case, prefixes that spell keywords, and clauses the
    # keyword table rejects
    "optional:x", "union:x", "order:f(?s)", "optional { ?s ex:p ?o }", "limit 3", "FROM <http://g/>",
    "VALUES ?s { }",
    # operators, names that spell a modifier, expressions, and the shapes
    # that end a triples block early: a dangling ';' before ']' or '}', and
    # '[]' before '.'
    "!=", "<=", ">=", "&&", "||", "=", "<", ">", "-", "$", "ex:limit", "ex:offset(?s)", "(?s AS ?t)", "MD5(?s)",
    "; ]", "; }", "[] .",
) + TOKEN_SNIPPETS
# ... and in a Turtle text: the mapping snippets, every SPARQL operator and
# the token snippets
OPERATORS = ("!=", "<=", ">=", "&&", "||", "=", "<", ">", "!", "+", "-", "*", "/", "|", "^", "?", "$")
TURTLE_SNIPPETS = SNIPPETS + OPERATORS + TOKEN_SNIPPETS
# the queries mutated besides q01-q08
EXTRA_QUERIES = {
    "optional": "PREFIX ex: <http://example.com/ns#>\n"
    "SELECT ?s ?n ?z WHERE { ?s a ex:Stop ; ex:name ?n . OPTIONAL { ?s ex:zone ?z }\n"
    "  FILTER(?n != \"x\") } ORDER BY ?n LIMIT 10\n",
    "anon": "PREFIX ex: <http://example.com/ns#>\nSELECT * WHERE { [] ex:name ?n . ?r ex:firstStop [] }\n",
    "aggregate": "PREFIX ex: <http://example.com/ns#>\n"
    "SELECT ?z (COUNT(*) AS ?n) WHERE { ?s ex:zone ?z }\n"
    "GROUP BY ?z HAVING (COUNT(*) > 1) ORDER BY DESC(?n)\n",
    "operators": "PREFIX ex: <http://example.com/ns#>\n"
    "SELECT * WHERE { ?s ex:name ?n ; ex:lat ?lat\n"
    '  FILTER(?lat <= 50 && ?n != "a\\"b" || ?n = "x"@en || SHA1(?s) != "") }\n',
}
# the Turtle text mutated besides the two mappings
TURTLE = (
    "@prefix ex: <http://example.com/ns#> .\n"
    "@base <http://example.com/base/> .\n"
    "# collections, labels and every string form\n"
    'ex:s ex:list ( ex:a "b" ( 1 2.5 ) ) ;\n'
    """  ex:node _:x , [ ex:p 'single' ; ex:q \"\"\"long "quoted"\ntext\"\"\" ] ; # a comment after ';'\n"""
    "  ex:more '''long 'single' text''' , \"typed\"^^ex:t , \"esc\\\"aped\" , true , -2.5e3 .\n"
    "_:x ex:p <relative> ; a ex:C ; ex:empty ( ) .\n"
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


def mutate(text: str, rng: random.Random, snippets: tuple[str, ...] = SNIPPETS,
           start: int = 0) -> tuple[str, list[list]]:
    """*text* after one to three seeded edits from offset *start* on, and
    the edits.  A run of characters an edit takes is at most a twentieth of
    the text long, or two characters, so a short text keeps most of its
    tokens."""
    edits = []
    lengths = [n for n in (1, 2, 5, 20, 80) if n <= max(2, len(text) // 20)]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "insert", "replace", "copy", "swap", "swap", "swap", "swap"))
        found = list(_KEYWORD_RE.finditer(text, start)) if op == "swap" else []
        if found:
            match = rng.choice(found)
            i, j, new = match.start(1), match.end(1), rng.choice(KEYWORDS[match.group(1)])
        else:
            op = "replace" if op == "swap" else op
            # at a token boundary, mostly, and a run of tokens or characters long
            spaces = [m.end() for m in _SPACE_RE.finditer(text, start)]
            i = rng.choice(spaces) if spaces and rng.random() < 0.7 else rng.randrange(start, len(text) + 1)
            length = rng.choice(lengths)
            j = i if op in ("insert", "copy") else min(len(text), i + length)
            if op in ("delete", "replace") and spaces and rng.random() < 0.5:
                later = [s for s in spaces if s > i][: rng.randint(1, 3)]
                j = later[-1] if later else len(text)
            if op == "delete":
                new = ""
            elif op == "copy":
                k = rng.randrange(len(text)) if text else 0
                new = text[k:k + length]
            else:
                new = rng.choice(snippets)
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
        self.translate = load_ab().translator(self.rml)
        self.pruning, self.sparql, self.rdf = import_("pruning"), import_("sparql"), import_("rdf")
        # whether a query's record holds its required patterns: set to
        # whether both sides parse them by compare()
        self.with_required = "required" in self.sparql.SelectQuery.__dataclass_fields__

        class Collector(import_("turtle").TurtleParser):
            """A Turtle reader that keeps each run of one subject's pairs."""

            def __init__(self, text: str):
                super().__init__(text)
                self.filed = []

            def properties(self, s):
                pairs = []
                self.filed.append((s, pairs))
                return pairs.append

        self.collector = Collector

    def mapping_record(self, text: str, queries: list[str]) -> tuple:
        """The plan and the write-backs of mapping *text*, whole and pruned
        for each of *queries*, each prune with its trace; or the
        exception's class and message."""
        try:
            doc = self.rml.parse_rml(text)
            mapping = self.translate(doc)
            written = [self.rml.serialize_pruned(mapping, doc)]
            for query in queries:
                patterns = self.sparql.collect_triple_patterns(self.sparql.parse_query(query))
                pruned = self.pruning.prune(patterns, mapping)
                kept = () if isinstance(pruned, self.pruning.FullyPruned) else pruned
                written.append(self.rml.serialize_pruned(kept, doc))
                written.append(self.pruning.incompatibility_trace(patterns, mapping))
            return ("ok", self.algebra.dump_plan(mapping), *written)
        except Exception as exc:  # any exception is part of the record
            return ("error", type(exc).__name__, str(exc))

    def turtle_record(self, text: str, queries: None = None) -> tuple:
        """What the Turtle reader files from *text*, each run of pairs with
        its subject, where its blank nodes open, and its base; or the
        exception's class and message."""
        try:
            reader = self.collector(text)
            base = reader.parse()
        except Exception as exc:  # any exception is part of the record
            return ("error", type(exc).__name__, str(exc))
        term = self.term
        filed = [[term(s), [[term(p), term(o)] for p, o in pairs]] for s, pairs in reader.filed]
        return ("ok", filed, reader.bnode_offsets, base)

    def sparql_record(self, text: str, queries: None = None) -> tuple:
        """The fields of query *text* as parsed, or the exception's class
        and message."""
        try:
            query = self.sparql.parse_query(text)
        except Exception as exc:  # any exception is part of the record
            return ("error", type(exc).__name__, str(exc))
        record = ("ok", [self.term(v) for v in query.variables], self.patterns(query.patterns),
                  query.distinct, sorted(query.unevaluable))
        return (*record, self.patterns(query.required)) if self.with_required else record

    def patterns(self, patterns) -> list:
        """Each of *patterns* as its three terms' records."""
        return [[self.term(t) for t in (tp.s, tp.p, tp.o)] for tp in patterns]

    def term(self, term) -> str:
        """*term* as this revision spells it: a variable by its ``repr``,
        any other term by ``format_term``."""
        return repr(term) if isinstance(term, self.rdf.Variable) else self.rdf.format_term(term)


def shown(record: tuple) -> list:
    """*record* for the report: a plan or a written text by its digest."""
    if record[0] == "error":
        return list(record)
    return ["ok", *(_written(item) if isinstance(item, str) else item for item in record[1:])]


def surface_inputs(surface: str, gendata, tree: Path, tmp: Path, seed: int) -> dict[str, tuple[str, list[str] | None]]:
    """The texts that *surface* mutates, by name, each with the queries that
    a mapping record prunes it for (None on the other surfaces).
    *gendata* writes the corpus under *tmp*, and *tree*'s
    ``perfbench/corpus.py`` the wide mapping."""
    if surface == "sparql":
        return {name: (text, None) for name, text in {**gendata.QUERIES, **EXTRA_QUERIES}.items()}
    gendata.generate(tmp / "corpus", scale=1, seed=seed)
    wide_text, wide_queries = load_ab().wide_inputs(tree, tmp / "corpus", seed)
    inputs = {
        "corpus": (gendata.MAPPING_TTL, [gendata.QUERIES[q] for q in QUERY_NAMES]),
        "wide": (wide_text.decode("utf-8"), [wide_queries[q] for q in QUERY_NAMES]),
    }
    if surface == "turtle":
        inputs = {name: (text, None) for name, (text, _) in inputs.items()} | {"turtle": (TURTLE, None)}
    return inputs


def mutations(surface: str, inputs: dict[str, tuple[str, list[str] | None]], rounds: int, seed: int):
    """(name, round, mutated text, edits, queries) for *rounds* seeded
    mutations of each of *inputs*."""
    snippets = {"mapping": SNIPPETS, "sparql": QUERY_SNIPPETS, "turtle": TURTLE_SNIPPETS}[surface]
    for name, (text, queries) in inputs.items():
        rng = random.Random(f"{seed}-{name}")
        # a query's edits start at its SELECT, past the prologue
        start = text.index("SELECT") if surface == "sparql" else 0
        for r in range(rounds):
            yield name, r, *mutate(text, rng, snippets, start), queries


def compare(base: Side, head: Side, surface: str, inputs: dict[str, tuple[str, list[str] | None]],
            rounds: int, seed: int, show: int) -> dict:
    """Every side's record of *rounds* mutations of each input text."""
    counts = {"inputs": 0, "differences": 0, "accepted": {"base": 0, "head": 0}}
    first = []
    base.with_required = head.with_required = base.with_required and head.with_required
    sides = {"base": getattr(base, f"{surface}_record"), "head": getattr(head, f"{surface}_record")}
    for name, r, mutated, edits, queries in mutations(surface, inputs, rounds, seed):
        records = {label: record(mutated, queries) for label, record in sides.items()}
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
    parser.add_argument("--surface", choices=("mapping", "sparql", "turtle"), default="mapping",
                        help="what to compare")
    args = parser.parse_args(argv)
    logging.disable(logging.CRITICAL)  # a mutation's warnings are no record
    ab = load_ab()
    with tempfile.TemporaryDirectory(prefix="diff-") as tmp:
        tmp = Path(tmp)
        base_tree, head_tree = ab.export(args.base, tmp / "base"), ab.export(args.head, tmp / "head")
        base_pkg, head_pkg = ab.load_package(base_tree, "diff_base"), ab.load_package(head_tree, "diff_head")
        gendata = importlib.import_module("diff_head.gendata")
        inputs = surface_inputs(args.surface, gendata, head_tree, tmp, args.seed)
        report = compare(Side(base_pkg), Side(head_pkg), args.surface, inputs, args.rounds, args.seed,
                         args.show)
    print(json.dumps({"base": args.base, "head": args.head or "working tree", "seed": args.seed,
                      "rounds": args.rounds, "surface": args.surface, **report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
