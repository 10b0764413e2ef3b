"""Whole-pipeline acceptance checks.

Every test prints exactly one ``[PASS]``/``[FAIL]`` line (on the real
stdout, past pytest's capture) so a log of the run doubles as a checklist.
"""

import os
import random
import time
from pathlib import Path

import pytest

from rmlprune import pruning
from rmlprune.algebra import BuildLiteral, RmlMappingExpr, materialize, materialize_trmap
from rmlprune.gendata import MAPPING_TTL, QUERIES
from rmlprune.pruning import FullyPruned, _failed_check, incompatibility_trace, prune
from rmlprune.rdf import (
    XSD_INTEGER,
    XSD_STRING,
    Bgp,
    RdfGraph,
    TriplePattern,
    Variable,
    eval_bgp,
)
from rmlprune.rml import parse_rml, serialize_pruned
from rmlprune.sparql import collect_triple_patterns, parse_query

from . import randgen
from .helpers import Iri, Literal, iri_value, is_subgraph_of
from .test_rml import _shape

DATA = Path(__file__).parent / "data"

_DISABLE_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    """Let the per-test result lines through pytest's output capture."""
    global _DISABLE_CAPTURE
    _DISABLE_CAPTURE = capfd.disabled
    yield
    _DISABLE_CAPTURE = None


def live_print(text: str):
    if _DISABLE_CAPTURE is None:
        print(text, flush=True)
    else:
        with _DISABLE_CAPTURE():
            print(text, flush=True)


def report(name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    live_print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _clear_prune_caches():
    for attr in dir(pruning):
        fn = getattr(pruning, attr)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def test_demo_prunes_two_to_one_quickly():
    t0 = time.monotonic()
    mapping = parse_rml((DATA / "airports.ttl").read_bytes())
    query = parse_query((DATA / "airports.rq").read_text())
    patterns = collect_triple_patterns(query)
    result = prune(patterns, mapping)
    from rmlprune.csvsource import CSV_KIND, parse_csv
    from rmlprune.algebra import DataObject

    sigma = {
        "airports.csv": DataObject(
            kind=CSV_KIND, payload=parse_csv((DATA / "airports.csv").read_bytes())
        )
    }
    bgp = Bgp(tuple(patterns))
    answers_full = eval_bgp(bgp, materialize(mapping, sigma))
    answers_pruned = eval_bgp(bgp, materialize(result, sigma))
    elapsed = time.monotonic() - t0

    retained_pred = iri_value(result.trmaps[0].predicate_expr.term) if result.trmaps else "-"
    ok = (
        len(mapping.trmaps) == 2
        and isinstance(result, RmlMappingExpr)
        and len(result.trmaps) == 1
        and retained_pred == "http://vocab.gtfs.org/terms#long"
        and answers_full == answers_pruned
        and elapsed < 1.0
    )
    report(
        "demo pruning",
        ok,
        f"2 -> {len(result.trmaps)} keeping <{retained_pred}>, "
        f"answers preserved, {elapsed * 1000:.0f} ms (< 1000 ms)",
    )


def test_answer_preservation_over_random_instances():
    t0 = time.monotonic()
    n_instances = 500
    failures = []
    nonempty = 0
    for seed in range(n_instances):
        inst = randgen.make_instance(seed, allow_empty=seed % 5 == 4)
        full = materialize(inst.mapping, inst.sigma)
        rng = random.Random(seed * 31 + 7)
        drawn = randgen.random_patterns(rng, full)
        bgps = [drawn]
        if seed % 4 == 3:
            bgps.append(randgen.with_unbuilt_predicate(rng, drawn))
        for patterns in bgps:
            bgp = Bgp(tuple(patterns))
            full_answers = eval_bgp(bgp, full)
            if full_answers:
                nonempty += 1
            # each pattern on its own, and every pattern of the BGP required
            for required in ((), patterns):
                result = prune(patterns, inst.mapping, required)
                if isinstance(result, FullyPruned):
                    pruned_graph = RdfGraph(frozenset())
                else:
                    pruned_graph = materialize(result, inst.sigma)
                if eval_bgp(bgp, pruned_graph) != full_answers:
                    failures.append(seed)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    report(
        "answer preservation",
        ok,
        f"{n_instances} random instances, {nonempty} with non-empty answers, "
        f"{len(failures)} mismatches (seeds {failures[:5]}), "
        f"{elapsed:.1f} s (< 60 s)",
    )


def test_pruned_expressions_stay_empty_on_fresh_data():
    checked = emptied = 0
    violations = []
    for seed in range(40):
        inst = randgen.make_instance(seed, allow_empty=seed % 5 == 4)
        full = materialize(inst.mapping, inst.sigma)
        rng = random.Random(seed * 131 + 5)
        drawn = randgen.random_patterns(rng, full)
        bgps = [drawn]
        if seed % 4 == 3:
            bgps.append(randgen.with_unbuilt_predicate(rng, drawn))
        for patterns in bgps:
            result = prune(patterns, inst.mapping)
            retained = () if isinstance(result, FullyPruned) else result.trmaps
            for tm in inst.mapping.trmaps:
                if tm in retained:
                    continue
                for i in range(20):
                    sigma = randgen.fresh_sigma(inst, random.Random(seed * 1000 + i))
                    graph = materialize_trmap(tm, sigma)
                    checked += 1
                    for tp in patterns:
                        if eval_bgp(Bgp((tp,)), graph):
                            violations.append((seed, tm.provenance))
        # a drawn BGP that a required pattern empties, one whose constants
        # no expression's subject, predicate or object can build, has no
        # solution on fresh data either
        if not isinstance(prune(drawn, inst.mapping), FullyPruned) and isinstance(
            prune(drawn, inst.mapping, drawn), FullyPruned
        ):
            emptied += 1
            for i in range(20):
                sigma = randgen.fresh_sigma(inst, random.Random(seed * 1000 + i))
                if eval_bgp(Bgp(tuple(drawn)), materialize(inst.mapping, sigma)):
                    violations.append((seed, "required"))
    ok = checked > 0 and emptied > 0 and not violations
    report(
        "pruned expressions stay empty",
        ok,
        f"{checked} (expression, fresh data) checks and {emptied} BGPs emptied by a required pattern, "
        f"{len(violations)} produced a matching triple or solution {violations[:3]}",
    )


def test_pruned_output_is_subgraph_of_full_output():
    bad = []
    for seed in range(1000, 1120):
        inst = randgen.make_instance(seed, allow_empty=seed % 5 == 4)
        full = materialize(inst.mapping, inst.sigma)
        rng = random.Random(seed)
        patterns = randgen.random_patterns(rng, full)
        result = prune(patterns, inst.mapping)
        if isinstance(result, FullyPruned):
            continue
        if not is_subgraph_of(materialize(result, inst.sigma), full):
            bad.append(seed)
    ok = not bad
    report(
        "pruned output is a subgraph",
        ok,
        f"120 instances, {len(bad)} with pruned output outside the full output",
    )


def test_all_variable_pattern_retains_everything():
    wildcard = [TriplePattern(Variable("s"), Variable("p"), Variable("o"))]
    cases = [parse_rml(MAPPING_TTL)]
    cases.append(parse_rml((DATA / "airports.ttl").read_bytes()))
    cases.extend(randgen.make_instance(seed).mapping for seed in range(2000, 2050))
    bad = 0
    for mapping in cases:
        result = prune(wildcard, mapping)
        if isinstance(result, FullyPruned) or len(result.trmaps) != len(mapping.trmaps):
            bad += 1
    report(
        "wildcard pattern retains everything",
        bad == 0,
        f"{len(cases)} mappings, {bad} lost expressions under ?s ?p ?o",
    )


def test_template_regex_round_trips():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        template, rendered = randgen.template_round_trip_case(rng)
        if _failed_check(BuildLiteral(template, XSD_STRING), Literal(rendered)) is not None:
            failures += 1
    report(
        "template regex round trips",
        failures == 0,
        f"1000 instantiated templates, {failures} failed to match their own pattern",
    )


def test_wide_mapping_prunes_under_50ms():
    mapping = randgen.wide_mapping(random.Random(86), 86)
    patterns = []
    for i in range(15):
        s = Variable(f"s{i}") if i % 3 else Iri(f"{randgen.HOSTS[i % 3]}r{i}/xy")
        p = Iri(f"http://vocab.test/wide{i % 17}") if i % 2 else Variable(f"p{i}")
        o = [
            Variable(f"o{i}"),
            Literal("42", XSD_INTEGER),
            Iri(f"{randgen.HOSTS[(i + 1) % 3]}c3"),
        ][i % 3]
        patterns.append(TriplePattern(s, p, o))

    # warm the code on an unrelated mapping, then time with cold caches
    prune(patterns[:3], randgen.wide_mapping(random.Random(1), 4))
    best_ms = float("inf")
    retained = 0
    for _ in range(3):
        _clear_prune_caches()
        t0 = time.monotonic()
        result = prune(patterns, mapping)
        best_ms = min(best_ms, (time.monotonic() - t0) * 1000.0)
        retained = 0 if isinstance(result, FullyPruned) else len(result.trmaps)
    report(
        "wide mapping prune time",
        best_ms < 50.0,
        f"86 expressions x 15 patterns in {best_ms:.1f} ms (< 50 ms), "
        f"{retained} retained",
    )


GTFS_EXPECTED = {"1": 7, "5": 7, "6": 2, "15": 86}


def _find_gtfs_query(root: Path, number: str) -> Path | None:
    for name in (f"q{number}.rq", f"q{int(number):02d}.rq"):
        for candidate in (root / "queries" / name, root / name):
            if candidate.is_file():
                return candidate
    return None


def test_gtfs_reference_counts():
    root = os.environ.get("RMLPRUNE_GTFS_DIR")
    if not root:
        pytest.skip("set RMLPRUNE_GTFS_DIR to a GTFS-Madrid mapping directory")
    root = Path(root)
    mapping = parse_rml((root / "mapping.ttl").read_bytes())
    results = {}
    diverged = []
    for number, expected in GTFS_EXPECTED.items():
        qfile = _find_gtfs_query(root, number)
        assert qfile is not None, f"query q{number}.rq not found under {root}"
        patterns = collect_triple_patterns(parse_query(qfile.read_text()))
        result = prune(patterns, mapping)
        got = 0 if isinstance(result, FullyPruned) else len(result.trmaps)
        results[number] = got
        if got != expected:
            diverged.append(number)
            live_print(f"--- divergence on q{number} (expected {expected}, got {got}) ---")
            live_print(incompatibility_trace(patterns, mapping))
    ok = len(mapping.trmaps) == 86 and not diverged
    report(
        "reference GTFS retention counts",
        ok,
        f"{len(mapping.trmaps)} expressions; "
        + ", ".join(
            f"q{n}: {results[n]}/{GTFS_EXPECTED[n]}" for n in GTFS_EXPECTED
        ),
    )


def test_serializer_round_trips_up_to_renaming():
    corpus_mapping = parse_rml(MAPPING_TTL)
    airports_mapping = parse_rml((DATA / "airports.ttl").read_bytes())

    cases = [(corpus_mapping, QUERIES[name]) for name in sorted(QUERIES)]
    cases.append((airports_mapping, (DATA / "airports.rq").read_text()))
    compared = 0
    mismatches = []
    for mapping, query_text in cases:
        patterns = collect_triple_patterns(parse_query(query_text))
        result = prune(patterns, mapping)
        text = serialize_pruned(
            () if isinstance(result, FullyPruned) else result, mapping
        )
        if isinstance(result, FullyPruned):
            if "fully pruned" not in text:
                mismatches.append("missing fully-pruned marker")
            continue
        reparsed = parse_rml(text)
        compared += 1
        if _shape(reparsed) != _shape(result):
            mismatches.append(query_text.splitlines()[-1][:40])
    # the unpruned mappings must round-trip too
    for mapping in (corpus_mapping, airports_mapping):
        reparsed = parse_rml(serialize_pruned(mapping, mapping))
        compared += 1
        if _shape(reparsed) != _shape(mapping):
            mismatches.append("full mapping")
    report(
        "serializer round trip",
        not mismatches,
        f"{compared} pruned/full mappings re-parsed to the same structure "
        f"(up to attribute renaming); mismatches: {mismatches or 'none'}",
    )
