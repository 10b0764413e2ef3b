"""End-to-end command-line tests (in-process, via ``main``)."""

import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rmlprune
from rmlprune.algebra import DataObject
from rmlprune.answer import BENCH_HEADER, answer, format_rows
from rmlprune.csvsource import CSV_KIND, parse_csv
from rmlprune.cli import main
from rmlprune.gendata import QUERIES, generate
from rmlprune.rml import parse_rml
from rmlprune.sparql import parse_query

from .helpers import read_ntriples


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli-corpus")
    generate(out, scale=1, seed=42)
    return out


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_gen_data(tmp_path, capsys):
    out_dir = tmp_path / "made"
    code, out, _ = run(capsys, "gen-data", "--out", str(out_dir), "--scale", "1")
    assert code == 0
    assert "stops.csv: 100 rows" in out
    assert (out_dir / "mapping.ttl").is_file()
    assert sorted(p.name for p in (out_dir / "queries").glob("*.rq"))[0] == "q01.rq"


def test_translate_reports_expression_count(corpus, capsys):
    code, out, err = run(capsys, "translate", "--mapping", str(corpus / "mapping.ttl"))
    assert code == 0
    assert "14 TrMap-expressions" in err
    assert out == ""  # no artifact unless requested


def test_translate_dump_algebra(corpus, capsys, tmp_path):
    plan_file = tmp_path / "plan.txt"
    code, out, _ = run(
        capsys,
        "translate",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--dump-algebra",
        "--out",
        str(plan_file),
    )
    assert code == 0
    text = plan_file.read_text()
    assert "(union" in text and "(extract" in text and "(project" in text


def test_translate_dump_algebra_of_5000_expressions(capsys, tmp_path):
    poms = "".join(
        f'  rr:predicateObjectMap [ rr:predicate ex:p{i} ; rr:objectMap [ rml:reference "name" ] ] ;\n'
        for i in range(5000)
    )
    mapping = tmp_path / "wide.ttl"
    mapping.write_text(
        "@prefix rr: <http://www.w3.org/ns/r2rml#> .\n"
        "@prefix rml: <http://semweb.mmlab.be/ns/rml#> .\n"
        "@prefix ql: <http://semweb.mmlab.be/ns/ql#> .\n"
        "@prefix ex: <http://example.com/ns#> .\n"
        "<http://example.com/tm/t>\n"
        '  rml:logicalSource [ rml:source "t.csv" ; rml:referenceFormulation ql:CSV ] ;\n'
        + poms
        + '  rr:subjectMap [ rr:template "http://example.com/t/{id}" ] .\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "translate", "--mapping", str(mapping), "--dump-algebra")
    assert code == 0
    assert "5000 TrMap-expressions" in err
    assert out.count("(project [@s @p @o]") == 5000


def test_prune_writes_reparsable_mapping(corpus, capsys):
    code, out, err = run(
        capsys,
        "prune",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(corpus / "queries" / "q02.rq"),
    )
    assert code == 0
    assert "14 -> 1 TrMap-expressions retained (" in err
    assert " ms)" in err
    reparsed = parse_rml(out)
    assert len(reparsed.trmaps) == 1


def test_prune_fully_pruned_output(corpus, capsys):
    code, out, err = run(
        capsys,
        "prune",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(corpus / "queries" / "q05.rq"),
    )
    assert code == 0
    assert "14 -> 0 TrMap-expressions retained (" in err
    assert "fully pruned" in out


def test_prune_q02_retains_one_expression(corpus, capsys):
    code, _, err = run(
        capsys,
        "prune",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(corpus / "queries" / "q02.rq"),
    )
    assert code == 0
    assert "14 -> 1" in err


def test_materialize_writes_ntriples(corpus, capsys):
    code, out, err = run(
        capsys,
        "materialize",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--data-dir",
        str(corpus),
    )
    assert code == 0
    assert "1570 triples" in err
    graph = read_ntriples(out)
    assert len(graph.triples) == 1570


def test_materialize_columns_named_like_triple_positions(tmp_path, capsys):
    # "@s", "@p" and "@o" are ordinary column names
    (tmp_path / "t.csv").write_text("@s,@p,@o\n1,name,Alpha\n2,age,7\n", encoding="utf-8")
    mapping = tmp_path / "m.ttl"
    mapping.write_text(
        "@prefix rr: <http://www.w3.org/ns/r2rml#> .\n"
        "@prefix rml: <http://semweb.mmlab.be/ns/rml#> .\n"
        "@prefix ql: <http://semweb.mmlab.be/ns/ql#> .\n"
        "<http://example.com/tm/t>\n"
        '  rml:logicalSource [ rml:source "t.csv" ; rml:referenceFormulation ql:CSV ] ;\n'
        '  rr:subjectMap [ rr:template "http://example.com/t/{@s}" ] ;\n'
        '  rr:predicateObjectMap [ rr:predicateMap [ rr:template "http://example.com/p/{@p}" ] ;\n'
        '    rr:objectMap [ rml:reference "@o" ] ] .\n',
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "materialize", "--mapping", str(mapping), "--data-dir", str(tmp_path)
    )
    assert code == 0, err
    assert out == (
        '<http://example.com/t/1> <http://example.com/p/name> "Alpha" .\n'
        '<http://example.com/t/2> <http://example.com/p/age> "7" .\n'
    )


def test_query_tsv_output(corpus, capsys):
    code, out, err = run(
        capsys,
        "query",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(corpus / "queries" / "q06.rq"),
        "--data-dir",
        str(corpus),
    )
    assert code == 0
    assert "5 rows" in err
    lines = out.splitlines()
    assert lines[0] == "?p\t?o"
    assert len(lines) == 6
    assert lines[1:] == sorted(lines[1:])
    assert all(line.count("\t") == 1 for line in lines[1:])
    assert any(line.startswith("<http://example.com/ns#name>\t") for line in lines[1:])


def test_query_distinct_deduplicates(corpus, capsys, tmp_path):
    q = tmp_path / "distinct.rq"
    q.write_text(
        "PREFIX ex: <http://example.com/ns#>\n"
        "SELECT DISTINCT ?z WHERE { ?s ex:zone ?z . }\n"
    )
    code, out, err = run(
        capsys,
        "query",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(q),
        "--data-dir",
        str(corpus),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "?z"
    assert len(lines) - 1 == 5  # zones z1..z5
    assert "5 rows" in err


def test_query_blank_node_is_not_a_user_variable_and_not_projected(corpus, capsys, tmp_path):
    # every route has one name: ?_bnode1 ranges over the 20 routes
    # independently of the [] stand-in, a cross product of 400 rows
    q = tmp_path / "anon.rq"
    q.write_text(
        "PREFIX ex: <http://example.com/ns#>\n"
        "SELECT * WHERE { ?_bnode1 a ex:Route . [] ex:routeName ?n . }\n"
    )
    code, out, err = run(
        capsys, "query", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q),
        "--data-dir", str(corpus),
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "?_bnode1\t?n"
    assert len(lines) - 1 == 400
    assert "400 rows" in err


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_output_equals_the_full_pipeline(corpus, capsys, name):
    mapping = parse_rml((corpus / "mapping.ttl").read_bytes())
    query = parse_query(QUERIES[name])

    def load(ref):
        return DataObject(kind=CSV_KIND, payload=parse_csv((corpus / ref).read_bytes()))

    full = answer(query, mapping, load, prune=False)
    code, out, err = run(
        capsys,
        "query",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(corpus / "queries" / f"{name}.rq"),
        "--data-dir",
        str(corpus),
    )
    assert code == 0, err
    assert out == format_rows(full.variables, full.rows())
    assert f"{len(full.rows())} rows" in err


def test_query_reads_only_the_sources_the_pruned_mapping_needs(corpus, capsys, tmp_path):
    # q05 prunes every expression, so it needs no data at all
    code, out, err = run(
        capsys,
        "query",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(corpus / "queries" / "q05.rq"),
        "--data-dir",
        str(tmp_path),
    )
    assert (code, out) == (0, "?s\n"), err
    # q02 keeps one expression over stops.csv
    shutil.copy(corpus / "stops.csv", tmp_path / "stops.csv")
    code, out, err = run(
        capsys,
        "query",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(corpus / "queries" / "q02.rq"),
        "--data-dir",
        str(tmp_path),
    )
    assert code == 0, err
    assert "100 rows" in err and out.startswith("?s\t?n\n")


def test_query_prunes_soundly_for_empty_cells(capsys, tmp_path):
    # the empty id is NULL, so its row builds no subject: no expression can
    # produce <http://ex/s/>, and pruning the only one loses no answer
    (tmp_path / "t.csv").write_text("id,name\n,Alpha\n7,Beta\n", encoding="utf-8")
    mapping = tmp_path / "m.ttl"
    mapping.write_text(
        "@prefix rr: <http://www.w3.org/ns/r2rml#> .\n"
        "@prefix rml: <http://semweb.mmlab.be/ns/rml#> .\n"
        "@prefix ql: <http://semweb.mmlab.be/ns/ql#> .\n"
        "<http://ex/tm>\n"
        '  rml:logicalSource [ rml:source "t.csv" ; rml:referenceFormulation ql:CSV ] ;\n'
        '  rr:subjectMap [ rr:template "http://ex/s/{id}" ] ;\n'
        "  rr:predicateObjectMap [ rr:predicate <http://ex/name> ;\n"
        '    rr:objectMap [ rml:reference "name" ] ] .\n',
        encoding="utf-8",
    )
    q = tmp_path / "q.rq"
    q.write_text("SELECT ?n WHERE { <http://ex/s/> <http://ex/name> ?n }\n", encoding="utf-8")
    argv = ("--mapping", str(mapping), "--query", str(q))
    code, out, err = run(capsys, "query", *argv, "--data-dir", str(tmp_path))
    assert code == 0, err
    assert out == "?n\n"
    _, _, err = run(capsys, "prune", *argv)
    assert "1 -> 0 TrMap-expressions" in err
    q.write_text("SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }\n", encoding="utf-8")
    code, out, err = run(capsys, "query", *argv, "--data-dir", str(tmp_path))
    assert code == 0, err
    assert out == '?s\t?n\n<http://ex/s/7>\t"Beta"\n'


def test_select_star_columns_do_not_depend_on_the_hash_seed(corpus):
    src = str(Path(rmlprune.__file__).parent.parent)
    argv = [sys.executable, "-m", "rmlprune.cli", "query", "--mapping",
            str(corpus / "mapping.ttl"), "--query", str(corpus / "queries" / "q01.rq"),
            "--data-dir", str(corpus)]
    for seed in range(5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n", 1)[0] == "?s\t?p\t?o"


def test_bench_csv_and_exit_code(corpus, capsys, tmp_path):
    csv_file = tmp_path / "bench.csv"
    code, _, err = run(
        capsys,
        "bench",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--queries-dir",
        str(corpus / "queries"),
        "--data-dir",
        str(corpus),
        "--repetitions",
        "1",
        "--out",
        str(csv_file),
    )
    assert code == 0
    assert "full output: 1570 triples" in err
    lines = csv_file.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 9
    assert all(line.endswith(",PASS") for line in lines[1:])
    q05 = next(line for line in lines[1:] if line.startswith("q05,"))
    assert q05.split(",")[1:3] == ["14", "0"]


def test_bench_counts_the_rows_that_query_prints(corpus, capsys, tmp_path):
    # under DISTINCT, the 1570 solutions project to 12 rows
    queries = tmp_path / "queries"
    queries.mkdir()
    (queries / "preds.rq").write_text("SELECT DISTINCT ?p WHERE { ?s ?p ?o }\n")
    mapping, data = str(corpus / "mapping.ttl"), str(corpus)
    code, out, err = run(capsys, "query", "--mapping", mapping, "--query", str(queries / "preds.rq"),
                         "--data-dir", data)
    assert (code, err) == (0, "12 rows\n") and len(out.splitlines()) == 13
    code, _, err = run(capsys, "bench", "--mapping", mapping, "--queries-dir", str(queries),
                       "--data-dir", data, "--repetitions", "1", "--out", str(tmp_path / "bench.csv"))
    assert code == 0
    assert "preds: 14 -> 14 TrMap-expressions, 1570 triples, 12 rows, PASS" in err


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------


def test_missing_mapping_file(capsys):
    code, _, err = run(capsys, "translate", "--mapping", "/nonexistent/mapping.ttl")
    assert code == 2
    assert "cannot read mapping" in err


def test_missing_source_file(corpus, capsys, tmp_path):
    code, _, err = run(
        capsys,
        "materialize",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--data-dir",
        str(tmp_path),  # empty: no CSVs here
    )
    assert code == 2
    assert "'stops.csv'" in err or "'routes.csv'" in err
    assert err.startswith("error: cannot read source '") and f"' under {str(tmp_path)!r}: " in err


def test_query_rejects_optional(corpus, capsys, tmp_path):
    q = tmp_path / "opt.rq"
    q.write_text(
        "PREFIX ex: <http://example.com/ns#>\n"
        "SELECT * WHERE { ?s ex:name ?n . OPTIONAL { ?s ex:lat ?lat . } }\n"
    )
    code, _, err = run(
        capsys,
        "query",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(q),
        "--data-dir",
        str(corpus),
    )
    assert code == 2
    assert "basic graph patterns" in err


def test_query_rejects_order_by(corpus, capsys, tmp_path):
    q = tmp_path / "ord.rq"
    # a comment runs to the end of its line, so it holds no LIMIT
    for modifiers in ("ORDER BY ?n", "ORDER BY ?n # LIMIT 3"):
        q.write_text(
            "PREFIX ex: <http://example.com/ns#>\n"
            "SELECT ?n WHERE { ?s ex:name ?n . } " + modifiers + "\n"
        )
        code, _, err = run(
            capsys,
            "query",
            "--mapping",
            str(corpus / "mapping.ttl"),
            "--query",
            str(q),
            "--data-dir",
            str(corpus),
        )
        assert code == 2
        assert err == f"error: {q}: solution modifiers not supported in query evaluation: ORDER BY\n"


@pytest.mark.parametrize(
    "where, message",
    [
        ("{ ?s ex:name ?n . OPTIONAL { ?s ex:lat ?lat . } }", "basic graph patterns"),
        ("{ ?s ex:name ?n . } ORDER BY ?s", "ORDER BY"),
        ("{ ?s ex:name ?n . } LIMIT 3", "LIMIT"),
        ("{ ?s ?p }", "line 2, column 24: expected an object, found '}'"),
    ],
)
def test_bench_refuses_a_query_it_cannot_evaluate(corpus, capsys, tmp_path, where, message):
    queries = tmp_path / "queries"
    shutil.copytree(corpus / "queries", queries)
    bad = queries / "q09.rq"
    bad.write_text("PREFIX ex: <http://example.com/ns#>\nSELECT * WHERE " + where + "\n")
    code, out, err = run(
        capsys,
        "bench",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--queries-dir",
        str(queries),
        "--data-dir",
        str(corpus),
        "--repetitions",
        "1",
    )
    assert (code, out) == (2, "")
    assert f"error: {bad}: " in err and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--repetitions", "0"),
        ("gen-data", "--scale", "0"),
        ("gen-data", "--scale", "-1"),
        ("gen-data", "--scale", "many"),
    ],
)
def test_bad_numeric_arguments_exit_2_with_usage(corpus, capsys, tmp_path, argv):
    command, flag, value = argv
    if command == "bench":
        rest = ["--mapping", str(corpus / "mapping.ttl"), "--queries-dir",
                str(corpus / "queries"), "--data-dir", str(corpus)]
    else:
        rest = ["--out", str(tmp_path / "made")]
    with pytest.raises(SystemExit) as info:
        main([command, *rest, flag, value])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert err.startswith("usage: rmlprune " + command) and flag in err
    assert not (tmp_path / "made").exists()


def test_prune_rejects_a_modifier_without_its_condition(corpus, capsys, tmp_path):
    q = tmp_path / "ord.rq"
    q.write_text("SELECT * WHERE { ?s ?p ?o } ORDER BY LIMIT 3\n")
    code, out, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q)
    )
    assert (code, out) == (2, "")
    assert "line 1, column 38: expected a condition after ORDER BY" in err


def test_prune_reads_a_long_string_in_a_filter(corpus, capsys, tmp_path):
    q = tmp_path / "long.rq"
    q.write_text('SELECT * WHERE { ?s ?p ?o FILTER(?o = """a"b""") }\n')
    code, _, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q)
    )
    assert code == 0
    assert "14 -> 14 TrMap-expressions retained" in err


def test_query_rejects_select_expressions(corpus, capsys, tmp_path):
    q = tmp_path / "as.rq"
    q.write_text(
        "PREFIX ex: <http://example.com/ns#>\n"
        "SELECT (?n AS ?m) WHERE { ?s ex:name ?n . }\n"
    )
    code, _, err = run(
        capsys,
        "query",
        "--mapping",
        str(corpus / "mapping.ttl"),
        "--query",
        str(q),
        "--data-dir",
        str(corpus),
    )
    assert code == 2
    assert "AS" in err


def test_query_with_escape_beyond_unicode_exits_2(corpus, capsys, tmp_path):
    q = tmp_path / "bad.rq"
    q.write_text('SELECT * WHERE { ?s ?p "\\U00110000" }\n')
    code, _, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q)
    )
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("name", ["1", "_"])
def test_a_filter_function_name_not_starting_with_a_letter_exits_2(name, corpus, capsys, tmp_path):
    q = tmp_path / "filter.rq"
    q.write_text(f"SELECT * WHERE {{ ?s ?p ?o FILTER {name}(?o) }}\n")
    code, _, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q)
    )
    assert code == 2
    assert "line 1, column 34: unsupported FILTER constraint form" in err


def test_a_prefix_keyword_glued_to_its_colon_exits_2(corpus, capsys, tmp_path):
    q = tmp_path / "glued.rq"
    q.write_text("PREFIX:<http://e/> SELECT * WHERE { :s ?p ?o }\n")
    code, _, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q)
    )
    assert code == 2
    assert "line 1, column 1: expected SELECT" in err


def test_deeply_nested_inputs_exit_2_without_a_traceback(corpus, capsys, tmp_path):
    q = tmp_path / "deep.rq"
    q.write_text("SELECT * WHERE " + "{ " * 3000 + "?s ?p ?o" + " }" * 3000 + "\n")
    code, _, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q)
    )
    assert code == 2
    assert "nesting deeper" in err and "Traceback" not in err
    m = tmp_path / "deep.ttl"
    m.write_text("<http://e/s> <http://e/p> " + "( " * 3000 + "1" + " )" * 3000 + " .\n")
    code, _, err = run(capsys, "translate", "--mapping", str(m))
    assert code == 2
    assert "nesting deeper" in err and "Traceback" not in err


def test_invalid_mapping_reports_error(capsys, tmp_path):
    bad = tmp_path / "bad.ttl"
    bad.write_text("@prefix ex: <http://e/> .\nex:tm ex:unknown ex:x .\n")
    code, _, err = run(capsys, "translate", "--mapping", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_several_subject_shortcuts_exit_2(capsys, tmp_path):
    bad = tmp_path / "two-subjects.ttl"
    bad.write_text(
        "@prefix rml: <http://w3id.org/rml/> .\n@prefix ex: <http://e/> .\n"
        "ex:tm rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subject ex:a , ex:b ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object ex:o ] .\n"
    )
    code, _, err = run(capsys, "translate", "--mapping", str(bad))
    assert code == 2
    assert "has more than one subject" in err


def test_a_source_stated_twice_exits_2(capsys, tmp_path):
    bad = tmp_path / "two-sources.ttl"
    bad.write_text(
        "@prefix rml: <http://w3id.org/rml/> .\n@prefix ex: <http://e/> .\n"
        "ex:tm rml:logicalSource [ rml:source \"a.csv\", \"b.csv\" ] ;\n"
        "  rml:subject ex:a ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object ex:o ] .\n"
    )
    code, _, err = run(capsys, "translate", "--mapping", str(bad))
    assert code == 2
    assert "triples map <http://e/tm>" in err and "has more than one source" in err


def test_a_literal_subject_map_exits_2_naming_the_property(capsys, tmp_path):
    bad = tmp_path / "literal-subject-map.ttl"
    bad.write_text(
        "@prefix rml: <http://w3id.org/rml/> .\n@prefix ex: <http://e/> .\n"
        "ex:tm rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap \"x\" ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object ex:o ] .\n"
    )
    code, _, err = run(capsys, "translate", "--mapping", str(bad))
    assert code == 2
    assert "triples map <http://e/tm>: property 'subjectMap' must name an IRI or blank node" in err


@pytest.mark.parametrize(
    "subject",
    [
        'rml:subject "lit"',
        'rml:subjectMap [ rml:template "{bad" ]',
        'rml:subjectMap [ rml:reference "a" ; rml:datatype rml:x ]',
    ],
    ids=["literal subject", "malformed template", "datatype on a subject map"],
)
def test_a_bad_subject_without_predicate_object_maps_exits_2(capsys, tmp_path, subject):
    bad = tmp_path / "bare.ttl"
    bad.write_text(
        "@prefix rml: <http://w3id.org/rml/> .\n@prefix ex: <http://e/> .\n"
        "ex:ok rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:reference \"a\" ] ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object ex:o ] .\n"
        f"ex:bare rml:logicalSource [ rml:source \"f.csv\" ] ;\n  {subject} .\n"
    )
    code, _, err = run(capsys, "translate", "--mapping", str(bad))
    assert code == 2
    assert err.startswith("error:") and "<http://e/bare>" in err


@pytest.mark.parametrize("command", ["translate", "prune"])
def test_a_mapping_without_predicate_object_maps_exits_2(corpus, capsys, tmp_path, command):
    bare = tmp_path / "bare.ttl"
    bare.write_text(
        "@prefix rml: <http://w3id.org/rml/> .\n"
        "<http://e/tm> rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subjectMap [ rml:template \"http://e/s/{id}\" ] .\n"
    )
    query = ["--query", str(corpus / "queries" / "q01.rq")] if command == "prune" else []
    code, out, err = run(capsys, command, "--mapping", str(bare), *query)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bare}: ") and "has no predicate-object maps" in err


def test_a_blank_node_constant_exits_2(capsys, tmp_path):
    # R2RML §7.2: a constant is an IRI or a literal; a blank node would be
    # one node for every row
    bad = tmp_path / "blank-constant.ttl"
    bad.write_text(
        "@prefix rml: <http://w3id.org/rml/> .\n@prefix ex: <http://e/> .\n"
        "ex:tm rml:logicalSource [ rml:source \"f.csv\" ] ;\n"
        "  rml:subject ex:s ;\n"
        "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object _:o ] .\n"
    )
    code, _, err = run(capsys, "translate", "--mapping", str(bad))
    assert code == 2
    assert "triples map <http://e/tm>: predicate-object map [ ] at line 5: " in err
    assert err.rstrip().endswith("a constant must be an IRI or a literal, not a blank node")


def test_latin1_query_exits_2(corpus, capsys, tmp_path):
    q = tmp_path / "latin1.rq"
    q.write_bytes('SELECT * WHERE { ?s ?p "café" }\n'.encode("latin-1"))
    code, _, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(q)
    )
    assert code == 2
    assert "not valid UTF-8" in err and "latin1.rq" in err


def test_latin1_mapping_exits_2(corpus, capsys, tmp_path):
    m = tmp_path / "latin1.ttl"
    text = (corpus / "mapping.ttl").read_text().replace("stop_name", "café")
    m.write_bytes(text.encode("latin-1"))
    code, _, err = run(capsys, "translate", "--mapping", str(m))
    assert code == 2
    assert f"error: {m}: not valid UTF-8" in err


# A UTF-8 byte-order mark may start a mapping or a query file, as it may a
# CSV file; anywhere else it is a character that no token spells.
def test_a_mapping_and_a_query_may_start_with_a_byte_order_mark(corpus, capsys, tmp_path):
    m, q = tmp_path / "bom.ttl", tmp_path / "bom.rq"
    m.write_bytes(b"\xef\xbb\xbf" + (corpus / "mapping.ttl").read_bytes())
    q.write_bytes(b"\xef\xbb\xbf" + (corpus / "queries" / "q02.rq").read_bytes())
    plan = run(capsys, "translate", "--mapping", str(corpus / "mapping.ttl"), "--dump-algebra")
    assert run(capsys, "translate", "--mapping", str(m), "--dump-algebra") == plan
    code, _, err = run(capsys, "prune", "--mapping", str(m), "--query", str(q))
    assert code == 0
    assert "14 -> 1 TrMap-expressions retained (" in err
    q.write_bytes(b"\xef\xbb\xbf" * 2 + (corpus / "queries" / "q02.rq").read_bytes())
    code, _, err = run(capsys, "prune", "--mapping", str(m), "--query", str(q))
    assert code == 2
    assert "line 1, column 1: expected SELECT" in err


def test_ragged_csv_error_names_the_file(corpus, capsys, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(corpus, data)
    (data / "stops.csv").write_text("stop_id,stop_name,lat,lon,zone\n1,a\n")
    code, _, err = run(
        capsys, "materialize", "--mapping", str(data / "mapping.ttl"), "--data-dir", str(data)
    )
    assert code == 2
    assert f"error: {data / 'stops.csv'}: row 2: expected 5 fields, found 2" in err


@pytest.mark.parametrize(
    "stops, message",
    [
        ('stop_id,stop_name\n1,"a\n2,b\n', "malformed CSV: unexpected end of data"),
        ('stop_id,stop_name\n"1"x,a\n', "malformed CSV: ',' expected after '\"'"),
        (b"stop_id,stop_name\n1,\xff\n", "not valid UTF-8: "),
        ("", "missing header row"),
    ],
    ids=["unterminated quote", "text after a closing quote", "not UTF-8", "empty"],
)
def test_a_broken_csv_exits_2_naming_the_file(corpus, capsys, tmp_path, stops, message):
    data = tmp_path / "data"
    shutil.copytree(corpus, data)
    if isinstance(stops, bytes):
        (data / "stops.csv").write_bytes(stops)
    else:
        (data / "stops.csv").write_text(stops)
    code, out, err = run(
        capsys, "materialize", "--mapping", str(data / "mapping.ttl"), "--data-dir", str(data)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {data / 'stops.csv'}: {message}")


# a mapping whose object a case replaces; the statement ends on line 5
MAPPING_FOR = (
    "@prefix rml: <http://w3id.org/rml/> .\n@prefix ex: <http://e/> .\n"
    'ex:tm rml:logicalSource [ rml:source "t.csv" ] ;\n  rml:subject ex:s ;\n'
    "  rml:predicateObjectMap [ rml:predicate ex:p ; rml:object {} ] .\n"
)
# the same, cut off where the object starts, at line 5, column 60
CUT_MAPPING = MAPPING_FOR.split("{}")[0]


@pytest.mark.parametrize(
    "text, message",
    [
        (MAPPING_FOR.format("_:"), "line 5, column 62: empty blank node label"),
        (CUT_MAPPING + "<http://e", "line 5, column 69: unterminated IRI"),
        (MAPPING_FOR.format("<http://e/\\x>"), "line 5, column 71: invalid escape in IRI: \\x"),
        (MAPPING_FOR.replace('"t.csv"', '"t\\q.csv"').format("ex:o"), "line 3, column 42: invalid string escape: \\q"),
        (CUT_MAPPING + '( "a"', "line 5, column 65: unterminated collection"),
        (CUT_MAPPING.rstrip(), "line 5, column 59: expected an object"),
        ("@prefix ex:foo <http://e/> .\n" + MAPPING_FOR.format("ex:o"), "line 1, column 12: expected '<'"),
    ],
    ids=["empty label", "open IRI", "IRI escape", "string escape", "open collection", "no object", "prefix"],
)
def test_a_turtle_error_exits_2_at_its_position(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.ttl"
    bad.write_text(text)
    code, out, err = run(capsys, "translate", "--mapping", str(bad))
    assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


@pytest.mark.parametrize(
    "command, where, message",
    [
        ("prune", "{ ?s ex:name ?n . } ORDER ?s", "line 2, column 42: expected BY after ORDER"),
        ("prune", "{ ( ) ex:name ?n . }", "line 2, column 18: collections in patterns are not supported"),
        ("query", "{ }", "the query has an empty where clause"),
    ],
)
def test_a_query_error_exits_2(corpus, capsys, tmp_path, command, where, message):
    q = tmp_path / "bad.rq"
    q.write_text("PREFIX ex: <http://example.com/ns#>\nSELECT * WHERE " + where + "\n")
    extra = ["--data-dir", str(corpus)] if command == "query" else []
    code, out, err = run(capsys, command, "--mapping", str(corpus / "mapping.ttl"), "--query", str(q), *extra)
    assert (code, out, err) == (2, "", f"error: {q}: {message}\n")


def test_bench_without_queries_and_a_missing_query_exit_2(corpus, capsys, tmp_path):
    mapping, data = str(corpus / "mapping.ttl"), str(corpus)
    code, _, err = run(capsys, "bench", "--mapping", mapping, "--queries-dir", str(tmp_path), "--data-dir", data)
    assert (code, err) == (2, f"error: no .rq files under {str(tmp_path)!r}\n")
    missing = str(tmp_path / "missing.rq")
    code, _, err = run(capsys, "query", "--mapping", mapping, "--query", missing, "--data-dir", data)
    assert code == 2
    assert err.startswith(f"error: cannot read query {missing!r}: ")


def test_prune_dump_algebra_prints_the_pruned_plan(corpus, capsys, tmp_path):
    code, out, err = run(
        capsys, "prune", "--mapping", str(corpus / "mapping.ttl"), "--query", str(corpus / "queries" / "q02.rq"),
        "--dump-algebra", "--out", str(tmp_path / "pruned.ttl"),
    )
    assert (code, out) == (0, "")
    status, plan = err.split("\n", 1)
    assert status.startswith("14 -> 1 TrMap-expressions retained (")
    assert plan == (
        "(project [@s @p @o]\n"
        '  (extend @o (to-literal (attr "stop_name") <http://www.w3.org/2001/XMLSchema#string>)\n'
        "    (extend @p (const <http://example.com/ns#name>)\n"
        '      (extend @s (to-iri (concat (text "http://example.com/stop/") (attr "stop_id"))'
        " base=<http://example.com/base/>)\n"
        "        (extract source='stops.csv' [stop_id<-stop_id, stop_name<-stop_name])))))\n"
    )


@pytest.mark.parametrize("command", ["materialize", "bench"])
def test_output_into_a_missing_directory_exits_2(corpus, capsys, tmp_path, command):
    queries = tmp_path / "queries"
    queries.mkdir()
    shutil.copy(corpus / "queries" / "q05.rq", queries)
    out = tmp_path / "missing" / "out"
    extra = ["--queries-dir", str(queries), "--repetitions", "1"] if command == "bench" else []
    code, _, err = run(
        capsys, command, "--mapping", str(corpus / "mapping.ttl"), "--data-dir", str(corpus),
        "--out", str(out), *extra,
    )
    assert code == 2
    assert "cannot write" in err and str(out) in err


def test_gen_data_onto_an_existing_file_exits_2(capsys, tmp_path):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    code, _, err = run(capsys, "gen-data", "--out", str(target))
    assert code == 2
    assert "cannot write the corpus" in err and str(target) in err


# ---------------------------------------------------------------------------
# logging configuration
# ---------------------------------------------------------------------------


def test_log_env_sets_level(monkeypatch):
    calls = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: calls.append(kw))
    from rmlprune.cli import _configure_logging

    monkeypatch.delenv("RMLPRUNE_LOG", raising=False)
    _configure_logging()
    assert calls == []

    monkeypatch.setenv("RMLPRUNE_LOG", "debug")
    _configure_logging()
    assert calls[-1]["level"] == logging.DEBUG

    monkeypatch.setenv("RMLPRUNE_LOG", "not-a-level")
    _configure_logging()
    assert calls[-1]["level"] == logging.INFO
