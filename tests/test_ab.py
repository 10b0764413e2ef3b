"""A smoke run of ``tools/ab.py``, the in-process A/B timing harness."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="exports HEAD with git archive")
def test_ab_runs_two_interleaved_rounds(capsys):
    # HEAD against the working tree; the harness also checks that both
    # compute the same expression counts, pattern counts, graph size,
    # N-Triples text, query rows, kept counts and written mappings
    assert load_ab().main(["--rounds", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["base"], report["head"], report["rounds"]) == ("HEAD", "working tree", 2)
    answers = [f"answer-s10:q{i:02d}" for i in range(1, 9)]
    names = [
        "load-wide", "load-corpus", "parse-queries", "load-long", "load-escaped", "materialize-s50", "serialize-s50",
        *answers,
        "prune-wide", "write-wide",
    ]
    assert list(report["steps"]) == names
    for summary in report["steps"].values():
        for side in ("base", "head"):
            assert 0 <= summary[side]["min_ms"] <= summary[side]["median_ms"]
            assert summary[side]["gc_collections"] >= 0
        ratio = summary["ratio"]
        assert ratio["q1"] <= ratio["median"] <= ratio["q3"]
        assert 0 <= summary["head_won"] <= 2


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="lists the working tree with git")
def test_the_working_tree_is_exported_like_a_revision(tmp_path):
    # the head runs from a copy beside the base's, not from the repository
    # root, and without the files git ignores
    tree = load_ab().export(None, tmp_path / "head")
    assert tree == tmp_path / "head"
    init = tree / "src" / "rmlprune" / "__init__.py"
    assert init.read_bytes() == (ROOT / "src" / "rmlprune" / "__init__.py").read_bytes()
    assert not list(tree.rglob("__pycache__"))
