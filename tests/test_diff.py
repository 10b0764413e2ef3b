"""A smoke run of ``tools/diff.py``, the differential harness of the mapping
surface."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_diff():
    spec = importlib.util.spec_from_file_location("diff", ROOT / "tools" / "diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="exports HEAD with git archive")
def test_a_revision_against_itself_differs_nowhere(capsys):
    assert load_diff().main(["--base", "HEAD", "--head", "HEAD", "--rounds", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["surface"], report["rounds"], report["inputs"]) == ("mapping", 2, 4)
    assert (report["differences"], report["first"]) == (0, [])
    assert report["accepted"]["base"] == report["accepted"]["head"]


def test_mutations_are_seeded_and_replayable():
    diff = load_diff()
    text = '<http://e/tm> rml:subjectMap [ rml:template "{a}" ] ;\n  rml:predicate ex:p .\n'
    first = [diff.mutate(text, random.Random(7)) for _ in range(2)]
    assert first[0] == first[1]
    for seed in range(50):
        mutated, edits = diff.mutate(text, random.Random(seed))
        # the edits, applied in order to the text, give the mutation
        replayed = text
        for i, removed, inserted in edits:
            assert replayed[i:i + len(removed)] == removed
            replayed = replayed[:i] + inserted + replayed[i + len(removed):]
        assert replayed == mutated
