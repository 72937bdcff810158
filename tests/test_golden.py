"""The golden CLI corpus: every argv in `tests/golden/cli.json` still exits
with its recorded code and prints stdout with its recorded sha256 (a
verify report's elapsed time removed).  `tests/golden/regenerate.py`
writes the corpus and holds the argv list and the normalisation."""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", _GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

CORPUS = json.loads((_GOLDEN / "cli.json").read_text(encoding="utf-8"))


def test_corpus_covers_the_argv_list():
    assert [entry["argv"] for entry in CORPUS] == regenerate.ARGVS


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_the_corpus(entry):
    assert regenerate.run(entry["argv"]) == entry
