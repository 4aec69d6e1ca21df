"""The command line prints exactly the committed golden transcripts.

``tests/data/cli`` holds what ``scripts/cli_transcripts.py`` writes:
``relations`` in every regime, ``obstruction``, ``length``, ``verify
--format json`` (generic and unit-circle, ``elapsed_ms`` stripped) and
about thirty ``nf`` queries per regime, each with its stderr and exit
code.  A change to how a coefficient is stored or printed shows up here
byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli"

_spec = importlib.util.spec_from_file_location(
    "cli_transcripts", ROOT / "scripts" / "cli_transcripts.py")
cli_transcripts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_transcripts)


@pytest.fixture(scope="module")
def fresh():
    return cli_transcripts.transcripts()


def test_golden_files_are_exactly_the_transcripts(fresh):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(fresh)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_transcript_matches_golden(fresh, name):
    assert fresh[name] == (GOLDEN / name).read_text()


def test_script_writes_one_file_per_transcript(fresh, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_transcripts, "transcripts", lambda: fresh)
    assert cli_transcripts.main([str(tmp_path)]) == 0
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == fresh
    assert cli_transcripts.main([]) == 2
