"""The command line prints exactly the committed golden transcripts.

``tests/data/cli`` holds what ``scripts/golden.py write`` writes there:
``relations`` in every regime, ``obstruction``, ``length``, ``verify
--format json`` (generic and unit-circle, ``elapsed_ms`` stripped) and
about thirty ``nf`` queries per regime, each with its stderr and exit
code.  A change to how a coefficient is stored or printed shows up here
byte for byte.
"""

from pathlib import Path

import golden
import pytest

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def fresh():
    return golden.transcripts()


def test_golden_files_are_exactly_the_transcripts(fresh):
    assert sorted(f"cli/{p.name}" for p in (DATA / "cli").iterdir()) == sorted(fresh)


@pytest.mark.parametrize("name", sorted(p.name for p in (DATA / "cli").iterdir()))
def test_transcript_matches_golden(fresh, name):
    assert fresh[f"cli/{name}"] == (DATA / "cli" / name).read_text()


def test_script_writes_one_file_per_transcript(fresh, tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "artifacts", lambda: iter([("cli", lambda: fresh)]))
    assert golden.main(["write", str(tmp_path)]) == 0
    assert {f"cli/{p.name}": p.read_text() for p in (tmp_path / "cli").iterdir()} == fresh
    assert golden.main([]) == 2
