"""The nf-stream queries print exactly the committed normal forms.

``tests/data/nf_digest.json`` holds what ``scripts/nf_digest.py`` writes:
per regime, a SHA-256 of the printed normal forms of 2000 seeded queries.
A generic coefficient prints differently when the same value is reached
by exact operations in another order, so a change to the parser, the
rewriting loop or the scalar core that reorders them shows up here.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "nf_digest.json"

_spec = importlib.util.spec_from_file_location(
    "nf_digest", ROOT / "scripts" / "nf_digest.py")
nf_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(nf_digest)


def test_nf_digest_matches_golden():
    assert nf_digest.digests() == json.loads(GOLDEN.read_text())


def test_nf_digest_script_writes_the_digest(tmp_path, monkeypatch):
    tree = {"generic": "abc"}
    monkeypatch.setattr(nf_digest, "digests", lambda: tree)
    out = tmp_path / "nf.json"
    assert nf_digest.main([str(out)]) == 0
    assert json.loads(out.read_text()) == tree
    assert nf_digest.main([]) == 2
