"""The float mirror gives exactly the committed residuals, bit for bit.

``tests/data/numeric_digest.json`` holds what ``scripts/numeric_digest.py``
writes: per regime, a SHA-256 of ``float.hex`` of every ``numeric_suite``
residual at two fixed points.  The residuals are rounding noise, so a
change to how exact coefficients become floats, or to the order of the
float operations, shows up here although ``qmink eval`` prints the same.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "numeric_digest.json"

_spec = importlib.util.spec_from_file_location(
    "numeric_digest", ROOT / "scripts" / "numeric_digest.py")
numeric_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(numeric_digest)


def test_numeric_digest_matches_golden():
    assert numeric_digest.digests() == json.loads(GOLDEN.read_text())


def test_numeric_digest_script_writes_the_digest(tmp_path, monkeypatch):
    tree = {"generic": "abc"}
    monkeypatch.setattr(numeric_digest, "digests", lambda: tree)
    out = tmp_path / "numeric.json"
    assert numeric_digest.main([str(out)]) == 0
    assert json.loads(out.read_text()) == tree
    assert numeric_digest.main([]) == 2
