"""The parser builds exactly the committed stored forms.

``tests/data/parse_digest.json`` holds what ``scripts/parse_digest.py``
writes: per regime, a SHA-256 of one line per parsed text, with the terms
in dict order, each coefficient's stored ``n``/``d`` terms, and the work
budget units the parse charged; or the class, message and position of the
refusal.  Term order sets the summation order of a generic normal form, and
the printed normal forms of ``nf_digest.json`` cannot see it.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "parse_digest.json"

_spec = importlib.util.spec_from_file_location(
    "parse_digest", ROOT / "scripts" / "parse_digest.py")
parse_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parse_digest)


def test_parse_digest_matches_golden():
    assert parse_digest.digests() == json.loads(GOLDEN.read_text())


def test_parse_line_records_form_charge_and_refusal():
    # a product of one-term factors charges 1 plus the length of its word
    assert parse_digest.parse_line("2*alpha", "unit-circle") == \
        "[((24,), [((0, 0, 0), 2)], [((0, 0, 0), 1)])] units=2"
    assert parse_digest.parse_line("alpha +", "generic") == \
        "ExprSyntaxError unexpected end of input (at position 7) pos=7"
    # a product of two-term coefficients charges its double loop, and the
    # product of their one-term polynomials one word pair
    assert parse_digest.parse_line("(q+1)*(q+1)", "generic").endswith(" units=5")


def test_parse_digest_script_writes_the_digest(tmp_path, monkeypatch):
    tree = {"generic": "abc"}
    monkeypatch.setattr(parse_digest, "digests", lambda: tree)
    out = tmp_path / "parse.json"
    assert parse_digest.main([str(out)]) == 0
    assert json.loads(out.read_text()) == tree
    assert parse_digest.main([]) == 2
