"""The parser builds exactly the committed stored forms.

``tests/data/parse_digest.json`` holds what ``scripts/golden.py write``
writes there: per regime, a SHA-256 of one line per parsed text, with the
terms in dict order, each coefficient's stored ``n``/``d`` terms, and the
work budget units the parse charged; or the class, message and position of
the refusal.  Term order sets the summation order of a generic normal form,
and the printed normal forms of ``nf_digest.json`` cannot see it.
"""

import hashlib
import json
from pathlib import Path

import golden

GOLDEN = Path(__file__).resolve().parent / "data" / "parse_digest.json"


def test_parse_digest_matches_golden():
    assert golden.digest_files("parse_digest", golden.parse_lines())[
        "parse_digest.json"] == GOLDEN.read_text()


def test_parse_line_records_form_charge_and_refusal():
    # a product of one-term factors charges 1 plus the length of its word
    assert golden.parse_line("2*alpha", "unit-circle") == \
        "[((24,), [((0, 0, 0), 2)], [((0, 0, 0), 1)])] units=2"
    assert golden.parse_line("alpha +", "generic") == \
        "ExprSyntaxError unexpected end of input (at position 7) pos=7"
    # a product of two-term coefficients charges its double loop, and the
    # product of their one-term polynomials one word pair
    assert golden.parse_line("(q+1)*(q+1)", "generic").endswith(" units=5")


def test_parse_digest_script_writes_the_digest():
    files = golden.digest_files("parse_digest", {("generic",): ["abc"]})
    assert json.loads(files["parse_digest.json"]) == \
        {"generic": hashlib.sha256(b"abc").hexdigest()}
    assert files["parse_digest.lines"] == "generic\tabc\n"
    assert golden.main(["write", "a", "b"]) == 2
