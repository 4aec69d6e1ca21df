"""The nf-stream queries print exactly the committed normal forms.

``tests/data/nf_digest.json`` holds what ``scripts/golden.py write`` writes
there: per regime, a SHA-256 of the printed normal forms of 2000 seeded
queries.  A generic coefficient prints differently when the same value is
reached by exact operations in another order, so a change to the parser,
the rewriting loop or the scalar core that reorders them shows up here.
"""

import hashlib
import json
from pathlib import Path

import golden

GOLDEN = Path(__file__).resolve().parent / "data" / "nf_digest.json"


def test_nf_digest_matches_golden():
    assert golden.digest_files("nf_digest", golden.nf_lines())["nf_digest.json"] \
        == GOLDEN.read_text()


def test_nf_digest_script_writes_the_digest():
    files = golden.digest_files("nf_digest", {("generic",): ["abc", "d"]})
    assert json.loads(files["nf_digest.json"]) == \
        {"generic": hashlib.sha256(b"abc\nd").hexdigest()}
    assert files["nf_digest.lines"] == "generic\tabc\ngeneric\td\n"
    assert golden.main(["write"]) == 2
