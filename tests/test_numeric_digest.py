"""The float mirror gives exactly the committed residuals, bit for bit.

``tests/data/numeric_digest.json`` holds what ``scripts/golden.py write``
writes there: per regime, a SHA-256 of ``float.hex`` of every
``numeric_suite`` residual at two fixed points.  The residuals are rounding
noise, so a change to how exact coefficients become floats, or to the order
of the float operations, shows up here although ``qmink eval`` prints the
same.
"""

import hashlib
import json
from pathlib import Path

import golden

GOLDEN = Path(__file__).resolve().parent / "data" / "numeric_digest.json"


def test_numeric_digest_matches_golden():
    assert golden.digest_files("numeric_digest", golden.numeric_lines())[
        "numeric_digest.json"] == GOLDEN.read_text()


def test_numeric_digest_script_writes_the_digest():
    files = golden.digest_files("numeric_digest", {("generic",): ["0 a 0x0.0p+0"]})
    assert json.loads(files["numeric_digest.json"]) == \
        {"generic": hashlib.sha256(b"0 a 0x0.0p+0").hexdigest()}
    assert files["numeric_digest.lines"] == "generic\t0 a 0x0.0p+0\n"
    assert golden.main(["check"]) == 2
