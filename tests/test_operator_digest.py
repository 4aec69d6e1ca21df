"""Every named operator stores exactly the committed entries.

``tests/data/operators.json`` holds what ``scripts/golden.py write`` writes
there: per regime, branch flip and operator name, a SHA-256 of the stored
numerator and denominator terms of every entry.  ``Scalar`` has no
canonical form, so a recipe that computes the same map in a different
order can store, and print, an entry differently; this shows up here
even where no report or transcript prints that entry.
"""

import hashlib
import json
from pathlib import Path

import golden

GOLDEN = Path(__file__).resolve().parent / "data" / "operators.json"


def _flat(tree: dict) -> dict:
    return {(regime, flip, name): h
            for regime, flips in tree.items()
            for flip, names in flips.items()
            for name, h in names.items()}


def test_operator_digest_matches_golden():
    golden_tree = _flat(json.loads(GOLDEN.read_text()))
    fresh = _flat(json.loads(golden.digest_files("operators", golden.operator_lines())[
        "operators.json"]))
    assert sorted(fresh) == sorted(golden_tree)
    assert [k for k in golden_tree if fresh[k] != golden_tree[k]] == []
    assert golden_tree["generic", "none", "What"] == "MissingParameterError"


def test_digest_script_writes_the_digest():
    files = golden.digest_files("operators", {("generic", "none", "E"): ["[1]"],
                                              ("generic", "none", "W"): "MissingParameterError"})
    assert json.loads(files["operators.json"]) == {"generic": {"none": {
        "E": hashlib.sha256(b"[1]").hexdigest(), "W": "MissingParameterError"}}}
    assert files["operators.lines"] == \
        "generic/none/E\t[1]\ngeneric/none/W\tMissingParameterError\n"
    assert golden.main(["diff", "a"]) == 2


def test_digest_sees_storage_not_only_value():
    from qmink.coeff import ONE, Q, T, Scalar
    from qmink.tensor import TMap, U
    v = (Q + ONE) ** -1
    plain = TMap((U,), (U,), [[v, ONE], [ONE, Q]])
    # the same map, with one entry's num and den both multiplied by t + q
    f = (T + Q).num
    restated = TMap((U,), (U,), [[Scalar(v.num * f, v.den * f), ONE], [ONE, Q]])
    assert plain.equals(restated)
    assert golden.operator_line(plain) != golden.operator_line(restated)
