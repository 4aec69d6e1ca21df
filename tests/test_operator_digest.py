"""Every named operator stores exactly the committed entries.

``tests/data/operators.json`` holds what ``scripts/operator_digest.py``
writes: per regime, branch flip and operator name, a SHA-256 of the
stored numerator and denominator terms of every entry.  ``Scalar`` has no
canonical form, so a recipe that computes the same map in a different
order can store, and print, an entry differently; this shows up here
even where no report or transcript prints that entry.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "operators.json"

_spec = importlib.util.spec_from_file_location(
    "operator_digest", ROOT / "scripts" / "operator_digest.py")
operator_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(operator_digest)


def _flat(tree: dict) -> dict:
    return {(regime, flip, name): h
            for regime, flips in tree.items()
            for flip, names in flips.items()
            for name, h in names.items()}


def test_operator_digest_matches_golden():
    golden = _flat(json.loads(GOLDEN.read_text()))
    fresh = _flat(operator_digest.digests())
    assert sorted(fresh) == sorted(golden)
    assert [k for k in golden if fresh[k] != golden[k]] == []


def test_digest_script_writes_the_digest(tmp_path, monkeypatch):
    tree = {"generic": {"none": {"E": "abc"}}}
    monkeypatch.setattr(operator_digest, "digests", lambda: tree)
    out = tmp_path / "ops.json"
    assert operator_digest.main([str(out)]) == 0
    assert json.loads(out.read_text()) == tree
    assert operator_digest.main([]) == 2


def test_digest_sees_storage_not_only_value():
    from qmink.coeff import ONE, Q, T, Scalar
    from qmink.tensor import TMap, U
    v = (Q + ONE) ** -1
    plain = TMap((U,), (U,), [[v, ONE], [ONE, Q]])
    # the same map, with one entry's num and den both multiplied by t + q
    f = (T + Q).num
    restated = TMap((U,), (U,), [[Scalar(v.num * f, v.den * f), ONE], [ONE, Q]])
    assert plain.equals(restated)
    assert operator_digest.digest(plain) != operator_digest.digest(restated)
