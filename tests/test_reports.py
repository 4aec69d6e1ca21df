"""The five-regime reports equal the committed golden reports.

``tests/data/reports/<regime>.json`` holds what ``scripts/golden.py write``
writes there, with every ``elapsed_ms`` stripped.  Every residual and
detail string is pinned, so a change to the scalar core that alters how a
value is stored or printed shows up here, not only a change of status.
"""

import json
from pathlib import Path

import golden
import pytest

from qmink.cli import _report_json, run_suites
from qmink.coeff import ALL_REGIMES

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_reports_match_golden(regime):
    fresh = golden.json_text(_report_json(regime, run_suites(regime, "all")))
    path = DATA / "reports" / f"{golden.FILE_NAMES.get(regime.label, regime.label)}.json"
    assert golden.diff_reports(json.loads(path.read_text()), json.loads(fresh)) == []
    assert fresh == path.read_text()


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_every_check_is_timed(regime):
    # a report's time covers building what its verdict judges, so only a
    # skip report, which judges nothing, may carry no time
    untimed = [r.check_id for r in run_suites(regime, "all")
               if r.status != "skip" and not r.elapsed_ms > 0]
    assert untimed == []


def test_compare_reports_ignores_only_timing():
    check = {"check_id": "a", "status": "pass", "elapsed_ms": 1.0}
    base = {"regime": "generic", "checks": [check]}
    slower = {"regime": "generic", "checks": [dict(check, elapsed_ms=9.5)]}
    assert golden.json_text(base) == golden.json_text(slower)
    a = golden.strip_timing(base)

    changed = {"regime": "generic", "checks": [dict(check, residual="entry[0][1] = q")]}
    assert golden.diff_reports(a, golden.strip_timing(changed)) == \
        ["/checks[a]/residual: only in B"]
    extra = {"regime": "generic", "checks": [check, dict(check, check_id="b")]}
    assert golden.diff_reports(a, golden.strip_timing(extra)) == ["/checks[b]: only in B"]


def _write(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(golden.json_text(payload))
    return path


def test_compare_reports_directories(tmp_path, capsys):
    for name in ("x", "y"):
        _write(tmp_path / name / "reports" / "generic.json", {"status": "pass"})
    assert golden.main(["diff", str(tmp_path / "x"), str(tmp_path / "y")]) == 0
    _write(tmp_path / "y" / "reports" / "real-q.json", {})
    assert golden.main(["diff", str(tmp_path / "x"), str(tmp_path / "y")]) == 1
    assert "reports/real-q.json: only in B" in capsys.readouterr().out
    assert golden.main(["diff", str(tmp_path / "x"), str(tmp_path / "missing")]) == 2
    assert f"cannot read {tmp_path / 'missing'}: " in capsys.readouterr().err
    report = tmp_path / "x" / "reports" / "generic.json"
    assert golden.main(["diff", str(report), str(tmp_path / "y")]) == 2
    assert f"cannot read {report}: " in capsys.readouterr().err
    # two trees with no artifact compare nothing: an error, not a pass
    for name in ("empty", "empty2"):
        (tmp_path / name).mkdir()
    assert golden.main(["diff", str(tmp_path / "x"), str(tmp_path / "empty")]) == 2
    assert f"cannot read {tmp_path / 'empty'}: no golden artifact" in capsys.readouterr().err
    assert golden.main(["diff", str(tmp_path / "empty"), str(tmp_path / "empty2")]) == 2
    assert f"cannot read {tmp_path / 'empty'}: no golden artifact" in capsys.readouterr().err
