"""The five-regime reports equal the committed golden reports.

``tests/data/reports/<regime>.json`` holds what ``scripts/run_all.py``
writes, with every ``elapsed_ms`` stripped.  Every residual and detail
string is pinned, so a change to the scalar core that alters how a value
is stored or printed shows up here, not only a change of status.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from qmink.cli import _report_json, run_suites
from qmink.coeff import ALL_REGIMES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "reports"
FILE_NAMES = {"case2+": "case2-plus", "case2-": "case2-minus"}

_spec = importlib.util.spec_from_file_location(
    "compare_reports", ROOT / "scripts" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_reports_match_golden(regime):
    payload = _report_json(regime, run_suites(regime, "all"))
    fresh = compare_reports.strip_timing(json.loads(json.dumps(payload)))
    path = GOLDEN / f"{FILE_NAMES.get(regime.label, regime.label)}.json"
    golden = json.loads(path.read_text())
    assert compare_reports.diff_reports(golden, fresh) == []


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.label)
def test_every_check_is_timed(regime):
    # a report's time covers building what its verdict judges, so only a
    # skip report, which judges nothing, may carry no time
    untimed = [r.check_id for r in run_suites(regime, "all")
               if r.status != "skip" and not r.elapsed_ms > 0]
    assert untimed == []


def _write(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload))
    return path


def test_compare_reports_ignores_only_timing(tmp_path, capsys):
    check = {"check_id": "a", "status": "pass", "elapsed_ms": 1.0}
    base = {"regime": "generic", "checks": [check]}
    slower = {"regime": "generic", "checks": [dict(check, elapsed_ms=9.5)]}
    a = _write(tmp_path / "a.json", base)
    assert compare_reports.main([str(a), str(_write(tmp_path / "b.json", slower))]) == 0

    changed = {"regime": "generic",
               "checks": [dict(check, residual="entry[0][1] = q")]}
    assert compare_reports.main([str(a), str(_write(tmp_path / "c.json", changed))]) == 1
    assert "[a]/residual: only in B" in capsys.readouterr().out

    extra = {"regime": "generic", "checks": [check, dict(check, check_id="b")]}
    assert compare_reports.main([str(a), str(_write(tmp_path / "d.json", extra))]) == 1
    assert "1 items in A, 2 in B" in capsys.readouterr().out


def test_compare_reports_directories(tmp_path, capsys):
    for name in ("x", "y"):
        (tmp_path / name).mkdir()
        _write(tmp_path / name / "generic.json", {"status": "pass", "elapsed_ms": 2})
    assert compare_reports.main([str(tmp_path / "x"), str(tmp_path / "y")]) == 0
    _write(tmp_path / "y" / "real-q.json", {})
    assert compare_reports.main([str(tmp_path / "x"), str(tmp_path / "y")]) == 1
    assert "real-q.json: only in B" in capsys.readouterr().out
    assert compare_reports.main([str(tmp_path / "x"), str(tmp_path / "missing")]) == 2
    assert "missing is not a directory" in capsys.readouterr().err
    report = tmp_path / "x" / "generic.json"
    assert compare_reports.main([str(report), str(tmp_path / "y")]) == 2
    assert f"{report} is not a directory, but {tmp_path / 'y'} is" in capsys.readouterr().err
    # two directories with no report compare nothing: an error, not a pass
    for name in ("empty", "empty2"):
        (tmp_path / name).mkdir()
    assert compare_reports.main([str(tmp_path / "x"), str(tmp_path / "empty")]) == 2
    assert f"{tmp_path / 'empty'} holds no *.json report" in capsys.readouterr().err
    assert compare_reports.main([str(tmp_path / "empty"), str(tmp_path / "empty2")]) == 2
    assert f"{tmp_path / 'empty'} holds no *.json report" in capsys.readouterr().err
