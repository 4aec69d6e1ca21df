"""scripts/numeric_sweep.py fails on a residual that is not finite."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "numeric_sweep", ROOT / "scripts" / "numeric_sweep.py")
numeric_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(numeric_sweep)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_fails_on_a_non_finite_residual(monkeypatch, capsys, bad):
    calls = []

    def fake_suite(regime, q, t):
        calls.append(q)
        # the bad value comes first, then finite ones that max() would keep
        return {"moves/X.X.M": bad if len(calls) == 1 else 1e-15,
                "braid/Rhat+": 0.0}
    monkeypatch.setattr(numeric_sweep, "numeric_suite", fake_suite)
    monkeypatch.setattr(sys, "argv", ["numeric_sweep.py", "2"])
    assert numeric_sweep.main() == 1
    out = capsys.readouterr().out
    assert f"moves/X.X.M  {bad:.3e}" in out
    assert out.rstrip().endswith(f"worst residual {bad:.3e}")


def test_sweep_passes_on_small_residuals(monkeypatch, capsys):
    monkeypatch.setattr(numeric_sweep, "numeric_suite",
                        lambda regime, q, t: {"moves/X.X.M": 1e-15})
    monkeypatch.setattr(sys, "argv", ["numeric_sweep.py", "2"])
    assert numeric_sweep.main() == 0
