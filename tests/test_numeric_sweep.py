"""scripts/numeric_sweep.py fails on a residual that is not finite."""

import cmath
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


@pytest.mark.parametrize("args", [
    ["0"], ["1"], ["-3"], ["x"], ["2.5"], [""], ["4", "4"],
    [str(numeric_sweep.MAX_PHASES + 1)],
])
def test_sweep_refuses_unusable_arguments(monkeypatch, capsys, args):
    calls = []
    monkeypatch.setattr(numeric_sweep, "numeric_suite",
                        lambda regime, q, t: calls.append(q) or {})
    monkeypatch.setattr(sys, "argv", ["numeric_sweep.py", *args])
    assert numeric_sweep.main() == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"usage: numeric_sweep.py [n_phases]; n_phases is an "
                       f"integer from 2 to {numeric_sweep.MAX_PHASES}\n")
    assert calls == []


def test_sweep_phase_bound_is_the_eval_sample_budget():
    from qmink.cli import MAX_SAMPLES
    assert numeric_sweep.MAX_PHASES * len(numeric_sweep.T_VALUES) == MAX_SAMPLES


@pytest.mark.parametrize("args, n", [([], 12), (["4"], 4), (["2"], 2)])
def test_sweep_samples_the_phase_grid(monkeypatch, capsys, args, n):
    calls = []
    monkeypatch.setattr(numeric_sweep, "numeric_suite",
                        lambda regime, q, t: calls.append((q, t)) or {"c": 0.0})
    monkeypatch.setattr(sys, "argv", ["numeric_sweep.py", *args])
    assert numeric_sweep.main() == 0
    # n phases k*pi/(n + 1), none of them within 0.05 of pi/2 for these n
    want = [(cmath.exp(1j * (cmath.pi * k / (n + 1))), t)
            for k in range(1, n + 1) for t in (0.5, 2.0)]
    assert calls == want
    assert capsys.readouterr().out.endswith(
        f"{len(want)} samples, worst residual 0.000e+00\n")


def test_sweep_accepts_the_largest_phase_count(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(numeric_sweep, "numeric_suite",
                        lambda regime, q, t: calls.append(q) or {"c": 0.0})
    monkeypatch.setattr(sys, "argv", ["numeric_sweep.py", str(numeric_sweep.MAX_PHASES)])
    assert numeric_sweep.main() == 0
    # the phases near pi/2 are skipped
    assert 0 < len(calls) <= 2 * numeric_sweep.MAX_PHASES
